"""Tests for the pi-distance machinery."""

import math

import numpy as np
import pytest

from sqpeg.curve import PolyCurve
from sqpeg.generators import make_circle, make_ellipse, make_regular_polygon, make_unit_square
from sqpeg.pidist import (
    PiDistanceResult,
    pi_distance,
    scan_windows,
    sidelength_bound_report,
    verify_quad_arc_curvature,
)


def brute_force_pi_scan(curve, cap, step):
    """Independent endpoint-pair oracle on the global step grid."""
    L = curve.length
    grid = np.arange(0.0, L, step)
    windows = []
    for a in grid:
        pa = curve.point_at(a)
        for b in grid:
            arclen = (b - a) % L if curve.closed else b - a
            if arclen <= 0.0 or arclen > cap:
                continue
            if curve.subarc_curvature(a, b) >= math.pi - 1e-12:
                chord = float(np.linalg.norm(pa - curve.point_at(b)))
                windows.append((a, b, chord))
    return windows


# ---------------------------------------------------------------------------
# scan_windows
# ---------------------------------------------------------------------------

def test_scan_windows_straight_polyline_empty():
    straight = PolyCurve([[0, 0], [1, 0], [2, 0], [3, 0]], closed=False)
    assert scan_windows(straight, cap=3.0, step=0.01) == []


def test_scan_windows_square():
    sq = make_unit_square()
    windows = scan_windows(sq, cap=2.0, step=0.01)
    assert len(windows) == 4
    for w in windows:
        assert w.kappa >= math.pi - 1e-12
        assert w.arclen <= 2.0 + 0.01
        assert math.isclose(w.chord, 1.0, abs_tol=1e-9)


def test_scan_windows_circle_semicircle_chord():
    c = make_circle(1.0, 360)
    L = c.length
    windows = scan_windows(c, cap=L / 2, step=L / 720)
    assert windows
    for w in windows:
        assert w.kappa >= math.pi - 1e-12
        assert abs(w.chord - 2.0) < 0.02
        assert abs(w.arclen - L / 2) < 3 * L / 360


def test_window_invariants():
    for curve in (make_unit_square(), make_circle(1.0, 120), make_ellipse(2, 1, 128)):
        cap = curve.length / 2
        for w in scan_windows(curve, cap=cap, step=curve.length / 256):
            assert w.kappa >= math.pi - 1e-12
            assert w.arclen <= cap + curve.length / 256
            assert w.chord <= w.arclen + 1e-12


# ---------------------------------------------------------------------------
# pi_distance
# ---------------------------------------------------------------------------

def test_literal_mode_degenerates_on_closed_curves():
    for curve in (make_unit_square(), make_circle(1.0, 90), make_ellipse(2, 1, 64)):
        step = curve.length / 720
        res = pi_distance(curve, mode="literal", step=step)
        assert res.value is not None
        assert res.value <= 2 * step
        assert res.witness.arclen >= curve.length - 3 * step


def test_capped_circle_diameter():
    c = make_circle(1.0, 360)
    res = pi_distance(c, mode="capped", cap=c.length / 2, step=c.length / 720)
    assert abs(res.value - 2.0) < 0.02
    assert res.witness.kappa >= math.pi - 1e-12


def test_open_low_curvature_unbounded():
    t = np.linspace(0.0, math.pi / 2, 90)
    arc = PolyCurve(np.column_stack([np.cos(t), np.sin(t)]), closed=False)
    res = pi_distance(arc, mode="literal", step=0.01)
    assert res.unbounded
    assert res.witness is None
    assert res.to_json_dict()["value"] == "unbounded"


def test_pi_distance_dominates_brute_scan():
    # oracle dominance on small curves at the same step, both modes
    for curve in (make_unit_square(), make_circle(1.0, 48), make_ellipse(2, 1, 64)):
        L = curve.length
        step = L / 128
        for mode, cap in (("capped", L / 2), ("literal", None)):
            ours = pi_distance(curve, mode=mode, cap=cap, step=step)
            brute_cap = cap if mode == "capped" else L - step
            brute = brute_force_pi_scan(curve, brute_cap, step)
            if not brute:
                assert ours.unbounded
                continue
            min_brute = min(ch for _, _, ch in brute)
            assert ours.value <= min_brute + 1e-12


def test_capped_monotone_in_cap():
    curve = make_ellipse(2, 1, 96)
    L = curve.length
    step = L / 256
    caps = [L / 4, L / 3, L / 2, 0.7 * L, L]
    values = []
    for cap in caps:
        res = pi_distance(curve, mode="capped", cap=cap, step=step)
        values.append(math.inf if res.value is None else res.value)
    assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))


def test_step_grid_bounded_per_edge():
    sq = make_unit_square()
    for call in (lambda: pi_distance(sq, mode="literal", step=1e-6),
                 lambda: pi_distance(sq, mode="capped", step=1e-6),
                 lambda: scan_windows(sq, cap=2.0, step=1e-6)):
        with pytest.raises(ValueError, match="at most 2048 are allowed"):
            call()
    # the heptagon at L/11520 puts about 1650 samples on each edge; the
    # tiny cap leaves no feasible run, so no grid is built
    hept = make_regular_polygon(7)
    assert scan_windows(hept, cap=1e-3, step=hept.length / 11520) == []


def test_pi_distance_deterministic():
    c = make_ellipse(2, 1, 128)
    r1 = pi_distance(c, mode="capped")
    r2 = pi_distance(c, mode="capped")
    assert r1 == r2


# ---------------------------------------------------------------------------
# arc-curvature verification
# ---------------------------------------------------------------------------

def test_arc_curvature_square_in_circle():
    c = make_circle(1.0, 360)
    L = c.length
    params = np.array([0.1, 0.1 + L / 4, 0.1 + L / 2, 0.1 + 3 * L / 4])
    assert verify_quad_arc_curvature(c, params, 1e-6)
    # the three-quarter arc carries about 3*pi/2
    assert math.isclose(c.subarc_curvature(0.1, 0.1 + 3 * L / 4), 1.5 * math.pi, rel_tol=1e-2)


def test_arc_curvature_corner_inscribed_square():
    sq = make_unit_square()
    assert verify_quad_arc_curvature(sq, [0.0, 1.0, 2.0, 3.0], 1e-6)


def test_arc_curvature_straight_edge_quad_fails():
    sq = make_unit_square()
    assert not verify_quad_arc_curvature(sq, [0.1, 0.2, 0.3, 0.35], 1e-6)


def test_arc_curvature_rejects_unordered_params():
    sq = make_unit_square()
    with pytest.raises(ValueError, match="cyclically ordered"):
        verify_quad_arc_curvature(sq, [0.1, 0.1, 0.3, 0.5], 1e-6)
    chain = PolyCurve([[0, 0], [1, 0], [1, 1], [0, 1]], closed=False)
    with pytest.raises(ValueError, match="cyclically ordered"):
        verify_quad_arc_curvature(chain, [0.5, 0.4, 0.8, 1.0], 1e-6)


# ---------------------------------------------------------------------------
# side-length bound report
# ---------------------------------------------------------------------------

class _FakeSolution:
    def __init__(self, sides):
        self.sides = np.asarray(sides, float)


def test_bound_report_capped_circle_violation_is_flagged():
    c = make_circle(1.0, 360)
    pid = pi_distance(c, mode="capped", cap=c.length / 2, step=c.length / 720)
    sols = [_FakeSolution([math.sqrt(2)] * 4)]
    rep = sidelength_bound_report(c, sols, pid)
    assert not rep["entries"][0]["holds"]
    assert "diagnostic" in rep["note"]
    assert "not a valid lower bound" in rep["note"]


def test_bound_report_literal_closed_vacuous():
    e = make_ellipse(2, 1, 64)
    pid = pi_distance(e, mode="literal", step=e.length / 720)
    rep = sidelength_bound_report(e, [_FakeSolution([1.7] * 4)], pid)
    assert rep["all_hold"]
    assert "degenerate" in rep["note"]


def test_bound_report_unbounded_all_hold():
    t = np.linspace(0.0, math.pi / 2, 30)
    arc = PolyCurve(np.column_stack([np.cos(t), np.sin(t)]), closed=False)
    pid = pi_distance(arc, mode="literal", step=0.05)
    rep = sidelength_bound_report(arc, [_FakeSolution([0.01] * 4)], pid)
    assert rep["all_hold"]
    assert pid.unbounded
