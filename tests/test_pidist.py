"""Tests for the pi-distance machinery."""

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from hypothesis import example, given
from hypothesis import strategies as st

from helpers import random_rotation, random_star_polygon
from sqpeg import pidist
from sqpeg.approx import inscribe_polygon
from sqpeg.curve import PolyCurve, _ragged
from sqpeg.generators import (
    make_circle,
    make_ellipse,
    make_fourier_curve,
    make_random_jordan,
    make_regular_polygon,
    make_star_polygon,
    make_trefoil,
    make_unit_square,
)
from sqpeg.pidist import (
    _PI_SLACK,
    CurvatureWindow,
    PiDistanceResult,
    _enumerate_best,
    _RunScanner,
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


def _step_grid(lo, hi, step, include_lo, include_hi):
    """Global multiples of step inside (lo, hi), plus requested endpoints."""
    first = math.floor(lo / step) + 1
    last = math.floor(hi / step)
    vals = np.arange(first, last + 1, dtype=float) * step
    vals = vals[(vals > lo) & (vals < hi)]
    parts = [vals]
    if include_lo:
        parts.insert(0, np.array([lo]))
    if include_hi:
        parts.append(np.array([hi]))
    return np.concatenate(parts)


def sampled_run_min(scanner, i, k, cap, step):
    """The step-grid scan the closed form replaced: minimum chord over the
    grid points of run (i, k)'s boundary edges within the cap, inf if none."""
    a_lo, a_hi, va0, va1 = scanner.a_edge(i)
    b_lo, b_hi, vb0, vb1 = scanner.b_edge(k)
    a_grid = _step_grid(a_lo, a_hi, step, include_lo=True, include_hi=False)
    b_grid = _step_grid(b_lo, b_hi, step, include_lo=False, include_hi=True)
    ok = b_grid[None, :] - a_grid[:, None] <= cap
    pa = va0 + ((a_grid - a_lo) / (a_hi - a_lo))[:, None] * (va1 - va0)
    pb = vb0 + ((b_grid - b_lo) / (b_hi - b_lo))[:, None] * (vb1 - vb0)
    chords = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(np.min(chords, initial=np.inf, where=ok))


def _runs(scanner, cap):
    """(i, k_lo, k_hi) for every corner with a run that reaches pi."""
    corners = np.arange(scanner.n)
    k_lo = scanner.k_first(corners)
    k_hi = scanner.k_last_under_cap(corners, cap)
    return [(i, k_lo[i], k_hi[i]) for i in corners if 0 <= k_lo[i] <= k_hi[i]]


_DIFFERENTIAL_CURVES = {
    "square": make_unit_square(),
    "heptagon": make_regular_polygon(7),
    "star5": make_star_polygon(5),
    "fourier3d": make_fourier_curve([[1, 0, 0.2], [0, 0.3, 0], [0, 0, 0.4]],
                                    [[0, 0.3, 0], [1, 0, 0.2], [0, 0.5, 0]], samples=40),
    "jordan1": make_random_jordan(24, seed=1),
    "jordan2": make_random_jordan(32, seed=2, amplitude=1.0, harmonics=6),
    "chain": PolyCurve([[0, 0], [1, 0], [1, 1], [0.2, 1.1], [0.1, 0.3], [0.6, 0.4]], closed=False),
}


@pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_CURVES))
def test_closed_form_run_minimum_against_sampled_scan(name):
    curve = _DIFFERENTIAL_CURVES[name]
    L = curve.length
    scanner = _RunScanner(curve)
    rng = np.random.default_rng(5)
    checked = 0
    for step in (L / 97, L / 256, L / 601):
        for cap in (L / 2, L / 3, (L - step) if curve.closed else L):
            for i, k_lo, k_hi in _runs(scanner, cap):
                ks = slice(k_lo, k_hi + 1)
                exact, a_raw, b_raw = scanner.chord_min(i, ks, cap)
                # the minimizer is feasible and its chord is the one reported
                a_lo, a_hi, va0, va1 = scanner.a_edge(i)
                b_lo, b_hi, vb0, vb1 = scanner.b_edge(ks)
                fin = exact < math.inf
                assert np.all(b_raw[fin] - a_raw[fin] <= cap + 1e-12 * L)
                assert np.all((a_lo <= a_raw) & (a_raw <= a_hi))
                assert np.all((b_lo <= b_raw) & (b_raw <= b_hi))
                pa = va0 + ((a_raw - a_lo) / (a_hi - a_lo))[:, None] * (va1 - va0)
                pb = vb0 + ((b_raw - b_lo) / (b_hi - b_lo))[:, None] * (vb1 - vb0)
                assert np.allclose(np.linalg.norm(pa - pb, axis=1)[fin], exact[fin],
                                   rtol=0.0, atol=1e-12 * L)
                for j, k in enumerate(range(k_lo, k_hi + 1)):
                    b_lo, b_hi, vb0, vb1 = scanner.b_edge(k)
                    assert (exact[j] == math.inf) == (b_lo - a_hi > cap)
                    sampled = sampled_run_min(scanner, i, k, cap, step)
                    if sampled == math.inf:
                        # the grid misses a run only when its feasible set is
                        # a sliver: the last a-sample and the first b-sample
                        # each lie within a step of the edge's inner end
                        assert cap - (b_lo - a_hi) < 2 * step
                        continue
                    # both sides evaluate the same chord in different roundings
                    assert -1e-12 <= sampled - exact[j] <= 2 * step + 1e-12, (i, k, step, cap)
                    # no feasible point of a dense random sample beats it
                    s, t = rng.uniform(0.0, 1.0, (2, 400))
                    ok = (b_lo + t * (b_hi - b_lo)) - (a_lo + s * (a_hi - a_lo)) <= cap
                    gap = (va0 + s[ok, None] * (va1 - va0)) - (vb0 + t[ok, None] * (vb1 - vb0))
                    assert np.all(np.linalg.norm(gap, axis=1) >= exact[j])
                    checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# scan_windows
# ---------------------------------------------------------------------------

def test_scan_windows_straight_polyline_empty():
    straight = PolyCurve([[0, 0], [1, 0], [2, 0], [3, 0]], closed=False)
    assert scan_windows(straight, cap=3.0) == []


def test_scan_windows_square():
    sq = make_unit_square()
    windows = scan_windows(sq, cap=2.0)
    assert len(windows) == 4
    for w in windows:
        assert w.kappa >= math.pi - 1e-12
        assert w.arclen <= 2.0 + 0.01
        assert math.isclose(w.chord, 1.0, abs_tol=1e-9)


def test_scan_windows_circle_semicircle_chord():
    c = make_circle(1.0, 360)
    L = c.length
    windows = scan_windows(c, cap=L / 2)
    assert windows
    for w in windows:
        assert w.kappa >= math.pi - 1e-12
        assert abs(w.chord - 2.0) < 0.02
        assert abs(w.arclen - L / 2) < 3 * L / 360


def test_scan_windows_cap_defaults_to_half_the_length():
    c = make_ellipse(2, 1, 128)
    assert scan_windows(c) == scan_windows(c, cap=c.length / 2)
    assert pi_distance(c).cap == c.length / 2


def test_window_invariants():
    for curve in (make_unit_square(), make_circle(1.0, 120), make_ellipse(2, 1, 128)):
        cap = curve.length / 2
        for w in scan_windows(curve, cap=cap):
            assert w.kappa >= math.pi - 1e-12
            assert w.arclen <= cap + curve.length / 256
            assert w.chord <= w.arclen + 1e-12


@pytest.mark.parametrize("n, seed", [(1024, 7), (2048, 8)])
def test_corner_windows_stay_within_the_cap(n, seed):
    # these curves have windows whose optimum lies on the cap line with one
    # endpoint on a boundary corner; moving that endpoint inward must slide
    # the window, not stretch it past the cap
    curve = make_random_jordan(n, seed=seed)
    L = curve.length
    cap = L / 2
    windows = scan_windows(curve, cap)
    windows.append(pi_distance(curve, "capped", cap=cap).witness)
    for w in windows:
        assert w.arclen - cap <= 1e-15 * L
        assert w.kappa >= math.pi - _PI_SLACK


@pytest.mark.parametrize("reverse", [False, True])
def test_corner_window_slide_stays_on_the_run(reverse):
    # corners of 60 and 120 degrees joined by a unit edge, the cap 1e-13 over
    # it: the optimum puts one endpoint on its corner and the other 1e-13 past
    # its own, far less than 1e-9 of an edge, so the slide must stop short of
    # pushing that endpoint off its edge (reversal swaps the two roles)
    verts = np.array([(-2.0, 0.0), (0.0, 0.0), (0.5, math.sqrt(3) / 2), (-3.0, math.sqrt(3) / 2)])
    curve = PolyCurve(verts[::-1] if reverse else verts, closed=True)
    cap = float(np.linalg.norm(verts[2] - verts[1])) + 1e-13
    windows = scan_windows(curve, cap)
    assert len(windows) == 1
    windows.append(pi_distance(curve, "capped", cap=cap).witness)
    for w in windows:
        assert w.arclen <= cap
        assert w.kappa >= math.pi - _PI_SLACK


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
                 lambda: pi_distance(sq, mode="capped", step=1e-6)):
        with pytest.raises(ValueError, match="at most 2048 are allowed"):
            call()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_cap_and_step_must_be_finite_and_positive(value):
    sq = make_unit_square()
    for name, call in (("cap", lambda: pi_distance(sq, mode="capped", cap=value)),
                       ("step", lambda: pi_distance(sq, mode="literal", step=value)),
                       ("step", lambda: pi_distance(sq, mode="capped", step=value)),
                       ("cap", lambda: scan_windows(sq, cap=value))):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            call()


@pytest.mark.parametrize("scale", [1e80, 1e150])
def test_pi_distance_at_large_coordinates(scale):
    # a RuntimeWarning is an error in this suite
    square = make_unit_square()
    big = PolyCurve(square.vertices * scale, closed=True)
    for mode in ("literal", "capped"):
        value = pi_distance(big, mode).value
        assert math.isclose(value / scale, pi_distance(square, mode).value, rel_tol=1e-12)


def test_pi_distance_deterministic():
    c = make_ellipse(2, 1, 128)
    r1 = pi_distance(c, mode="capped")
    r2 = pi_distance(c, mode="capped")
    assert r1 == r2


# ---------------------------------------------------------------------------
# the pruned scan against the per-corner scan it replaced
# ---------------------------------------------------------------------------

def reference_enumerate_best(curve, effective_cap):
    """Every run of every corner, one chord_min call per corner; ties go to
    the smaller normalized a, then b, then the earlier corner."""
    scanner = _RunScanner(curve)
    corners = np.arange(scanner.n)
    k_lo = scanner.k_first(corners)
    k_hi = scanner.k_last_under_cap(corners, effective_cap)
    best_key = None
    best = None  # (a_raw, b_raw, i, k)
    for i in np.nonzero((k_lo >= 0) & (k_hi >= k_lo))[0]:
        chord, a_raw, b_raw = scanner.chord_min(i, slice(k_lo[i], k_hi[i] + 1), effective_cap)
        tie = np.flatnonzero(chord == np.min(chord))
        a_n = a_raw[tie] % scanner.L if scanner.closed else a_raw[tie]
        b_n = b_raw[tie] % scanner.L if scanner.closed else b_raw[tie]
        j = int(np.lexsort((b_n, a_n))[0])
        key = (float(chord[tie[j]]), float(a_n[j]), float(b_n[j]))
        if best_key is None or key < best_key:
            best_key = key
            best = (a_raw[tie[j]], b_raw[tie[j]], i, k_lo[i] + tie[j])
    if best is None:
        return None
    a_raw, b_raw, i, k = (np.array([x]) for x in best)
    return scanner.finalize(a_raw, b_raw, i, k, effective_cap)[0]


def _effective_caps(curve):
    """The scan limits pi_distance derives at steps L/720 and L/11520 from
    the caps L/2, 0.3L, 3L/4 and L - step, and from literal mode."""
    L = curve.length
    caps = set()
    for step in (L / 720, L / 11520):
        top = L - step if curve.closed else L
        caps.update(min(c, top) for c in (L / 2, 0.3 * L, 0.75 * L, L - step, top))
    return sorted(caps)


def _check_against_reference(curve, monkeypatch):
    L = curve.length
    for cap in _effective_caps(curve):
        ref = reference_enumerate_best(curve, cap)
        # the pruned scan alone, then the default: small run sets evaluated whole
        for direct in (0, pidist._DIRECT_RUNS):
            with monkeypatch.context() as m:
                m.setattr(pidist, "_DIRECT_RUNS", direct)
                ours = _enumerate_best(curve, cap)
            assert (ours is None) == (ref is None), cap
            if ours is None:
                continue
            assert abs(ours.chord - ref.chord) <= 1e-12 * L, (cap, ours, ref)
            assert ours.kappa >= math.pi - _PI_SLACK
            assert ours.arclen <= cap + 1e-12 * L
            # both evaluate each run with the same row arithmetic, so even the
            # ties of the regular polygons and the near-zero chords of the
            # self-crossing ones go to the same run
            assert ours == ref, (cap, direct)


def _sweep_curves():
    rng = np.random.default_rng(23)
    curves = {f"jordan{n}_{seed}": make_random_jordan(n, seed=seed)
              for seed, n in enumerate(range(64, 505, 40))}
    curves.update({f"{n}-gon": make_regular_polygon(n) for n in (*range(3, 13), 60)})
    curves.update({f"star{p}": make_star_polygon(p, 1.0, r)
                   for p, r in ((5, 0.5), (7, 0.3), (12, 0.8))})
    for j in range(4):
        n = int(rng.integers(6, 40))
        curves[f"chain3d_{j}"] = PolyCurve(rng.normal(size=(n, 3)), closed=False)
        curves[f"crossing_{j}"] = PolyCurve(rng.normal(size=(n, 2)), closed=True)
    return curves


_SWEEP = _sweep_curves()


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_pruned_scan_matches_per_corner_scan(name, monkeypatch):
    _check_against_reference(_SWEEP[name], monkeypatch)


def test_pruned_scan_matches_per_corner_scan_on_the_corpus(corpus, monkeypatch):
    for curve in corpus.values():
        _check_against_reference(curve, monkeypatch)


def _measure_curves():
    """The curves of the benchmark's measure workload at its seed 0."""
    return {
        "jordan1024": make_random_jordan(1024, seed=7),
        "jordan2048": make_random_jordan(2048, seed=8),
        "fourier3d": make_fourier_curve([[1, 0, 0.2], [0, 0.3, 0], [0, 0, 0.4]],
                                        [[0, 0.3, 0], [1, 0, 0.2], [0, 0.5, 0]], samples=1024),
        "heptagon": make_regular_polygon(7),
        "star7": make_star_polygon(7),
        "gon32": inscribe_polygon(make_random_jordan(256, seed=11, amplitude=1.0, harmonics=6),
                                  32),
    }


def test_pruned_scan_same_witness_on_the_measure_curves(monkeypatch):
    for name, curve in _measure_curves().items():
        L = curve.length
        for cap in (L / 2, L - L / 11520):
            ref = reference_enumerate_best(curve, cap)
            for direct in (0, pidist._DIRECT_RUNS):
                with monkeypatch.context() as m:
                    m.setattr(pidist, "_DIRECT_RUNS", direct)
                    assert _enumerate_best(curve, cap) == ref, (name, direct)


def test_adjacent_bound_never_exceeds_the_chord():
    # the measure curves at their fine step, a square with a straight vertex
    # mid-edge (where the bound is tight), and self-crossing and space polygons
    rng = np.random.default_rng(29)
    curves = dict(_measure_curves())
    curves["square8"] = PolyCurve([[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1],
                                   [0, 1], [0, 0.5]], closed=True)
    for j in range(4):
        curves[f"crossing_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(3, 40)), 2)), True)
        curves[f"space_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(3, 40)), 3)), True)
    for name, curve in curves.items():
        scanner = _RunScanner(curve)
        L = curve.length
        i = np.arange(scanner.n)
        for cap in (L - L / 11520, L - L / 720, 0.75 * L):
            chord, _, _ = scanner.chord_min(i, i + scanner.n - 2, cap)
            bound = scanner.adjacent_bound(i, cap)
            # the slack is the one the pruned scan adds to its bar
            assert np.all(bound <= chord + 1e-12 * L), (name, cap)
            # run_bound on the runs the bounded first stage takes: each
            # corner's first and last run, and the single-edge run
            live = scanner.k_lo >= 0
            k_hi = scanner.k_last_under_cap(i, cap)
            for k in (scanner.k_lo, k_hi, i + scanner.n - 1, i + scanner.n - 2):
                chord, _, _ = scanner.chord_min(i[live], k[live], cap)
                bound = scanner.run_bound(i[live], k[live], cap)
                assert np.all(bound <= chord + 1e-12 * L), (name, cap)


# ---------------------------------------------------------------------------
# the three-level pruned scan against the row-level scan it replaced
# ---------------------------------------------------------------------------

_REF_CHUNK = 32


def _ref_enumerate_best(curve, effective_cap):
    """The row-level scan: each live a-edge against balls around chunks of
    _REF_CHUNK b-edges, then per run; ties go to the earliest (i, k)."""
    scanner = _RunScanner(curve)
    i = np.arange(scanner.n)
    k_lo = scanner.k_first(i)
    k_hi = scanner.k_last_under_cap(i, effective_cap)
    live = (k_lo >= 0) & (k_hi >= k_lo)
    if not np.any(live):
        return None
    i, k_lo, k_hi = i[live], k_lo[live], k_hi[live]
    slack = 1e-12 * scanner.L
    limit = min(np.min(scanner.chord_min(i, k, effective_cap)[0]) for k in (k_lo, k_hi)) + slack

    a_lo, a_hi, va0, va1 = scanner.a_edge(i)
    a_mid, a_half = 0.5 * (va0 + va1), 0.5 * (a_hi - a_lo)
    b_lo, b_hi, vb0, vb1 = scanner.b_edge(slice(None))
    b_mid, b_half = 0.5 * (vb0 + vb1), 0.5 * (b_hi - b_lo)
    heads = np.arange(0, len(b_lo), _REF_CHUNK)
    center = 0.5 * (np.maximum.reduceat(b_mid, heads) + np.minimum.reduceat(b_mid, heads))
    radius = np.maximum.reduceat(
        np.linalg.norm(b_mid - center[np.arange(len(b_lo)) // _REF_CHUNK], axis=1) + b_half, heads)

    def near(r, mid, reach):
        return np.linalg.norm(a_mid[r] - mid, axis=1) - a_half[r] - reach <= limit

    def first(runs):
        a_n, b_n = np.mod(runs[1:3], scanner.L) if scanner.closed else runs[1:3]
        return np.lexsort((b_n, a_n, runs[0]))[:1]

    winners = []
    chunk_lo, chunk_hi = k_lo // _REF_CHUNK, k_hi // _REF_CHUNK
    for r, c in _ragged(chunk_lo, chunk_hi - chunk_lo + 1):
        keep = near(r, center[c], radius[c])
        r, c = r[keep], c[keep]
        start = np.maximum(c * _REF_CHUNK, k_lo[r])
        for q, k in _ragged(start, np.minimum(c * _REF_CHUNK + _REF_CHUNK - 1, k_hi[r]) - start + 1):
            keep = near(r[q], b_mid[k], b_half[k])
            ik = (i[r[q][keep]], k[keep])
            runs = np.stack((*scanner.chord_min(*ik, effective_cap), *ik))
            winners.append(runs[:, first(runs)])
            limit = min(limit, np.min(runs[0], initial=np.inf) + slack)
    runs = np.concatenate(winners, axis=1)
    _, a_raw, b_raw, wi, wk = runs[:, first(runs)]
    return scanner.finalize(a_raw, b_raw, wi.astype(int), wk.astype(int), effective_cap)[0]


def _three_level_curves():
    """37 closed curves (the corpus shapes, stars, regular polygons, whose
    runs tie in chord, seeded random Jordan curves, and self-crossing and
    spatial polygons) and 13 open ones."""
    rng = np.random.default_rng(41)
    curves = {
        "square": make_unit_square(),
        "circle360": make_circle(1.0, 360),
        "ellipse512": make_ellipse(2.0, 1.0, 512),
        "trefoil512": make_trefoil(512),
        "jordan11": make_random_jordan(256, seed=11, amplitude=1.0, harmonics=6),
        "triangle345": PolyCurve([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]], closed=True),
        "jordan42_64": make_random_jordan(64, seed=42),
    }
    curves.update({f"star{p}_{r}": make_star_polygon(p, 1.0, r)
                   for p, r in ((5, 0.5), (7, 0.5), (12, 0.8), (9, 0.2), (64, 0.1))})
    curves.update({f"{n}-gon": make_regular_polygon(n) for n in (3, 5, 6, 7, 8, 12, 60)})
    curves.update({f"jordan{n}_{seed}": make_random_jordan(n, seed=seed)
                   for seed, n in zip(range(100, 110),
                                      (16, 24, 32, 48, 64, 100, 128, 256, 512, 1024))})
    for j in range(4):
        curves[f"crossing_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(6, 40)), 2)), True)
        curves[f"space_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(6, 40)), 3)), True)
    for j in range(4):
        curves[f"chain2d_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(6, 40)), 2)), False)
        curves[f"chain3d_{j}"] = PolyCurve(rng.normal(size=(int(rng.integers(6, 40)), 3)), False)
    for n in (64, 200, 512):
        curves[f"arc{n}"] = PolyCurve(make_random_jordan(1024, seed=n).vertices[:n], closed=False)
    curves["trefoil_arc"] = PolyCurve(make_trefoil(512).vertices[:300], closed=False)
    curves["spiral"] = PolyCurve([[t * math.cos(t), t * math.sin(t)]
                                  for t in np.linspace(1.0, 20.0, 400)], closed=False)
    return curves


_THREE_LEVEL = _three_level_curves()


@pytest.mark.parametrize("chunk", [32, 3, 7])
@pytest.mark.parametrize("name", sorted(_THREE_LEVEL))
def test_three_level_scan_matches_the_row_level_scan(name, chunk, monkeypatch):
    # at chunks of 3 and 7 the a-chunks, b-chunks and blocks all cross, so
    # the blocks come in another order and only the tie key keeps the witness
    curve = _THREE_LEVEL[name]
    L = curve.length
    calls = [("literal", None, None), ("literal", None, L / 2048)]
    calls += [("capped", cap, None) for cap in (L / 2, 0.75 * L, L - L / 720, L / 5)]
    monkeypatch.setattr(pidist, "_CHUNK", chunk)
    monkeypatch.setattr(pidist, "_DIRECT_RUNS", 0)  # no run set is evaluated whole
    for mode, cap, step in calls:
        ours = pi_distance(curve, mode, cap=cap, step=step).to_json_dict()
        with monkeypatch.context() as m:
            m.setattr(pidist, "_enumerate_best", _ref_enumerate_best)
            ref = pi_distance(curve, mode, cap=cap, step=step).to_json_dict()
        assert ours == ref, (mode, cap, step)


@st.composite
def _scan_case(draw):
    """A seeded random planar or space curve: star-shaped or self-crossing,
    closed, or an open chain; and a mode with its cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["star", "crossing", "chain"]))
    if kind == "star":
        curve = random_star_polygon(rng, 4, 40, z_jitter=0.3 if dim == 3 else 0.0)
    else:
        curve = PolyCurve(rng.normal(size=(int(rng.integers(4, 40)), dim)), kind == "crossing")
    mode = draw(st.sampled_from(["literal", "capped"]))
    cap = draw(st.sampled_from([0.3, 0.5, 0.75, 0.99])) * curve.length if mode == "capped" else None
    return curve, mode, cap


@given(_scan_case())
def test_direct_and_pruned_scans_agree(case):
    curve, mode, cap = case
    results = []
    for direct in (0, 1 << 16):  # the pruned scan always; then every run set whole
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pidist, "_DIRECT_RUNS", direct)
            results.append(pi_distance(curve, mode, cap=cap))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# the bounded first stage, the clearance sweep and the shared scanner
# ---------------------------------------------------------------------------

@st.composite
def _bounded_case(draw):
    """A seeded closed or open, planar or space, star-shaped or self-crossing
    polygon, a mode, and the step that sets the wrap margin."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["star", "crossing", "chain"]))
    if kind == "star":
        curve = random_star_polygon(rng, 4, 40, z_jitter=0.3 if dim == 3 else 0.0)
    else:
        curve = PolyCurve(rng.normal(size=(int(rng.integers(4, 40)), dim)), kind == "crossing")
    return curve, draw(st.sampled_from(["literal", "capped"])), draw(st.sampled_from([720, 11520]))


@given(_bounded_case())
def test_bounded_scan_matches_the_row_level_reference(case):
    # every run set goes through the pruned scan; its clearance sweep runs
    # at any bar, at none, and where its gate lets it
    curve, mode, divisions = case
    L = curve.length
    top = L - L / divisions if curve.closed else L
    caps = [top] if mode == "literal" else [min(c, top) for c in (0.3 * L, 0.5 * L, 0.75 * L)]
    for cap in caps:
        ref = reference_enumerate_best(curve, cap)
        for gate in (lambda scanner, limit: True, lambda scanner, limit: False, None):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pidist, "_DIRECT_RUNS", 0)
                if gate is not None:
                    m.setattr(pidist, "_sweep_is_cheap", gate)
                ours = _enumerate_best(PolyCurve(curve.vertices, curve.closed), cap)
            assert ours == ref, (cap, gate)


def _spiked_ellipse():
    """(curve, corner): a 240-gon ellipse with semi-axes 1.5 and 1, a V notch
    at its vertex 80 and, in place of its vertex 0, a spike 0.3 long that
    narrows to a tip 0.003 wide; the tip ends in a shallow dent, so the two
    tip corners and the dent turn by more than pi.  corner is the first tip
    corner, whose minimal run (corner, corner + 2) spans the tip."""
    t = 2.0 * np.pi * np.arange(240) / 240
    v = np.column_stack((1.5 * np.cos(t), np.sin(t)))
    v[80] *= 1.0 - 0.1 / np.linalg.norm(v[80])
    slope = (0.02 - 0.0015) / 0.3
    side = [[1.5, -0.02], [1.7995, -(0.0015 + slope * 0.0005)], [1.8, -0.0015]]
    spike = side + [[1.7995, 0.0]] + [[x, -y] for x, y in side[::-1]]
    return PolyCurve(np.vstack((v[1:], spike)), closed=True), 241


def test_a_minimal_run_alone_wins_the_literal_scan(monkeypatch):
    # The regular polygons tie their winners with runs of later stages; here
    # the minimal run across the spike's tip holds the least chord (0.003,
    # the next run 0.00306) and nothing else reaches it.  The notch corner
    # sets the first bar (0.00395), and the run's bound (0.00253) is above
    # half of it, so the winner is found only where its corner's first run is
    # tested against the whole bar.  The curve has 45,209 runs, past the
    # direct path.
    curve, corner = _spiked_ellipse()
    L = curve.length
    cap = L - L / 720
    scanner = _RunScanner(curve)
    runs = np.maximum(scanner.k_last_under_cap(np.arange(scanner.n), cap) - scanner.k_lo + 1, 1)
    assert np.sum(runs[scanner.k_lo >= 0]) > pidist._DIRECT_RUNS
    assert scanner.k_lo[corner] == corner + 2
    ref = reference_enumerate_best(curve, cap)
    # finalize moves the window's ends off the corners, by 1e-9 of an edge
    assert abs(ref.chord - scanner.chord_min(corner, corner + 2, cap)[0][0]) <= 1e-12 * L
    assert pi_distance(curve, "literal").witness == ref
    monkeypatch.setattr(pidist, "_DIRECT_RUNS", 0)
    assert pi_distance(PolyCurve(curve.vertices, closed=True), "literal").witness == ref


def test_literal_scan_evaluates_a_few_runs_on_the_measure_curves(monkeypatch):
    rows = []
    chord_min = _RunScanner.chord_min

    def counting(self, i, k, cap):
        out = chord_min(self, i, k, cap)
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(_RunScanner, "chord_min", counting)
    curves = _measure_curves()
    for name in ("jordan1024", "jordan2048", "fourier3d"):
        curve = curves[name]
        rows.clear()
        pi_distance(curve, "literal", step=curve.length / 11520)
        assert sum(rows) <= 4, (name, rows)


def reference_windows(curve, cap):
    """scan_windows on a scanner of the curve's own: every corner's minimal
    run, evaluated in one call."""
    scanner = _RunScanner(curve)
    i = np.arange(scanner.n)
    k = scanner.k_first(i)
    i, k = i[k >= 0], k[k >= 0]
    chord, a_raw, b_raw = scanner.chord_min(i, k, cap)
    ok = np.isfinite(chord)
    return scanner.finalize(a_raw[ok], b_raw[ok], i[ok], k[ok], cap)


def test_scan_windows_same_from_the_shared_scanner_as_from_a_fresh_one():
    rng = np.random.default_rng(53)
    curves = dict(_measure_curves())
    curves["ellipse64"] = make_ellipse(2.0, 1.0, 64)
    curves["chain"] = PolyCurve(rng.normal(size=(30, 3)), closed=False)
    for name, curve in curves.items():
        L = curve.length
        step = max(L / 11520, float(np.max(curve._edge_lens)) / 2048)
        for cap in (None, 0.3 * L, 0.5 * L, L - step):
            shared = PolyCurve(curve.vertices, curve.closed)
            # the scans of an analyze first, at its two caps
            pi_distance(shared, "literal", step=step)
            pi_distance(shared, "capped", cap=cap, step=step)
            windows = scan_windows(shared, cap)
            assert windows == scan_windows(PolyCurve(curve.vertices, curve.closed), cap), (name, cap)
            assert windows == reference_windows(curve, L / 2 if cap is None else cap), (name, cap)


def test_the_cached_scanner_does_not_keep_its_curve_alive():
    # one curve is its own unit copy (length in [1/2, 1)), one is not
    gc.disable()
    try:
        for scale in (0.1875, 1.0):
            curve = PolyCurve(make_unit_square().vertices * scale, closed=True)
            pi_distance(curve, "literal")
            scan_windows(curve)
            ref = weakref.ref(curve)
            del curve
            assert ref() is None, scale
    finally:
        gc.enable()


_ELLIPSE64 = make_ellipse(2.0, 1.0, 64)


def _scaled_window(w, k):
    return CurvatureWindow(math.ldexp(w.a, k), math.ldexp(w.b, k), w.kappa,
                           math.ldexp(w.chord, k), math.ldexp(w.arclen, k))


@given(st.integers(-500, 500))
@example(-500)
@example(500)
@example(512)
def test_scans_scale_to_the_bit_under_powers_of_two(k):
    # a RuntimeWarning is an error in this suite
    scaled = PolyCurve(np.ldexp(_ELLIPSE64.vertices, k), closed=True)
    for mode in ("literal", "capped"):
        ours, ref = pi_distance(scaled, mode), pi_distance(_ELLIPSE64, mode)
        assert ours.value == math.ldexp(ref.value, k), mode
        assert ours.witness == _scaled_window(ref.witness, k), mode
    assert scan_windows(scaled) == [_scaled_window(w, k) for w in scan_windows(_ELLIPSE64)]


def test_capped_scan_of_the_largest_ellipse_is_a_number():
    big = make_ellipse(2.7e154, 1.35e154, 64)
    ref = pi_distance(make_ellipse(2.0, 1.0, 64), "capped").value
    assert math.isclose(pi_distance(big, "capped").value / 1.35e154, ref, rel_tol=1e-12)


_DENSE = {
    "jordan16384": lambda: make_random_jordan(16384, seed=3),
    # long spikes around a small hub: the midpoint bound keeps most of the
    # 1024-vertex curve's runs, so the pruned scan evaluates about n^2 / 2
    "deep_star512": lambda: make_star_polygon(512, 1.0, 0.1),
}


@pytest.mark.parametrize("mode", ["literal", "capped"])
@pytest.mark.parametrize("name", sorted(_DENSE))
def test_pruned_scan_memory_bounded(name, mode):
    curve = _DENSE[name]()
    tracemalloc.start()
    try:
        res = pi_distance(curve, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.witness.kappa >= math.pi - _PI_SLACK
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# invariances: the value is exact, so it survives every change of frame
# ---------------------------------------------------------------------------

@st.composite
def _polygon_and_mode(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jitter = draw(st.sampled_from([0.0, 0.3]))  # planar, or lifted to 3-D
    curve = random_star_polygon(rng, 4, 12, z_jitter=jitter)
    return curve, draw(st.sampled_from(["literal", "capped"])), rng


def _value(vertices, mode):
    """pi-distance with cap and step fixed fractions of the curve's length,
    so that both follow a uniform scale."""
    curve = PolyCurve(vertices, closed=True)
    L = curve.length
    res = pi_distance(curve, mode=mode, cap=0.4 * L, step=L / 300)
    return math.inf if res.value is None else res.value


def _close(x, y, curve):
    return math.isclose(x, y, rel_tol=0.0, abs_tol=1e-12 * curve.length)


@given(_polygon_and_mode())
def test_pi_distance_invariant_under_rigid_motion(case):
    curve, mode, rng = case
    v = curve.vertices
    moved = v @ random_rotation(v.shape[1], rng).T + rng.uniform(-5.0, 5.0, v.shape[1])
    assert _close(_value(moved, mode), _value(v, mode), curve)


@given(_polygon_and_mode(), st.floats(0.01, 100.0))
def test_pi_distance_scales_with_the_curve(case, lam):
    curve, mode, _ = case
    v = curve.vertices
    assert math.isclose(_value(lam * v, mode), lam * _value(v, mode), rel_tol=0.0,
                        abs_tol=1e-12 * lam * curve.length)


@given(_polygon_and_mode(), st.integers(1, 11))
def test_pi_distance_invariant_under_start_vertex_and_orientation(case, shift):
    curve, mode, _ = case
    v = curve.vertices
    base = _value(v, mode)
    assert _close(_value(np.roll(v, shift, axis=0), mode), base, curve)
    assert _close(_value(v[::-1], mode), base, curve)


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


def test_arc_curvature_on_an_open_curve_takes_the_arc_from_t1_to_t4():
    # the open chain around three sides of the unit square turns by pi at
    # its two interior corners, and by pi/2 on the arc that holds one of them
    chain = PolyCurve([[0, 0], [1, 0], [1, 1], [0, 1]], closed=False)
    assert verify_quad_arc_curvature(chain, [0.0, 1.0, 2.0, 3.0], 1e-6)
    assert not verify_quad_arc_curvature(chain, [0.5, 1.0, 1.5, 1.9], 1e-6)


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


def test_bound_report_literal_open_is_meaningful():
    t = np.linspace(0.0, 1.5 * math.pi, 60)
    arc = PolyCurve(np.column_stack([np.cos(t), np.sin(t)]), closed=False)
    pid = pi_distance(arc, mode="literal", step=0.05)
    assert not pid.unbounded
    rep = sidelength_bound_report(arc, [_FakeSolution([2.0] * 4), _FakeSolution([0.01] * 4)], pid)
    assert rep["note"] == "literal mode on an open curve: the bound is meaningful"
    assert [e["holds"] for e in rep["entries"]] == [True, False]
    assert not rep["all_hold"]
