"""Tests for the polygonal-curve primitives."""

import math

import numpy as np
import pytest

from helpers import random_star_polygon
from sqpeg.curve import PolyCurve, angle_between
from sqpeg.generators import make_circle, make_regular_polygon, make_unit_square


def brute_subarc_curvature(curve, a, b):
    """Independent oracle: explicit per-atom membership test, arccos angles."""
    L = curve.length
    total = 0.0
    m = curve.num_vertices
    ids = range(m) if curve.closed else range(1, m - 1)
    for i in ids:
        e_in = curve.vertices[i] - curve.vertices[(i - 1) % m]
        e_out = curve.vertices[(i + 1) % m] - curve.vertices[i]
        cosang = np.dot(e_in, e_out) / (np.linalg.norm(e_in) * np.linalg.norm(e_out))
        ang = math.acos(min(1.0, max(-1.0, cosang)))
        pos = curve.cum_len[i]
        if curve.closed:
            off = (pos - a) % L
            span = (b - a) % L
            if 0.0 < off < span:
                total += ang
        else:
            if a < pos < b:
                total += ang
    return total


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_rejects_too_few_vertices():
    with pytest.raises(ValueError):
        PolyCurve([[0, 0], [1, 0]], closed=True)
    with pytest.raises(ValueError):
        PolyCurve([[0, 0]], closed=False)


def test_rejects_coincident_consecutive_vertices():
    with pytest.raises(ValueError, match="coincident"):
        PolyCurve([[0, 0], [0, 0], [1, 1]], closed=False)


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        PolyCurve([[0, 0], [np.nan, 1], [1, 1]], closed=True)


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError, match="dimension"):
        PolyCurve([[0.0], [1.0], [2.0]], closed=False)


def test_json_roundtrip():
    sq = make_unit_square()
    back = PolyCurve.from_json_dict(sq.to_json_dict())
    assert np.array_equal(back.vertices, sq.vertices)
    assert back.closed == sq.closed


def test_json_schema_errors():
    with pytest.raises(ValueError, match="missing required key"):
        PolyCurve.from_json_dict({"closed": True, "vertices": [[0, 0]]})
    with pytest.raises(ValueError, match="dimension"):
        PolyCurve.from_json_dict({"dimension": 3, "closed": True,
                                  "vertices": [[0, 0], [1, 0], [0, 1]]})


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def test_eval_midpoint_of_first_edge():
    sq = make_unit_square()
    assert np.allclose(sq.point_at(0.5), [0.5, 0.0])


def test_eval_modular_wrap():
    sq = make_unit_square()
    assert np.array_equal(sq.point_at(4.0), [0.0, 0.0])
    assert np.allclose(sq.point_at(-0.5), sq.point_at(3.5))


def test_eval_circle_against_closed_form():
    c = make_circle(1.0, 360)
    p = c.point_at(math.pi)
    assert np.linalg.norm(p - np.array([-1.0, 0.0])) < 2e-4


def test_eval_reproduces_vertices_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        poly = random_star_polygon(rng, 5, 40)
        pts = poly.point_at(poly.cum_len)
        assert np.array_equal(pts, poly.vertices)


def test_eval_open_endpoint_exact_and_range():
    chain = PolyCurve([[0, 0], [1, 0], [1, 2]], closed=False)
    assert np.array_equal(chain.point_at(chain.length), [1.0, 2.0])
    with pytest.raises(ValueError, match="out of range"):
        chain.point_at(chain.length + 0.1)


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------

def test_arc_length_simple_and_wrap():
    sq = make_unit_square()
    assert sq.arc_length(0.0, 2.0) == 2.0
    assert math.isclose(sq.arc_length(3.5, 0.5), 1.0)
    assert sq.arc_length(1.3, 1.3) == 0.0


def test_arc_length_circle_half():
    c = make_circle(1.0, 360)
    half = c.arc_length(0.0, c.length / 2.0)
    assert math.isclose(half, 360.0 * math.sin(math.pi / 360.0), rel_tol=1e-12)
    assert math.isclose(math.pi - half, 4e-5, rel_tol=0.01)


def test_arc_length_consistency_closed():
    rng = np.random.default_rng(5)
    for _ in range(20):
        poly = random_star_polygon(rng, 5, 40)
        a, b = rng.uniform(0, poly.length, 2)
        assert math.isclose(poly.arc_length(a, b) + poly.arc_length(b, a),
                            poly.length, rel_tol=0, abs_tol=1e-12)


def test_arc_length_open_backward_rejected():
    chain = PolyCurve([[0, 0], [1, 0], [2, 0]], closed=False)
    with pytest.raises(ValueError):
        chain.arc_length(1.5, 0.5)


# ---------------------------------------------------------------------------
# turning angles and total curvature
# ---------------------------------------------------------------------------

def test_turning_angle_square():
    sq = make_unit_square()
    for i in range(4):
        assert math.isclose(sq.turning_angle(i), math.pi / 2, abs_tol=1e-15)


def test_turning_angle_collinear_and_reversal():
    straight = PolyCurve([[0, 0], [1, 0], [2, 0]], closed=False)
    assert straight.turning_angle(1) == 0.0
    back = PolyCurve([[0, 0], [1, 0], [0, 0]], closed=False)
    assert math.isclose(back.turning_angle(1), math.pi, abs_tol=1e-15)


def test_turning_angle_endpoint_rejected():
    chain = PolyCurve([[0, 0], [1, 0], [2, 1]], closed=False)
    with pytest.raises(ValueError):
        chain.turning_angle(0)
    with pytest.raises(ValueError):
        chain.turning_angle(2)


def test_angle_between_accuracy_near_extremes():
    assert angle_between([1.0, 0.0], [1.0, 1e-9]) == pytest.approx(1e-9, rel=1e-6)
    assert angle_between([1.0, 0.0], [-1.0, 1e-9]) == pytest.approx(math.pi - 1e-9, abs=1e-15)


def test_total_curvature_regular_ngons():
    for n in (3, 4, 7, 12, 100, 360):
        poly = make_regular_polygon(n)
        assert abs(poly.total_curvature() - 2 * math.pi) < 1e-12


def test_total_curvature_open_cases():
    straight = PolyCurve([[0, 0], [1, 0], [2, 0], [3, 0]], closed=False)
    assert straight.total_curvature() == 0.0
    open_square = PolyCurve([[0, 0], [1, 0], [1, 1], [0, 1]], closed=False)
    assert math.isclose(open_square.total_curvature(), math.pi, abs_tol=1e-15)


def test_open_chain_turning_is_two_corner_sum():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.standard_normal((4, 3))
        chain = PolyCurve(pts, closed=False)
        expected = chain.turning_angle(1) + chain.turning_angle(2)
        assert math.isclose(chain.total_curvature(), expected, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# subarc curvature
# ---------------------------------------------------------------------------

def test_subarc_square_examples():
    sq = make_unit_square()
    assert math.isclose(sq.subarc_curvature(0.5, 1.5), math.pi / 2, abs_tol=1e-15)
    assert math.isclose(sq.subarc_curvature(0.5, 3.5), 3 * math.pi / 2, abs_tol=1e-15)
    # near-full wrap covers all four corners
    eps = 1e-6
    assert math.isclose(sq.subarc_curvature(0.5 + eps, 0.5), 2 * math.pi, abs_tol=1e-12)


def test_subarc_excludes_exact_vertex_hits():
    sq = make_unit_square()
    # (1.0, 2.0) has corners exactly at both ends: neither counts
    assert sq.subarc_curvature(1.0, 2.0) == 0.0
    assert math.isclose(sq.subarc_curvature(1.0, 2.5), math.pi / 2, abs_tol=1e-15)


def test_subarc_ending_on_the_seam_leaves_its_atom_out():
    # 0.4375 * 3.6 + (3.6 - 0.4375 * 3.6) rounds above L = 3.6; the arc still
    # ends on vertex 0 and takes in only the corners at 1.8 and 2.7
    scaled = PolyCurve(make_unit_square().vertices * 0.9, closed=True)
    assert scaled.subarc_curvature(0.4375 * 3.6, 3.6) == math.pi
    assert scaled.subarc_curvature(np.array([0.4375 * 3.6]), np.array([3.6])).tolist() == [math.pi]


def test_subarc_against_brute_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        poly = random_star_polygon(rng, 5, 30)
        a, b = rng.uniform(0, poly.length, 2)
        assert math.isclose(poly.subarc_curvature(a, b), brute_subarc_curvature(poly, a, b),
                            rel_tol=0, abs_tol=1e-9)


def test_subarc_additivity():
    rng = np.random.default_rng(13)
    for _ in range(30):
        poly = random_star_polygon(rng, 5, 30)
        a = float(rng.uniform(0, poly.length))
        g1, g2 = rng.uniform(0.05, poly.length / 3, 2)
        b = (a + g1) % poly.length
        c = (a + g1 + g2) % poly.length
        atom = 0.0
        hit = np.nonzero(poly.cum_len == b)[0]
        if hit.size:
            atom = poly.turning_angle(int(hit[0]))
        lhs = poly.subarc_curvature(a, c)
        rhs = poly.subarc_curvature(a, b) + poly.subarc_curvature(b, c) + atom
        assert math.isclose(lhs, rhs, rel_tol=0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# cusps
# ---------------------------------------------------------------------------

def test_detect_cusps_none_on_square():
    assert make_unit_square().detect_cusps(1e-6) == []


def test_detect_cusps_doubled_back_edge():
    chain = PolyCurve([[0, 0], [1, 0], [0, 0], [0, 1]], closed=False)
    assert chain.detect_cusps(1e-6) == [1]


def test_detect_cusps_tolerance_boundary():
    eps = 1e-9
    tip = np.array([1.0 + math.cos(math.pi - eps), math.sin(math.pi - eps)])
    chain = PolyCurve([[0.0, 0.0], [1.0, 0.0], tip], closed=False)
    assert chain.detect_cusps(1e-6) == [1]
    assert chain.detect_cusps(1e-12) == []


def test_detect_cusps_requires_positive_tol():
    with pytest.raises(ValueError):
        make_unit_square().detect_cusps(0.0)


# ---------------------------------------------------------------------------
# embeddedness
# ---------------------------------------------------------------------------

def test_is_embedded_square():
    assert make_unit_square().is_embedded(0.0)


def test_is_embedded_figure_eight():
    fig8 = PolyCurve([[0, 0], [1, 1], [1, 0], [0, 1]], closed=True)
    assert not fig8.is_embedded(0.0)


def test_is_embedded_clearance_semantics():
    # two long parallel edges 0.01 apart
    strip = PolyCurve(
        [[0, 0], [10, 0], [10, 5], [5, 5], [5, 0.01], [0, 0.01]], closed=True
    )
    assert strip.is_embedded(0.005)
    assert not strip.is_embedded(0.02)


def test_is_embedded_rejects_negative_clearance():
    with pytest.raises(ValueError):
        make_unit_square().is_embedded(-1.0)


# ---------------------------------------------------------------------------
# Fenchel sanity (small sample here; the acceptance suite runs 1000)
# ---------------------------------------------------------------------------

def test_fenchel_lower_bound_sample():
    rng = np.random.default_rng(17)
    for _ in range(100):
        poly = random_star_polygon(rng, 10, 60)
        assert poly.total_curvature() >= 2 * math.pi - 1e-9


def test_higher_dimension_support():
    # the machinery is dimension-agnostic; exercise n = 4
    rng = np.random.default_rng(19)
    pts = rng.standard_normal((12, 4))
    poly = PolyCurve(pts, closed=True)
    assert poly.dimension == 4
    assert poly.total_curvature() >= 2 * math.pi - 1e-9
    assert np.array_equal(poly.point_at(poly.cum_len[5]), poly.vertices[5])
    assert 0.0 <= poly.turning_angle(3) <= math.pi
    assert poly.subarc_curvature(0.0, poly.length / 2) >= 0.0
