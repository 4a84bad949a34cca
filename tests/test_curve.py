"""Tests for the polygonal-curve primitives."""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_star_polygon
from sqpeg import curve as curve_mod
from sqpeg.curve import PolyCurve, _angles, angle_between, segment_to_segments_distance
from sqpeg.generators import (
    make_circle,
    make_random_jordan,
    make_regular_polygon,
    make_unit_square,
)


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


_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("vertices, cause", [
    (_SQUARE * 1e200, "edge lengths overflow to inf: the coordinates are too large"),
    (_SQUARE * 1e-200, "edge 0 is too short to measure: its squared length underflows"),
    (_SQUARE * 1e-160, "edge 0 is too short to measure: its squared length underflows"),
    ([[0.0, 0.0], [1e-9, 0.0], [1e9, 1e9], [0.0, 1.0]],
     "edge 0 has length 1e-09, below 2^-51 of the curve length 2.83e+09"),
    ([[0.0, 0.0], [2.0 ** -48, 0.0], [4.0, 0.0], [0.0, 3.0]], "edge 0 has length"),
])
def test_rejects_edge_lengths_that_floats_cannot_measure_or_resolve(vertices, cause):
    with pytest.raises(ValueError) as err:
        PolyCurve(vertices, closed=True)
    assert str(err.value).startswith(cause)


def test_an_edge_at_the_resolution_limit_has_ends_of_distinct_arclength():
    # L = 12: 2^-47 is above 12 * 2^-51, so the edge is accepted, and an
    # edge of that length keeps its ends apart at any offset in [0, 2L)
    tri = PolyCurve([[0.0, 0.0], [2.0 ** -47, 0.0], [4.0, 0.0], [0.0, 3.0]], closed=True)
    assert np.all(np.diff(tri._knots) > 0.0)
    rng = np.random.default_rng(97)
    for L in rng.uniform(1.0, 2.0, 200) * 2.0 ** rng.integers(-900, 900, 200):
        e = curve_mod._MIN_EDGE_FRACTION * L
        for x in (np.nextafter(2.0 * L, 0.0), L, rng.uniform(0.0, 2.0 * L)):
            assert x + e > x


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        PolyCurve([[0, 0], [np.nan, 1], [1, 1]], closed=True)


def test_rejects_dimension_below_two():
    with pytest.raises(ValueError, match="dimension"):
        PolyCurve([[0.0], [1.0], [2.0]], closed=False)


def test_repr_names_the_size_kind_dimension_and_length():
    assert repr(make_unit_square()) == "PolyCurve(4 vertices, closed, n=2, L=4)"
    chain = PolyCurve([[0, 0, 0], [3, 4, 0]], closed=False)
    assert repr(chain) == "PolyCurve(2 vertices, open, n=3, L=5)"


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


_TRIANGLE_JSON = {"dimension": 2, "closed": True, "vertices": [[0, 0], [4, 0], [0, 3.0]]}


def _with(**changes):
    return {**_TRIANGLE_JSON, **changes}


def test_json_closed_must_be_a_bool_not_the_string_false():
    with pytest.raises(ValueError, match="'closed' must be true or false"):
        PolyCurve.from_json_dict(_with(closed="false"))


def test_json_closed_must_be_a_bool_not_null():
    with pytest.raises(ValueError, match="'closed' must be true or false"):
        PolyCurve.from_json_dict(_with(closed=None))


def test_json_dimension_must_be_an_integer_not_null():
    with pytest.raises(ValueError, match="'dimension' must be an integer"):
        PolyCurve.from_json_dict(_with(dimension=None))


def test_json_dimension_must_be_an_integer_not_a_list():
    with pytest.raises(ValueError, match="'dimension' must be an integer"):
        PolyCurve.from_json_dict(_with(dimension=[2]))


def test_json_dimension_must_be_an_integer_not_a_fraction():
    with pytest.raises(ValueError, match="'dimension' must be an integer"):
        PolyCurve.from_json_dict(_with(dimension=2.5))


@pytest.mark.parametrize("flag", [True, False])
def test_json_vertices_refuse_true_and_false(flag):
    with pytest.raises(ValueError, match="'vertices' must be a list of rows of numbers"):
        PolyCurve.from_json_dict(_with(vertices=[[0, 0], [4, flag], [0, 3.0]]))


def test_json_checks_keep_the_curves_the_library_writes():
    for curve in (make_unit_square(), PolyCurve([[0, 0, 0], [3, 4, 0]], closed=False)):
        back = PolyCurve.from_json_dict(json.loads(json.dumps(curve.to_json_dict())))
        assert np.array_equal(back.vertices, curve.vertices) and back.closed == curve.closed


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


def test_angle_between_rejects_zero_vectors():
    for u, v in (([0.0, 0.0], [1.0, 0.0]), ([1.0, 0.0, 2.0], [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="zero vector"):
            angle_between(u, v)


def _angle_reference(u, v):
    """Scalar 2*atan2(|a-b|, |a+b|) of the normalized vectors, in plain floats."""
    nu, nv = math.sqrt(sum(x * x for x in u)), math.sqrt(sum(x * x for x in v))
    a, b = [x / nu for x in u], [x / nv for x in v]
    return 2.0 * math.atan2(math.dist(a, b), math.hypot(*(x + y for x, y in zip(a, b))))


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_angle_kernel_matches_scalar_reference(dim):
    rng = np.random.default_rng(dim)
    u = rng.standard_normal((200, dim)) * rng.uniform(1e-3, 1e3, (200, 1))
    v = rng.standard_normal((200, dim)) * rng.uniform(1e-3, 1e3, (200, 1))
    # near 0 and near pi: e0 against e0 and -e0, each tilted by 1e-9
    e0, tilt = np.eye(dim)[0], 1e-9 * np.eye(dim)[1]
    u[:2] = e0
    v[:2] = e0 + tilt, -e0 + tilt
    got = _angles(u, v)
    ref = np.array([_angle_reference(a, b) for a, b in zip(u.tolist(), v.tolist())])
    assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))
    assert got[0] == pytest.approx(1e-9, rel=1e-6)
    assert got[1] == pytest.approx(math.pi - 1e-9, abs=1e-15)
    assert [angle_between(a, b) for a, b in zip(u, v)] == got.tolist()
    assert _angles(u.reshape(10, 20, dim), v.reshape(10, 20, dim)).tolist() == \
        got.reshape(10, 20).tolist()


def test_turning_angles_are_the_curvature_atoms():
    rng = np.random.default_rng(4)
    for closed in (True, False):
        poly = PolyCurve(rng.standard_normal((9, 3)), closed=closed)
        corners = range(9) if closed else range(1, 8)
        assert [poly.turning_angle(i) for i in corners] == poly._atoms[1].tolist()


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


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_detect_cusps_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        make_unit_square().detect_cusps(tol)


# ---------------------------------------------------------------------------
# embeddedness
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# segment_to_segments_distance
# ---------------------------------------------------------------------------

def _segment_rows(rng, k, dim):
    """k random segment pairs; a third of them are within 1e-9 to 1e-2 rad
    of parallel, where the free optimum is ill-conditioned."""
    p0, p1, q0 = (rng.normal(size=(k, dim)) for _ in range(3))
    q1 = q0 + rng.normal(size=(k, dim))
    m = k // 3
    tilt = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-9, -2, (m, 1))
    q1[:m] = q0[:m] + (p1[:m] - p0[:m]) * rng.choice([-2.0, -0.5, 0.7, 1.5], (m, 1)) + tilt
    return p0, p1, q0, q1


def _exact_point_to_segment(x, a, b):
    """Distance from x to segment ab in rationals, rounded once."""
    x, a, b = ([Fraction(float(c)) for c in v] for v in (x, a, b))
    d = [bj - aj for aj, bj in zip(a, b)]
    t = sum((xj - aj) * dj for xj, aj, dj in zip(x, a, d)) / sum(dj * dj for dj in d)
    t = min(max(t, Fraction(0)), Fraction(1))
    return math.sqrt(sum((xj - aj - t * dj) ** 2 for xj, aj, dj in zip(x, a, d)))


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_distance_scales_exactly_with_powers_of_two(dim):
    p0, p1, q0, q1 = _segment_rows(np.random.default_rng(dim), 300, dim)
    dist, s, t = segment_to_segments_distance(p0, p1, q0, q1)
    for k in range(-60, 61):
        f = 2.0 ** k
        dk, sk, tk = segment_to_segments_distance(p0 * f, p1 * f, q0 * f, q1 * f)
        assert np.array_equal(dk, dist * f) and np.array_equal(sk, s) and np.array_equal(tk, t), k


@pytest.mark.parametrize("dim", [2, 3])
def test_segment_distance_never_above_an_endpoint_distance(dim):
    p0, p1, q0, q1 = _segment_rows(np.random.default_rng(10 + dim), 300, dim)
    dist, s, t = segment_to_segments_distance(p0, p1, q0, q1)
    gap = (p0 + s[:, None] * (p1 - p0)) - (q0 + t[:, None] * (q1 - q0))
    assert np.allclose(np.linalg.norm(gap, axis=1), dist, rtol=1e-15, atol=1e-15)
    for j in range(len(dist)):
        ends = min(_exact_point_to_segment(p0[j], q0[j], q1[j]),
                   _exact_point_to_segment(p1[j], q0[j], q1[j]),
                   _exact_point_to_segment(q0[j], p0[j], p1[j]),
                   _exact_point_to_segment(q1[j], p0[j], p1[j]))
        assert dist[j] <= ends + 4e-16 * (1.0 + ends), j


@pytest.mark.parametrize("scale", [1e80, 1e100, 1e120, 1e150])
def test_segment_distance_stays_finite_at_large_coordinates(scale):
    # a RuntimeWarning is an error in this suite
    p0, p1, q0, q1 = _segment_rows(np.random.default_rng(5), 60, 3)
    dist, _, _ = segment_to_segments_distance(p0 * scale, p1 * scale, q0 * scale, q1 * scale)
    assert np.all(np.isfinite(dist))
    curve = PolyCurve(make_unit_square().vertices * scale, closed=True)
    assert curve.is_embedded()


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-5, 1e-6])
def test_is_embedded_catches_a_crossing_in_space_at_every_scale(scale):
    # edges 0 and 2 cross at (1, 0, 0); at 1e-5 and below, an absolute
    # parallel test once took them for parallel and measured from p0 alone
    verts = np.array([[0, 0, 0], [2, 0, 0], [1, -1, 0], [1, 1, 0], [0, 1, 1.0]])
    assert not PolyCurve(verts * scale, closed=True).is_embedded()


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


@pytest.mark.parametrize("clearance", [math.nan, math.inf])
def test_is_embedded_rejects_non_finite_clearance(clearance):
    with pytest.raises(ValueError, match="clearance must be finite and nonnegative"):
        make_unit_square().is_embedded(clearance)


def reference_is_embedded(curve, clearance):
    """The per-edge loop the box sweep replaced: each edge against every
    later non-adjacent edge, by computed distance only."""
    E = curve.num_edges
    starts = curve.vertices[:E]
    ends = starts + curve._edge_vecs
    for i in range(E - 2):
        j_hi = E - 1 if curve.closed and i == 0 else E
        if i + 2 < j_hi:
            dist, _, _ = segment_to_segments_distance(starts[i], ends[i], starts[i + 2:j_hi],
                                                      ends[i + 2:j_hi])
            if np.any(dist <= clearance):
                return False
    return True


def _segments_meet(a0, a1, b0, b1):
    """Whether two plane segments share a point, solved in rationals."""
    a0, a1, b0, b1 = ([Fraction(x) for x in p] for p in (a0, a1, b0, b1))
    d = (a1[0] - a0[0], a1[1] - a0[1])
    e = (b1[0] - b0[0], b1[1] - b0[1])
    w = (b0[0] - a0[0], b0[1] - a0[1])
    det = d[0] * e[1] - d[1] * e[0]
    if det != 0:
        s = (w[0] * e[1] - w[1] * e[0]) / det
        t = (w[0] * d[1] - w[1] * d[0]) / det
        return 0 <= s <= 1 and 0 <= t <= 1
    if w[0] * d[1] - w[1] * d[0] != 0:
        return False  # parallel lines
    # collinear: where b's endpoints fall along a, as multiples of d
    dd = d[0] * d[0] + d[1] * d[1]
    t0 = (w[0] * d[0] + w[1] * d[1]) / dd
    t1 = t0 + (e[0] * d[0] + e[1] * d[1]) / dd
    return max(min(t0, t1), 0) <= min(max(t0, t1), 1)


def exact_meeting_pairs(curve):
    """Non-adjacent edge pairs of a plane curve that share a point."""
    E, v = curve.num_edges, curve.vertices
    return [(i, j) for i in range(E) for j in range(i + 2, E)
            if not (curve.closed and i == 0 and j == E - 1)
            and _segments_meet(v[i], v[(i + 1) % len(v)], v[j], v[(j + 1) % len(v)])]


def test_is_embedded_catches_every_crossing_bowtie():
    # crossing segments compute to a distance of 1e-17 to 3e-16, not 0;
    # the per-edge loop called 374 of the 394 bowties of edges 0 and 2
    # below embedded
    quads = np.random.default_rng(0).normal(size=(2000, 4, 2))
    crossings = 0
    for quad in quads:
        curve = PolyCurve(quad, closed=True)
        meet = exact_meeting_pairs(curve)
        crossings += (0, 2) in meet
        assert curve.is_embedded(0.0) == (not meet)
    assert crossings == 394


def test_is_embedded_touching_and_collinear_overlap():
    touch = PolyCurve([[0, 0], [2, 0], [2, 1], [1, 0.0], [1, -1]], closed=False)
    assert not touch.is_embedded(0.0)
    overlap = PolyCurve([[0, 0], [3, 0], [3, 1], [1, 1], [1, 0], [2, 0], [2, -1]],
                        closed=False)
    assert not overlap.is_embedded(0.0)
    apart = PolyCurve([[0, 0], [3, 0], [3, 1], [4, 1], [4, 0], [5, 0]], closed=False)
    assert apart.is_embedded(0.0)


def _exact_orientation(p, q, r):
    (px, py), (qx, qy), (rx, ry) = ([Fraction(float(c)) for c in v] for v in (p, q, r))
    cross = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    return (cross > 0) - (cross < 0)


def test_orientation_takes_exact_signs_where_floats_cannot_decide():
    # points (k/10, sk/10) on decimal lines of slope s: the floats lie near
    # the line, so the float cross product's sign is rounding noise.  The
    # first triple's reads +1 where its exact sign is 0.  Random triples
    # are decided by the float sign.
    rng = np.random.default_rng(97)
    k = rng.integers(-50, 51, (300, 3))
    k[0] = (1, 7, 3)
    slope = rng.choice([3, 7, -2], 300)[:, None]
    pts = np.stack((k / 10, slope * k / 10), axis=-1)
    pts = np.concatenate((pts, rng.normal(size=(100, 3, 2))))
    p, q, r = pts[:, 0], pts[:, 1], pts[:, 2]
    exact = [_exact_orientation(*row) for row in pts]
    floats = np.sign((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))
    assert (floats[0], exact[0]) == (1.0, 0)
    assert curve_mod._orientation(p, q, r).tolist() == exact
    assert np.count_nonzero(floats != exact) > 10


def _embedding_curves():
    rng = np.random.default_rng(31)
    curves = [make_random_jordan(n, seed=s) for s, n in enumerate((24, 48, 96))]
    for dim in (2, 3):
        for closed in (True, False):
            for _ in range(12):
                n = int(rng.integers(4, 30))
                curves.append(PolyCurve(rng.normal(size=(n, dim)), closed))
                star = random_star_polygon(rng, 6, 40, z_jitter=0.3 if dim == 3 else 0.0)
                curves.append(PolyCurve(star.vertices, closed))
    return curves


@pytest.mark.parametrize("clearance", [0.0, 1e-3, 0.1])
def test_is_embedded_matches_per_edge_loop(clearance):
    caught = 0
    for curve in _embedding_curves():
        ours, ref = curve.is_embedded(clearance), reference_is_embedded(curve, clearance)
        if ours != ref:
            # only a plane meeting whose computed distance was above the
            # clearance may change the answer, and it must be a real one
            assert ref and not ours and curve.dimension == 2
            assert exact_meeting_pairs(curve)
            caught += 1
    assert caught > 0 if clearance == 0.0 else caught == 0


def _comb(teeth, width=1000.0):
    """Serpentine of horizontal edges one apart: every horizontal edge's box
    overlaps every other box in x."""
    xs = np.where(np.arange(2 * teeth) % 4 < 2, 0.0, width)
    xs[1::2] = width - xs[0::2]
    return PolyCurve(np.column_stack([xs, np.repeat(np.arange(float(teeth)), 2)]), closed=False)


@pytest.mark.parametrize("curve, clearance, expected", [
    (_comb(2000), 0.5, True),
    (_comb(2000), 1.5, False),
    (make_random_jordan(16384, seed=3), 0.0, True),
])
def test_is_embedded_memory_bounded(curve, clearance, expected):
    tracemalloc.start()
    try:
        result = curve.is_embedded(clearance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result is expected
    assert peak < 64 * 2**20


def _clearance_curves():
    """Embedded and crossing, planar and space, open and closed curves, one
    already of length in [1/2, 1) (measured on itself) and one at 2^-400."""
    rng = np.random.default_rng(47)
    return {
        "jordan96": make_random_jordan(96, seed=5),
        "comb": _comb(30),
        "unit_square": PolyCurve(make_unit_square().vertices * 0.1875, closed=True),
        "tiny_jordan": PolyCurve(np.ldexp(make_random_jordan(64, seed=6).vertices, -400), True),
        "crossing": PolyCurve(rng.normal(size=(24, 2)), closed=True),
        "space": PolyCurve(rng.normal(size=(24, 3)), closed=True),
        "chain": PolyCurve(rng.normal(size=(24, 3)), closed=False),
    }


def _fresh(curve):
    return PolyCurve(curve.vertices, closed=curve.closed)


def _turning_clearance(curve):
    """The largest clearance at which fresh calls find the curve embedded,
    by bisection on the floats, or None if it is not embedded at 0."""
    if not _fresh(curve).is_embedded(0.0):
        return None
    lo, hi = 0.0, curve.length
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        mid = mid if lo < mid < hi else np.nextafter(lo, hi)
        lo, hi = (mid, hi) if _fresh(curve).is_embedded(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("name", sorted(_clearance_curves()))
def test_remembered_embeddedness_answers_as_fresh_calls(name):
    curve = _clearance_curves()[name]
    L = curve.length
    clearances = [0.0, *(L * np.geomspace(1e-9, 2.0, 12)), 1e300]
    turn = _turning_clearance(curve)
    if turn is not None:
        clearances += [np.nextafter(turn, 0.0), turn, np.nextafter(turn, np.inf), 2.0 * turn]
    clearances = sorted(set(clearances))
    fresh = {c: _fresh(curve).is_embedded(c) for c in clearances}
    assert fresh[0.0] == (turn is not None)
    for order in (clearances, clearances[::-1], clearances[::2] + clearances[1::2]):
        kept = _fresh(curve)
        assert [kept.is_embedded(c) for c in order] == [fresh[c] for c in order], order


def test_remembered_clearance_spares_the_report_sweep(monkeypatch):
    # the literal scan's sweep proves the curve embedded at its bar, so the
    # clearance-0 answer an analyze report asks for needs no second sweep
    from sqpeg.pidist import pi_distance

    curve = make_random_jordan(1024, seed=7)
    sweeps = []
    measure = PolyCurve._measure_clearance
    monkeypatch.setattr(PolyCurve, "_measure_clearance",
                        lambda self, c: sweeps.append(c) or measure(self, c))
    pi_distance(curve, "literal", step=curve.length / 11520)
    assert len(sweeps) == 1 and sweeps[0] > 0.0
    assert curve.is_embedded(0.0) and curve.is_embedded() and len(sweeps) == 1


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
