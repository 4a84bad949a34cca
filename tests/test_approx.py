"""Tests for inscription, corner rounding, Frechet distance, and convergence."""

import bisect
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import point_to_polyline_distance, random_cusp_free_polygon, random_rotation
from sqpeg import approx
from sqpeg.approx import (
    Arc,
    Segment,
    SmoothedCurve,
    convergence_report,
    discrete_frechet,
    fillet_smooth,
    inscribe_polygon,
    verify_length_bound,
)
from sqpeg.curve import PolyCurve
from sqpeg.generators import (
    make_circle,
    make_diagonal,
    make_ellipse,
    make_random_jordan,
    make_regular_polygon,
    make_stairstep,
    make_unit_square,
)


def recursive_frechet_oracle(P, Q):
    """Memoized textbook recursion, independent of the iterative DP."""
    P = np.asarray(P, float)
    Q = np.asarray(Q, float)

    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        d = float(np.linalg.norm(P[i] - Q[j]))
        if i == 0 and j == 0:
            return d
        if i == 0:
            return max(rec(0, j - 1), d)
        if j == 0:
            return max(rec(i - 1, 0), d)
        return max(min(rec(i - 1, j), rec(i, j - 1), rec(i - 1, j - 1)), d)

    return rec(len(P) - 1, len(Q) - 1)


def _dfd_rows(dist) -> float:
    """The Eiter-Mannila recurrence in Python floats, one row at a time."""
    rows = dist.tolist()
    k = len(rows[0])
    prev = rows[0][:]
    for j in range(1, k):
        prev[j] = max(prev[j - 1], prev[j])
    for i in range(1, len(rows)):
        row = rows[i]
        cur = [0.0] * k
        cur[0] = max(prev[0], row[0])
        for j in range(1, k):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = best if best > row[j] else row[j]
        prev = cur
    return float(prev[-1])


def frechet_reference(a, b) -> float:
    """discrete_frechet as a loop over every cyclic shift of the smaller
    closed sequence (of both, if the sizes are equal), each shift by the
    row recurrence."""
    pa, pb = a.vertices, b.vertices
    if a.closed and pa.shape[0] < pb.shape[0]:
        pa, pb = pb, pa
    diff = pa[:, None, :] - pb[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if not a.closed:
        return _dfd_rows(dist)
    tables = (dist, dist.T) if pa.shape[0] == pb.shape[0] else (dist,)
    return min(_dfd_rows(np.roll(t, -s, axis=1)) for t in tables for s in range(t.shape[1]))


@functools.lru_cache(maxsize=8)
def _atom_table(curve):
    """The curve's atom positions, prefix sums and seam atom as Python
    floats."""
    pos, ang = curve._atoms
    return pos.tolist(), curve._atom_prefix.tolist(), float(ang[0])


def _atom_mass_reference(curve, x, y):
    """Mass of the atoms strictly inside (x, y); bisect finds the indices
    np.searchsorted finds."""
    pos, prefix, _ = _atom_table(curve)
    lo = bisect.bisect_right(pos, x)
    hi = bisect.bisect_left(pos, y)
    return 0.0 if hi <= lo else prefix[hi] - prefix[lo]


def arc_length_reference(curve, a, b):
    """The scalar PolyCurve.arc_length the array version replaced.  Python's
    float % is np.mod's remainder: fmod, then one add of L to a negative
    remainder, and +0.0 for a zero one."""
    if curve.closed:
        a = float(a) % curve.length
        b = float(b) % curve.length
        return (b - a) % curve.length
    return float(b - a)


def subarc_curvature_reference(curve, a, b):
    """Scalar PolyCurve.subarc_curvature: on a closed curve the arc crosses
    the seam iff its normalized end lies before its normalized start, and an
    arc that ends on the seam vertex (b == 0) leaves that atom out."""
    if not curve.closed:
        return _atom_mass_reference(curve, a, b)
    L = curve.length
    a = float(a) % L
    b = float(b) % L
    if b >= a:
        return _atom_mass_reference(curve, a, b)
    total = _atom_mass_reference(curve, a, L)
    pos, _, seam = _atom_table(curve)
    if pos[0] == 0.0 and b > 0.0:
        total += seam
    return total + _atom_mass_reference(curve, 0.0, b)


def convergence_errors_reference(target, approximant, depth):
    """(length_err, curvature_err) of convergence_report by a double loop
    over the dyadic pairs with the scalar arc measures."""
    lt, la = target.length, approximant.length
    denom = 2 ** depth
    fracs = (np.arange(denom + 1) / denom).tolist()
    length_err = curvature_err = 0.0
    for j in range(denom):
        for k in range(j + 1, denom + 1):
            if target.closed and k - j == denom:
                continue
            f1, f2 = fracs[j], fracs[k]
            dlen = abs(arc_length_reference(target, f1 * lt, f2 * lt)
                       - arc_length_reference(approximant, f1 * la, f2 * la))
            dkap = abs(subarc_curvature_reference(target, f1 * lt, f2 * lt)
                       - subarc_curvature_reference(approximant, f1 * la, f2 * la))
            length_err = max(length_err, dlen)
            curvature_err = max(curvature_err, dkap)
    return length_err, curvature_err


def _reference_arc_point(arc, w):
    return arc.center + arc.radius * (math.cos(w) * arc.e1 + math.sin(w) * arc.e2)


def _reference_point(piece, s):
    """The point at arclength s on one piece, as the per-point methods
    computed it."""
    if isinstance(piece, Arc):
        return _reference_arc_point(piece, s / piece.radius)
    d = piece.end - piece.start
    return piece.start + (s / piece.length) * d


def _reference_end(piece):
    return _reference_arc_point(piece, piece.turning) if isinstance(piece, Arc) else piece.end


def _reference_fillet_corner(v_prev, v, v_next, radius, alpha):
    if alpha < 1e-15:
        return None, 0.0
    e_in = v - v_prev
    e_out = v_next - v
    len_in = np.linalg.norm(e_in)
    len_out = np.linalg.norm(e_out)
    d1 = e_in / len_in
    d2 = e_out / len_out
    half = alpha / 2.0
    r = min(radius, 0.49 * min(len_in, len_out) / 2.0 / math.tan(half))
    trim = r * math.tan(half)
    t1 = v - trim * d1
    bis = d2 - d1
    w = bis / np.linalg.norm(bis)
    center = v + (r / math.cos(half)) * w
    e1 = t1 - center
    e1 = e1 / np.linalg.norm(e1)
    return Arc(center=center, radius=r, e1=e1, e2=d1, turning=alpha), trim


def fillet_smooth_reference(poly, radius):
    """fillet_smooth as a loop over corners: a fillet per corner, segments
    added one at a time with collinear continuations merged, and a closed
    curve's pieces rotated to start with a segment."""
    v = poly.vertices
    m = poly.num_vertices
    _, alphas = poly._atoms
    corner_ids = range(m) if poly.closed else range(1, m - 1)
    arcs, trims, dropped = {}, {}, 0.0
    for i, alpha in zip(corner_ids, alphas.tolist()):
        arcs[i], trims[i] = _reference_fillet_corner(v[(i - 1) % m], v[i], v[(i + 1) % m],
                                                     radius, alpha)
        if arcs[i] is None:
            dropped += alpha
    pieces = []

    def add_segment(a, b):
        if np.linalg.norm(b - a) <= 1e-15:
            return
        if pieces and isinstance(pieces[-1], Segment):
            last = pieces[-1]
            da = b - last.start
            db = last.end - last.start
            if np.linalg.norm(da / np.linalg.norm(da) - db / np.linalg.norm(db)) < 1e-12:
                pieces[-1] = Segment(last.start, b)
                return
        pieces.append(Segment(np.asarray(a, float), np.asarray(b, float)))

    def corner_entry(i):
        if arcs[i] is None:
            return v[i]
        return v[i] - trims[i] * (v[i] - v[(i - 1) % m]) / np.linalg.norm(v[i] - v[(i - 1) % m])

    def corner_exit(i):
        return _reference_end(arcs[i]) if arcs[i] is not None else v[i]

    if poly.closed:
        for i in range(m):
            if arcs[i] is not None:
                pieces.append(arcs[i])
            add_segment(corner_exit(i), corner_entry((i + 1) % m))
        if pieces and isinstance(pieces[0], Arc):
            k = next(k for k, p in enumerate(pieces) if isinstance(p, Segment))
            pieces = pieces[k:] + pieces[:k]
    else:
        cursor = v[0]
        for i in range(1, m - 1):
            add_segment(cursor, corner_entry(i))
            if arcs[i] is not None:
                pieces.append(arcs[i])
            cursor = corner_exit(i)
        add_segment(cursor, v[m - 1])
    max_trim = max(trims.values()) if trims else 0.0
    return SmoothedCurve(pieces=pieces, closed=poly.closed, max_trim=float(max_trim),
                         dropped_turning=float(dropped))


def sample_reference(smooth, step):
    """SmoothedCurve.sample (past its step check) as a loop over pieces and
    points, with the coarse fallback walking the pieces per parameter."""
    pts = []
    for piece in smooth.pieces:
        plen = piece.length
        nsub = max(1, math.ceil(plen / step))
        for j in range(nsub):
            pts.append(_reference_point(piece, plen * j / nsub))
    if not smooth.closed:
        pts.append(_reference_end(smooth.pieces[-1]))
    pts = np.asarray(pts)
    keep = np.concatenate(([True], np.linalg.norm(np.diff(pts, axis=0), axis=1) > 1e-15))
    pts = pts[keep]
    minimum = 3 if smooth.closed else 2
    if pts.shape[0] < minimum:
        total = float(sum(p.length for p in smooth.pieces))
        pts = []
        for t in (total * k / minimum for k in range(minimum)):
            acc = 0.0
            for piece in smooth.pieces:
                if t <= acc + piece.length:
                    pts.append(_reference_point(piece, t - acc))
                    break
                acc += piece.length
            else:
                pts.append(_reference_end(smooth.pieces[-1]))
        pts = np.asarray(pts)
    return pts


# ---------------------------------------------------------------------------
# inscription
# ---------------------------------------------------------------------------

def test_inscribe_hexagon_in_dense_circle():
    c = make_circle(1.0, 3600)
    hexa = inscribe_polygon(c, 6)
    assert abs(hexa.length - 6.0) < 1e-3
    assert hexa.closed


def test_inscribe_fixed_point_when_equispaced():
    c = make_circle(1.0, 360)
    again = inscribe_polygon(c, 360)
    assert np.allclose(again.vertices, c.vertices, atol=1e-12)


def test_inscribe_square_octagon():
    oct_ = inscribe_polygon(make_unit_square(), 8)
    assert abs(oct_.total_curvature() - 2 * math.pi) < 1e-12
    expected = [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]]
    assert np.allclose(oct_.vertices, expected)


def test_inscribe_never_increases_total_curvature():
    rng = np.random.default_rng(41)
    for _ in range(30):
        poly = random_cusp_free_polygon(rng, 8, 60)
        n = int(rng.integers(3, 40))
        ins = inscribe_polygon(poly, n)
        assert ins.total_curvature() <= poly.total_curvature() + 1e-9


def test_inscribe_rejects_small_n():
    with pytest.raises(ValueError):
        inscribe_polygon(make_unit_square(), 2)


def test_inscribe_refuses_a_huge_n_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n must be between 3 and 1048576 vertices, not 100000000"):
            inscribe_polygon(make_unit_square(), 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert inscribe_polygon(make_unit_square(), approx._MAX_INSCRIBED).num_vertices == 1 << 20


# ---------------------------------------------------------------------------
# corner rounding
# ---------------------------------------------------------------------------

def test_fillet_square_preserves_curvature_and_length():
    sq = make_unit_square()
    sm = fillet_smooth(sq, 0.1)
    assert abs(sm.total_curvature() - sq.total_curvature()) <= 1e-12
    # every edge loses two trims of r*tan(pi/4); arcs add r*(pi/2) each
    assert math.isclose(sm.length(), 4 - 0.8 + 0.2 * math.pi, abs_tol=1e-12)
    assert math.isclose(sm.max_trim, 0.1, abs_tol=1e-12)


def test_fillet_preserves_curvature_random():
    rng = np.random.default_rng(43)
    for _ in range(100):
        poly = random_cusp_free_polygon(rng, 6, 40)
        sm = fillet_smooth(poly, float(rng.uniform(0.01, 0.5)))
        assert abs(sm.total_curvature() - poly.total_curvature()) <= 1e-12


def test_fillet_zero_turn_vertex_gets_no_arc():
    chain = PolyCurve([[0, 0], [1, 0], [2, 0], [2, 1]], closed=False)
    sm = fillet_smooth(chain, 0.1)
    assert sum(1 for p in sm.pieces if isinstance(p, Arc)) == 1
    assert abs(sm.total_curvature() - chain.total_curvature()) <= 1e-12


def test_fillet_cusp_rejected_with_vertex_id():
    spike = PolyCurve([[0, 0], [1, 0], [0, 1e-12], [0, 1]], closed=False)
    with pytest.raises(ValueError, match="vertex 1"):
        fillet_smooth(spike, 0.1)


def _piece_tangent(piece, at_start):
    if isinstance(piece, Arc):
        w = 0.0 if at_start else piece.turning
        tangent = -math.sin(w) * piece.e1 + math.cos(w) * piece.e2
    else:
        tangent = piece.end - piece.start
    return tangent / np.linalg.norm(tangent)


def test_fillet_tangent_continuity_and_hausdorff():
    rng = np.random.default_rng(47)
    for _ in range(20):
        poly = random_cusp_free_polygon(rng, 6, 20)
        sm = fillet_smooth(poly, float(rng.uniform(0.02, 0.3)))
        pairs = list(zip(sm.pieces, sm.pieces[1:]))
        if sm.closed:
            pairs.append((sm.pieces[-1], sm.pieces[0]))
        for p1, p2 in pairs:
            assert np.linalg.norm(np.asarray(p1.end) - np.asarray(p2.start)) < 1e-9
            assert np.linalg.norm(_piece_tangent(p1, False)
                                  - _piece_tangent(p2, True)) < 1e-9
        # sampled smoothed curve stays within max_trim of the polygon
        sample = sm.sample(poly.length / 200)
        worst = max(point_to_polyline_distance(p, poly) for p in sample.vertices)
        assert worst <= sm.max_trim + 1e-9


def test_fillet_radius_to_zero_hausdorff_to_zero():
    sq = make_unit_square()
    prev = math.inf
    for r in (0.1, 0.01, 0.001):
        sm = fillet_smooth(sq, r)
        assert sm.max_trim < prev
        prev = sm.max_trim
    assert prev < 0.002


def test_fillet_requires_positive_radius():
    with pytest.raises(ValueError):
        fillet_smooth(make_unit_square(), 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_fillet_and_sample_reject_non_finite_lengths(value):
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        fillet_smooth(make_unit_square(), value)
    with pytest.raises(ValueError, match="step must be finite and positive"):
        fillet_smooth(make_unit_square(), 0.1).sample(value)


def test_fillet_arcs_turn_by_the_corner_atoms():
    for poly in (make_ellipse(2, 1, 24), PolyCurve(np.random.default_rng(2).standard_normal((7, 3)),
                                                   closed=False)):
        arcs = [p for p in fillet_smooth(poly, 0.05).pieces if isinstance(p, Arc)]
        # a closed curve's pieces start after vertex 0, whose arc comes last
        assert sorted(a.turning for a in arcs) == sorted(poly._atoms[1].tolist())


def test_smoothed_curve_json_shape():
    sm = fillet_smooth(make_unit_square(), 0.1)
    data = sm.to_json_dict()
    assert data["closed"] is True
    kinds = {p["type"] for p in data["pieces"]}
    assert kinds == {"seg", "arc"}
    for piece in data["pieces"]:
        if piece["type"] == "arc":
            assert {"center", "radius", "e1", "e2", "turning"} <= set(piece)
        else:
            assert {"start", "end"} <= set(piece)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_filleted_square_curvature():
    sm = fillet_smooth(make_unit_square(), 0.1)
    samp = sm.sample(1e-3)
    assert abs(samp.total_curvature() - 2 * math.pi) < 1e-5
    assert samp.total_curvature() <= sm.total_curvature() + 1e-9


def test_sample_single_circle_piece_gives_regular_polygon():
    arc = Arc(center=np.zeros(2), radius=1.0, e1=np.array([1.0, 0.0]),
              e2=np.array([0.0, 1.0]), turning=2 * math.pi)
    sm = SmoothedCurve(pieces=[arc], closed=True)
    poly = sm.sample(2 * math.pi / 12)
    assert poly.num_vertices == 12
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0, atol=1e-12)
    assert np.ptp(poly._edge_lens) < 1e-12


def test_sample_coarse_step_warns_and_stays_valid():
    arc = Arc(center=np.zeros(2), radius=1.0, e1=np.array([1.0, 0.0]),
              e2=np.array([0.0, 1.0]), turning=2 * math.pi)
    sm = SmoothedCurve(pieces=[arc], closed=True)
    with pytest.warns(UserWarning, match="coarse"):
        poly = sm.sample(100.0)
    assert poly.closed
    assert poly.num_vertices >= 3


def test_sample_refuses_a_step_below_its_smallest_named_step(monkeypatch):
    smooth = fillet_smooth(make_regular_polygon(6), 0.1)
    monkeypatch.setattr(approx, "_MAX_SAMPLE_STEPS", 64)
    smallest = smooth.length() / 64
    message = f"more than 64 steps along the curve; step must be at least {smallest!r}$"
    with pytest.raises(ValueError, match=message):
        smooth.sample(smallest * (1.0 - 1e-12))
    # at most one point more per piece than the steps allowed
    assert smooth.sample(smallest).num_vertices <= 64 + len(smooth.pieces)


def test_sample_refuses_a_tiny_step_before_allocating():
    smooth = fillet_smooth(make_unit_square(), 0.05)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="step must be at least 3.73"):
            smooth.sample(1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _assert_same_as_reference(poly, radius, steps):
    smooth, reference = fillet_smooth(poly, radius), fillet_smooth_reference(poly, radius)
    assert smooth.to_json_dict() == reference.to_json_dict()
    assert smooth.dropped_turning == reference.dropped_turning
    assert smooth.length() == float(sum(p.length for p in reference.pieces))
    for step in steps:
        assert np.array_equal(smooth.sample(step).vertices, sample_reference(reference, step))


def _rounding_cases():
    octagon = inscribe_polygon(make_unit_square(), 8)
    return {
        # the benchmark's converge inputs
        **{f"ellipse512-n{n}": inscribe_polygon(make_ellipse(2, 1, 512), n) for n in (16, 32, 64)},
        # zero-turn corners at odd vertices, then at vertex 0
        "octagon": octagon,
        "octagon-rolled": PolyCurve(np.roll(octagon.vertices, 1, axis=0), closed=True),
        "square-midpoint-0": PolyCurve([[0.5, 0], [1, 0], [1, 1], [0, 1], [0, 0]], closed=True),
        "open-3d": PolyCurve(np.random.default_rng(2).standard_normal((7, 3)), closed=False),
        "open-straight-run": PolyCurve([[0, 0], [1, 0], [2, 0], [2, 1], [3, 1], [4, 1]],
                                       closed=False),
    }


@pytest.mark.parametrize("name", sorted(_rounding_cases()))
def test_fillet_and_sample_equal_the_corner_and_point_loops(name):
    poly = _rounding_cases()[name]
    # radius 100 is clamped at every corner
    arcs = [p for p in fillet_smooth(poly, 100.0).pieces if isinstance(p, Arc)]
    assert arcs and all(a.radius < 100.0 for a in arcs)
    for radius in (0.05, 1e-3, 100.0):
        # converge's default step, then coarser and finer ones
        step = fillet_smooth(poly, radius).length() / max(4 * poly.num_vertices, 64)
        _assert_same_as_reference(poly, radius, [step, 7 * step, step / 5])


def test_coarse_sample_fallback_equals_the_piece_walk():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    circle = Arc(center=np.zeros(2), radius=1.0, e1=e1, e2=e2, turning=2 * math.pi)
    half = Arc(center=np.zeros(2), radius=1.0, e1=e1, e2=e2, turning=math.pi)
    diameter = Segment(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    for pieces in ([circle], [half, diameter], [diameter, half]):
        smooth = SmoothedCurve(pieces=pieces, closed=True)
        with pytest.warns(UserWarning, match="coarse"):
            pts = smooth.sample(100.0).vertices
        assert np.array_equal(pts, sample_reference(smooth, 100.0))


def _vertex_arrays(dim):
    return st.integers(3, 12).flatmap(lambda n: arrays(
        np.float64, (n, dim), elements=st.floats(-4.0, 4.0, allow_nan=False, width=64)))


@given(st.booleans(), st.sampled_from([2, 3]).flatmap(_vertex_arrays), st.floats(1e-4, 10.0),
       st.integers(1, 400))
def test_fillet_and_sample_property_equal_the_loops(closed, v, radius, parts):
    edges = np.roll(v, -1, axis=0) - v if closed else np.diff(v, axis=0)
    assume(np.all(np.linalg.norm(edges, axis=1) > 1e-9))
    poly = PolyCurve(v, closed=closed)
    assume(not np.any(poly._atoms[1] >= math.pi - 1e-9))
    _assert_same_as_reference(poly, radius, [poly.length / parts])


# ---------------------------------------------------------------------------
# Frechet distance
# ---------------------------------------------------------------------------

def test_frechet_identical_zero():
    sq = make_unit_square()
    assert discrete_frechet(sq, sq) == 0.0


def test_frechet_translated_segment():
    a = PolyCurve([[0, 0], [1, 0]], closed=False)
    b = PolyCurve([[0, 0.5], [1, 0.5]], closed=False)
    assert math.isclose(discrete_frechet(a, b), 0.5, abs_tol=1e-15)


def test_frechet_stairstep_vs_diagonal():
    for k in (4, 10, 25):
        stair = make_stairstep(k)
        diag = make_diagonal(k + 1)
        d = discrete_frechet(stair, diag)
        assert d <= 1.0 / k + 1e-12


def test_frechet_against_recursive_oracle():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = PolyCurve(rng.standard_normal((int(rng.integers(2, 15)), 2)), closed=False)
        b = PolyCurve(rng.standard_normal((int(rng.integers(2, 15)), 2)), closed=False)
        assert math.isclose(discrete_frechet(a, b),
                            recursive_frechet_oracle(a.vertices, b.vertices), abs_tol=1e-12)


def test_frechet_symmetric_and_triangle_inequality():
    rng = np.random.default_rng(59)
    for _ in range(10):
        curves = [PolyCurve(rng.standard_normal((int(rng.integers(3, 10)), 2)), closed=False)
                  for _ in range(3)]
        a, b, c = curves
        dab, dbc, dac = (discrete_frechet(a, b), discrete_frechet(b, c),
                         discrete_frechet(a, c))
        assert math.isclose(dab, discrete_frechet(b, a), abs_tol=1e-12)
        assert dac <= dab + dbc + 1e-12


def test_frechet_closed_shift_invariance():
    c = make_circle(1.0, 40)
    rolled = PolyCurve(np.roll(c.vertices, 7, axis=0), closed=True)
    assert discrete_frechet(c, rolled) < 1e-12


def test_frechet_dominates_vertex_hausdorff():
    a = make_circle(1.0, 24)
    b = make_ellipse(1.5, 1.0, 24)
    assert discrete_frechet(a, b) >= _vertex_hausdorff(a, b) - 1e-12


def test_frechet_rejects_mixed_topology():
    with pytest.raises(ValueError):
        discrete_frechet(make_unit_square(), make_diagonal(4))


def _random_closed(rng, n, dim):
    return PolyCurve(rng.standard_normal((n, dim)), closed=True)


# shifts per sweep: the default, one (the bound test before every shift),
# and a size that leaves a short last sweep
_SWEEPS = [16, 1, 5]


@pytest.mark.parametrize("batch", _SWEEPS)
def test_frechet_closed_matches_shift_loop(monkeypatch, batch):
    monkeypatch.setattr(approx, "_SHIFT_BATCH", batch)
    rng = np.random.default_rng(61)
    for trial in range(24):
        dim = 2 + trial % 2
        n, m = (int(x) for x in rng.integers(3, 30, 2))
        a, b = _random_closed(rng, n, dim), _random_closed(rng, m, dim)
        for x, y in ((a, b), (b, a)):
            assert discrete_frechet(x, y) == frechet_reference(x, y)


@pytest.mark.parametrize("batch", _SWEEPS)
def test_frechet_closed_ties_match_shift_loop(monkeypatch, batch):
    monkeypatch.setattr(approx, "_SHIFT_BATCH", batch)
    hexa = make_regular_polygon(12)
    turned = PolyCurve(np.roll(hexa.vertices, 5, axis=0), closed=True)
    angle = 2 * math.pi / 24
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    half_turned = PolyCurve(hexa.vertices @ rot.T, closed=True)
    pairs = [(hexa, turned), (hexa, half_turned), (hexa, make_regular_polygon(12, 2.0)),
             (make_circle(1.0, 40), make_circle(1.5, 40)),
             (make_circle(1.0, 36), make_circle(0.5, 20))]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            assert discrete_frechet(x, y) == frechet_reference(x, y)
    assert discrete_frechet(hexa, turned) == 0.0


def _count_shifts(monkeypatch):
    """Record the size of every batch of shifts the kernel sweeps."""
    visited = []
    kernel = approx._coupling_values

    def counting(table, m, shifts):
        visited.append(shifts.size)
        return kernel(table, m, shifts)

    monkeypatch.setattr(approx, "_coupling_values", counting)
    return visited


def _centred_ring():
    """A unit circle of 40 vertices whose first and last vertices sit
    within 1e-3 of its centre, about 1/2 from every point of a circle of
    radius 1/2."""
    t = np.linspace(0.0, 2 * math.pi, 40, endpoint=False)
    ring = np.column_stack([np.cos(t), np.sin(t)])
    ring[0], ring[-1] = (0.0, 0.0), (1e-3, 0.0)
    return PolyCurve(ring, closed=True)


def _vertex_hausdorff(a, b):
    dist = np.linalg.norm(a.vertices[:, None] - b.vertices[None], axis=2)
    return max(dist.min(axis=0).max(), dist.min(axis=1).max())


def test_frechet_pruning_visiting_most_shifts_matches_shift_loop(monkeypatch):
    # both ends of the larger sequence sit at the centre of a circle of
    # radius 1/2, so every shift's bound is about 1/2, and the vertex
    # Hausdorff floor (0.505) is below the optimum (1.49), because the
    # circle runs the other way round
    a = _centred_ring()
    b = PolyCurve(make_circle(0.5, 24).vertices[::-1], closed=True)
    visited = _count_shifts(monkeypatch)
    for x, y in ((a, b), (b, a)):
        visited.clear()
        assert discrete_frechet(x, y) == frechet_reference(x, y)
        assert sum(visited) == b.num_vertices


def test_frechet_meeting_the_floor_sweeps_one_shift(monkeypatch):
    circle = make_circle(1.0, 40)
    pairs = [(_centred_ring(), make_circle(0.5, 24)),
             (circle, PolyCurve(np.roll(circle.vertices, 7, axis=0), closed=True))]
    visited = _count_shifts(monkeypatch)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            visited.clear()
            d = discrete_frechet(x, y)
            assert d == frechet_reference(x, y) == _vertex_hausdorff(x, y)
            assert visited == [1]


@pytest.mark.parametrize("batch", _SWEEPS)
def test_frechet_above_the_floor_matches_shift_loop(monkeypatch, batch):
    monkeypatch.setattr(approx, "_SHIFT_BATCH", batch)
    ellipse = make_ellipse(1.5, 1.0, 30)
    pairs = [(_centred_ring(), PolyCurve(make_circle(0.5, 24).vertices[::-1], closed=True)),
             (ellipse, PolyCurve(ellipse.vertices[::-1], closed=True)),
             (make_circle(1.0, 36), PolyCurve(make_ellipse(1.5, 1.0, 20).vertices[::-1],
                                              closed=True))]
    visited = _count_shifts(monkeypatch)
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            visited.clear()
            d = discrete_frechet(x, y)
            assert d == frechet_reference(x, y)
            assert d > _vertex_hausdorff(x, y)
            assert len(visited) > 1


def test_frechet_prunes_shifts_and_stays_exact(monkeypatch):
    a = make_ellipse(2.0, 1.0, 96)
    b = PolyCurve(make_random_jordan(48, seed=43).vertices @ random_rotation(
        2, np.random.default_rng(2)).T, closed=True)
    visited = _count_shifts(monkeypatch)
    assert discrete_frechet(a, b) == frechet_reference(a, b)
    assert sum(visited) < b.num_vertices


def test_frechet_open_matches_row_recurrence():
    rng = np.random.default_rng(67)
    for trial in range(30):
        dim = 2 + trial % 2
        n, m = (int(x) for x in rng.integers(2, 30, 2))
        a = PolyCurve(rng.standard_normal((n, dim)), closed=False)
        b = PolyCurve(rng.standard_normal((m, dim)), closed=False)
        for x, y in ((a, b), (b, a)):
            assert discrete_frechet(x, y) == frechet_reference(x, y)


def test_frechet_closed_against_recursive_oracle_over_shifts():
    rng = np.random.default_rng(71)
    for _ in range(5):
        a = _random_closed(rng, int(rng.integers(8, 15)), 2)
        b = _random_closed(rng, int(rng.integers(3, 8)), 2)
        oracle = min(recursive_frechet_oracle(a.vertices, np.roll(b.vertices, -s, axis=0))
                     for s in range(b.num_vertices))
        assert math.isclose(discrete_frechet(a, b), oracle, rel_tol=0.0, abs_tol=1e-12)


@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(_vertex_arrays(d),
                                                           _vertex_arrays(d))))
def test_frechet_closed_property_equals_reference(pair):
    curves = []
    for v in pair:
        assume(np.all(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1) > 1e-9))
        curves.append(PolyCurve(v, closed=True))
    a, b = curves
    d = discrete_frechet(a, b)
    assert d == frechet_reference(a, b)
    assert discrete_frechet(b, a) == d


@given(st.sampled_from([2, 3]).flatmap(
    lambda d: _vertex_arrays(d).flatmap(
        lambda v: st.tuples(st.just(v), st.permutations(range(v.shape[0]))))))
def test_frechet_closed_same_vertex_set_in_another_order_equals_reference(case):
    # the vertex Hausdorff floor is 0, which the optimum meets only when the
    # order is a cyclic shift
    v, order = case
    curves = []
    for w in (v, v[list(order)]):
        assume(np.all(np.linalg.norm(np.roll(w, -1, axis=0) - w, axis=1) > 1e-9))
        curves.append(PolyCurve(w, closed=True))
    a, b = curves
    d = discrete_frechet(a, b)
    assert d == frechet_reference(a, b) == discrete_frechet(b, a)


# ---------------------------------------------------------------------------
# length bound
# ---------------------------------------------------------------------------

def test_length_bound_identical():
    sq = make_unit_square()
    rec = verify_length_bound(sq, sq)
    assert rec["len_diff"] == 0.0 and rec["holds"]


def test_length_bound_circle_inscription():
    c = make_circle(1.0, 360)
    rec = verify_length_bound(c, inscribe_polygon(c, 12))
    assert rec["holds"]
    assert rec["len_diff"] < rec["bound"]


def test_length_bound_stairstep_family():
    diag = None
    for k in (4, 16, 64, 256):
        stair = make_stairstep(k)
        diag = make_diagonal(k + 1)
        rec = verify_length_bound(stair, diag)
        assert rec["holds"]
        assert math.isclose(rec["len_diff"], 2.0 - math.sqrt(2.0), abs_tol=1e-12)
        # total curvature of the staircase grows linearly in k
        assert rec["tc_a"] >= (2 * k - 1) * math.pi / 2 - 1e-9


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------

def test_convergence_identical_curve_zero_errors():
    e = make_ellipse(2, 1, 128)
    rep = convergence_report(e, e, dyadic_depth=4)
    assert rep.position_err == 0.0
    assert rep.length_err == 0.0
    assert rep.curvature_err == 0.0


def test_convergence_strictly_decreasing_on_ellipse():
    target = make_ellipse(2, 1, 2048)
    reports = [convergence_report(target, inscribe_polygon(target, n), dyadic_depth=5)
               for n in (16, 32, 64)]
    for r1, r2 in zip(reports, reports[1:]):
        assert r2.position_err < r1.position_err
        assert r2.length_err < r1.length_err
        assert r2.curvature_err < r1.curvature_err


def test_convergence_position_error_matches_sagitta():
    target = make_circle(1.0, 4096)
    for n in (16, 64, 256):
        rep = convergence_report(target, inscribe_polygon(target, n), dyadic_depth=3)
        sagitta = 1.0 - math.cos(math.pi / n)
        assert abs(rep.position_err - sagitta) <= 0.1 * sagitta


def _gap_norms(target, approximant, fr):
    gap = target.point_at(fr * target.length) - approximant.point_at(fr * approximant.length)
    return np.linalg.norm(gap, axis=1)


@pytest.mark.parametrize("name", ["ellipse-filleted", "square-octagon", "square-rolled",
                                  "square-seam-rounding", "open-3d", "ellipse-n64"])
def test_position_error_is_the_exact_sup(name):
    target, approximant = {**_convergence_cases(), "ellipse-n64": (
        make_ellipse(2, 1, 512), fillet_smooth(inscribe_polygon(make_ellipse(2, 1, 512), 64),
                                               0.05).sample(0.01))}[name]
    exact = convergence_report(target, approximant, dyadic_depth=1).position_err
    sampled = (np.arange(4096) / 4096 if target.closed else np.linspace(0.0, 1.0, 4096))
    assert exact >= float(np.max(_gap_norms(target, approximant, sampled)))
    # the matched distance is convex between breakpoints, so a dense sample
    # that holds every breakpoint peaks at one of them
    breaks = np.concatenate((target._knots / target.length,
                             approximant._knots / approximant.length))
    dense = np.concatenate((breaks, np.linspace(0.0, 1.0, 20001)))
    assert exact == float(np.max(_gap_norms(target, approximant, dense)))


def _overshooting_open_pair():
    """An open curve whose sequential cumulative length ends one ulp above
    its pairwise-summed length, so its last vertex fraction exceeds 1, and a
    perturbed half of it."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        target = PolyCurve(rng.standard_normal((12, 3)), closed=False)
        if target.cum_len[-1] > target.length:
            break
    else:
        pytest.fail("no overshooting open curve in 1000 seeds")
    approximant = PolyCurve(target.vertices[::2] + 0.01 * rng.standard_normal((6, 3)),
                            closed=False)
    return target, approximant


def test_position_error_on_open_curve_whose_last_knot_overshoots():
    target, approximant = _overshooting_open_pair()
    exact = convergence_report(target, approximant, dyadic_depth=1).position_err
    breaks = np.minimum(np.concatenate((target._knots / target.length,
                                        approximant._knots / approximant.length)), 1.0)
    dense = np.concatenate((breaks, np.linspace(0.0, 1.0, 20001)))
    assert exact == float(np.max(_gap_norms(target, approximant, dense)))


def _convergence_cases():
    ellipse = make_ellipse(2, 1, 128)
    square = make_unit_square()
    rng = np.random.default_rng(73)
    open_a = PolyCurve(rng.standard_normal((9, 3)), closed=False)
    open_b = PolyCurve(rng.standard_normal((5, 3)), closed=False)
    return {
        "ellipse-filleted": (ellipse, fillet_smooth(inscribe_polygon(ellipse, 16), 0.05)
                             .sample(0.05)),
        # dyadic fractions k/8 of L = 4 land exactly on the square's vertices
        "square-octagon": (square, inscribe_polygon(square, 8)),
        "square-rolled": (square, PolyCurve(np.roll(square.vertices, 1, axis=0), closed=True)),
        # at L = 3.6, a + (L - a) rounds above L for a = 0.4375 L: the arc
        # to L then crosses the seam and takes in the atom of vertex 0
        "square-seam-rounding": (PolyCurve(0.9 * square.vertices, closed=True), square),
        "open-3d": (open_a, open_b),
    }


@pytest.mark.parametrize("name", sorted(_convergence_cases()))
def test_convergence_errors_match_scalar_loop(name):
    target, approximant = _convergence_cases()[name]
    if target.closed:
        # the seam vertex sits at position 0, where the wrap adds its atom
        assert target._atoms[0][0] == 0.0 and approximant._atoms[0][0] == 0.0
    for depth in range(1, 10):
        rep = convergence_report(target, approximant, dyadic_depth=depth)
        assert (rep.length_err, rep.curvature_err) == \
            convergence_errors_reference(target, approximant, depth), depth


def test_convergence_errors_match_scalar_loop_on_overshooting_open_curve():
    target, approximant = _overshooting_open_pair()
    for depth in range(1, 10):
        rep = convergence_report(target, approximant, dyadic_depth=depth)
        assert (rep.length_err, rep.curvature_err) == \
            convergence_errors_reference(target, approximant, depth), depth


@pytest.mark.parametrize("depth", [0, 13, 40])
def test_convergence_refuses_dyadic_depth_out_of_range(depth):
    square = make_unit_square()
    with pytest.raises(ValueError, match="between 1 and 12"):
        convergence_report(square, square, dyadic_depth=depth)


@pytest.mark.parametrize("name", sorted(_convergence_cases()))
def test_arc_methods_on_arrays_equal_scalar_reference_per_pair(name):
    j, k = np.triu_indices(17, 1)
    f1, f2 = j / 16, k / 16
    for curve in _convergence_cases()[name]:
        a, b = f1 * curve.length, f2 * curve.length
        assert curve.arc_length(a, b).tolist() == \
            [arc_length_reference(curve, x, y) for x, y in zip(a, b)]
        assert curve.subarc_curvature(a, b).tolist() == \
            [subarc_curvature_reference(curve, x, y) for x, y in zip(a, b)]
        assert curve.subarc_curvature(a[7], b[7]) == subarc_curvature_reference(curve, a[7], b[7])
        assert isinstance(curve.arc_length(a[7], b[7]), float)


def test_convergence_report_of_similar_squares_has_no_seam_curvature():
    square = make_unit_square()
    scaled = PolyCurve(square.vertices * 0.9, closed=True)
    assert convergence_report(scaled, square, dyadic_depth=4).curvature_err == 0.0


def test_convergence_errors_match_scalar_loop_at_depth_8():
    target, approximant = _convergence_cases()["ellipse-filleted"]
    rep = convergence_report(target, approximant, dyadic_depth=8)
    assert (rep.length_err, rep.curvature_err) == \
        convergence_errors_reference(target, approximant, 8)


def test_convergence_errors_same_when_pairs_split_into_blocks(monkeypatch):
    target, approximant = _convergence_cases()["ellipse-filleted"]
    whole = convergence_report(target, approximant, dyadic_depth=5)
    # 33 nodes: 3 rows of j per block, 11 blocks
    monkeypatch.setattr(approx, "_PAIR_BLOCK", 100)
    assert convergence_report(target, approximant, dyadic_depth=5) == whole
    assert (whole.length_err, whole.curvature_err) == \
        convergence_errors_reference(target, approximant, 5)
