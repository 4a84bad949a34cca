"""Tests for quadrilateral measurements and the square-like generator."""

import math
import warnings

import numpy as np
import pytest

from helpers import random_rotation
from sqpeg import quad
from sqpeg.quad import Quad, make_square_like

TETRA = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]


def test_quad_requires_distinct_points():
    with pytest.raises(ValueError, match="distinct"):
        Quad.from_points([[0, 0], [0, 0], [1, 0], [1, 1]])


def test_residual_square_is_zero():
    q = Quad.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert np.array_equal(q.residual(), np.zeros(4))


def test_residual_tetrahedron_is_zero():
    q = Quad.from_points(TETRA)
    assert np.max(np.abs(q.residual())) < 1e-12
    # cross-check: all six pairwise distances equal
    pts = np.asarray(TETRA, float)
    dists = [np.linalg.norm(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)]
    assert np.ptp(dists) < 1e-12


def test_residual_rectangle_by_hand():
    # independent hand computation of the squared distances
    p, q, r, s = (0, 0), (1, 0), (1, 2), (0, 2)
    sq = lambda a, b: (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    expected = (
        sq(p, q) - sq(q, r),
        sq(q, r) - sq(r, s),
        sq(r, s) - sq(s, p),
        sq(p, r) - sq(q, s),
    )
    assert expected == (-3, 3, -3, 0)
    quad = Quad.from_points([p, q, r, s])
    assert np.array_equal(quad.residual(), expected)


def test_is_square_like():
    square = Quad.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert square.is_square_like(1e-12)
    rect = Quad.from_points([[0, 0], [1, 0], [1, 2], [0, 2]])
    assert not rect.is_square_like(1e-6)
    gen = make_square_like(0.5)
    assert gen.is_square_like(1e-10)


def test_theta_values():
    square = Quad.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert math.isclose(square.theta(), math.pi / 4, abs_tol=1e-12)
    tetra = Quad.from_points(TETRA)
    assert math.isclose(tetra.theta(), math.pi / 6, abs_tol=1e-12)


def test_theta_degenerate_limit():
    # diagonals tiny relative to sides: theta near 0
    eps = 1e-6
    q = Quad.from_points([[0, 0], [1, eps], [eps, 2 * eps], [1, 3 * eps]])
    assert q.theta() < 0.01


def test_open_turning_values():
    square = Quad.from_points([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert math.isclose(square.open_turning(), math.pi, abs_tol=1e-12)
    tetra = Quad.from_points(TETRA)
    assert math.isclose(tetra.open_turning(), 4 * math.pi / 3, abs_tol=1e-12)
    collinear = Quad.from_points([[0, 0], [1, 0], [2, 0], [3, 0]])
    assert collinear.open_turning() == 0.0


def test_is_planar_square_rigid_motion_3d():
    rng = np.random.default_rng(23)
    base = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float)
    for _ in range(20):
        rot = random_rotation(3, rng)
        shift = rng.standard_normal(3)
        q = Quad.from_points(base @ rot.T + shift)
        assert q.is_planar_square(1e-9)


def test_is_planar_square_rejects_tetrahedron():
    assert not Quad.from_points(TETRA).is_planar_square(1e-6)


def test_is_planar_square_rejects_out_of_plane_perturbation():
    pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 1e-3]], float)
    assert not Quad.from_points(pts).is_planar_square(1e-6)


def test_make_square_like_planar_case():
    q = make_square_like(math.pi / 4)
    assert np.max(np.abs(q.residual())) < 1e-12
    assert q.is_planar_square(1e-9)
    assert math.isclose(q.theta(), math.pi / 4, abs_tol=1e-12)


def test_make_square_like_tetrahedron_case():
    q = make_square_like(math.pi / 6, side=1.0)
    d = q.points[:, None, :] - q.points[None, :, :]
    dists = np.linalg.norm(d, axis=2)[np.triu_indices(4, 1)]
    assert np.max(np.abs(dists - 1.0)) < 1e-12


def test_make_square_like_rejects_bad_theta():
    for bad in (0.0, -0.1, math.pi / 4 + 1e-6):
        with pytest.raises(ValueError):
            make_square_like(bad)


def test_make_square_like_rigid_invariance():
    rng = np.random.default_rng(29)
    for _ in range(50):
        theta = rng.uniform(0.05, math.pi / 4)
        rot = random_rotation(3, rng)
        shift = 10.0 * rng.standard_normal(3)
        q = make_square_like(theta, side=2.0, rotation=rot, translation=shift)
        assert np.max(np.abs(q.residual())) < 1e-12 * 4.0
        assert math.isclose(q.theta(), theta, abs_tol=1e-12)


def test_generated_family_identities_sample():
    rng = np.random.default_rng(31)
    for _ in range(300):
        theta = rng.uniform(0.02, math.pi / 4)
        q = make_square_like(theta, side=rng.uniform(0.5, 3.0))
        ot = q.open_turning()
        assert math.isclose(ot, 2 * math.pi - 4 * theta, abs_tol=1e-9)
        assert ot >= math.pi - 1e-12
        assert q.theta() <= math.pi / 4 + 1e-12


def test_metrics_invariant_under_relabelings():
    q = make_square_like(0.4, side=1.3)
    pts = q.points
    shifted = Quad.from_points(np.roll(pts, -1, axis=0))     # (q, r, s, p)
    reversed_ = Quad.from_points(pts[[0, 3, 2, 1]])          # (p, s, r, q)
    for other in (shifted, reversed_):
        assert math.isclose(q.open_turning(), other.open_turning(), abs_tol=1e-12)
        assert math.isclose(q.theta(), other.theta(), abs_tol=1e-12)
        assert math.isclose(np.mean(q.side_lengths()), np.mean(other.side_lengths()),
                            abs_tol=1e-12)
        assert math.isclose(np.mean(q.diagonal_lengths()), np.mean(other.diagonal_lengths()),
                            abs_tol=1e-12)


def test_metrics_rigid_invariance():
    rng = np.random.default_rng(37)
    q = make_square_like(0.6, side=1.0)
    rot = random_rotation(3, rng)
    moved = q.transformed(rot, rng.standard_normal(3))
    m0, m1 = q.metrics(), moved.metrics()
    assert np.allclose(m0.sides, m1.sides, rtol=1e-12, atol=1e-12)
    assert np.allclose(m0.diagonals, m1.diagonals, rtol=1e-12, atol=1e-12)
    assert math.isclose(m0.open_turning, m1.open_turning, abs_tol=1e-9)


def test_open_turning_pi_iff_planar_square():
    # exact planar case: both sides of the equivalence hold
    planar = make_square_like(math.pi / 4)
    assert abs(planar.open_turning() - math.pi) <= 1e-9
    assert planar.is_planar_square(1e-9)
    # decidedly non-planar: both fail
    bent = make_square_like(math.pi / 4 - 0.01)
    assert bent.open_turning() - math.pi > 1e-9
    assert not bent.is_planar_square(1e-9)


def test_json_roundtrip():
    q = make_square_like(0.5)
    back = Quad.from_json_dict(q.to_json_dict())
    assert np.allclose(back.points, q.points)


# ---------------------------------------------------------------------------
# planarity defect against the earlier per-dimension formulas
# ---------------------------------------------------------------------------

def _defect_by_projection_reference(tri, other):
    u, w = tri[1] - tri[0], tri[2] - tri[0]
    e1 = u / np.linalg.norm(u)
    w_perp = w - np.dot(w, e1) * e1
    nw = np.linalg.norm(w_perp)
    d = other - tri[0]
    proj = np.dot(d, e1) * e1
    if nw > 1e-14 * np.linalg.norm(w):
        proj = proj + np.dot(d, w_perp / nw) * (w_perp / nw)
    return float(np.linalg.norm(d - proj))


def _planarity_defect_reference(pts):
    """Cross-product distance in dimension 3, largest-area triple by
    np.delete and projection above it."""
    if pts.shape[1] == 3:
        tri = pts[[[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]]
        normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        norms_sq = np.einsum("ij,ij->i", normals, normals)
        k = int(np.argmax(norms_sq))
        nk = math.sqrt(float(norms_sq[k]))
        if nk <= 1e-14:
            return _defect_by_projection_reference(tri[k], pts[k])
        return float(abs((pts[k] - tri[k, 0]) @ normals[k]) / nk)
    best_area, best = -1.0, None
    for drop in range(4):
        tri = np.delete(pts, drop, axis=0)
        u, w = tri[1] - tri[0], tri[2] - tri[0]
        area = math.sqrt(max(np.dot(u, u) * np.dot(w, w) - np.dot(u, w) ** 2, 0.0))
        if area > best_area:
            best_area, best = area, (tri, pts[drop])
    return _defect_by_projection_reference(*best)


@pytest.mark.parametrize("dim", [3, 4, 5])
def test_planarity_defect_matches_reference(dim):
    rng = np.random.default_rng(dim)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(100):
            pts = scale * rng.standard_normal((4, dim))
            if rng.uniform() < 0.3:  # nearly planar: the fourth point near the others' plane
                pts[3] = pts[0] + 0.7 * (pts[1] - pts[0]) - 0.4 * (pts[2] - pts[0]) \
                    + 1e-9 * scale * rng.standard_normal(dim)
            got = Quad.from_points(pts).planarity_defect()
            assert abs(got - _planarity_defect_reference(pts)) <= 1e-12 * scale
    flat = np.zeros((4, dim))
    flat[:, :2] = [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert Quad.from_points(flat).planarity_defect() == 0.0


def test_planarity_defect_zero_in_the_plane():
    assert Quad.from_points([[0, 0], [1, 0], [1, 1], [0, 2]]).planarity_defect() == 0.0


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_square_tests_refuse_invalid_tolerances(tol):
    q = make_square_like(math.pi / 4.0, dim=2)
    for test in (q.is_square_like, q.is_planar_square):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            test(tol)


def test_accessors_return_arrays_the_caller_owns():
    q = Quad.from_points(np.random.default_rng(3).standard_normal((4, 3)))
    sides, diags = q.side_lengths(), q.diagonal_lengths()
    for arr in (q.side_lengths(), q.diagonal_lengths(), q.residual(),
                q.metrics().sides, q.metrics().diagonals):
        arr[:] = -1.0
    assert q.side_lengths().tolist() == sides.tolist()
    assert q.metrics().diagonals.tolist() == diags.tolist()


def test_single_quad_measures_are_rows_of_the_batched_kernel():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((6, 4, 3))
    rows = quad._measure(pts)
    for i, p in enumerate(pts):
        q = Quad.from_points(p)
        met = q.metrics()
        assert q.side_lengths().tolist() == rows.sides[i].tolist() == met.sides.tolist()
        assert q.diagonal_lengths().tolist() == rows.diagonals[i].tolist()
        assert q.residual().tolist() == rows.residual[i].tolist()
        assert q.residual_norm() == rows.residual_norm[i] == met.residual_norm
        assert q.open_turning() == rows.open_turning[i] == met.open_turning
        assert q.theta() == rows.theta[i] == met.theta
    res, mean_side = quad._residuals_of_points(pts)
    assert res.tolist() == rows.residual.tolist()
    assert mean_side.tolist() == rows.mean_side.tolist()


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200])
def test_quad_measures_where_no_squared_chord_overflows(scale):
    # the squared chords of these squares overflow (1e160) or underflow
    # (1e-160, 1e-200); the quad is measured at a power-of-two unit scale
    square = scale * np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        q = Quad.from_points(square)
        assert q.residual_norm() == 0.0
        assert q.is_square_like(0.0)
        assert q.planarity_defect() == 0.0
        assert q.theta() == pytest.approx(quad.QUARTER_PI, abs=1e-15)
        assert q.is_planar_square(1e-9)
        assert q.side_lengths().tolist() == [scale] * 4


def test_quad_measures_scale_exactly_with_powers_of_two():
    rng = np.random.default_rng(21)
    for pts in rng.standard_normal((6, 4, 3)):
        base = Quad.from_points(pts)
        for k in (-400, -100, 3, 100, 400):
            q = Quad.from_points(np.ldexp(pts, k))
            assert np.array_equal(q.side_lengths(), np.ldexp(base.side_lengths(), k))
            assert np.array_equal(q.diagonal_lengths(), np.ldexp(base.diagonal_lengths(), k))
            assert np.array_equal(q.residual(), np.ldexp(base.residual(), 2 * k))
            assert q.planarity_defect() == math.ldexp(base.planarity_defect(), k)
            assert q.residual_norm() == base.residual_norm()
            assert q.open_turning() == base.open_turning()
            assert q.metrics().theta == base.metrics().theta or math.isnan(base.metrics().theta)
            for tol in (0.1, 1.0, 10.0):
                assert q.is_square_like(tol) == base.is_square_like(tol)
