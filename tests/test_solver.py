"""Tests for the inscribed-quadrilateral search."""

import dataclasses
import itertools
import json
import logging
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqpeg import solver
from sqpeg.curve import PolyCurve
from sqpeg.pidist import verify_quad_arc_curvature
from sqpeg.generators import (
    make_circle,
    make_ellipse,
    make_fourier_curve,
    make_random_jordan,
    make_trefoil,
    make_unit_square,
)
from sqpeg.quad import _HEAD, _TAIL, Quad, _residual_jacobian, _residuals_of_points
from sqpeg.solver import (
    SolverConfig,
    brute_force_oracle,
    find_quads,
    parity_report,
    refine,
    seed_grid,
    symmetry_distance,
)

ELLIPSE_SIDE = 4.0 / math.sqrt(5.0)  # inscribed square of x^2/4 + y^2 = 1
TRIANGLE = [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]
# inscribed squares of the 3-4-5 right triangle: legs ab/(a+b), hyp abc/(c^2+ab)
TRIANGLE_SIDES = (12.0 / 7.0, 60.0 / 37.0)


@pytest.fixture(scope="module")
def ellipse():
    return make_ellipse(2.0, 1.0, 512)


@pytest.fixture(scope="module")
def ellipse_solutions(ellipse):
    return find_quads(ellipse)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_seed_grid_combinatorial_count():
    c = make_circle(1.0, 90)
    seeds = seed_grid(c, SolverConfig(grid_m=8))
    assert 0 < len(seeds) <= math.comb(8, 4)


def test_seed_combinations_match_itertools():
    for m in (4, 5, 8, 13, 24):
        expected = np.array(list(itertools.combinations(range(m), 4)))
        assert np.array_equal(solver._combinations4(m), expected)


def test_seed_grid_gap_min_filter(monkeypatch):
    c = make_circle(1.0, 90)
    L = c.length
    monkeypatch.setattr(solver, "_GAP_DIVISOR", 4.0)
    seeds = seed_grid(c, SolverConfig(grid_m=16))
    assert len(seeds) > 0
    for s in seeds:
        gaps = np.diff(np.append(s, s[0] + L))
        assert np.min(gaps) >= L / 4.0 - 1e-12


def test_seed_grid_covers_ellipse_square(ellipse, ellipse_solutions):
    true_params = ellipse_solutions.solutions[0].params
    seeds = seed_grid(ellipse, SolverConfig(grid_m=24))
    spacing = ellipse.length / 24.0
    best = min(symmetry_distance(s, true_params, ellipse.length) for s in seeds)
    assert best <= spacing


def _cube_local_minima(curve, m, cfg, score):
    """Seeding reference: the scores fill an (m+2)^4 cube padded with inf, and
    a tuple is kept when its finite score is no larger than its 8 axis
    neighbours in the cube."""
    L = curve.length
    grid = np.arange(m) * (L / m)
    combos = solver._combinations4(m)
    res, mean_side = _residuals_of_points(curve.point_at(grid)[combos])
    norms = np.where(mean_side >= cfg.min_side, score(res, mean_side), np.inf)
    cube = np.full((m + 2,) * 4, np.inf)
    cube[tuple(combos.T + 1)] = norms
    core = cube[1:-1, 1:-1, 1:-1, 1:-1]
    mask = np.isfinite(core)
    for axis in range(4):
        for off in (0, 2):
            sl = [slice(1, -1)] * 4
            sl[axis] = slice(off, off + m)
            mask &= core <= cube[tuple(sl)]
    params, norms = grid[np.argwhere(mask)], core[mask]
    keep = np.min(solver._cyclic_gaps(params, L), axis=1) >= cfg.gap_min
    return params[keep], norms[keep]


def _mean_sides(curve, m):
    grid = np.arange(m) * (curve.length / m)
    return _residuals_of_points(curve.point_at(grid)[solver._combinations4(m)])[1]


def _strict_config(curve, monkeypatch):
    """min_side at the median grid side scores about half the tuples inf, and
    gap_min at L/10 drops many of the minima left."""
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_SIDE_DIVISOR", curve.length / float(np.median(_mean_sides(curve, 24))))
        mp.setattr(solver, "_GAP_DIVISOR", 10.0)
        return SolverConfig().resolved(curve)


@pytest.mark.parametrize("block", [solver._BLOCK, 997])
def test_rank_neighbours_match_the_dense_cube(corpus, monkeypatch, block):
    monkeypatch.setattr(solver, "_BLOCK", block)
    for name, curve in corpus.items():
        for cfg, score in itertools.product((SolverConfig().resolved(curve),
                                             _strict_config(curve, monkeypatch)),
                                            (solver._smooth_norms, solver._norms)):
            for m in (8, 9, 24, 33):
                got, expected = solver._grid_local_minima(curve, m, cfg, score), \
                    _cube_local_minima(curve, m, cfg, score)
                assert np.array_equal(got[0], expected[0]), (name, m, score.__name__)
                assert np.array_equal(got[1], expected[1]), (name, m, score.__name__)


def test_strict_config_scores_inf_and_drops_tuples(corpus, monkeypatch):
    for name in ("ellipse512", "trefoil512"):
        curve = corpus[name]
        cfg = _strict_config(curve, monkeypatch)
        assert 0.4 < np.mean(_mean_sides(curve, 24) < cfg.min_side) < 0.6, name
        kept = len(_cube_local_minima(curve, 24, cfg, solver._norms)[0])
        ungapped = len(_cube_local_minima(curve, 24, dataclasses.replace(cfg, gap_min=0.0),
                                          solver._norms)[0])
        assert 0 < kept < ungapped, name


def test_seed_grid_memory_at_the_largest_grid():
    curve = make_trefoil(512)
    tracemalloc.start()
    try:
        seeds = seed_grid(curve, SolverConfig(grid_m=solver._MAX_GRID_M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seeds) > 0
    assert peak < 80 * 10**6


@pytest.mark.parametrize("m", [8, 9, 24, 33, 64])
def test_grid_tables_equal_a_fresh_build(m):
    combos, flat = solver._grid_tables(m)
    fresh = solver._combinations4(m)
    assert combos.dtype == np.uint8 and np.array_equal(combos, fresh)
    c = fresh.astype(np.intp)
    assert flat.dtype == np.int16 and flat.shape == (6, math.comb(m, 4))
    assert np.array_equal(flat, (c[:, _TAIL] * m + c[:, _HEAD]).T)


def test_grid_tables_are_read_only():
    for table in solver._grid_tables(8):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def test_grid_tables_keep_bounded_bytes_at_the_largest_grid():
    curve = make_trefoil(512)
    m = solver._MAX_GRID_M
    solver._grid_tables.cache_clear()
    tracemalloc.start()
    try:
        seeds = seed_grid(curve, SolverConfig(grid_m=m))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(seeds) > 0
    # uint8 subsets (4 bytes a tuple) and int16 chord rows (12 bytes a tuple)
    # stay; everything else seeding allocates is freed
    assert 16 * math.comb(m, 4) <= kept < 16 * math.comb(m, 4) + 10**6
    assert peak < 40 * 10**6


def test_grid_tables_cache_cannot_change_answers(corpus):
    curves = _gate_curves(corpus)

    def outputs(m):
        return {name: json.dumps(_find_quietly(c, SolverConfig(grid_m=m)).to_json_dict())
                for name, c in curves.items()}

    sizes = (8, 24, 48)
    for m in sizes:
        solver._grid_tables.cache_clear()
        cold = outputs(m)
        for other in sizes:  # the cache holds two sizes: this evicts m's tables
            if other != m:
                seed_grid(curves["square"], SolverConfig(grid_m=other))
        assert outputs(m) == cold, m
        hits = solver._grid_tables.cache_info().hits
        assert outputs(m) == cold, m
        assert solver._grid_tables.cache_info().hits == hits + len(curves)


@pytest.mark.parametrize("name", ["ellipse512", "trefoil512"])
def test_chord_table_scores_equal_the_point_kernel(corpus, monkeypatch, name):
    # seeding gathers every tuple's chords from one table of grid chords; the
    # point kernel gathers the tuple's grid points (ellipse 2-D, trefoil 3-D)
    curve = corpus[name]
    cfg = SolverConfig().resolved(curve)
    real = solver._norms
    for m in (8, 24, 48, 64):
        scored = []
        monkeypatch.setattr(solver, "_norms", lambda res, ms: scored.append((res, ms)) or real(res, ms))
        solver._grid_local_minima(curve, m, cfg, solver._norms)
        monkeypatch.setattr(solver, "_norms", real)
        res, mean_side = (np.concatenate(parts) for parts in zip(*scored))
        pts = curve.point_at(np.arange(m) * (curve.length / m))
        combos = solver._combinations4(m)
        assert res.shape == (len(combos), 4), m
        for lo in range(0, len(combos), solver._BLOCK):
            ref = _residuals_of_points(pts[combos[lo:lo + solver._BLOCK]])
            assert np.array_equal(res[lo:lo + solver._BLOCK], ref[0]), m
            assert np.array_equal(mean_side[lo:lo + solver._BLOCK], ref[1]), m


def test_smooth_score_is_the_residual_2_norm_and_never_below_the_largest_component():
    rng = np.random.default_rng(89)
    res, mean_side = rng.normal(size=(200, 4)), rng.uniform(0.1, 2.0, 200)
    mean_side[:3] = 0.0
    smooth, largest = solver._smooth_norms(res, mean_side), solver._norms(res, mean_side)
    assert np.all(np.isinf(smooth[:3])) and np.all(np.isinf(largest[:3]))
    ref = np.sqrt(np.sum(res[3:] ** 2, axis=1)) / mean_side[3:] ** 2
    assert np.allclose(smooth[3:], ref, rtol=1e-14, atol=0.0)
    assert np.all(smooth[3:] >= largest[3:])
    assert np.all(smooth[3:] <= 2.0 * largest[3:] * (1.0 + 1e-15))
    # the residual is scaled before it is squared
    huge = np.array([[1e200, -1e200, 0.0, 1e200]])
    assert solver._smooth_norms(huge, np.array([1e100]))[0] == pytest.approx(math.sqrt(3.0))


def _chebyshev_seed_grid(curve, config=None):
    """Seeding before the smooth score: the grid-local minima of the largest
    residual component over the squared mean side, the oracle's score."""
    cfg = (config or SolverConfig()).resolved(curve)
    return solver._grid_local_minima(curve, cfg.grid_m, cfg, solver._norms)[0]


def _find_chebyshev_seeded(curve, config=None):
    """find_quads reference: the same search from the Chebyshev minima."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "seed_grid", _chebyshev_seed_grid)
        return _find_quietly(curve, config)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_fixed_point_at_exact_solution():
    c = make_circle(1.0, 360)
    L = c.length
    exact = np.array([0.0, L / 4, L / 2, 3 * L / 4])
    params, reason = refine(c, exact, SolverConfig())
    assert reason == "converged"
    assert np.allclose(params, exact, atol=1e-12)


def test_refine_converges_near_ellipse_square(ellipse, ellipse_solutions):
    true_params = ellipse_solutions.solutions[0].params
    rng = np.random.default_rng(61)
    spacing = ellipse.length / 24.0
    seed = true_params + rng.uniform(-spacing / 2, spacing / 2, 4)
    params, reason = refine(ellipse, seed, SolverConfig())
    assert reason == "converged"
    quad = Quad.from_points(ellipse.point_at(params))
    assert quad.residual_norm() <= 1e-10


def test_refine_rejects_straight_edge_seed():
    sq = make_unit_square()
    params, reason = refine(sq, [0.1, 0.2, 0.3, 0.35], SolverConfig())
    assert params is None
    assert reason in {"collapsed", "small_side", "diverged", "ordering_broken"}


@pytest.mark.parametrize("reason, t, divisors", [
    ("converged", [0.0, 0.25, 0.5, 0.75], {}),
    ("diverged", [0.0, 0.1, 0.5, 0.6], {}),
    ("ordering_broken", [0.0, 0.5, 0.25, 0.75], {}),
    ("collapsed", [0.0, 0.25, 0.5, 0.75], {"_GAP_DIVISOR": 3.0}),
    ("small_side", [0.0, 0.25, 0.5, 0.75], {"_SIDE_DIVISOR": 2.0}),
])
def test_one_rule_judges_refined_and_snapped_tuples(monkeypatch, reason, t, divisors):
    # fractions of L on a circle: the square, a rectangle, the square's
    # vertices out of cyclic order, and the square under a gap_min of L/3
    # and a min_side of L/2; each passes the rules before the one it breaks
    curve = make_circle(1.0, 360)
    L = curve.length
    for name, value in divisors.items():
        monkeypatch.setattr(solver, name, value)
    cfg = SolverConfig().resolved(curve)
    t = np.array([t]) * L
    params, reasons = solver._judge(curve, t, cfg)
    assert reasons.tolist() == [reason]
    assert np.array_equal(params, np.sort(t, axis=1))
    # snapping tests the sorted grid tuple by the same rule
    g = L / cfg.grid_m
    near = params + 0.1 * g
    snapped = solver._snap_to_grid(curve, near, cfg)
    if reason in ("converged", "ordering_broken"):
        assert np.array_equal(snapped, np.round(near / g) * g)
    else:
        assert np.array_equal(snapped, near)


def test_batched_refinement_matches_per_seed_path(ellipse):
    from sqpeg.solver import _refine_batch

    cfg = SolverConfig().resolved(ellipse)
    seeds = _chebyshev_seed_grid(ellipse, cfg)[::4]
    assert len(seeds) >= 28
    for seed, (bp, br) in zip(seeds, _outcomes(*_refine_batch(ellipse, seeds, cfg))):
        sp, sr = refine(ellipse, seed, cfg)
        assert sr == br
        if sp is not None:
            assert np.allclose(sp, bp, atol=1e-9)


# Sequential reference of the damping ladder: each seed tries rung j
# (lam * 10^j) only after rung j - 1 failed, one batched trial per rung.  Its
# job is the ladder order: it takes the same cell Jacobian as the solver, but
# from its own evaluation of the current iterate.

def _ref_refine_batch(curve, seeds, cfg):
    K = seeds.shape[0]
    L = curve.length
    target = 0.1 * cfg.residual_tol
    t = np.mod(np.asarray(seeds, dtype=float), L)
    res, ms = solver._eval_batch(curve, t)
    norm = solver._norms(res, ms)
    lam = np.full(K, 1e-3)
    active = np.ones(K, dtype=bool)
    for _ in range(cfg.max_iter):
        active &= norm > target
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        ta = t[idx]
        chords, _, _, tangents = solver._eval_cells(curve, ta)
        jac = _residual_jacobian(chords, tangents)
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        g = np.einsum("aij,aj->ai", jt, res[idx])
        diag = np.maximum(np.einsum("aii->ai", jtj), 1e-30)
        pending = np.ones(idx.size, dtype=bool)
        accepted_step = np.zeros(idx.size)
        for _trial in range(10):
            p = np.nonzero(pending)[0]
            if p.size == 0:
                break
            damp = jtj[p] + lam[idx[p], None, None] * (diag[p, :, None] * np.eye(4))
            delta = np.linalg.solve(damp, -g[p][..., None])[..., 0]
            bad = ~np.all(np.isfinite(delta), axis=1)
            t_new = np.mod(ta[p] + delta, L)
            res_new, ms_new = solver._eval_batch(curve, t_new)
            norm_new = solver._norms(res_new, ms_new)
            improved = (norm_new < norm[idx[p]]) & ~bad
            acc, rows = p[improved], idx[p[improved]]
            t[rows], res[rows] = t_new[improved], res_new[improved]
            norm[rows] = norm_new[improved]
            lam[rows] = np.maximum(lam[rows] / 3.0, 1e-12)
            accepted_step[acc] = np.max(np.abs(delta[improved]), axis=1)
            pending[acc] = False
            lam[idx[p[~improved]]] *= 10.0
        active[idx[pending | (accepted_step < 1e-15 * L)]] = False
    params = np.sort(np.mod(t, L), axis=1)
    res, ms = solver._eval_batch(curve, params)
    gaps = solver._cyclic_gaps(t, L)
    reasons = np.select(
        [solver._norms(res, ms) > cfg.residual_tol, ~solver._winds_once(gaps, L),
         np.min(gaps, axis=1) < cfg.gap_min, ms < cfg.min_side],
        ["diverged", "ordering_broken", "collapsed", "small_side"], "converged")
    return [(p if r == "converged" else None, str(r)) for p, r in zip(params, reasons)]


# Finite-difference reference of the refinement, as it was before the cell
# Jacobian: central differences over the 8 probes t_i +- h, h = L/(16*grid_m),
# and residual_tol tested on the unsorted iterate.

_PROBE = np.kron(np.eye(4), [[1.0], [-1.0]])


def _fd_jacobian(curve, t, h):
    """jac[a, r, i] = d res_r / d t_i by central differences at step h."""
    pres = solver._eval_batch(curve, (t[:, None, :] + h * _PROBE).reshape(-1, 4))[0]
    pres = pres.reshape(t.shape[0], 4, 2, 4)
    return np.ascontiguousarray((pres[:, :, 0] - pres[:, :, 1]).transpose(0, 2, 1) / (2.0 * h))


def _fd_refine_batch(curve, seeds, cfg):
    K = seeds.shape[0]
    L = curve.length
    h = L / (16.0 * cfg.grid_m)
    target = 0.1 * cfg.residual_tol
    t = np.mod(np.asarray(seeds, dtype=float), L)
    res, ms = solver._eval_batch(curve, t)
    norm = solver._norms(res, ms)
    lam = np.full(K, 1e-3)
    active = np.ones(K, dtype=bool)
    for _ in range(cfg.max_iter):
        active &= norm > target
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        ta = t[idx]
        jac = _fd_jacobian(curve, ta, h)
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        g = np.einsum("aij,aj->ai", jt, res[idx])
        diag = np.maximum(np.einsum("aii->ai", jtj), 1e-30)
        ladder = np.cumprod(np.column_stack([lam[idx], np.full((idx.size, 9), 10.0)]), axis=1)
        pending = np.ones(idx.size, dtype=bool)
        accepted_step = np.zeros(idx.size)
        for rungs in (slice(0, 1), slice(1, 10)):
            p = np.nonzero(pending)[0]
            if p.size == 0:
                break
            lams = ladder[p, rungs]
            k = lams.shape[1]
            damp = jtj[p, None] + lams[..., None, None] * (diag[p, None, :, None] * np.eye(4))
            damp = damp.reshape(-1, 4, 4)
            rhs = -np.repeat(g[p], k, axis=0)
            try:
                delta = np.linalg.solve(damp, rhs[..., None])[..., 0]
                bad = ~np.all(np.isfinite(delta), axis=1)
            except np.linalg.LinAlgError:
                delta, bad = np.zeros_like(rhs), np.zeros(rhs.shape[0], dtype=bool)
                for j in range(rhs.shape[0]):
                    try:
                        delta[j] = np.linalg.solve(damp[j], rhs[j])
                    except np.linalg.LinAlgError:
                        bad[j] = True
            t_new = np.mod(np.repeat(ta[p], k, axis=0) + delta, L)
            res_new, ms_new = solver._eval_batch(curve, t_new)
            norm_new = solver._norms(res_new, ms_new)
            improved = ((norm_new < np.repeat(norm[idx[p]], k)) & ~bad).reshape(-1, k)
            hit = np.any(improved, axis=1)
            first = np.argmax(improved[hit], axis=1)
            acc, pick = p[hit], np.nonzero(hit)[0] * k + first
            rows = idx[acc]
            t[rows], res[rows], ms[rows] = t_new[pick], res_new[pick], ms_new[pick]
            norm[rows] = norm_new[pick]
            lam[rows] = np.maximum(ladder[acc, rungs.start + first] / 3.0, 1e-12)
            accepted_step[acc] = np.max(np.abs(delta[pick]), axis=1)
            pending[acc] = False
        active[idx[pending | (accepted_step < 1e-15 * L)]] = False
    gaps = solver._cyclic_gaps(t, L)
    reasons = np.select(
        [norm > cfg.residual_tol, ~solver._winds_once(gaps, L),
         np.min(gaps, axis=1) < cfg.gap_min, ms < cfg.min_side],
        ["diverged", "ordering_broken", "collapsed", "small_side"], "converged")
    return np.sort(np.mod(t, L), axis=1), reasons


def _outcomes(params, reasons):
    """The (params or None, reason) list of one _refine_batch result."""
    return [(p if r == "converged" else None, str(r)) for p, r in zip(params, reasons)]


def _assert_same_outcomes(got, expected, label):
    assert len(got) == len(expected), label
    for (gp, gr), (ep, er) in zip(got, expected):
        assert gr == er, label
        assert (gp is None and ep is None) or np.array_equal(gp, ep), label


def _ladder_cases(corpus):
    curves = _gate_curves(corpus)
    for name, curve in curves.items():
        for m in (8, 24):
            yield f"{name} m={m}", curve, m
    for name in ("ellipse512", "triangle345"):
        yield f"{name} m=48", curves[name], 48


def test_batched_ladder_matches_sequential_trials(corpus):
    for label, curve, m in _ladder_cases(corpus):
        cfg = SolverConfig(grid_m=m).resolved(curve)
        seeds = seed_grid(curve, cfg)
        _assert_same_outcomes(_outcomes(*solver._refine_batch(curve, seeds, cfg)),
                              _ref_refine_batch(curve, seeds, cfg), label)


def test_ftol_stop_ends_the_triangle_refinement_early(corpus, monkeypatch):
    # the last seed of triangle345 that converges at grid_m 24 needs 9
    # iterations; without the ftol stop the seeds that end diverged kept the
    # loop running for 54.  The cell Jacobian is taken once per iteration.
    iterations = []
    real = solver._residual_jacobian
    monkeypatch.setattr(solver, "_residual_jacobian",
                        lambda chords, tangents: iterations.append(len(chords)) or real(chords, tangents))
    curve = corpus["triangle345"]
    cfg = SolverConfig(grid_m=24).resolved(curve)
    outcomes = _outcomes(*solver._refine_batch(curve, _chebyshev_seed_grid(curve, cfg), cfg))
    assert sum(r == "converged" for _, r in outcomes) == 57
    assert len(iterations) <= 35


def test_ftol_stop_ends_the_jordan11_refinement_early(corpus, monkeypatch):
    # all 16 converging seeds of jordan11 at grid_m 24 stop by iteration 8;
    # at _FTOL = 1e-6 one seed that ends diverged kept the loop running for 47
    iterations = []
    real = solver._residual_jacobian
    monkeypatch.setattr(solver, "_residual_jacobian",
                        lambda chords, tangents: iterations.append(len(chords)) or real(chords, tangents))
    curve = corpus["jordan11"]
    cfg = SolverConfig(grid_m=24).resolved(curve)
    outcomes = _outcomes(*solver._refine_batch(curve, seed_grid(curve, cfg), cfg))
    assert Counter(r for _, r in outcomes) == {"converged": 16, "diverged": 39}
    assert len(iterations) <= 30


def test_ftol_stop_keeps_the_gate_outputs(corpus, monkeypatch):
    for name, curve in _gate_curves(corpus).items():
        for m in (8, 24, 48):
            cfg = SolverConfig(grid_m=m)
            new = json.dumps(_find_quietly(curve, cfg).to_json_dict())
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_FTOL", 0.0)  # no accepted step fails the test
                assert json.dumps(_find_quietly(curve, cfg).to_json_dict()) == new, (name, m)


@given(st.integers(0, 2**16), st.sampled_from([8, 24]))
def test_ftol_stop_property_keeps_the_solution_sets(seed, m):
    curve = make_random_jordan(64, seed=seed)
    cfg = SolverConfig(grid_m=m)
    new = _find_quietly(curve, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_FTOL", 0.0)
        old = _find_quietly(curve, cfg)
    _assert_same_classes(new, old, curve.length, (seed, m), rel=cfg.residual_tol)


@pytest.mark.parametrize("name, converged, bound", [
    ("square", 22, 10), ("triangle345", 9, 10), ("jordan11", 16, 20)])
def test_broken_order_stop_ends_the_refinement_early(corpus, monkeypatch, name, converged, bound):
    # folded seeds that head for the spurious zero p = r, q = s kept these
    # loops running for 25, 25 and 26 iterations after the last converging
    # seed had stopped at 9, 9 and 19
    curve = corpus[name]
    cfg = SolverConfig(grid_m=24).resolved(curve)
    seeds = seed_grid(curve, cfg)
    with monkeypatch.context() as mp:
        mp.setattr(solver, "_BROKEN_STREAK", math.inf)
        unstopped = solver._refine_batch(curve, seeds, cfg)
    iterations = []
    real = solver._residual_jacobian
    monkeypatch.setattr(solver, "_residual_jacobian",
                        lambda chords, tangents: iterations.append(len(chords)) or real(chords, tangents))
    params, reasons = solver._refine_batch(curve, seeds, cfg)
    assert len(iterations) <= bound
    done = reasons == "converged"
    assert np.sum(done) == converged
    assert np.array_equal(done, unstopped[1] == "converged")
    assert np.array_equal(params[done], unstopped[0][done])


def test_broken_order_stop_keeps_the_gate_outputs(corpus, monkeypatch):
    for name, curve in _gate_curves(corpus).items():
        for m in (8, 24, 48):
            cfg = SolverConfig(grid_m=m)
            new = json.dumps(_find_quietly(curve, cfg).to_json_dict())
            with monkeypatch.context() as mp:
                mp.setattr(solver, "_BROKEN_STREAK", math.inf)  # no seed stops for its order
                assert json.dumps(_find_quietly(curve, cfg).to_json_dict()) == new, (name, m)


@given(st.integers(0, 2**16), st.sampled_from([8, 24]))
def test_broken_order_stop_property_keeps_the_solution_sets(seed, m):
    curve = make_random_jordan(64, seed=seed)
    cfg = SolverConfig(grid_m=m)
    new = _find_quietly(curve, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BROKEN_STREAK", math.inf)
        old = _find_quietly(curve, cfg)
    _assert_same_classes(new, old, curve.length, (seed, m), rel=cfg.residual_tol)


def test_ladder_falls_back_to_one_solve_per_row(corpus, monkeypatch):
    real = np.linalg.solve

    refused = []

    def rowwise_only(a, b):
        if np.ndim(a) > 2:
            refused.append(len(a))
            raise np.linalg.LinAlgError("stacked solve refused")
        return real(a, b)

    cases = [(name, corpus[name]) for name in ("ellipse512", "triangle345", "jordan42_64")]
    expected = {}
    for name, curve in cases:
        cfg = SolverConfig(grid_m=8).resolved(curve)
        expected[name] = _outcomes(*solver._refine_batch(curve, seed_grid(curve, cfg), cfg))
    monkeypatch.setattr(np.linalg, "solve", rowwise_only)
    for name, curve in cases:
        cfg = SolverConfig(grid_m=8).resolved(curve)
        _assert_same_outcomes(_outcomes(*solver._refine_batch(curve, seed_grid(curve, cfg), cfg)),
                              expected[name], name)
    assert refused


def test_ladder_rows_that_fail_to_solve_are_never_accepted(corpus, monkeypatch):
    # every solve fails, so no seed moves: the outcome is that of the seeds
    # themselves, as with no iteration at all
    def singular(a, b):
        raise np.linalg.LinAlgError("singular")

    curve = corpus["ellipse512"]
    cfg = SolverConfig(grid_m=8).resolved(curve)
    seeds = seed_grid(curve, cfg)
    expected = _outcomes(*solver._refine_batch(curve, seeds, dataclasses.replace(cfg, max_iter=0)))
    monkeypatch.setattr(np.linalg, "solve", singular)
    _assert_same_outcomes(_outcomes(*solver._refine_batch(curve, seeds, cfg)), expected, "ellipse512")


def _cell_jacobian(curve, t):
    chords, _, _, tangents = solver._eval_cells(curve, t)
    return _residual_jacobian(chords, tangents)


def _edges_of(curve, t):
    return curve._locate(np.ravel(t))[0].reshape(np.shape(t))


def _assert_jacobians_agree(got, ref, label, rel=1e-6):
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(scale > 0.0), label
    assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= rel * scale), label


@pytest.mark.parametrize("dim", [2, 3])
def test_cell_jacobian_matches_central_differences_inside_cells(dim):
    # the residual is quadratic in each cell, so central differences whose
    # probes stay in the cell are exact up to rounding
    rng = np.random.default_rng(83 + dim)
    for trial in range(20):
        curve = PolyCurve(rng.normal(size=(int(rng.integers(3, 16)), dim)), closed=True)
        edges = rng.integers(0, curve.num_edges, (16, 4))
        t = curve.cum_len[edges] + rng.uniform(0.1, 0.9, (16, 4)) * curve._edge_lens[edges]
        h = 1e-4 * float(np.min(curve._edge_lens))
        for probe in (t - h, t + h):
            assert np.array_equal(_edges_of(curve, probe), edges), trial
        fd = np.empty((16, 4, 4))
        for i in range(4):
            step = h * np.eye(4)[i]
            up, down = solver._eval_batch(curve, t + step)[0], solver._eval_batch(curve, t - step)[0]
            fd[:, :, i] = (up - down) / (2.0 * h)
        _assert_jacobians_agree(_cell_jacobian(curve, t), fd, (dim, trial))


def test_cell_jacobian_matches_the_fd_step_jacobian_on_gate_seeds(corpus):
    # on the dense curves the step L/384 is longer than an edge, so only the
    # coarse polygons (square, triangle345, the random Jordan curves) have
    # seeds whose probes all stay in their cells
    compared = 0
    for name, curve in _gate_curves(corpus).items():
        cfg = SolverConfig().resolved(curve)
        seeds = _chebyshev_seed_grid(curve, cfg)
        h = curve.length / (16.0 * cfg.grid_m)
        edges = _edges_of(curve, seeds)
        inside = np.all((_edges_of(curve, seeds - h) == edges)
                        & (_edges_of(curve, seeds + h) == edges), axis=1)
        if np.any(inside):
            t = seeds[inside]
            _assert_jacobians_agree(_cell_jacobian(curve, t), _fd_jacobian(curve, t, h), name)
            compared += int(np.sum(inside))
    assert compared >= 100


# ---------------------------------------------------------------------------
# find_quads
# ---------------------------------------------------------------------------

def test_find_quads_requires_closed_curve():
    chain = PolyCurve([[0, 0], [1, 0], [1, 1]], closed=False)
    with pytest.raises(ValueError, match="closed"):
        find_quads(chain)
    # every solver entry point refuses an open curve the same way
    chain = PolyCurve([[0, 0], [1, 0], [1, 1], [0, 1]], closed=False)
    calls = {"find_quads": lambda: find_quads(chain), "seed_grid": lambda: seed_grid(chain),
             "refine": lambda: refine(chain, [0.0, 1.0, 2.0, 3.0]),
             "brute_force_oracle": lambda: brute_force_oracle(chain)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} requires a closed curve$"):
            call()


def test_batched_arc_curvature_equals_the_per_row_calls(corpus):
    for name, curve in _gate_curves(corpus).items():
        sols = _find_quietly(curve).solutions
        reps = np.array([s.params for s in sols]).reshape(-1, 4)
        assert verify_quad_arc_curvature(curve, reps, solver._ARC_KAPPA_TOL).tolist() == \
            [s.arc_kappa_ok for s in sols], name
        for tol in (1e-6, 1.0, 2.0, 3.0):
            batch = verify_quad_arc_curvature(curve, reps, tol)
            assert batch.dtype == bool and batch.shape == (len(reps),), name
            assert batch.tolist() == [verify_quad_arc_curvature(curve, r, tol) for r in reps], name
        broken = reps.copy()
        broken[-1] = broken[-1, ::-1]  # winds the other way
        with pytest.raises(ValueError, match="cyclically ordered"):
            verify_quad_arc_curvature(curve, broken, 1e-6)
    assert verify_quad_arc_curvature(curve, np.empty((0, 4)), 1e-6).shape == (0,)


def test_ellipse_single_solution(ellipse, ellipse_solutions):
    sol = ellipse_solutions
    assert len(sol.solutions) == 1
    s = sol.solutions[0]
    assert abs(float(np.mean(s.sides)) - ELLIPSE_SIDE) < 1e-4
    assert s.residual_norm <= 1e-9
    assert s.arc_kappa_ok
    assert not sol.non_generic
    assert "count 1, odd" in parity_report(sol)


def test_circle_family_snapped_to_grid():
    c = make_circle(1.0, 120)
    L = c.length
    sol = find_quads(c)
    assert len(sol.solutions) >= 4
    assert sol.non_generic
    assert "not meaningful" in parity_report(sol)
    for s in sol.solutions:
        assert np.max(np.abs(s.sides - math.sqrt(2.0))) < 1e-6
        gaps = np.diff(np.append(s.params, s.params[0] + L))
        assert np.max(np.abs(gaps - L / 4)) < L / 24


def test_triangle_finds_both_classical_squares():
    tri = PolyCurve(TRIANGLE, closed=True)
    sol = find_quads(tri)
    sides = sorted(float(np.mean(s.sides)) for s in sol.solutions)
    assert len(sides) == 2
    assert math.isclose(sides[0], TRIANGLE_SIDES[1], abs_tol=1e-6)
    assert math.isclose(sides[1], TRIANGLE_SIDES[0], abs_tol=1e-6)


def test_trefoil_solutions():
    sol = find_quads(make_trefoil(512))
    assert len(sol.solutions) >= 1
    for s in sol.solutions:
        assert s.residual_norm <= 1e-8
        assert s.open_turning >= math.pi - 1e-6
        assert s.theta < math.pi / 4
        assert s.arc_kappa_ok


def test_find_quads_logs_its_stage_counts(ellipse, ellipse_solutions, caplog):
    cfg = SolverConfig().resolved(ellipse)
    seeds = seed_grid(ellipse, cfg)
    outcomes = dict(sorted(Counter(solver._refine_batch(ellipse, seeds, cfg)[1].tolist()).items()))
    with caplog.at_level(logging.DEBUG, logger="sqpeg.solver"):
        sol = find_quads(ellipse)
    assert [r.getMessage() for r in caplog.records if r.name == "sqpeg.solver"] == [
        f"find_quads: {len(seeds)} seeds, refine outcomes {outcomes}, "
        f"raw_count {sol.raw_count}, {len(sol.solutions)} classes"]
    assert outcomes == {"converged": 10, "diverged": 30}
    assert sol.to_json_dict() == ellipse_solutions.to_json_dict()

    # a batch logs the same line once per curve, in input order
    jordan = make_random_jordan(96, seed=3)
    lines = []
    for curve in (jordan, ellipse):
        unit = curve._unit[0]
        cfg = SolverConfig().resolved(unit)
        seeds = seed_grid(unit, cfg)
        reasons = solver._refine_batch(unit, seeds, cfg)[1].tolist()
        lines.append(f"find_quads: {len(seeds)} seeds, refine outcomes "
                     f"{dict(sorted(Counter(reasons).items()))}")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sqpeg.solver"):
        sols = solver.find_quads_many([jordan, ellipse])
    assert [r.getMessage() for r in caplog.records if r.name == "sqpeg.solver"] == [
        f"{line}, raw_count {s.raw_count}, {len(s.solutions)} classes"
        for line, s in zip(lines, sols)]
    assert sols[1].to_json_dict() == ellipse_solutions.to_json_dict()


def test_solution_set_invariants(ellipse, ellipse_solutions):
    sol = ellipse_solutions
    cfg = SolverConfig().resolved(ellipse)
    for s in sol.solutions:
        quad = Quad.from_points(s.points)
        assert quad.is_square_like(1e-8)
        assert np.max(np.abs(s.residual)) <= cfg.residual_tol * np.mean(s.sides) ** 2
    for i in range(len(sol.solutions)):
        for j in range(i + 1, len(sol.solutions)):
            d = symmetry_distance(sol.solutions[i].params, sol.solutions[j].params,
                                  ellipse.length)
            assert d >= cfg.dedup_tol


def test_find_quads_deterministic_and_thread_invariant():
    jc = make_random_jordan(128, seed=5)
    a = find_quads(jc)
    b = find_quads(jc)
    assert len(a.solutions) == len(b.solutions)
    assert a.raw_count == b.raw_count
    for s, t in zip(a.solutions, b.solutions):
        assert np.array_equal(s.params, t.params)


# Scalar reference of the post-refinement stage: each converged tuple is
# snapped on its own, then the greedy dedup compares it with every earlier
# representative through the 8 relabelings.  Python's float % rounds as
# np.mod does, so the distances carry the same bits as the solver's.

def _ref_snap(curve, params, cfg):
    L = curve.length
    g = L / cfg.grid_m
    snapped = np.sort(np.mod(np.round(params / g) * g, L))
    if np.any(np.diff(snapped) == 0.0):
        return params
    gaps = np.mod(np.roll(snapped, -1) - snapped, L)
    if float(np.min(gaps)) < cfg.gap_min or not math.isclose(float(np.sum(gaps)), L,
                                                             rel_tol=1e-9):
        return params
    res, ms = solver._eval_batch(curve, snapped)
    if float(ms[0]) < cfg.min_side or float(solver._norms(res, ms)[0]) > cfg.residual_tol:
        return params
    return snapped


def _ref_symmetry_distance(a, b, L):
    a, b = [float(x) for x in a], [float(x) for x in b]
    rev = b[::-1]
    images = [b[r:] + b[:r] for r in range(4)] + [rev[r:] + rev[:r] for r in range(4)]
    return min(max(min((x - y) % L, L - (x - y) % L) for x, y in zip(a, img))
               for img in images)


def _ref_dedup(cands, L, tol, key=tuple):
    reps = []
    for params in sorted(cands, key=key):
        if not any(_ref_symmetry_distance(params, rp, L) < tol for rp in reps):
            reps.append(params)
    return reps


def _ref_non_generic(reps, L, tol):
    if len(reps) < 4:
        return False
    return min(_ref_symmetry_distance(a, b, L)
               for i, a in enumerate(reps) for b in reps[i + 1:]) <= 2.0 * tol


_FOURIER3D = ([[1, 0, 0.2], [0, 0.3, 0], [0, 0, 0.4]], [[0, 0.3, 0], [1, 0, 0.2], [0, 0.5, 0]])


def _fourier3d():
    return make_fourier_curve(*_FOURIER3D, samples=256)


def _gate_curves(corpus):
    """The corpus plus a 3-D Fourier curve and two seeded random Jordan curves."""
    curves = dict(corpus)
    curves["fourier3d"] = _fourier3d()
    curves["jordan3"] = make_random_jordan(96, seed=3)
    curves["jordan8"] = make_random_jordan(96, seed=8, amplitude=1.0, harmonics=6)
    return curves


def _find_quietly(curve, config=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return find_quads(curve, config)


def test_post_refinement_matches_scalar_reference(corpus, monkeypatch):
    # the search runs on a power-of-two copy of the curve, the one refinement
    # is given, and reports its classes on the curve itself
    outcomes = []

    def recording(curve, seeds, cfg):
        result = real(curve, seeds, cfg)
        outcomes.append((curve, _outcomes(*result)))
        return result

    real = solver._refine_batch
    monkeypatch.setattr(solver, "_refine_batch", recording)
    for name, curve in _gate_curves(corpus).items():
        sol = _find_quietly(curve)
        unit, refined = outcomes[-1]
        scale = curve.length / unit.length
        assert 0.5 <= unit.length < 1.0 and scale == 2.0 ** round(math.log2(scale)), name
        cfg = SolverConfig().resolved(unit)
        L = unit.length
        accepted = [_ref_snap(unit, p, cfg) for p, r in refined if r == "converged"]
        reps = _ref_dedup(accepted, L, cfg.dedup_tol)
        non_generic = _ref_non_generic(reps, L, cfg.dedup_tol)
        assert sol.raw_count == len(accepted), name
        assert sol.non_generic == non_generic, name
        assert sol.parity_note == solver._parity_text(len(reps), non_generic), name
        assert len(sol.solutions) == len(reps), name
        for s, rp in zip(sol.solutions, reps):
            assert np.array_equal(s.params, rp * scale), name


def _quad_reference(points):
    """(sides, diagonals, theta, open turning, residual norm) of one quad by
    the per-quad formulas the batched annotation replaced: diagonals by dot
    products, theta by math.asin, the turning by two scalar angles."""
    pts = np.asarray(points)
    edges = np.roll(pts, -1, axis=0) - pts
    side_sq = np.einsum("ij,ij->i", edges, edges)
    d1, d2 = pts[2] - pts[0], pts[3] - pts[1]
    diag_sq = np.array([float(d1 @ d1), float(d2 @ d2)])
    sides, diags = np.sqrt(side_sq), np.sqrt(diag_sq)
    res = np.append(side_sq[:3] - side_sq[1:], diag_sq[0] - diag_sq[1])
    mean_side = float(np.mean(sides))
    ratio = float(np.mean(diags)) / (2.0 * mean_side)
    theta = math.asin(min(ratio, 1.0)) if ratio <= 1.0 + 1e-9 else math.nan

    def angle(u, v):
        a, b = u / np.linalg.norm(u), v / np.linalg.norm(v)
        return 2.0 * math.atan2(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))

    turning = angle(edges[0], edges[1]) + angle(edges[1], edges[2])
    return sides, diags, theta, turning, float(np.max(np.abs(res))) / (mean_side * mean_side)


def test_solution_annotation_matches_per_quad_reference(corpus):
    def within_ulps(got, ref, n=4):
        got, ref = np.atleast_1d(got), np.atleast_1d(ref)
        return bool(np.all(np.abs(got - ref) <= n * np.spacing(np.abs(ref))))

    for name, curve in _gate_curves(corpus).items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sets = [(find_quads(curve, SolverConfig(grid_m=m)), SolverConfig().residual_tol)
                    for m in (8, 24, 48)]
        sets.append((brute_force_oracle(curve, 24, 0.3), 0.3))
        for solset, tol in sets:
            for s in solset.solutions:
                sides, diags, theta, turning, residual = _quad_reference(s.points)
                assert np.array_equal(s.sides, sides), name
                assert within_ulps(s.diagonals, diags), name
                assert within_ulps(s.theta, theta), name
                assert within_ulps(s.open_turning, turning), name
                assert abs(s.residual_norm - residual) <= 1e-15, name
                assert s.residual_norm <= tol, name
                assert np.array_equal(s.points, curve.point_at(s.params)), name


def _assert_same_classes(new, old, L, label, rel=1e-8):
    assert len(new.solutions) == len(old.solutions), label
    assert new.non_generic == old.non_generic, label
    assert new.parity_note == old.parity_note, label
    for ours, theirs in ((new, old), (old, new)):
        for a in ours.solutions:
            d = min(symmetry_distance(a.params, b.params, L) for b in theirs.solutions)
            assert d <= rel * L, label


def test_cell_jacobian_keeps_the_finite_difference_solution_sets(corpus, monkeypatch):
    def with_both_refinements(run):
        new = run()
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_refine_batch", _fd_refine_batch)
            return new, run()

    for name, curve in _gate_curves(corpus).items():
        for m in (8, 24, 48):
            new, old = with_both_refinements(lambda: _find_quietly(curve, SolverConfig(grid_m=m)))
            _assert_same_classes(new, old, curve.length, f"{name} grid_m={m}")
        # the oracle refines nothing, so it must come out the same either way
        new, old = with_both_refinements(lambda: brute_force_oracle(curve, 24, 0.3))
        _assert_same_classes(new, old, curve.length, f"{name} oracle")


def test_every_reported_residual_is_within_residual_tol(corpus):
    # a short iteration budget leaves tuples converged just under the tol in
    # the order refinement ran, and the sorted tuple is the one reported
    for name, curve in _gate_curves(corpus).items():
        for max_iter in range(3, 9):
            cfg = SolverConfig(max_iter=max_iter, residual_tol=1e-4)
            for s in _find_quietly(curve, cfg).solutions:
                assert s.residual_norm <= cfg.residual_tol, (name, max_iter)


@given(st.integers(0, 2**16), st.integers(2, 8), st.sampled_from([1e-9, 1e-6, 1e-4]))
def test_reported_residuals_never_exceed_residual_tol(seed, max_iter, tol):
    curve = make_random_jordan(64, seed=seed)
    cfg = SolverConfig(max_iter=max_iter, residual_tol=tol)
    for s in _find_quietly(curve, cfg).solutions:
        assert s.residual_norm <= tol


def _quartile_seed_grid(curve, config=None):
    """Seeding before grid-local minima: every grid tuple that passes
    gap_min, then the best quartile of their normalized residuals."""
    cfg = (config or SolverConfig()).resolved(curve)
    m, L = cfg.grid_m, curve.length
    grid = np.arange(m) * (L / m)
    combos = solver._combinations4(m)
    params = grid[combos]
    gaps = np.diff(np.column_stack([params, params[:, :1] + L]), axis=1)
    keep = np.min(gaps, axis=1) >= cfg.gap_min
    combos, params = combos[keep], params[keep]
    norms = solver._norms(*_residuals_of_points(curve.point_at(grid)[combos]))
    return params[norms <= np.percentile(norms, 25.0)]


def test_local_minimum_seeds_match_quartile_seeds(corpus, monkeypatch):
    for name, curve in _gate_curves(corpus).items():
        new = _find_quietly(curve)
        with monkeypatch.context() as mp:
            mp.setattr(solver, "seed_grid", _quartile_seed_grid)
            old = _find_quietly(curve)
        # the reference seeding did run: its quartile converges many more tuples
        assert old.raw_count > new.raw_count, name
        assert len(new.solutions) == len(old.solutions), name
        assert new.non_generic == old.non_generic, name
        assert new.parity_note == old.parity_note, name
        for a, b in zip(new.solutions, old.solutions):
            assert symmetry_distance(a.params, b.params, curve.length) <= 1e-9 * curve.length, name


# At grid_m 8 the two seedings reach different solutions of two gate curves:
# on trefoil512 the smooth minima miss the class of least side (7 classes, 8
# from the Chebyshev minima), and on fourier3d each finds one class the other
# does not.  Every class either finds is one find_quads finds at grid_m 48.
_GRID_8_DIFFERS = ("trefoil512", "fourier3d")


def test_smooth_seeds_keep_the_chebyshev_seeded_solution_sets(corpus):
    for name, curve in _gate_curves(corpus).items():
        L = curve.length
        for m in (8, 24, 48):
            cfg, label = SolverConfig(grid_m=m), f"{name} grid_m={m}"
            new, old = _find_quietly(curve, cfg), _find_chebyshev_seeded(curve, cfg)
            if m == 8 and name in _GRID_8_DIFFERS:
                fine = _find_quietly(curve, SolverConfig(grid_m=48)).solutions
                assert new.non_generic == old.non_generic, label
                for a in new.solutions + old.solutions:
                    d = min(symmetry_distance(a.params, b.params, L) for b in fine)
                    assert d <= 1e-6 * L, label
                continue
            _assert_same_classes(new, old, L, label, rel=1e-6)
            if m > 8:
                # the reference did run: its seeds converge more tuples
                assert old.raw_count > new.raw_count, label


@given(st.integers(0, 2**16), st.sampled_from([24, 48]))
def test_smooth_seeds_property_keeps_the_solution_sets(seed, m):
    curve = make_random_jordan(64, seed=seed)
    cfg = SolverConfig(grid_m=m)
    _assert_same_classes(_find_quietly(curve, cfg), _find_chebyshev_seeded(curve, cfg),
                         curve.length, (seed, m), rel=1e-6)


def test_greedy_classes_break_ties_at_exactly_tol():
    # on L = 8 every distance below is a multiple of 1/4, exact in binary.
    # b and a + 0.5 lie exactly tol from a, so a does not cover them; a + 0.25
    # and the reversal of a + 0.25 lie within tol of a, and a + 0.75 within
    # tol of a + 0.5
    L, tol = 8.0, 0.5
    a = np.array([0.0, 2.0, 4.0, 6.0])
    b = np.array([0.0, 2.5, 4.0, 6.0])
    cands = np.array([a + 0.75, a + 0.25, a, (a + 0.25)[::-1], a + 1.0, b, a + 0.5])
    order = np.lexsort(cands.T[::-1])
    reps = cands[order][solver._greedy_classes(cands[order], L, tol)]
    expected = _ref_dedup(list(cands), L, tol)
    assert np.array_equal(reps, [a, b, a + 0.5, a + 1.0])
    assert np.array_equal(reps, expected)
    assert solver._detect_non_generic(reps, L, tol) is _ref_non_generic(expected, L, tol) is True
    # four classes exactly 2 * tol apart pairwise still count as packed
    chain = np.array([a, a + 1.0, [0.0, 1.0, 4.0, 5.0], [1.0, 2.0, 5.0, 6.0]])
    assert solver._detect_non_generic(chain, L, tol) is _ref_non_generic(chain, L, tol) is True
    for x, y in itertools.product(cands, repeat=2):
        assert symmetry_distance(x, y, L) == _ref_symmetry_distance(x, y, L)


def test_warns_on_non_embedded_curve():
    fig8 = PolyCurve([[0, 0], [1, 1], [1, 0], [0, 1]], closed=True)
    with pytest.warns(UserWarning, match="not embedded"):
        find_quads(fig8, SolverConfig(grid_m=8, max_iter=5))


def test_warns_on_a_crossing_at_a_computed_distance_above_zero():
    # edges 0 and 2 cross, but their computed distance is about 3e-17
    bowtie = PolyCurve(np.random.default_rng(0).normal(size=(2000, 4, 2))[4], closed=True)
    with pytest.warns(UserWarning, match="not embedded"):
        find_quads(bowtie, SolverConfig(grid_m=8, max_iter=5))


def test_rigid_motion_equivariance():
    from helpers import random_rotation

    base = make_ellipse(2.0, 1.0, 256)
    rng = np.random.default_rng(67)
    rot = random_rotation(2, rng)
    moved = PolyCurve(base.vertices @ rot.T + rng.standard_normal(2), closed=True)
    s1, s2 = find_quads(base), find_quads(moved)
    assert len(s1.solutions) == len(s2.solutions)
    for a, b in zip(s1.solutions, s2.solutions):
        assert np.max(np.abs(a.params - b.params)) <= 1e-9
        assert np.max(np.abs(a.sides - b.sides)) <= 1e-9
        assert abs(a.open_turning - b.open_turning) <= 1e-9
        assert abs(a.theta - b.theta) <= 1e-9


def _moved_copies(curve, rng):
    """(label, copy of curve, map from the copy's parameters to curve's): the
    start vertex rotated, the orientation reversed, and a rigid motion with
    uniform scale 3."""
    from helpers import random_rotation

    v, n = curve.vertices, curve.num_vertices
    copies = [(f"start {r}", np.roll(v, -r, axis=0), lambda t, s=curve.cum_len[r]: t + s)
              for r in sorted({r % n for r in (1, 37, 100)})]
    copies.append(("reversed", v[::-1], lambda t: curve.cum_len[-1] - t))
    rot = random_rotation(curve.dimension, rng)
    copies.append(("moved x3", 3.0 * v @ rot.T + rng.standard_normal(curve.dimension),
                   lambda t: t / 3.0))
    return [(label, PolyCurve(w, closed=True), back) for label, w, back in copies]


@pytest.mark.parametrize("name", ["ellipse512", "trefoil512", "jordan11", "triangle345",
                                  "fourier3d"])
def test_solutions_invariant_under_start_orientation_and_motion(corpus, name):
    curve = _fourier3d() if name == "fourier3d" else corpus[name]
    L = curve.length
    base = _find_quietly(curve)
    for label, moved, back in _moved_copies(curve, np.random.default_rng(71)):
        sol = _find_quietly(moved)
        assert len(sol.solutions) == len(base.solutions), label
        assert sol.non_generic == base.non_generic, label
        if base.non_generic:
            # grid-snapped members of a continuum move with the grid anchor
            continue
        for s in sol.solutions:
            d = min(symmetry_distance(back(s.params), b.params, L) for b in base.solutions)
            assert d <= 1e-10 * L, label


_SCALED_CURVES = {
    "ellipse64": lambda: make_ellipse(2.0, 1.0, 64),
    "triangle345": lambda: PolyCurve(TRIANGLE, closed=True),
    "circle360": lambda: make_circle(1.0, 360),
}


@given(st.sampled_from(sorted(_SCALED_CURVES)), st.integers(-500, 480))
def test_solutions_scale_with_a_power_of_two_copy(name, k):
    # 2^k scales every length exactly, so the classes must scale to the bit.
    # The range reaches the scales where, on the curve as given, refinement's
    # floor 1e-30 on diag(J^T J) would outweigh it (k <= -55) and J^T r,
    # which grows as L^3, would overflow (k >= 345)
    curve = _SCALED_CURVES[name]()
    base = find_quads(curve)
    sol = find_quads(PolyCurve(np.ldexp(curve.vertices, k), closed=True))
    assert len(base.solutions) > 0, name
    assert (sol.raw_count, sol.non_generic) == (base.raw_count, base.non_generic), k
    assert len(sol.solutions) == len(base.solutions), k
    assert sol.resolution["dedup_tol"] == math.ldexp(base.resolution["dedup_tol"], k)
    for s, b in zip(sol.solutions, base.solutions):
        assert np.array_equal(s.params, np.ldexp(b.params, k)), k
        assert np.array_equal(s.points, np.ldexp(b.points, k)), k
        assert s.arc_kappa_ok == b.arc_kappa_ok, k


@given(st.integers(-500, 480))
def test_refine_scales_with_a_power_of_two_copy(k):
    # refine runs on the unit copy that find_quads searches; on the curve as
    # given it returned "diverged" at 2^-100, 2^350 and 2^400 from this seed
    curve = make_ellipse(2.0, 1.0, 64)
    seed = find_quads(curve).solutions[0].params + 0.01 * curve.length
    base, reason = refine(curve, seed)
    assert reason == "converged"
    params, reason = refine(PolyCurve(np.ldexp(curve.vertices, k), closed=True), np.ldexp(seed, k))
    assert reason == "converged", k
    assert np.array_equal(params, np.ldexp(base, k)), k


@pytest.mark.parametrize("k", [511, 512, 1000])
def test_solutions_are_measured_where_no_squared_chord_overflows(k):
    # at 2^511 and 2^512 the squared chords of the quads overflow, and theta
    # came out NaN with RuntimeWarnings; at 2^1000 the edge lengths
    # themselves overflow, and the curve is refused before any search
    curve = make_ellipse(2.0, 1.0, 64)
    vertices = np.ldexp(curve.vertices, k)
    if k == 1000:
        with pytest.raises(ValueError, match="overflow"):
            PolyCurve(vertices, closed=True)
        return
    base = find_quads(curve)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = find_quads(PolyCurve(vertices, closed=True))
    assert len(sol.solutions) == len(base.solutions) == 1
    for s, b in zip(sol.solutions, base.solutions):
        assert math.isfinite(s.theta) and s.theta == b.theta
        assert (s.open_turning, s.residual_norm) == (b.open_turning, b.residual_norm)
        assert np.array_equal(s.sides, np.ldexp(b.sides, k))
        assert np.array_equal(s.diagonals, np.ldexp(b.diagonals, k))
        assert np.array_equal(s.residual, np.ldexp(b.residual, 2 * k))
        assert s.arc_kappa_ok


# ---------------------------------------------------------------------------
# several curves searched in one batch
# ---------------------------------------------------------------------------

def _random_space_curve(rng):
    """A seeded random closed Fourier curve in R^3 of 48 to 96 vertices."""
    cos, sin = rng.normal(scale=0.4, size=(2, 3, 3))
    cos[0, 0] = sin[1, 0] = 1.0
    return make_fourier_curve(cos.tolist(), sin.tolist(), samples=int(rng.integers(48, 97)))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from([8, 16]))
def test_refinement_rows_do_not_depend_on_their_batch(seed, dim, m):
    # the invariant batching rests on: every row runs its own damping,
    # acceptance and stopping, so a seed refined among any others, or beside
    # another curve's seeds, ends where it ends alone, to the bit
    from helpers import random_star_polygon

    rng = np.random.default_rng(seed)
    if dim == 2:
        curve = make_random_jordan(int(rng.integers(32, 97)), seed=int(rng.integers(2**16)))
    else:
        curve = _random_space_curve(rng)
    other = random_star_polygon(rng, 8, 60, z_jitter=0.3 if dim == 3 else 0.0)._unit[0]
    unit = curve._unit[0]
    cfg, other_cfg = (SolverConfig(grid_m=m).resolved(c) for c in (unit, other))
    seeds = seed_grid(unit, cfg)
    part = rng.random(len(seeds)) < 0.5
    whole = solver._refine_batch(unit, seeds, cfg)
    for params, reasons in (solver._refine_batch(unit, seeds[part], cfg),
                            solver._refine_batch([other, unit],
                                                 [seed_grid(other, other_cfg), seeds[part]],
                                                 [other_cfg, cfg])[1]):
        assert np.array_equal(params, whole[0][part]), seed
        assert reasons.tolist() == whole[1][part].tolist(), seed


def test_stacked_cells_equal_each_curves_own():
    # parameters at vertices, inside edges, and at L itself, to which np.mod
    # can round up: _locate takes L to 0, the stack to its copy of edge 0
    rng = np.random.default_rng(67)
    curves = [make_ellipse(2.0, 1.0, 40)._unit[0], make_random_jordan(64, seed=5)._unit[0],
              PolyCurve(TRIANGLE, closed=True)._unit[0]]
    params = []
    for c in curves:
        t = np.concatenate((c.cum_len, [c.length], rng.uniform(0.0, c.length, 23)))
        params.append(rng.permutation(t)[: 4 * (len(t) // 4)].reshape(-1, 4))
    cfgs = [SolverConfig().resolved(c) for c in curves]
    stack = solver._Stack(curves, cfgs, [len(p) for p in params])
    got = solver._eval_cells(stack, np.concatenate(params), stack.owner)
    want = [solver._eval_cells(c, p) for c, p in zip(curves, params)]
    for g, w in zip(got, zip(*want)):
        assert np.array_equal(g, np.concatenate(w))


def _assert_batch_equals_one_search_per_curve(curves, config=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = [json.dumps(find_quads(c, config).to_json_dict()) for c in curves]
        for batch in (curves, curves[::-1]):
            got = [json.dumps(s.to_json_dict()) for s in solver.find_quads_many(batch, config)]
            assert got == (alone if batch is curves else alone[::-1])


def test_find_quads_many_equals_one_search_per_curve_on_the_gate_curves(corpus):
    gate = _gate_curves(corpus)
    planar = [c for c in gate.values() if c.dimension == 2]
    rng = np.random.default_rng(61)
    space = [gate["fourier3d"], _random_space_curve(rng), _random_space_curve(rng)]
    for m in (8, 24):
        _assert_batch_equals_one_search_per_curve(planar, SolverConfig(grid_m=m))
        _assert_batch_equals_one_search_per_curve(space, SolverConfig(grid_m=m))


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(2, 4))
def test_find_quads_many_equals_one_search_per_curve_on_random_curves(seed, dim, count):
    rng = np.random.default_rng(seed)
    if dim == 2:
        curves = [make_random_jordan(int(rng.integers(32, 129)), seed=int(rng.integers(2**16)))
                  for _ in range(count)]
    else:
        curves = [_random_space_curve(rng) for _ in range(count)]
    _assert_batch_equals_one_search_per_curve(curves, SolverConfig(grid_m=8))


def test_find_quads_many_mixes_scales():
    # each curve runs at its own power-of-two unit scale, L from 2^-300 to 2^300
    curves = [PolyCurve(np.ldexp(c.vertices, k), closed=True) for c, k in (
        (make_ellipse(2.0, 1.0, 64), 300), (make_random_jordan(96, seed=3), -300),
        (PolyCurve(TRIANGLE, closed=True), 0), (make_circle(1.0, 90), -299))]
    _assert_batch_equals_one_search_per_curve(curves)


def test_find_quads_many_refines_every_curve_in_one_batch(monkeypatch):
    calls = []
    real = solver._refine_batch

    def recording(curve, seeds, cfg):
        calls.append(len(curve) if isinstance(curve, list) else 1)
        return real(curve, seeds, cfg)

    monkeypatch.setattr(solver, "_refine_batch", recording)
    solver.find_quads_many([make_ellipse(2.0, 1.0, 64), make_circle(1.0, 60),
                            PolyCurve(TRIANGLE, closed=True)])
    assert calls == [3]


def test_find_quads_many_takes_closed_curves_of_one_dimension():
    assert solver.find_quads_many([]) == []
    ellipse = make_ellipse(2.0, 1.0, 64)
    with pytest.raises(ValueError, match="find_quads_many requires a closed curve"):
        solver.find_quads_many([ellipse, PolyCurve(ellipse.vertices, closed=False)])
    with pytest.raises(ValueError, match=r"one dimension, got \[2, 3\]"):
        solver.find_quads_many([ellipse, _fourier3d()])
    with pytest.raises(ValueError, match="grid_m"):
        solver.find_quads_many([ellipse], SolverConfig(grid_m=4))


def test_config_validation():
    c = make_circle(1.0, 60)
    with pytest.raises(ValueError, match="grid_m"):
        find_quads(c, SolverConfig(grid_m=4))
    with pytest.raises(ValueError, match="positive"):
        find_quads(c, SolverConfig(residual_tol=-1.0))
    for seed in ([0.1, 0.2], [[0.1, 0.2, 0.3, 0.4]], [math.inf, 0.2, 0.3, 0.4],
                 [0.1, math.nan, 0.3, 0.4]):
        with pytest.raises(ValueError, match="^seed must be four finite arclength values$"):
            refine(c, seed)
    for L in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^L must be finite and positive$"):
            symmetry_distance([0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3, 0.4], L)


@pytest.mark.parametrize("name, value", [("grid_m", 24.5), ("grid_m", 24.0), ("grid_m", math.nan),
                                         ("max_iter", 2.5), ("max_iter", True)])
def test_config_rejects_non_integer_counts(name, value):
    c = make_circle(1.0, 60)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        SolverConfig(**{name: value}).resolved(c)
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        find_quads(c, SolverConfig(**{name: value}))


@pytest.mark.parametrize("name", ["residual_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_fields(name, value):
    c = make_circle(1.0, 60)
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        SolverConfig(**{name: value}).resolved(c)


def test_grid_m_above_memory_bound_fails_before_allocating():
    c = make_circle(1.0, 60)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"grid_m must be at most {solver._MAX_GRID_M}"):
            find_quads(c, SolverConfig(grid_m=10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_rejects_oversized_grid():
    with pytest.raises(ValueError, match="48"):
        brute_force_oracle(make_circle(1.0, 60), m=60)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_oracle_rejects_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        brute_force_oracle(make_circle(1.0, 60), m=24, tol=tol)


@pytest.mark.parametrize("m", [math.nan, 24.5, 24.0])
def test_oracle_rejects_a_grid_that_is_not_an_integer(m):
    with pytest.raises(ValueError, match="^m must be an integer"):
        brute_force_oracle(make_circle(1.0, 60), m=m)


def test_oracle_ellipse_single_cluster(ellipse, ellipse_solutions):
    orc = brute_force_oracle(ellipse, m=24, tol=0.3)
    assert len(orc.solutions) == 1
    d = symmetry_distance(orc.solutions[0].params, ellipse_solutions.solutions[0].params,
                          ellipse.length)
    assert d < ellipse.length / 24


def test_oracle_circle_family_diagonal():
    c = make_circle(1.0, 120)
    L = c.length
    orc = brute_force_oracle(c, m=24, tol=0.1)
    assert len(orc.solutions) >= 3
    for s in orc.solutions:
        gaps = np.diff(np.append(s.params, s.params[0] + L))
        assert np.allclose(gaps, L / 4, atol=1e-9)


def test_oracle_scalene_triangle_regression():
    # frozen baseline: one cluster at the corner square's grid neighborhood
    tri = PolyCurve(TRIANGLE, closed=True)
    orc = brute_force_oracle(tri, m=32, tol=0.3)
    assert len(orc.solutions) >= 1
    corner_square = np.array([0.0, 12.0 / 7.0, 48.0 / 7.0, 72.0 / 7.0])
    best = min(symmetry_distance(s.params, corner_square, tri.length)
               for s in orc.solutions)
    assert best <= tri.length / 24


# ---------------------------------------------------------------------------
# parity reporting
# ---------------------------------------------------------------------------

def test_parity_report_empty_set():
    from sqpeg.solver import SolutionSet

    empty = SolutionSet(solutions=[], raw_count=0, parity_note="")
    text = parity_report(empty)
    assert "count 0, even" in text
    assert "resolution" in text or "grid" in text
