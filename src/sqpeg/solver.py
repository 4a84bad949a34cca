"""Search for inscribed square-like quadrilaterals on a closed curve.

Pipeline: seed the 4-parameter configuration space on an arclength grid,
refine each seed by damped least squares on the equal-side/equal-diagonal
residual, validate, and deduplicate modulo the order-8 relabeling symmetry
of the quadrilateral (cyclic shifts and reversal).
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curve import PolyCurve, _check_positive, _cyclic_gaps, _points_on_edges, _winds_once
from .pidist import verify_quad_arc_curvature
from .quad import (_HEAD, _MINUS, _PLUS, _TAIL, _measure_at, _norms, _residual_jacobian,
                   _sides_and_residuals, _smooth_norms)

__all__ = [
    "SolverConfig",
    "QuadSolution",
    "SolutionSet",
    "seed_grid",
    "refine",
    "find_quads",
    "find_quads_many",
    "brute_force_oracle",
    "parity_report",
]

_log = logging.getLogger(__name__)
_ARC_KAPPA_TOL = 1e-6
# largest accepted grid_m: seeding holds the C(grid_m, 4) grid tuples (the
# _grid_tables, 10.2 MB at 64) and their scores, scored in blocks; seed_grid
# peaks at about 28 MB at 64 from a cold cache (tracemalloc, trefoil512), and
# find_quads at 61 MB of resident memory
_MAX_GRID_M = 64
# the 8 relabelings of a quadrilateral: 4 cyclic shifts, then the same of its
# reversal; row r of params[..., _RELABEL] is image r
_RELABEL = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2],
                     [3, 2, 1, 0], [2, 1, 0, 3], [1, 0, 3, 2], [0, 3, 2, 1]])
# grid tuples scored per block while seeding
_BLOCK = 1 << 16
# the least relative reduction of a seed's squared score per step (_refine_batch)
_FTOL = 1e-4
# iterations in a row of broken cyclic order after which a seed stops (_refine_batch)
_BROKEN_STREAK = 2
_EYE4 = np.eye(4)
# a solution's least cyclic gap and mean side are L / _GAP_DIVISOR and L / _SIDE_DIVISOR
_GAP_DIVISOR = 512.0
_SIDE_DIVISOR = 1000.0


@dataclass
class SolverConfig:
    """Knobs for the inscribed-quad search: integers grid_m and max_iter, and
    residual_tol.  resolved(curve) checks them and adds three length scales
    of the curve length L: dedup_tol = L/grid_m, gap_min = L/512, min_side = L/1000."""

    grid_m: int = 24
    max_iter: int = 60
    residual_tol: float = 1e-9

    def resolved(self, curve: PolyCurve) -> "_Resolved":
        _check_integer("grid_m", self.grid_m)
        _check_integer("max_iter", self.max_iter)
        if self.grid_m < 8:
            raise ValueError("grid_m must be at least 8")
        if self.grid_m > _MAX_GRID_M:
            raise ValueError(f"grid_m must be at most {_MAX_GRID_M} (memory grows as grid_m^4)")
        for name in ("max_iter", "residual_tol"):
            _check_positive(name, getattr(self, name))
        L = curve.length
        return _Resolved(self.grid_m, self.max_iter, self.residual_tol,
                         L / self.grid_m, L / _GAP_DIVISOR, L / _SIDE_DIVISOR)


@dataclass
class _Resolved(SolverConfig):
    """A checked SolverConfig with the length scales it derives from a curve."""
    dedup_tol: float = 0.0
    gap_min: float = 0.0
    min_side: float = 0.0


def _check_closed(name: str, curve: PolyCurve) -> None:
    if not curve.closed:
        raise ValueError(f"{name} requires a closed curve")


def _check_integer(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QuadSolution:
    params: np.ndarray
    points: np.ndarray
    sides: np.ndarray
    diagonals: np.ndarray
    theta: float
    open_turning: float
    residual: np.ndarray
    residual_norm: float
    arc_kappa_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "params": [float(t) for t in self.params],
            "points": [[float(x) for x in row] for row in self.points],
            "sides": [float(x) for x in self.sides],
            "diagonals": [float(x) for x in self.diagonals],
            "theta": float(self.theta),
            "open_turning": float(self.open_turning),
            "residual": float(self.residual_norm),
            "arc_kappa_ok": bool(self.arc_kappa_ok),
        }


@dataclass
class SolutionSet:
    solutions: list
    raw_count: int
    parity_note: str
    non_generic: bool = False
    resolution: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "solutions": [s.to_json_dict() for s in self.solutions],
            "raw_count": self.raw_count,
            "parity_note": self.parity_note,
            "non_generic": self.non_generic,
            "resolution": self.resolution,
        }


# ---------------------------------------------------------------------------
# residual evaluation
# ---------------------------------------------------------------------------

class _Stack:
    """Closed curves of one dimension whose seeds are refined in one batch,
    each at its own resolved config; max_iter and residual_tol, which they
    share, are taken from the first.  A batch's rows are grouped by curve in
    curve order, and owner (k,) names the curve of each row.  The curves'
    edge tables lie end to end, each closed by a copy of its edge 0 that
    starts at arclength L, so that only the edge search runs per curve, on
    its rows' slice (_locate).  A stack of one curve has owner None and reads
    the curve's own tables: `cells`, what _eval_cells is given, is the curve
    itself, else the stack."""

    def __init__(self, curves: list, cfgs: list, counts=None):
        """counts: the number of seed rows of each curve, for several curves."""
        self.curves, self.cfg = curves, cfgs[0]
        self.dimension = curves[0].dimension
        if len(curves) == 1:
            L, cfg = curves[0].length, cfgs[0]
            self.owner, self.cells = None, curves[0]
            self._one = (None, L, L, cfg.gap_min, cfg.min_side)
            return
        self.owner, self.cells = np.repeat(np.arange(len(curves)), counts), self
        self._scales = np.array([(c.length, r.gap_min, r.min_side) for c, r in zip(curves, cfgs)]).T
        self._ids = np.arange(len(curves) + 1)
        # the row before each curve's edge 0, where a search result of 1 points
        self._before = np.cumsum([-1] + [curve.num_edges + 1 for curve in curves[:-1]])

        def closed(rows):  # a curve's edge rows, then edge 0's again
            return np.concatenate((rows, rows[:1]))

        self._edge_table = (np.concatenate([closed(c.vertices) for c in curves]),
                            np.concatenate([closed(c._edge_vecs) for c in curves]),
                            np.concatenate([c._knots for c in curves]),
                            np.concatenate([closed(c._edge_lens) for c in curves]))
        self._edge_tangents = np.concatenate([closed(c._edge_tangents) for c in curves])

    def rows(self, seeds=None):
        """(owner, L as a column, L, gap_min, min_side) of the seed rows
        `seeds` (default all, in order): None and the curve's floats for one
        curve, else arrays of shape (k,), the column (k, 1)."""
        if self.owner is None:
            return self._one
        owner = self.owner if seeds is None else self.owner.take(seeds)
        L, gap_min, min_side = self._scales.take(owner, axis=1)
        return owner, L[:, None], L, gap_min, min_side

    def _locate(self, s, owner):
        """(index into the stacked edge tables, point) of the parameters s
        (4k,) in [0, L], the rows of owner (k,) flattened, at the points each
        curve's _locate gives them, on edges with the same tangents.  np.mod
        can round up to L, which _locate takes to 0; here L finds the copy of
        edge 0 that starts there, and so vertex 0 again."""
        bounds = 4 * np.searchsorted(owner, self._ids)
        idx = np.empty(s.shape, dtype=np.intp)
        for curve, before, lo, hi in zip(self.curves, self._before, bounds[:-1], bounds[1:]):
            if lo < hi:
                idx[lo:hi] = np.searchsorted(curve._knots, s[lo:hi], side="right") + before
        return idx, _points_on_edges(*self._edge_table, idx, s)


def _eval_cells(curve, params, owner=None):
    """params (k, 4) -> (chords (k, 6, n), residuals (k, 4), mean sides (k,),
    unit tangents (k, 4, n) of the edges the points lie on, as _locate picks),
    on a PolyCurve or on the _Stack whose curve owner[j] row j lies on."""
    flat = params.reshape(-1)
    idx, pts = curve._locate(flat) if owner is None else curve._locate(flat, owner)
    shape = params.shape + (curve.dimension,)
    chords, _, _, res, mean_side = _sides_and_residuals(pts.reshape(shape))
    return chords, res, mean_side, curve._edge_tangents.take(idx, axis=0).reshape(shape)


def _eval_batch(curve: PolyCurve, params) -> tuple[np.ndarray, np.ndarray]:
    """params (k, 4) -> (residuals (k, 4), mean sides (k,))."""
    return _eval_cells(curve, np.atleast_2d(np.asarray(params, dtype=float)))[1:3]


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def _combinations4(m: int) -> np.ndarray:
    """All sorted 4-subsets of range(m) as uint8 (C(m, 4), 4), in
    lexicographic order (the order of itertools.combinations).

    The k-subsets that start at a are a followed by the (k-1)-subsets of
    range(a + 1, m), which are the last C(m-1-a, k-1) rows of the
    (k-1)-subsets of range(m); so every level is built from small blocks."""
    combos = np.arange(m, dtype=np.uint8)[:, None]
    for k in (2, 3, 4):
        counts = [math.comb(m - 1 - a, k - 1) for a in range(m - k + 1)]
        combos = np.concatenate([np.column_stack((np.full(n, a, dtype=np.uint8), combos[-n:]))
                                 for a, n in enumerate(counts)])
    return combos


@functools.lru_cache(maxsize=2)
def _grid_tables(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(the sorted 4-subsets of range(m), uint8 (C(m, 4), 4); the flat index
    tail * m + head into an m x m table of the subset's six chords, int16
    (6, C(m, 4)), so that a block of tuples gathers each chord contiguously).

    Both depend on m alone and are read-only; the chord rows are filled
    block by block, so no full-size intp array exists.  At m = 64 they keep
    10.2 MB, at m = 24 0.17 MB."""
    combos = _combinations4(m)
    flat = np.empty((6, combos.shape[0]), dtype=np.int16)
    for lo in range(0, combos.shape[0], _BLOCK):
        c = combos[lo:lo + _BLOCK].astype(np.int16)
        flat[:, lo:lo + _BLOCK] = (c[:, _TAIL] * m + c[:, _HEAD]).T
    combos.flags.writeable = flat.flags.writeable = False
    return combos, flat


def _grid_local_minima(curve: PolyCurve, m: int, cfg: SolverConfig, score):
    """Grid-local minima of score(residuals (k, 4), mean sides (k,)) -> (k,)
    on an m-point equispaced arclength grid, as (params (k, 4), scores (k,))
    in lexicographic order.

    Every sorted index 4-subset is scored, block by block, from one table of
    the squared chords between grid points (gathered through _grid_tables);
    tuples with mean side under min_side score inf.  A tuple is kept when its
    score is finite and no larger than any of its 8 axis neighbours (index a
    moved by +-1); a neighbour that is not a sorted 4-subset of range(m)
    does not count.  Tuples with a cyclic gap under gap_min are then dropped.

    A tuple's rank in lexicographic order is its row, and its neighbours
    along the last index are the rows next to it: those two are compared for
    all tuples by shifted slices, and the other six only for those that pass.
    """
    L = curve.length
    grid = np.arange(m) * (L / m)
    combos, flat = _grid_tables(m)
    pts = curve.point_at(grid)
    diff = pts[None, :, :] - pts[:, None, :]
    chord_sq = np.einsum("ijd,ijd->ij", diff, diff).ravel()  # |pts[j] - pts[i]|^2 at i * m + j
    chord = np.sqrt(chord_sq)
    n = combos.shape[0]
    scores = np.empty(n)
    for lo in range(0, n, _BLOCK):
        rows = flat[:, lo:lo + _BLOCK]
        cs = chord_sq.take(rows)
        res, mean_side = (cs[_PLUS] - cs[_MINUS]).T, chord.take(rows[:4]).sum(axis=0) / 4.0
        scores[lo:lo + _BLOCK] = np.where(mean_side >= cfg.min_side, score(res, mean_side), np.inf)
    last = combos[:, 3]
    keep = np.isfinite(scores)
    keep[:-1] &= (scores[:-1] <= scores[1:]) | (last[:-1] == m - 1)
    keep[1:] &= (scores[1:] <= scores[:-1]) | (last[1:] == combos[1:, 2] + 1)
    # moving index a < 3 by +1 adds C(m-2-c_a, 3-a) to the rank, by -1
    # subtracts C(m-1-c_a, 3-a)
    binom = np.array([[math.comb(x, 3 - a) for a in range(3)] for x in range(m)])
    rank = np.flatnonzero(keep)
    c, own = combos[rank].astype(np.intp), scores[rank]
    keep = np.ones(rank.size, dtype=bool)
    for a in range(3):
        up = rank + binom[np.maximum(m - 2 - c[:, a], 0), a]
        down = rank - binom[m - 1 - c[:, a], a]
        keep &= own <= scores[np.where(c[:, a] + 1 < c[:, a + 1], up, rank)]
        keep &= own <= scores[np.where(c[:, a] - 1 > (c[:, a - 1] if a else -1), down, rank)]

    params, scores = grid[c[keep]], own[keep]
    keep = np.min(_cyclic_gaps(params, L), axis=1) >= cfg.gap_min
    return params[keep], scores[keep]


def seed_grid(curve: PolyCurve, config: Optional[SolverConfig] = None) -> np.ndarray:
    """Cyclically ordered 4-tuples on a grid_m-point equispaced arclength
    grid that are grid-local minima of the smooth score ||residual||_2 /
    (mean side)^2, with the min_side and gap_min rules of _grid_local_minima.

    Sorted index 4-subsets fix t1 to the first grid cell of each cyclic class,
    so rotation duplicates never enter.  The score that refinement reduces,
    the largest residual component over the squared mean side, is a maximum
    of smooth functions, and its grid-local minima pile up along the creases
    where two components tie.  The smooth score has none: on the gate curves
    of the tests at grid_m 24 it gives 1,330 seeds where the largest
    component gives 3,263, and the same solution classes.  So these are not
    the candidates of brute_force_oracle, which keeps the largest component;
    seeding has no cutoff.
    """
    _check_closed("seed_grid", curve)
    cfg = (config or SolverConfig()).resolved(curve)
    return _grid_local_minima(curve, cfg.grid_m, cfg, _smooth_norms)[0]


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine(curve: PolyCurve, seed, config: Optional[SolverConfig] = None):
    """Damped least-squares refinement of one seed tuple.

    Returns (params, "converged") with params sorted ascending in [0, L), or
    (None, reason) with reason in {diverged, collapsed, ordering_broken,
    small_side}; residual_tol is tested on the returned tuple.  Each step
    uses the exact Jacobian of the cells the parameters lie in (their
    polygon edges), where the residual is quadratic in the parameters.  The
    seed stops once a step reduces the square of its normalized norm by
    less than _FTOL = 1e-4 of itself, or once its iterate has left the
    cyclic order at two iterations in a row (see _refine_batch).  It runs
    on find_quads' power-of-two copy of the curve, so the params of a curve
    scaled by 2^k are its own times 2^k.  The curve must be closed and the
    seed four finite parameters.
    """
    _check_closed("refine", curve)
    seed = np.asarray(seed, dtype=float)
    if seed.shape != (4,) or not np.isfinite(seed).all():
        raise ValueError("seed must be four finite arclength values")
    unit, e = curve._unit
    cfg = (config or SolverConfig()).resolved(unit)
    params, reasons = _refine_batch(unit, np.ldexp(seed[None], -e), cfg)
    return (np.ldexp(params[0], e) if reasons[0] == "converged" else None), str(reasons[0])


def _judge(curve, t: np.ndarray, cfg: SolverConfig):
    """(params (k, 4) sorted ascending in [0, L), reasons (k,)) of the tuples
    t (k, 4): "converged" or the first rule broken of diverged (the sorted
    tuple's residual over residual_tol), ordering_broken (t does not wind
    once: else it sorts to a relabeling), collapsed (a gap of t under
    gap_min) and small_side (mean side under min_side).  curve is a
    PolyCurve with cfg its resolved config, or a _Stack whose seed rows t
    holds in order (cfg then gives residual_tol alone)."""
    stack = curve if isinstance(curve, _Stack) else _Stack([curve], [cfg])
    owner, Lc, L, gap_min, min_side = stack.rows()
    params = np.sort(np.mod(t, Lc), axis=1)
    res, ms = _eval_cells(stack.cells, params, owner)[1:3]
    gaps = _cyclic_gaps(t, Lc)
    reasons = np.select(
        [_norms(res, ms) > cfg.residual_tol, ~_winds_once(gaps, L),
         np.min(gaps, axis=1) < gap_min, ms < min_side],
        ["diverged", "ordering_broken", "collapsed", "small_side"], "converged")
    return params, reasons


def _solve(damp: np.ndarray, rhs: np.ndarray):
    """(solutions (k, 4) of the systems damp (k, 4, 4) x = rhs (k, 4), rows
    with no finite solution (k,)): one batched solve, or one by one when a
    system is singular (those rows 0 and bad)."""
    try:
        delta = np.linalg.solve(damp, rhs[..., None])[..., 0]
        return delta, ~np.isfinite(delta).all(axis=1)
    except np.linalg.LinAlgError:
        delta, bad = np.zeros_like(rhs), np.zeros(rhs.shape[0], dtype=bool)
        for j in range(rhs.shape[0]):
            try:
                delta[j] = np.linalg.solve(damp[j], rhs[j])
            except np.linalg.LinAlgError:
                bad[j] = True
        return delta, bad


def _refine_batch(curve, seeds, cfg):
    """Refinement of many seeds at once: (params (K, 4), reasons (K,)) of
    _judge on the refined tuples, the outcomes refine() describes.

    curve, seeds and cfg are one closed curve, its seeds (K, 4) and its
    resolved config, or lists of them: closed curves of one dimension whose
    configs share max_iter and residual_tol.  Their rows then run in one
    lock step, grouped by curve (_Stack), and the result is one
    (params, reasons) per curve.

    Every seed runs its own damped least-squares update (per-seed damping,
    acceptance and stopping) in lock step with the others; batching only
    amortizes the array overhead.  Each iteration tries the damping ladder
    lam * 10^j, j = 0..9 (built by repeated x10): rung 0 for every seed,
    then rungs 1-9 at once for the seeds rung 0 did not improve.  A seed
    takes its first improving rung and lam becomes max(rung lam / 3, 1e-12);
    a seed that no rung improves has stalled and stops, and so has one whose
    step gives 1 - (norm_new / norm_old)^2 < _FTOL on the score steps are
    accepted by (_norms).  That is the actual-reduction half of MINPACK's
    ftol test (More 1978); its predicted-reduction half never holds on the
    seeds this stops, quads that shrink at a flat score.  On the gate curves
    at grid_m 8, 24 and 48 no converging seed of seed_grid cuts its squared
    score by less than 1.1e-3 in one step, 11 times _FTOL.

    A seed also stops once its iterate has broken _judge's winding-once or
    gap_min rule at _BROKEN_STREAK = 2 iterations in a row: a folded quad
    heading for the spurious zero p = r, q = s.  Over the gate curves,
    random Jordan curves and regular polygons at grid_m 8, 24 and 48 this
    stops no converging seed; at one iteration it would stop four.  Only
    live seeds are iterated, and a seed's iterate is written back as it stops.

    A row's arithmetic is that of its own curve's L, gap_min and min_side,
    whatever rows it runs beside, so each seed's outcome is the one it has
    refined alone, to the bit.
    """
    many = isinstance(curve, list)
    if many:
        counts = [len(s) for s in seeds]
        stack = _Stack(curve, cfg, counts)
        seeds = np.concatenate(seeds)
    else:
        stack = _Stack([curve], [cfg])
    cfg = stack.cfg
    owner, Lc, L, gap_min, _ = stack.rows()
    target = 0.1 * cfg.residual_tol

    t = np.mod(np.asarray(seeds, dtype=float), Lc)
    live = np.arange(t.shape[0])  # the seed of each live row
    x = t.copy()
    chords, res, ms, tangents = _eval_cells(stack.cells, x, owner)
    norm = _norms(res, ms)
    lam = np.full(live.size, 1e-3)
    streak = np.zeros(live.size, dtype=int)
    stop = np.zeros(live.size, dtype=bool)

    for _ in range(cfg.max_iter):
        keep = (norm > target) & ~stop
        if not keep.all():
            t[live[~keep]] = x[~keep]
            rows = keep.nonzero()[0]
            live, x, chords, res, tangents, norm, lam, streak = (
                a.take(rows, axis=0) for a in (live, x, chords, res, tangents, norm, lam, streak))
            owner, Lc, L, gap_min, _ = stack.rows(live)
        if live.size == 0:
            break
        norm0 = norm  # norm is rebound below before any write in place
        jac = _residual_jacobian(chords, tangents)
        jt = jac.transpose(0, 2, 1)
        jtj = jt @ jac
        g = np.einsum("aij,aj->ai", jt, res)
        diag = np.maximum(np.einsum("aii->ai", jtj), 1e-30)

        # rung 0 for every live seed on the live arrays, accepted by np.where
        delta, bad = _solve(jtj + lam[:, None, None] * (diag[:, :, None] * _EYE4), -g)
        t_new = np.mod(x + delta, Lc)
        chords_new, res_new, ms_new, tangents_new = _eval_cells(stack.cells, t_new, owner)
        norm_new = _norms(res_new, ms_new)
        hit = (norm_new < norm) & ~bad
        x, res = np.where(hit[:, None], t_new, x), np.where(hit[:, None], res_new, res)
        chords = np.where(hit[:, None, None], chords_new, chords)
        tangents = np.where(hit[:, None, None], tangents_new, tangents)
        norm = np.where(hit, norm_new, norm)
        accepted_step = np.where(hit, np.abs(delta).max(axis=1), 0.0)
        lam = np.where(hit, np.maximum(lam / 3.0, 1e-12), lam)
        pending = ~hit

        # rungs 1-9 at once for the seeds rung 0 did not improve
        p = pending.nonzero()[0]
        if p.size:
            ladder = np.concatenate((lam[p, None], np.full((p.size, 9), 10.0)), axis=1)
            ladder = ladder.cumprod(axis=1)[:, 1:]
            damp = jtj[p, None] + ladder[..., None, None] * (diag[p, None, :, None] * _EYE4)
            rep = p.repeat(9)
            delta, bad = _solve(damp.reshape(-1, 4, 4), -g.take(rep, axis=0))
            ladder_owner, ladder_Lc = ((None, Lc) if owner is None
                                       else (owner.take(rep), Lc.take(rep, axis=0)))
            t_new = np.mod(x.take(rep, axis=0) + delta, ladder_Lc)
            chords_new, res_new, ms_new, tangents_new = _eval_cells(stack.cells, t_new, ladder_owner)
            norm_new = _norms(res_new, ms_new)
            improved = ((norm_new < norm.take(rep)) & ~bad).reshape(-1, 9)
            hit = improved.any(axis=1)
            first = improved[hit].argmax(axis=1)
            acc, pick = p[hit], hit.nonzero()[0] * 9 + first
            x[acc], res[acc] = t_new[pick], res_new[pick]
            chords[acc], tangents[acc] = chords_new[pick], tangents_new[pick]
            norm[acc] = norm_new[pick]
            lam[acc] = np.maximum(ladder[hit, first] / 3.0, 1e-12)
            accepted_step[acc] = np.abs(delta[pick]).max(axis=1)
            pending[acc] = False

        gaps = _cyclic_gaps(x, Lc)
        streak = np.where(~_winds_once(gaps, L) | (gaps.min(axis=1) < gap_min), streak + 1, 0)
        # no accepted trial or too small a reduction (inf-safe: no division) stalls; tiny steps stop
        stop = (pending | (accepted_step < 1e-15 * L) | (norm > math.sqrt(1.0 - _FTOL) * norm0)
                | (streak >= _BROKEN_STREAK))

    t[live] = x
    params, reasons = _judge(stack, t, cfg)
    if not many:
        return params, reasons
    cuts = np.cumsum(counts)[:-1]
    return list(zip(np.split(params, cuts), np.split(reasons, cuts)))


# ---------------------------------------------------------------------------
# symmetry dedup and grid canonicalization
# ---------------------------------------------------------------------------

def _image_distances(cands: np.ndarray, b: np.ndarray, L: float) -> np.ndarray:
    """symmetry_distance(a, b, L) for every row a of cands (k, 4)."""
    d = np.mod(cands[:, None, :] - b[_RELABEL], L)
    return np.min(np.max(np.minimum(d, L - d), axis=2), axis=1)


def symmetry_distance(a, b, L: float) -> float:
    """min over the 8 relabeling images of the max cyclic parameter distance."""
    _check_positive("L", L)
    a = np.asarray(a, dtype=float).reshape(1, 4)
    return float(_image_distances(a, np.asarray(b, dtype=float), L)[0])


def _greedy_classes(cands: np.ndarray, L: float, tol: float) -> list:
    """Row indices of the class representatives of cands (k, 4): in row
    order, a row becomes a representative unless an earlier representative
    lies within tol of it under symmetry_distance."""
    left = np.arange(cands.shape[0])
    reps = []
    while left.size:
        i = int(left[0])
        reps.append(i)
        left = left[_image_distances(cands[left], cands[i], L) >= tol]
    return reps


def _snap_to_grid(curve: PolyCurve, params: np.ndarray, cfg: SolverConfig) -> np.ndarray:
    """Replace each solution of params (k, 4) by its grid-rounded tuple when
    _judge finds that tuple converged.  On solution continua (e.g. every
    square of a circle) this pins the reported representatives to
    grid-aligned members, keeping output stable across reruns and
    resolutions; isolated solutions reject the rounded tuple through the
    residual test and pass through unchanged."""
    L = curve.length
    g = L / cfg.grid_m
    snapped, reasons = _judge(curve, np.sort(np.mod(np.round(params / g) * g, L), axis=1), cfg)
    return np.where((reasons == "converged")[:, None], snapped, params)


# ---------------------------------------------------------------------------
# top-level search
# ---------------------------------------------------------------------------

def _detect_non_generic(reps: np.ndarray, L, tol) -> bool:
    """A long chain of classes packed at the dedup resolution signals a
    solution continuum (circles), where counting is not meaningful."""
    if len(reps) < 4:
        return False
    return any(np.min(_image_distances(reps[:j], reps[j], L)) <= 2.0 * tol
               for j in range(1, len(reps)))


def _parity_text(count: int, non_generic: bool) -> str:
    if non_generic:
        return (f"count {count} from a non-generic solution family; "
                "parity is not meaningful here")
    if count == 0:
        return ("count 0, even: no quadrilaterals found at this resolution; "
                "tighten the grid before trusting the count")
    word = "odd" if count % 2 == 1 else "even"
    return (f"count {count}, {word}; coincident solution classes in "
            "degenerate limits can break parity")


def parity_report(solutions: SolutionSet) -> str:
    """Human-readable count/parity line for a solution set."""
    return _parity_text(len(solutions.solutions), solutions.non_generic)


def _solution_set(curve: PolyCurve, reps: np.ndarray, raw_count: int, note_prefix: str,
                  dedup_tol: float, resolution: dict) -> SolutionSet:
    """Annotate the class representatives reps (k, 4) in one array pass
    (their arc curvature in one verify_quad_arc_curvature call) and wrap
    them with their count, parity note and non-generic flag.

    The quads are measured scaled by 2^-e, e = frexp(L)[1], where no squared
    chord overflows (quad._measure_at): exact, so the numbers are those of
    the quads as given wherever those are finite."""
    pts = curve.point_at(reps.reshape(-1)).reshape(reps.shape[0], 4, curve.dimension)
    rows = _measure_at(pts, math.frexp(curve.length)[1])[1]
    arc_kappa_ok = verify_quad_arc_curvature(curve, reps, _ARC_KAPPA_TOL)
    solutions = [
        QuadSolution(
            params=params,
            points=pts[i],
            sides=rows.sides[i],
            diagonals=rows.diagonals[i],
            theta=float(rows.theta[i]),
            open_turning=float(rows.open_turning[i]),
            residual=rows.residual[i],
            residual_norm=float(rows.residual_norm[i]),
            arc_kappa_ok=bool(arc_kappa_ok[i]),
        )
        for i, params in enumerate(reps)
    ]
    non_generic = _detect_non_generic(reps, curve.length, dedup_tol)
    return SolutionSet(
        solutions=solutions,
        raw_count=raw_count,
        parity_note=note_prefix + _parity_text(len(solutions), non_generic),
        non_generic=non_generic,
        resolution=resolution,
    )


def find_quads(curve: PolyCurve, config: Optional[SolverConfig] = None) -> SolutionSet:
    """Full search: seed, refine, validate, snap, deduplicate, annotate.

    The curve must be closed; a warning (not an error) is issued when it is
    not embedded, since the search itself needs no embeddedness.  Seeding
    through dedup runs on an exact power-of-two copy of length in [1/2, 1),
    where no squared or cubed length overflows or underflows, and the
    solutions are measured at that scale too (_solution_set).
    """
    _check_closed("find_quads", curve)
    return _search([curve], config)[0]


def find_quads_many(curves, config: Optional[SolverConfig] = None) -> list:
    """find_quads of each curve, in order, with the seeds of all of them
    refined in one batch: the same solution sets, to the bit, as
    [find_quads(c, config) for c in curves], at one batch's array overhead
    per refinement step instead of one per curve.

    The curves must be closed and of one dimension; seeding, snapping,
    dedup, annotation and the not-embedded warning are per curve, each at
    its own power-of-two scale.
    """
    curves = list(curves)
    for curve in curves:
        _check_closed("find_quads_many", curve)
    dimensions = sorted({curve.dimension for curve in curves})
    if len(dimensions) > 1:
        raise ValueError(f"find_quads_many requires curves of one dimension, got {dimensions}")
    return _search(curves, config) if curves else []


def _search(curves: list, config: Optional[SolverConfig]) -> list:
    """The solution sets of find_quads on the closed curves, at least one.
    Several curves are refined in one batch; a lone curve takes
    _refine_batch's one-curve form."""
    units, exponents = zip(*(curve._unit for curve in curves))
    cfgs = [(config or SolverConfig()).resolved(unit) for unit in units]
    for curve in curves:
        if not curve.is_embedded(0.0):
            warnings.warn("curve is not embedded; results are best-effort")
    seeds = [seed_grid(unit, cfg) for unit, cfg in zip(units, cfgs)]
    if len(curves) == 1:
        refined = [_refine_batch(units[0], seeds[0], cfgs[0])]
    else:
        refined = _refine_batch(list(units), seeds, cfgs)

    out = []
    for curve, unit, e, cfg, (params, reasons) in zip(curves, units, exponents, cfgs, refined):
        accepted = _snap_to_grid(unit, params[reasons == "converged"], cfg)
        # greedy classes in (t1, t2, t3, t4) order; the first member represents each
        accepted = accepted[np.lexsort(accepted.T[::-1])]
        reps = accepted[_greedy_classes(accepted, unit.length, cfg.dedup_tol)]
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug("find_quads: %d seeds, refine outcomes %s, raw_count %d, %d classes",
                       len(reasons), dict(sorted(Counter(reasons.tolist()).items())),
                       len(accepted), len(reps))
        dedup_tol = math.ldexp(cfg.dedup_tol, e)
        out.append(_solution_set(curve, np.ldexp(reps, e), len(accepted), "", dedup_tol, {
            "grid_m": cfg.grid_m,
            "dedup_tol": dedup_tol,
            "residual_tol": cfg.residual_tol,
        }))
    return out


# ---------------------------------------------------------------------------
# exhaustive oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(curve: PolyCurve, m: int = 24, tol: float = 0.3) -> SolutionSet:
    """Pure grid search: the grid-local minima of the normalized residual
    (largest residual component over the squared mean side; each sorted grid
    tuple no larger than its 8 axis neighbours), taken on an m-point grid
    and kept when that residual is <= tol.  No refinement; used to
    cross-check find_quads.  seed_grid ranks the same grid tuples by the
    2-norm of the residual instead, which is never smaller, so the oracle
    keeps the largest component for its tol.

    A genuine solution sitting between grid points can carry a normalized
    residual up to ~(L/m)/side, so tol must stay loose at coarse m; the
    default suits m = 24 on curves whose quadrilaterals span the curve.
    """
    _check_closed("brute_force_oracle", curve)
    _check_integer("m", m)
    _check_positive("tol", tol)
    if not 8 <= m <= 48:
        raise ValueError("oracle grid needs 8 <= m <= 48 (O(m^4) tuples)")
    cfg = SolverConfig().resolved(curve)
    L = curve.length
    cands, norms = _grid_local_minima(curve, m, cfg, _norms)
    hit = norms <= tol
    cands, norms = cands[hit], norms[hit]

    # cluster plateau ties under the same symmetry-reduced metric,
    # keeping the lowest-residual member of each cluster
    cands = cands[np.lexsort((*cands.T[::-1], norms))]
    reps = cands[_greedy_classes(cands, L, cfg.dedup_tol)]
    reps = reps[np.lexsort(reps.T[::-1])]

    return _solution_set(curve, reps, len(cands), "oracle scan: ", cfg.dedup_tol,
                         {"oracle_m": m, "tol": tol, "dedup_tol": cfg.dedup_tol})
