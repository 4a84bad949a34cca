"""Search for inscribed square-like quadrilaterals on a closed curve.

Pipeline: seed the 4-parameter configuration space on an arclength grid,
refine each seed by damped least squares on the equal-side/equal-diagonal
residual, validate, and deduplicate modulo the order-8 relabeling symmetry
of the quadrilateral (cyclic shifts and reversal).
"""

from __future__ import annotations

import logging
import math
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .curve import PolyCurve, _check_positive, _cyclic_gaps, _winds_once
from .pidist import verify_quad_arc_curvature
from .quad import (_HEAD, _TAIL, _measure, _norms, _residual_jacobian, _residuals_of_chords,
                   _sides_and_residuals, _smooth_norms)

__all__ = [
    "SolverConfig",
    "QuadSolution",
    "SolutionSet",
    "seed_grid",
    "refine",
    "find_quads",
    "brute_force_oracle",
    "parity_report",
]

_log = logging.getLogger(__name__)
_ARC_KAPPA_TOL = 1e-6
# largest accepted grid_m: seeding holds the C(grid_m, 4) grid tuples and
# their scores, scored in blocks; seed_grid peaks at about 47 MB at 64
# (tracemalloc, trefoil512), and find_quads at 80 MB of resident memory
_MAX_GRID_M = 64
# the 8 relabelings of a quadrilateral: 4 cyclic shifts, then the same of its
# reversal; row r of params[..., _RELABEL] is image r
_RELABEL = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2],
                     [3, 2, 1, 0], [2, 1, 0, 3], [1, 0, 3, 2], [0, 3, 2, 1]])
# grid tuples scored per block while seeding
_BLOCK = 1 << 16
# the least relative reduction of a seed's squared score per step (_refine_batch)
_FTOL = 1e-4
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

def _eval_cells(curve: PolyCurve, params):
    """params (k, 4) -> (chords (k, 6, n), residuals (k, 4), mean sides (k,),
    unit tangents (k, 4, n) of the edges the points lie on, as _locate picks)."""
    idx, pts = curve._locate(params.reshape(-1))
    shape = params.shape + (curve.dimension,)
    chords, _, _, res, mean_side = _sides_and_residuals(pts.reshape(shape))
    return chords, res, mean_side, curve._edge_tangents[idx].reshape(shape)


def _eval_batch(curve: PolyCurve, params) -> tuple[np.ndarray, np.ndarray]:
    """params (k, 4) -> (residuals (k, 4), mean sides (k,))."""
    return _eval_cells(curve, np.atleast_2d(np.asarray(params, dtype=float)))[1:3]


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def _combinations4(m: int) -> np.ndarray:
    """All sorted 4-subsets of range(m), (C(m, 4), 4), in lexicographic
    order (the order of itertools.combinations)."""
    combos = np.arange(m)[:, None]
    for _ in range(3):
        counts = m - 1 - combos[:, -1]
        starts = np.cumsum(counts) - counts
        offsets = np.arange(int(np.sum(counts))) - np.repeat(starts, counts)
        nxt = np.repeat(combos[:, -1] + 1, counts) + offsets
        combos = np.column_stack([np.repeat(combos, counts, axis=0), nxt])
    return combos


def _grid_local_minima(curve: PolyCurve, m: int, cfg: SolverConfig, score):
    """Grid-local minima of score(residuals (k, 4), mean sides (k,)) -> (k,)
    on an m-point equispaced arclength grid, as (params (k, 4), scores (k,))
    in lexicographic order.

    Every sorted index 4-subset is scored, block by block, from one table of
    the squared chords between grid points; tuples with mean side under
    min_side score inf.  A tuple is kept when its score is finite and no
    larger than any of its 8 axis neighbours (index a moved by +-1); a
    neighbour that is not a sorted 4-subset of range(m) does not count.
    Tuples with a cyclic gap under gap_min are then dropped.
    """
    L = curve.length
    grid = np.arange(m) * (L / m)
    combos = _combinations4(m)
    pts = curve.point_at(grid)
    diff = pts[None, :, :] - pts[:, None, :]
    chord_sq = np.einsum("ijd,ijd->ij", diff, diff)  # |pts[j] - pts[i]|^2
    chord = np.sqrt(chord_sq)
    n = combos.shape[0]
    scores, keep = np.empty(n), np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        tail, head = combos[lo:lo + _BLOCK, _TAIL], combos[lo:lo + _BLOCK, _HEAD]
        res, mean_side = _residuals_of_chords(chord_sq[tail, head], chord[tail[:, :4], head[:, :4]])
        scores[lo:lo + _BLOCK] = np.where(mean_side >= cfg.min_side, score(res, mean_side), np.inf)
    # combos is lexicographic, so a tuple's rank is its row; moving entry a by
    # +1 adds C(m-2-c_a, 3-a) to the rank, by -1 subtracts C(m-1-c_a, 3-a)
    binom = np.array([[math.comb(x, 3 - a) for a in range(4)] for x in range(m)])
    for lo in range(0, n, _BLOCK):
        c, rank = combos[lo:lo + _BLOCK], np.arange(lo, min(lo + _BLOCK, n))
        bounds = np.column_stack([np.full(rank.size, -1), c, np.full(rank.size, m)])
        own = scores[rank]
        ok = np.isfinite(own)
        for a in range(4):
            up = rank + binom[np.maximum(m - 2 - c[:, a], 0), a]
            down = rank - binom[m - 1 - c[:, a], a]
            ok &= own <= scores[np.where(c[:, a] + 1 < bounds[:, a + 2], up, rank)]
            ok &= own <= scores[np.where(c[:, a] - 1 > bounds[:, a], down, rank)]
        keep[lo:lo + _BLOCK] = ok

    params, scores = grid[combos[keep]], scores[keep]
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
    less than _FTOL = 1e-4 of itself (see _refine_batch).
    """
    cfg = (config or SolverConfig()).resolved(curve)
    params, reasons = _refine_batch(curve, np.asarray(seed, dtype=float).reshape(1, 4), cfg)
    return (params[0] if reasons[0] == "converged" else None), str(reasons[0])


def _judge(curve: PolyCurve, t: np.ndarray, cfg: SolverConfig):
    """(params (k, 4) sorted ascending in [0, L), reasons (k,)) of the tuples
    t (k, 4): "converged" or the first rule broken of diverged (the sorted
    tuple's residual over residual_tol), ordering_broken (t does not wind
    once: else it sorts to a relabeling), collapsed (a gap of t under
    gap_min) and small_side (mean side under min_side)."""
    L = curve.length
    params = np.sort(np.mod(t, L), axis=1)
    res, ms = _eval_batch(curve, params)
    gaps = _cyclic_gaps(t, L)
    reasons = np.select(
        [_norms(res, ms) > cfg.residual_tol, ~_winds_once(gaps, L),
         np.min(gaps, axis=1) < cfg.gap_min, ms < cfg.min_side],
        ["diverged", "ordering_broken", "collapsed", "small_side"], "converged")
    return params, reasons


def _refine_batch(curve: PolyCurve, seeds: np.ndarray, cfg: SolverConfig):
    """Refinement of many seeds at once: (params (K, 4), reasons (K,)) of
    _judge on the refined tuples, the outcomes refine() describes.

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
    """
    K = seeds.shape[0]
    L = curve.length
    target = 0.1 * cfg.residual_tol

    t = np.mod(np.asarray(seeds, dtype=float), L)
    chords, res, ms, tangents = _eval_cells(curve, t)
    norm = _norms(res, ms)
    lam = np.full(K, 1e-3)
    active = np.ones(K, dtype=bool)

    for _ in range(cfg.max_iter):
        active &= norm > target
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        ta, norm0 = t[idx], norm[idx]
        jac = _residual_jacobian(chords[idx], tangents[idx])
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
            chords_new, res_new, ms_new, tangents_new = _eval_cells(curve, t_new)
            norm_new = _norms(res_new, ms_new)
            improved = ((norm_new < np.repeat(norm[idx[p]], k)) & ~bad).reshape(-1, k)
            hit = np.any(improved, axis=1)
            first = np.argmax(improved[hit], axis=1)
            acc, pick = p[hit], np.nonzero(hit)[0] * k + first
            rows = idx[acc]
            t[rows], res[rows] = t_new[pick], res_new[pick]
            chords[rows], tangents[rows] = chords_new[pick], tangents_new[pick]
            norm[rows] = norm_new[pick]
            lam[rows] = np.maximum(ladder[acc, rungs.start + first] / 3.0, 1e-12)
            accepted_step[acc] = np.max(np.abs(delta[pick]), axis=1)
            pending[acc] = False

        # no accepted trial or too small a reduction (inf-safe: no division) stalls; tiny steps stop
        stalled = pending | (accepted_step < 1e-15 * L) | (norm[idx] > math.sqrt(1.0 - _FTOL) * norm0)
        active[idx[stalled]] = False

    return _judge(curve, t, cfg)


# ---------------------------------------------------------------------------
# symmetry dedup and grid canonicalization
# ---------------------------------------------------------------------------

def _image_distances(cands: np.ndarray, b: np.ndarray, L: float) -> np.ndarray:
    """symmetry_distance(a, b, L) for every row a of cands (k, 4)."""
    d = np.mod(cands[:, None, :] - b[_RELABEL], L)
    return np.min(np.max(np.minimum(d, L - d), axis=2), axis=1)


def symmetry_distance(a, b, L: float) -> float:
    """min over the 8 relabeling images of the max cyclic parameter distance."""
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
    """Annotate the class representatives reps (k, 4) in one array pass and
    wrap them with their count, parity note and non-generic flag."""
    pts = curve.point_at(reps.reshape(-1)).reshape(reps.shape[0], 4, curve.dimension)
    rows = _measure(pts)
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
            arc_kappa_ok=verify_quad_arc_curvature(curve, params, _ARC_KAPPA_TOL),
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
    where no squared or cubed length overflows or underflows.
    """
    if not curve.closed:
        raise ValueError("find_quads requires a closed curve")
    e = math.frexp(curve.length)[1]
    unit = PolyCurve(np.ldexp(curve.vertices, -e), closed=True)
    cfg = (config or SolverConfig()).resolved(unit)
    if not curve.is_embedded(0.0):
        warnings.warn("curve is not embedded; results are best-effort")

    params, reasons = _refine_batch(unit, seed_grid(unit, cfg), cfg)
    accepted = _snap_to_grid(unit, params[reasons == "converged"], cfg)

    # greedy classes in (t1, t2, t3, t4) order; the first member represents each
    accepted = accepted[np.lexsort(accepted.T[::-1])]
    reps = accepted[_greedy_classes(accepted, unit.length, cfg.dedup_tol)]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("find_quads: %d seeds, refine outcomes %s, raw_count %d, %d classes", len(reasons),
                   dict(sorted(Counter(reasons.tolist()).items())), len(accepted), len(reps))
    dedup_tol = math.ldexp(cfg.dedup_tol, e)
    return _solution_set(curve, np.ldexp(reps, e), len(accepted), "", dedup_tol, {
        "grid_m": cfg.grid_m,
        "dedup_tol": dedup_tol,
        "residual_tol": cfg.residual_tol,
    })


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
