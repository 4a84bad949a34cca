"""Curve approximation machinery: arclength-equispaced inscribed polygons,
curvature-preserving corner rounding, discrete Frechet distance, the
Frechet/total-curvature length bound, and convergence measurements."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .curve import _MIN_EDGE_FRACTION, PolyCurve, _check_positive

__all__ = [
    "Segment",
    "Arc",
    "SmoothedCurve",
    "ConvergenceReport",
    "inscribe_polygon",
    "fillet_smooth",
    "discrete_frechet",
    "verify_length_bound",
    "convergence_report",
]


_MAX_SAMPLE_STEPS = 1 << 20  # arclength steps one SmoothedCurve.sample may take
_MAX_INSCRIBED = 1 << 20  # vertices one inscribe_polygon may place


def inscribe_polygon(curve: PolyCurve, n: int) -> PolyCurve:
    """Polygon with n vertices on `curve`, equally spaced by arclength.

    Vertices sit at arclengths k*L/n (phase 0).  Inscription never increases
    total curvature.  An n above _MAX_INSCRIBED is refused before anything
    is allocated.
    """
    minimum = 3 if curve.closed else 2
    if not minimum <= n <= _MAX_INSCRIBED:
        raise ValueError(f"n must be between {minimum} and {_MAX_INSCRIBED} vertices, not {n}")
    if curve.closed:
        params = np.arange(n) * (curve.length / n)
    else:
        params = np.linspace(0.0, curve.length, n)
    return PolyCurve(curve.point_at(params), curve.closed)


# ---------------------------------------------------------------------------
# corner rounding
# ---------------------------------------------------------------------------

def _row_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row as the one-row call rounds it: a dot
    product per row (norm(x, axis=1) sums the squares in another order)."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _on_arc(center, radius, e1, e2, w):
    """center + radius*(cos(w)*e1 + sin(w)*e2): one point, or one per row
    of the arrays."""
    r, c, s = (np.asarray(x)[..., None] for x in (radius, np.cos(w), np.sin(w)))
    return center + r * (c * e1 + s * e2)


def _piece_json(piece, kind: str) -> dict:
    """{"type": kind} and the piece's fields as floats or lists of floats."""
    return {"type": kind, **{f.name: np.asarray(getattr(piece, f.name), dtype=float).tolist()
                             for f in fields(piece)}}


@dataclass(frozen=True)
class Segment:
    start: np.ndarray
    end: np.ndarray

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.end - self.start))

    def to_json_dict(self) -> dict:
        return _piece_json(self, "seg")


@dataclass(frozen=True)
class Arc:
    """Circular arc in the plane spanned by (e1, e2) about `center`.

    Its point at arclength s is center + radius*(cos(w)*e1 + sin(w)*e2),
    w = s/radius in [0, turning]; the tangent rotates by exactly `turning`
    from e2.
    """

    center: np.ndarray
    radius: float
    e1: np.ndarray
    e2: np.ndarray
    turning: float

    @property
    def length(self) -> float:
        return self.radius * self.turning

    @property
    def start(self) -> np.ndarray:
        return self.center + self.radius * self.e1

    @property
    def end(self) -> np.ndarray:
        return _on_arc(self.center, self.radius, self.e1, self.e2, self.turning)

    def to_json_dict(self) -> dict:
        return _piece_json(self, "arc")


def _frames(pieces: list) -> tuple:
    """Per piece: is it an arc, its frame (a segment's start, end, end; an
    arc's center, e1, e2), its radius (0 on a segment), its length."""
    arc = np.array([isinstance(p, Arc) for p in pieces])
    frame = np.array([(p.center, p.e1, p.e2) if a else (p.start, p.end, p.end)
                      for p, a in zip(pieces, arc)], dtype=float)
    radius, turning = np.array([(p.radius, p.turning) if a else (0.0, 0.0)
                                for p, a in zip(pieces, arc)]).T
    return arc, frame, radius, np.where(arc, radius * turning, _row_norms(frame[:, 1] - frame[:, 0]))


def _points(frames: tuple, piece: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Points at arclength s from the start of the given pieces, one array
    evaluation per piece type."""
    arc, frame, radius, length = frames
    origin, u, v = frame[piece].transpose(1, 0, 2)
    on_arc, on_seg = arc[piece], ~arc[piece]
    pts = np.empty_like(origin)
    r = radius[piece[on_arc]]
    pts[on_arc] = _on_arc(origin[on_arc], r, u[on_arc], v[on_arc], s[on_arc] / r)
    pts[on_seg] = origin[on_seg] + (s[on_seg] / length[piece[on_seg]])[:, None] * (
        u[on_seg] - origin[on_seg])
    return pts


@dataclass
class SmoothedCurve:
    """Tangent-continuous alternation of line segments and circular fillets."""

    pieces: list
    closed: bool
    max_trim: float = 0.0
    dropped_turning: float = 0.0  # exact-zero corners carry no arc

    def total_curvature(self) -> float:
        return float(
            sum(p.turning for p in self.pieces if isinstance(p, Arc)) + self.dropped_turning
        )

    def length(self) -> float:
        return float(sum(p.length for p in self.pieces))

    def sample(self, step: float) -> PolyCurve:
        """Polygonal sampling at arclength spacing <= step.

        Each piece gives the starts of its ceil(length/step) equal parts (at
        least one), an open curve its end too, all in one array evaluation;
        a point within max(1e-15, 2^-51 of the length) of the one before is
        dropped, as PolyCurve refuses a shorter edge.  Fewer than 3
        points (2 if open) are replaced, with a warning, by as many points
        equally spaced by arclength.

        A step below length / _MAX_SAMPLE_STEPS is refused: the sample would
        hold more than _MAX_SAMPLE_STEPS points, plus at most one per piece.
        """
        _check_positive("step", step)
        frames = _frames(self.pieces)
        length = frames[3]
        total = sum(length.tolist())  # the float length() sums, in its order
        smallest = total / _MAX_SAMPLE_STEPS
        if step < smallest:
            raise ValueError(
                f"step {step:.6g} would take more than {_MAX_SAMPLE_STEPS} steps along "
                f"the curve; step must be at least {smallest!r}")
        nsub = np.maximum(np.ceil(length / step), 1.0).astype(np.intp)
        piece = np.repeat(np.arange(nsub.size), nsub)
        j = np.arange(piece.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
        pts = _points(frames, piece, length[piece] * j / nsub[piece])
        if not self.closed:
            pts = np.vstack((pts, self.pieces[-1].end))
        gap = max(1e-15, _MIN_EDGE_FRACTION * total)
        keep = np.concatenate(([True], np.linalg.norm(np.diff(pts, axis=0), axis=1) > gap))
        pts = pts[keep]
        minimum = 3 if self.closed else 2
        if pts.shape[0] < minimum:
            warnings.warn("step exceeds curve length; emitting a minimal coarse sample")
            s = total * np.arange(minimum) / minimum
            # the first piece ending at or after s, and s from its start
            ends = np.cumsum(length)
            piece = np.searchsorted(ends, s)
            pts = _points(frames, piece, s - np.concatenate(([0.0], ends))[piece])
        return PolyCurve(pts, self.closed)

    def to_json_dict(self) -> dict:
        return {
            "closed": self.closed,
            "max_trim": float(self.max_trim),
            "pieces": [p.to_json_dict() for p in self.pieces],
        }


def fillet_smooth(poly: PolyCurve, radius: float) -> SmoothedCurve:
    """Round every corner with a tangent circular arc turning exactly the
    corner's exterior angle, so total curvature is preserved.

    The radius is clamped per corner to 0.49*min(adjacent half-edge-lengths)
    / tan(angle/2), which keeps the two trims on any edge from overlapping.
    A corner turning under 1e-15 gets no arc (its turning goes to
    dropped_turning); corners within 1e-9 of a full reversal (cusps) cannot
    be rounded.  One array pass computes every corner.  The pieces run
    from vertex 0, a closed curve's arc at vertex 0 last.
    """
    _check_positive("radius", radius)
    v = poly.vertices
    m = poly.num_vertices
    # one turning angle per corner: every vertex if closed, else the interior
    _, alphas = poly._atoms
    cusps = np.flatnonzero(alphas >= math.pi - 1e-9)
    if cusps.size:
        raise ValueError(f"cannot fillet a cusp at vertex {cusps[0] + (0 if poly.closed else 1)}")
    dropped = float(np.cumsum(np.concatenate(([0.0], alphas[alphas < 1e-15])))[-1])

    # corner k is vertex k + 1 (vertex 0, last, if closed), entered along
    # edge k and left along the next edge; only corners that turn get an arc
    edges = poly._edge_vecs
    lens = _row_norms(edges)
    units = edges / lens[:, None]
    alpha = np.roll(alphas, -1) if poly.closed else alphas
    k = np.flatnonzero(alpha >= 1e-15)
    out, ids, alpha = (k + 1) % len(edges), (k + 1) % m, alpha[k]
    d1, d2 = units[k], units[out]
    half = alpha / 2.0
    # np.tan can differ from the libm tan in the last bit
    tan = np.array(list(map(math.tan, half.tolist())))
    r = np.minimum(radius, 0.49 * np.minimum(lens[k], lens[out]) / 2.0 / tan)
    trim = r * tan
    bis = d2 - d1
    center = v[ids] + (r / np.cos(half))[:, None] * (bis / _row_norms(bis)[:, None])
    e1 = v[ids] - trim[:, None] * d1 - center
    e1 = e1 / _row_norms(e1)[:, None]
    # where the curve enters and leaves each vertex: a rounded corner's
    # trim point and arc end
    enter, leave = v.copy(), v.copy()
    enter[ids] = v[ids] - trim[:, None] * edges[k] / lens[k, None]
    leave[ids] = _on_arc(center, r, e1, d1, alpha)

    # straight runs join consecutive stops: vertex 0, the rounded corners,
    # the last vertex (vertex 0 again if closed); run k is followed by arc k
    stops = np.concatenate(([0], ids[ids != 0], [0 if poly.closed else m - 1]))
    starts, ends = leave[stops[:-1]], enter[stops[1:]]
    kept = _row_norms(ends - starts) > 1e-15
    pieces = []
    for start, end, keep, arc in zip_longest(starts, ends, kept,
                                             zip(center, r.tolist(), e1, d1, alpha.tolist())):
        if keep:
            pieces.append(Segment(start, end))
        if arc:
            pieces.append(Arc(*arc))
    return SmoothedCurve(pieces=pieces, closed=poly.closed, max_trim=float(trim.max(initial=0.0)),
                         dropped_turning=dropped)


# ---------------------------------------------------------------------------
# discrete Frechet distance and the length bound
# ---------------------------------------------------------------------------

_SHIFT_BATCH = 16  # shifts per wavefront sweep


def _coupling_values(table: np.ndarray, m: int, shifts):
    """Coupling value of table[:, s:s + m] for each s in shifts.

    Sweeps C[i, j] = max(D[i, j], min(C[i-1, j], C[i, j-1], C[i-1, j-1]))
    by anti-diagonals d = i + j, vectorized over the shifts; a diagonal is
    kept by column j at index j + 1, +inf off the table.  shifts is one
    shift, whose diagonals are read as views, or an array of them, read by
    one gather per diagonal.
    """
    n, width = table.shape
    row, col = table.strides
    # diagonal[d, s, j] is table[d - j, j + s]; only the band
    # max(0, d - n + 1) <= j <= min(d, m - 1), inside the table, is read
    diagonal = as_strided(table, shape=(n + m - 1, width - m + 1, m),
                          strides=(row, col, col - row), writeable=False)
    older, old, new = np.full((3, *np.shape(shifts), m + 1), np.inf)
    old[..., 1] = table[0, shifts]
    for d in range(1, n + m - 1):
        lo, hi = max(0, d - n + 1), min(d, m - 1)
        step = np.minimum(old[..., lo + 1:hi + 2], old[..., lo:hi + 1])
        np.minimum(step, older[..., lo:hi + 1], out=step)
        np.maximum(step, diagonal[d, shifts, lo:hi + 1], out=new[..., lo + 1:hi + 2])
        older, old, new = old, new, older
    return old[..., m]


def _best_shift(dist: np.ndarray, best: float) -> float:
    """min(best, the least coupling value over the cyclic column shifts of
    dist), skipping every shift whose lower bound reaches best."""
    m = dist.shape[1]
    bound = np.maximum(dist[0], np.roll(dist[-1], 1))
    order = np.argsort(bound, kind="stable")
    bound = np.maximum(bound, max(dist.min(axis=1).max(), dist.min(axis=0).max()))
    doubled = np.concatenate((dist, dist), axis=1)
    # the first shift alone, then batches
    for batch in np.split(order, range(1, m, _SHIFT_BATCH)):
        batch = batch[bound[batch] < best]
        if batch.size == 0:
            break
        shifts = batch[0] if batch.size == 1 else batch
        best = min(best, float(np.min(_coupling_values(doubled, m, shifts))))
    return best


def _distance_table(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """|pa[i] - pb[j]| for every pair of rows, one coordinate at a time.

    The squares are summed in the pairing np.einsum uses for a short axis:
    the even coordinates, the odd ones, then the two sums.  Up to dimension
    7 that is the float einsum("ijk,ijk->ij") gives on the (n, m, d)
    differences, which this never forms.
    """
    lanes = [None, None]
    for j in range(pa.shape[1]):
        sq = np.subtract.outer(pa[:, j], pb[:, j])
        np.multiply(sq, sq, out=sq)
        lane = lanes[j % 2]
        lanes[j % 2] = sq if lane is None else np.add(lane, sq, out=lane)
    even, odd = lanes  # a curve has at least two coordinates
    return np.sqrt(np.add(even, odd, out=even), out=even)


def discrete_frechet(a: PolyCurve, b: PolyCurve) -> float:
    """Discrete Frechet distance between the vertex sequences of two curves.

    Both curves must be open or both closed; the closed case minimizes over
    cyclic shifts of the smaller vertex sequence, or of either sequence
    when the two are the same size.  The result is symmetric, to the last
    bit, and upper-bounds the continuous Frechet distance up to the max
    edge length.  Method: the Eiter-Mannila (1994) recurrence as a
    wavefront over anti-diagonals, vectorized across batches of shifts.
    Shift s cannot end below max(dist[0, s], dist[n-1, s-1]), its end
    bound, nor below the floor every shift shares: the vertex Hausdorff
    distance max(max_i min_j dist, max_j min_i dist), since a coupling
    matches every vertex (Hausdorff <= Frechet, Alt and Godau 1995).
    Shifts run in ascending order of end bound, the first alone and then in
    batches, until the larger of the two bounds reaches the best value
    found; a first shift that meets the floor ends the search at once.
    Exact: the returned float is a coupling value, the same float as the
    full minimum over all shifts.  The table is built with both curves
    scaled by one power of two that puts every coordinate under 1, so no
    squared difference overflows and the distance of two curves scaled by
    2^k is theirs times 2^k.  Memory: the n x m distance matrix, its
    column-doubled copy if closed, O(batch * min(n, m)) more.
    """
    if a.closed != b.closed:
        raise ValueError("curves must be both open or both closed")
    if a.dimension != b.dimension:
        raise ValueError("curves must share one ambient dimension")
    pa, pb = a.vertices, b.vertices
    # shift (or, open, index diagonals by) the smaller sequence: the
    # distance is symmetric and the transposed matrix holds the same floats
    if pa.shape[0] < pb.shape[0]:
        pa, pb = pb, pa
    # the table is built with the coordinates under 1 by one power of two,
    # an exact factor, so that no squared difference overflows
    e = math.frexp(max(float(np.max(np.abs(pa))), float(np.max(np.abs(pb)))))[1]
    dist = _distance_table(np.ldexp(pa, -e), np.ldexp(pb, -e))
    n, m = dist.shape
    if not a.closed:
        return math.ldexp(float(_coupling_values(dist, m, 0)), e)
    best = _best_shift(dist, math.inf)
    return math.ldexp(_best_shift(dist.T, best) if n == m else best, e)


def verify_length_bound(a: PolyCurve, b: PolyCurve) -> dict:
    """Check |Len(A) - Len(B)| <= delta(A,B) * (pi * max(TC) + 2).

    Uses the discrete Frechet distance, which dominates the continuous one,
    so a true inequality is never falsely reported violated.
    """
    delta = discrete_frechet(a, b)
    tc_a = a.total_curvature()
    tc_b = b.total_curvature()
    lhs = abs(a.length - b.length)
    rhs = delta * (math.pi * max(tc_a, tc_b) + 2.0)
    return {
        "len_a": a.length,
        "len_b": b.length,
        "len_diff": lhs,
        "frechet": delta,
        "tc_a": tc_a,
        "tc_b": tc_b,
        "bound": rhs,
        "holds": lhs <= rhs,
    }


# ---------------------------------------------------------------------------
# convergence in position / arclength / total curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    index: int
    position_err: float
    length_err: float
    curvature_err: float


_PAIR_BLOCK = 1 << 18  # dyadic pairs measured per array pass
# the pairs grow 4x per level: depth 12 measures 8.4M of them, about 80 ms
# per N of `sqpeg converge` on ellipse512 on a 2-vCPU x86-64 host
_MAX_DYADIC_DEPTH = 12


def convergence_report(target: PolyCurve, approximant: PolyCurve,
                       dyadic_depth: int = 6, index: int = 0) -> ConvergenceReport:
    """Measure how closely `approximant` tracks `target` in position,
    arclength, and curvature mass under arclength-fraction matching.

    Parameter a on the target corresponds to a * L_approx / L_target on the
    approximant.  position_err is the exact sup of the matched-point
    distance: between consecutive vertex fractions of either curve both are
    affine in the fraction, so the distance is convex there and peaks at a
    vertex fraction.  The arc errors are maximized over all dyadic fraction
    pairs [j/2^d, k/2^d] at the deepest level d = dyadic_depth (1 to
    _MAX_DYADIC_DEPTH), by pair arithmetic on per-fraction prefix terms.
    """
    if not 1 <= dyadic_depth <= _MAX_DYADIC_DEPTH:
        raise ValueError(f"dyadic_depth must be between 1 and {_MAX_DYADIC_DEPTH}")
    if target.closed != approximant.closed:
        raise ValueError("curves must be both open or both closed")
    lt, la = target.length, approximant.length

    # an open curve's last cumulative length can sum one ulp above its
    # length, so the fractions are clamped to 1
    fr = np.minimum(np.concatenate((target._knots / lt, approximant._knots / la)), 1.0)
    gap = target.point_at(fr * lt) - approximant.point_at(fr * la)
    position_err = float(np.max(np.linalg.norm(gap, axis=1)))

    denom = 2 ** dyadic_depth
    fracs = np.arange(denom + 1) / denom

    def ends(curve):
        # x unnormalized in [0, L]: a closed curve's last x is L, not the seam
        # 0, so every arc (j, k), j < k, runs forward, where _span is x[k] -
        # x[j] and _mass prefix[hi[k]] - prefix[lo[j]] to the bit
        x, pos, prefix = fracs * curve.length, curve._atoms[0], curve._atom_prefix
        return x, prefix[np.searchsorted(pos, x, "left")], prefix[np.searchsorted(pos, x, "right")]

    (xt, ut, vt), (xa, ua, va) = ends(target), ends(approximant)
    # rows of j broadcast both over the k > j (a k < j gives (k, j)'s dlen negated)
    length_err = curvature_err = 0.0
    rows = max(1, _PAIR_BLOCK // (denom + 1))
    k = np.arange(denom + 1)
    for j0 in range(0, denom, rows):
        j, c = k[j0:j0 + rows, None], slice(j0 + 1, denom + 1)
        dlen = (xt[c] - xt[j]) - (xa[c] - xa[j])
        dkap = np.where(k[c] > j, (ut[c] - vt[j]) - (ua[c] - va[j]), 0.0)
        if j0 == 0 and target.closed:
            # the full wrap (0, 1) ends where it starts, at the seam: 0 on both curves
            dlen[0, -1] = dkap[0, -1] = 0.0
        length_err = max(length_err, float(dlen.max()), float(-dlen.min()))
        curvature_err = max(curvature_err, float(dkap.max()), float(-dkap.min()))
    return ConvergenceReport(
        index=index,
        position_err=position_err,
        length_err=length_err,
        curvature_err=curvature_err,
    )
