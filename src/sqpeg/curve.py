"""Polygonal curves in R^n: arclength parametrization, turning angles,
total curvature as a sum of vertex atoms, cusp detection, embeddedness."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import add

import numpy as np

__all__ = ["PolyCurve", "angle_between", "segment_to_segments_distance"]

# sin^2 of the angle between two segments below which their clamped free
# optimum is not trusted alone: its arclength error grows as 1/sin^2
_NEAR_PARALLEL = 2.0 ** -10
_CCW_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53  # Shewchuk's orient2d error bound
# an edge length is the root of a sum of squares: below sqrt(tiny) the squares
# have lost bits to underflow
_MIN_EDGE = math.sqrt(np.finfo(float).tiny)
# arclength parameters x lie in [0, 2L) (a parameter plus an arc of at most L),
# where the float spacing is at most x * 2^-52 < L * 2^-51: an edge at least
# L * 2^-51 long has ends of distinct arclength at any such offset
_MIN_EDGE_FRACTION = 2.0 ** -51


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive")


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")


def _angles(u, v):
    """Angles in [0, pi] between the paired rows of u and v (..., n).

    Uses 2*atan2(|a-b|, |a+b|) on the normalized rows; acos(dot) loses
    precision exactly at the extremes, which cusp detection cares about.
    Rows must be nonzero.
    """
    a = u / np.linalg.norm(u, axis=-1, keepdims=True)
    b = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


def angle_between(u, v) -> float:
    """Angle in [0, pi] between two vectors, accurate near both 0 and pi."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(u) == 0.0 or np.linalg.norm(v) == 0.0:
        raise ValueError("angle undefined for zero vector")
    return float(_angles(u[None], v[None])[0])


def _cyclic_gaps(params, L) -> np.ndarray:
    """Forward gaps t[i+1] - t[i] (mod L) of parameter tuples (..., k)."""
    t = np.mod(params, L)
    return np.mod(np.concatenate((t[..., 1:], t[..., :1]), axis=-1) - t, L)


def _winds_once(gaps, L) -> np.ndarray:
    """Rows of cyclic gaps with no zero gap that sum to L (math.isclose at
    rel_tol 1e-9): the tuple goes around the curve exactly once."""
    total = gaps.sum(axis=-1)
    return (gaps != 0.0).all(axis=-1) & (np.abs(total - L) <= 1e-9 * np.maximum(np.abs(total), L))


def _clamp(x, hi):
    return np.minimum(np.maximum(x, 0.0), hi)


def segment_to_segments_distance(p0, p1, q0, q1):
    """Minimum distances between segments paired row by row.

    p0, p1: (k, n) endpoints of k segments, or (n,) endpoints of one
    segment broadcast against every row.
    q0, q1: (k, n) endpoints of k segments.
    Returns (dist, s, t): distances and the clamped parameters of the
    closest points, p0 + s*(p1-p0) and q0 + t*(q1-q0).  Segments must have
    positive length.

    The squared distance is a convex quadratic on the parameter square.  Its
    free critical point, clamped to the square (Ericson, Real-Time Collision
    Detection, 5.1.9), is the minimum unless the segments are near-parallel,
    where that point is ill-conditioned; there the four edge minima (each
    endpoint's nearest point on the other segment) are candidates too, and
    the least wins.  Everything is worked out in unit directions and
    arclengths along them, so the test for near-parallel is scale-free and
    the distances scale exactly with the coordinates under powers of two.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.atleast_2d(np.asarray(q0, dtype=float))
    q1 = np.atleast_2d(np.asarray(q1, dtype=float))

    # coordinate-major: x[j] is coordinate j of every row
    d1, d2, r = (p1 - p0).T, (q1 - q0).T, (p0 - q0).T

    # the coordinate sums start from the first term: sum() would add it to 0
    def dot(x, y):
        return reduce(add, (x[j] * y[j] for j in range(len(r))))

    l1 = np.sqrt(dot(d1, d1))
    l2 = np.sqrt(dot(d2, d2))
    u1 = d1 / l1
    u2 = d2 / l2
    b, c, f = dot(u2, u1), dot(r, u1), dot(r, u2)

    def gap_sq(sigma, tau):  # |r + sigma*u1 - tau*u2|^2
        return reduce(add, ((r[j] + sigma * u1[j] - tau * u2[j]) ** 2 for j in range(len(r))))

    # arclengths: sigma along p, tau along q
    den = 1.0 - b * b
    sigma = _clamp(np.divide(b * f - c, den, out=np.zeros_like(den), where=den > 0.0), l1)
    tau_free = f + b * sigma
    tau = _clamp(tau_free, l2)
    sigma = np.where(tau != tau_free, _clamp(tau * b - c, l1), sigma)
    sq = gap_sq(sigma, tau)
    near = den < _NEAR_PARALLEL
    if near.any():
        for s_end, t_end in ((0.0, _clamp(f, l2)), (l1, _clamp(f + l1 * b, l2)),
                             (_clamp(-c, l1), 0.0), (_clamp(l2 * b - c, l1), l2)):
            sq_end = gap_sq(s_end, t_end)
            less = near & (sq_end < sq)
            sq = np.where(less, sq_end, sq)
            sigma = np.where(less, s_end, sigma)
            tau = np.where(less, t_end, tau)
    return np.sqrt(sq), sigma / l1, tau / l2


def _ragged(starts, counts, block: int = 1 << 16):
    """Blocks of at most `block` pairs (r, starts[r] + j), j < counts[r]."""
    ends = np.cumsum(counts)
    for lo in range(0, int(ends[-1]) if ends.size else 0, block):
        flat = np.arange(lo, min(lo + block, int(ends[-1])))
        row = np.searchsorted(ends, flat, side="right")
        yield row, starts[row] + flat - (ends[row] - counts[row])


def _points_on_edges(start, vecs, cum_len, lens, idx, s):
    """Points at the arclengths s (k,) on the edges idx (k,) of the rows
    start vertex, edge vector, arclength at the start and edge length; a
    parameter at an edge's start gives its start vertex exactly."""
    frac = (s - cum_len.take(idx)) / lens.take(idx)
    pts = start.take(idx, axis=0) + frac[:, None] * vecs.take(idx, axis=0)
    exact = frac == 0.0
    if exact.any():
        pts[exact] = start[idx[exact]]
    return pts


def _orientation(p, q, r):
    """Exact signs of the cross products (q - p) x (r - p) of 2-D point
    rows: the float sign where it clears Shewchuk's orient2d error bound,
    rationals for the rare rows it cannot decide."""
    left = (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
    right = (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])
    det = np.sign(left - right)
    for j in np.flatnonzero(np.abs(left - right) <= _CCW_ERR * (np.abs(left) + np.abs(right))):
        (px, py), (qx, qy), (rx, ry) = ([Fraction(x) for x in v[j]] for v in (p, q, r))
        exact = (qx - px) * (ry - py) - (qy - py) * (rx - px)
        det[j] = (exact > 0) - (exact < 0)
    return det


def _check_edge_lengths(edges, lens, length: float) -> None:
    """Refuse edges whose length float arithmetic does not measure, or that
    an arclength parameter cannot tell apart from a point."""
    if not (np.all(np.isfinite(lens)) and math.isfinite(length)):
        raise ValueError("edge lengths overflow to inf: the coordinates are too large, "
                         "rescale the curve")
    zero = np.all(edges == 0.0, axis=1)
    if np.any(zero):
        raise ValueError(f"coincident consecutive vertices at index {int(np.argmax(zero))}")
    if np.any(lens < _MIN_EDGE):
        raise ValueError(f"edge {int(np.argmin(lens))} is too short to measure: its squared length "
                         f"underflows below {_MIN_EDGE ** 2:.3g}; the coordinates are too small, "
                         "rescale the curve")
    short = lens < _MIN_EDGE_FRACTION * length
    if np.any(short):
        i = int(np.argmax(short))
        raise ValueError(f"edge {i} has length {lens[i]:.3g}, below 2^-51 of the curve length "
                         f"{length:.3g}, which arclength parameters cannot resolve")


class PolyCurve:
    """Ordered vertex chain in R^n, open or closed, with cached arclength table.

    Parameters on a closed curve are real numbers taken modulo the total
    length L; every public operation normalizes first.
    """

    def __init__(self, vertices, closed: bool):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be a 2-d array of shape (m, n)")
        if v.shape[1] < 2:
            raise ValueError("dimension must be at least 2")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices must be finite")
        minimum = 3 if closed else 2
        if v.shape[0] < minimum:
            raise ValueError(f"need at least {minimum} vertices ({'closed' if closed else 'open'})")

        if closed:
            edges = np.roll(v, -1, axis=0) - v
        else:
            edges = v[1:] - v[:-1]
        with np.errstate(over="ignore"):  # _check_edge_lengths names the cause
            lens = np.linalg.norm(edges, axis=1)
            length = float(np.sum(lens))
        _check_edge_lengths(edges, lens, length)

        self.vertices = v
        self.closed = bool(closed)
        self._edge_vecs = edges
        self._edge_lens = lens
        # arclength at each vertex; _knots appends the full length for closed
        self.cum_len = np.concatenate(([0.0], np.cumsum(lens)))[: v.shape[0]]
        self.length = length
        self._knots = np.concatenate((self.cum_len, [self.length]))
        # (largest clearance found embedded, least found not), in the units
        # of the curve at unit scale: see is_embedded
        self._clearance_levels = (-math.inf, math.inf)

    @cached_property
    def _unit_copy(self) -> "PolyCurve":
        return PolyCurve(np.ldexp(self.vertices, -math.frexp(self.length)[1]), closed=self.closed)

    @property
    def _unit(self):
        """(the curve at unit scale, e) with e = frexp(L)[1]: the curve itself
        if e is 0, else a copy scaled by 2^-e, built once.  Either way its
        length is in [1/2, 1), where no squared or cubed length overflows or
        underflows, and the factor is exact."""
        e = math.frexp(self.length)[1]
        return (self._unit_copy if e else self), e

    @cached_property
    def _edge_tangents(self):
        """Unit tangent (num_edges, n) of every edge, in the direction of travel."""
        return self._edge_vecs / self._edge_lens[:, None]

    # -- basic attributes ------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_edges(self) -> int:
        return self.num_vertices if self.closed else self.num_vertices - 1

    def __repr__(self):
        kind = "closed" if self.closed else "open"
        return f"PolyCurve({self.num_vertices} vertices, {kind}, n={self.dimension}, L={self.length:.6g})"

    # -- parametrization -------------------------------------------------

    def normalize_param(self, s):
        """Map parameters into [0, L) for closed curves; validate for open."""
        s = np.asarray(s, dtype=float)
        if self.closed:
            return np.mod(s, self.length)
        if np.any(s < -0.0) or np.any(s > self.length):
            raise ValueError(f"parameter out of range [0, {self.length}] on open curve")
        return s

    def point_at(self, s):
        """Point at arclength s (linear interpolation on the containing edge).

        Accepts a scalar or an array of parameters; closed curves wrap
        modulo L.  point_at(cum_len[i]) reproduces vertices[i] exactly.
        """
        scalar = np.isscalar(s) or np.ndim(s) == 0
        _, pts = self._locate(np.atleast_1d(s))
        return pts[0] if scalar else pts

    def _locate(self, s):
        """(edge index, point_at) of the 1-d parameters s by one search; a
        vertex takes the edge that leaves it (an open curve's end, the last)."""
        s = self.normalize_param(s)
        idx = np.searchsorted(self._knots, s, side="right") - 1
        idx = np.minimum(np.maximum(idx, 0), self.num_edges - 1)
        pts = _points_on_edges(self.vertices, self._edge_vecs, self.cum_len, self._edge_lens, idx, s)
        if not self.closed:
            # exact hit of the far endpoint
            at_end = s == self.length
            if at_end.any():
                pts[at_end] = self.vertices[-1]
        return idx, pts

    def arc_length(self, a, b):
        """Length of the directed arc from a forward to b (wrapping if closed).

        Accepts scalars or arrays of parameters, like point_at.
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        span = self._span(self.normalize_param(a), self.normalize_param(b))
        return float(span) if scalar else span

    def _span(self, a, b):
        """arc_length of normalized ends a and b that broadcast together."""
        if self.closed:
            return np.mod(b - a, self.length)
        if np.any(b < a):
            raise ValueError("on an open curve the arc must run forward (a <= b)")
        return b - a

    # -- curvature -------------------------------------------------------

    def turning_angle(self, i: int) -> float:
        """Exterior angle in [0, pi] between the edges meeting at vertex i."""
        _, ang = self._atoms
        if self.closed:
            return float(ang[i % self.num_vertices])
        if i <= 0 or i >= self.num_vertices - 1:
            raise ValueError("turning angle undefined at an open-curve endpoint")
        return float(ang[i - 1])  # atoms are indexed from the first interior vertex

    @property
    def _atoms(self):
        """(positions, angles) of the curvature atoms, one per corner vertex."""
        return (self.cum_len if self.closed else self.cum_len[1:-1]), self._turning

    @cached_property
    def _turning(self):
        """Turning angle at each corner vertex; a scaled copy may be given
        its curve's, which no scale changes."""
        if self.closed:
            return _angles(np.roll(self._edge_vecs, 1, axis=0), self._edge_vecs)
        return _angles(self._edge_vecs[:-1], self._edge_vecs[1:])

    @cached_property
    def _atom_prefix(self):
        pos, ang = self._atoms
        return np.concatenate(([0.0], np.cumsum(ang)))

    def total_curvature(self) -> float:
        """Sum of turning angles over all corners (interior corners if open)."""
        _, ang = self._atoms
        return float(np.sum(ang))

    def _arc_ends(self, s):
        """(normalized s, atoms at or before s, atoms before s) for
        parameters s of any shape: the searches subarc_curvature makes, done
        once per parameter so that _mass can pair the ends."""
        s = self.normalize_param(s)
        pos, _ = self._atoms
        return s, np.searchsorted(pos, s, side="right"), np.searchsorted(pos, s, side="left")

    def subarc_curvature(self, a, b):
        """Curvature mass of the open directed arc (a, b).

        Only atoms strictly interior to the arc contribute; a parameter that
        lands exactly on a vertex excludes that vertex's atom.  Accepts
        scalars or arrays of parameters, like point_at.
        """
        scalar = np.ndim(a) == 0 and np.ndim(b) == 0
        a, lo, _ = self._arc_ends(a)
        b, _, hi = self._arc_ends(b)
        mass = self._mass(a, lo, b, hi)
        return float(mass) if scalar else mass

    def _mass(self, a, lo, b, hi):
        """subarc_curvature of normalized ends a and b, with lo atoms at or
        before a and hi atoms before b; all four broadcast together."""
        prefix = self._atom_prefix

        def between(lo, hi):
            return np.where(hi > lo, prefix[hi] - prefix[lo], 0.0)

        if not self.closed:
            if np.any(b < a):
                raise ValueError("on an open curve the arc must run forward (a <= b)")
            return between(lo, hi)
        # an arc that ends before it starts crosses the seam vertex, whose
        # atom sits at 0 == L; an arc that ends on it (b == 0) leaves it out
        pos, ang = self._atoms
        wraps = b < a
        head = between(lo, np.where(wraps, np.searchsorted(pos, self.length, side="left"), hi))
        seam = np.where(b > 0.0, ang[0], 0.0)
        tail = between(np.searchsorted(pos, 0.0, side="right"), hi)
        return np.where(wraps, (head + seam) + tail, head)

    def detect_cusps(self, tol: float = 1e-6):
        """Vertex indices whose turning angle is within tol of a full reversal."""
        _check_positive("tol", tol)
        _, ang = self._atoms
        hits = np.nonzero(ang >= math.pi - tol)[0]
        if not self.closed:
            hits = hits + 1  # atoms are indexed from the first interior vertex
        return [int(i) for i in hits]

    # -- embeddedness ----------------------------------------------------

    def is_embedded(self, clearance: float = 0.0) -> bool:
        """True iff no two non-adjacent edges approach within `clearance`.

        Adjacent edges (sharing a vertex) are exempt, and only pairs whose
        boxes, grown by clearance/2, overlap are measured.  In the plane a
        pair meeting by exact orientation signs fails at any clearance >= 0;
        in dimension 3 and up a crossing may compute to a distance above 0.

        The pairs are measured on the curve at unit scale, where no squared
        distance overflows.  The answer can only turn from True to False as
        the clearance grows: a larger clearance grows every box and keeps
        every measured distance, and the meeting test reads only the boxes
        at clearance 0.  So the unit curve keeps the largest clearance it
        found embedded and the least it found not, and answers at or below
        the first, or at or above the second, without measuring.
        """
        _check_nonnegative("clearance", clearance)
        unit, e = self._unit
        # any two edges are within L, so every clearance past L answers as L
        clearance = math.ldexp(min(clearance, self.length), -e)
        below, above = unit._clearance_levels
        if clearance <= below:
            return True
        if clearance >= above:
            return False
        embedded = unit._measure_clearance(clearance)
        unit._clearance_levels = (clearance, above) if embedded else (below, clearance)
        return embedded

    def _measure_clearance(self, clearance: float) -> bool:
        """is_embedded(clearance), measured pair by pair."""
        E = self.num_edges
        starts = self.vertices[:E]
        ends = starts + self._edge_vecs
        box_lo, box_hi = np.minimum(starts, ends), np.maximum(starts, ends)
        lo, hi = box_lo - 0.5 * clearance, box_hi + 0.5 * clearance
        order = np.argsort(lo[:, 0], kind="stable")
        reach = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
        after = np.arange(1, E + 1)
        for r, c in _ragged(after, reach - after):
            i, j = np.sort((order[r], order[c]), axis=0)
            near = np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)
            near &= (j - i > 1) & ~(self.closed & (i == 0) & (j == E - 1))
            i, j = i[near], j[near]
            dist, _, _ = segment_to_segments_distance(starts[i], ends[i], starts[j], ends[j])
            if np.any(dist <= clearance):
                return False
            if self.dimension == 2:
                # segments meet iff their boxes overlap and neither lies
                # strictly on one side of the other's line
                m = np.all((box_lo[i] <= box_hi[j]) & (box_lo[j] <= box_hi[i]), axis=1)
                p0, p1, q0, q1 = starts[i[m]], ends[i[m]], starts[j[m]], ends[j[m]]
                if np.any((_orientation(p0, p1, q0) * _orientation(p0, p1, q1) <= 0)
                          & (_orientation(q0, q1, p0) * _orientation(q0, q1, p1) <= 0)):
                    return False
        return True

    # -- interchange format ----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "closed": self.closed,
            "vertices": [[float(x) for x in row] for row in self.vertices],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "PolyCurve":
        """The curve of a JSON object with keys "dimension" (an integer),
        "closed" (true or false) and "vertices" (rows of numbers); a value
        of another type is refused with a ValueError naming its key."""
        if not isinstance(data, dict):
            raise ValueError("curve JSON must be an object")
        for key in ("dimension", "closed", "vertices"):
            if key not in data:
                raise ValueError(f"curve JSON missing required key '{key}'")
        dimension, closed, rows = data["dimension"], data["closed"], data["vertices"]
        if type(dimension) is not int:
            raise ValueError(f"curve JSON 'dimension' must be an integer, not {dimension!r}")
        if type(closed) is not bool:
            raise ValueError(f"curve JSON 'closed' must be true or false, not {closed!r}")
        # exact types: JSON true and false load as bools, which isinstance
        # would take for the ints 1 and 0
        if not (type(rows) is list and set(map(type, rows)) <= {list}
                and set(map(type, chain.from_iterable(rows))) <= {int, float}):
            raise ValueError("curve JSON 'vertices' must be a list of rows of numbers")
        verts = np.asarray(rows, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != dimension:
            raise ValueError("curve JSON 'vertices' does not match 'dimension'")
        return cls(verts, closed)
