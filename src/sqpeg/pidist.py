"""pi-distance of a polygonal curve: the infimum of endpoint distance over
open subarcs whose interior turning mass reaches pi.

Two modes are provided.  The literal definition degenerates on closed curves
(a near-full-wrap subarc has turning >= pi and endpoint distance near zero),
so a length-capped variant is offered as a diagnostic; the capped value is
NOT a valid lower bound on inscribed-quadrilateral side lengths and is
labeled as such wherever it is reported.

Both values are exact.  The subarcs with a given set of interior corners
have their endpoints on two edges, and the least chord between two segments
under one linear arclength limit has a closed form, so nothing is sampled.
A small set of runs is evaluated whole.  A larger one is pruned without
changing its result: a run whose lower bound exceeds a chord already found
can neither win nor tie and is never evaluated.  A run's chord is at least
the distance of its two edges, which is at least |mid_a - mid_b| - (len_a +
len_b) / 2.  On a closed curve, a run whose two edges share a vertex is
bounded at that vertex from the arclength cap, and the full run, whose two
edges are one edge, by L - cap.  The scan bounds before it evaluates: the
sharpest shared-vertex run sets the first bar, then each corner's first and
last run are evaluated only where their bound is within it.  Every run left
has two edges that share no vertex, so when the bar is below the shortest
edge one embeddedness sweep at the bar can rule them all out at once;
otherwise the bound is checked on three levels, each a lower bound of the
next: balls around chunks of a-edges against balls around chunks of
b-edges, then each a-edge against a b-chunk ball, then each run.  Ties go
to the least (chord, normalized a, normalized b, i, k), whatever the order
of the scan.  `step` is kept for the wrap margin of closed curves (subarcs
up to L - step long) and is reported as the result's `resolution`.

Every scan of a curve runs on one scanner, kept on the curve, of its copy at
unit scale (a power-of-two factor, exact, under which no squared length
overflows or underflows); so the scans of one `analyze` share its tables and
the minimal runs at their shared cap, and the results of a curve scaled by
2^k are its own times 2^k.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .curve import (PolyCurve, _check_positive, _cyclic_gaps, _ragged, _winds_once,
                    segment_to_segments_distance)

__all__ = [
    "CurvatureWindow",
    "PiDistanceResult",
    "scan_windows",
    "pi_distance",
    "verify_quad_arc_curvature",
    "sidelength_bound_report",
]

_PI_SLACK = 5e-13
# input validation only: `step` sets the wrap margin and the reported
# resolution, and a step under 1/2048 of the longest edge is refused with a
# message naming the smallest allowed step, so that `analyze --step` keeps
# one documented range of accepted values
_MAX_EDGE_SAMPLES = 2048
# consecutive a-edges, and consecutive b-edges, bounded together by one ball
# in the pruned scan
_CHUNK = 32
# candidate runs up to which the scan evaluates them all in one call: below
# it the pruning costs more than it saves (at most _ragged's block of 2^16,
# so that one block holds them)
_DIRECT_RUNS = 4096


class CurvatureWindow(NamedTuple):
    """An open subarc (a, b) with curvature mass kappa >= pi.

    a and b are normalized parameters in [0, L); arclen disambiguates arcs
    that wrap past the seam.  chord is the straight-line endpoint distance,
    never exceeding arclen.  A named tuple, so a list of windows is rows of
    numbers as it stands.
    """

    a: float
    b: float
    kappa: float
    chord: float
    arclen: float

    def to_json_dict(self) -> dict:
        return self._asdict()


@dataclass(frozen=True)
class PiDistanceResult:
    """Outcome of a pi-distance scan.

    value is None when no subarc reaches turning pi ("unbounded" in the
    serialized form).  The witness window attains the reported infimum, up
    to an inward slide of 1e-9 edge lengths when an endpoint falls on a
    boundary corner.  resolution is the step: the wrap margin on closed
    curves.
    """

    value: Optional[float]
    witness: Optional[CurvatureWindow]
    mode: str
    cap: Optional[float]
    resolution: float

    @property
    def unbounded(self) -> bool:
        return self.value is None

    def to_json_dict(self) -> dict:
        return {
            "value": "unbounded" if self.value is None else self.value,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "mode": self.mode,
            "cap": self.cap,
            "resolution": self.resolution,
        }


def _check_step(curve: PolyCurve, step: float) -> None:
    _check_positive("step", step)
    longest = float(np.max(curve._edge_lens))
    samples = math.ceil(longest / step)
    if samples > _MAX_EDGE_SAMPLES:
        raise ValueError(
            f"step {step:.6g} puts {samples} samples on the longest edge; at most "
            f"{_MAX_EDGE_SAMPLES} are allowed, so step must be at least "
            f"{longest / _MAX_EDGE_SAMPLES:.6g}")


def _rowdot(x, y):
    return np.einsum("ij,ij->i", x, y)


def _capped_chord_min(va0, va1, a_lo, a_hi, vb0, vb1, b_lo, b_hi, cap):
    """Exact minimum of |P(s) - Q(t)| over s, t in [0, 1] subject to
    b(t) - a(s) <= cap.

    P runs along an a-edge from va0 to va1 while its raw parameter a runs
    from a_lo to a_hi; Q and b likewise along a b-edge.  One a-edge (va0 of
    shape (n,)) meets a batch of b-edges, or a batch of a-edges meets the
    b-edges row by row.  Returns (chord, a_raw, b_raw), chord inf where even
    b_lo - a_hi exceeds the cap.

    The squared chord is a convex quadratic in (s, t).  If the unconstrained
    segment-to-segment optimum breaks the cap, the segment from it to any
    feasible point crosses the line b - a = cap without rising, so the
    minimum lies on that line: there the squared chord is a convex quadratic
    in s alone, minimized over the s-interval that keeps t in [0, 1].
    Parallel edges, whose minimizers form a segment, need no special case.
    """
    a_len = a_hi - a_lo
    b_len = b_hi - b_lo
    chord, s, t = segment_to_segments_distance(va0, va1, vb0, vb1)
    over = np.flatnonzero((b_lo + t * b_len) - (a_lo + s * a_len) > cap)
    if over.size:
        # only the rows that break the cap; a single a-edge serves every row
        p0, p1 = (np.broadcast_to(v, vb0.shape)[over] for v in (va0, va1))
        lo, ln = (np.broadcast_to(x, chord.shape)[over] for x in (a_lo, a_len))
        q0, q1, bl, bn = vb0[over], vb1[over], b_lo[over], b_len[over]
        d1 = p1 - p0
        d2 = q1 - q0
        # on the line, t = t0 + rho * s
        rho = ln / bn
        t0 = (lo + cap - bl) / bn
        g = d1 - rho[:, None] * d2
        r0 = (p0 - q0) - t0[:, None] * d2
        gg = _rowdot(g, g)
        so = np.divide(-_rowdot(r0, g), gg, out=np.zeros_like(gg), where=gg > 0.0)
        so = np.clip(so, np.maximum(-t0 / rho, 0.0), np.minimum((1.0 - t0) / rho, 1.0))
        to = np.clip(t0 + rho * so, 0.0, 1.0)
        gap = (p0 + so[:, None] * d1) - (q0 + to[:, None] * d2)
        s[over], t[over], chord[over] = so, to, np.sqrt(_rowdot(gap, gap))
    chord = np.where(b_lo - a_hi > cap, np.inf, chord)
    return chord, a_lo + s * a_len, b_lo + t * b_len


class _RunScanner:
    """Enumeration helper over contiguous corner runs of a PolyCurve.

    A run (i, k) is the cyclic range of corners i..k; any window whose
    endpoints lie on the run's two boundary edges has exactly those corners
    in its interior, hence curvature mass equal to the run's turning sum.
    Every method takes corner ordinals as integers or integer arrays.  The
    windows `finalize` builds are scaled by 2^e: the scans run on the curve
    at unit scale (see _scanner) and report in the curve's own units.
    """

    def __init__(self, curve: PolyCurve, e: int = 0):
        self.curve = curve
        self.e = e
        self.L = curve.length
        pos, ang = curve._atoms
        self.n = len(pos)
        self.closed = curve.closed
        if self.closed:
            self.pos_ext = np.concatenate((pos, pos + self.L))
            ang_ext = np.concatenate((ang, ang))
        else:
            self.pos_ext = pos
            ang_ext = ang
        self.prefix = np.concatenate(([0.0], np.cumsum(ang_ext)))
        self.pos = pos
        # boundary edges as (lo, hi, v0, v1) in raw parameters: the edge
        # entering each corner i, and the edge leaving each (extended) k
        verts, lens, nv = curve.vertices, curve._edge_lens, curve.num_vertices
        vi = (np.arange(self.n) + (0 if self.closed else 1)) % nv
        prev = (vi - 1) % nv
        self._a = (pos - lens[prev], pos, verts[prev], verts[vi])
        vk = np.arange(len(self.pos_ext)) % nv if self.closed else vi
        self._b = (self.pos_ext, self.pos_ext + lens[vk], verts[vk], verts[(vk + 1) % nv])
        self.k_lo = self.k_first(np.arange(self.n))
        # (cap, first_runs at that cap), for the last cap only; _enumerate_best
        # sets it where it evaluates them anyway
        self.first = (None, None)

    def _limit(self, i):
        return i + self.n - 1 if self.closed else self.n - 1

    def k_first(self, i):
        """Smallest k >= i whose run sum reaches pi, or -1."""
        target = self.prefix[i] + math.pi - _PI_SLACK
        k = np.searchsorted(self.prefix, target, side="left") - 1
        return np.where((k < i) | (k > self._limit(i)), -1, k)

    def k_last_under_cap(self, i, cap: float):
        """Largest k with minimal window arclength within the cap."""
        j = np.searchsorted(self.pos_ext, self.pos[i] + cap, side="right") - 1
        return np.minimum(j, self._limit(i))

    # -- geometry of a run's boundary edges --------------------------------

    def a_edge(self, i):
        """(a_lo, a_hi, v0, v1) of the edge entering corner i.  a may equal
        a_lo (that vertex atom is then excluded, which is outside the run
        anyway) but must stay < a_hi."""
        return tuple(x.take(i, axis=0) for x in self._a)

    def b_edge(self, k):
        """(b_lo, b_hi, v0, v1) of the edge leaving corner k; b must stay
        > b_lo.  k may also be a slice."""
        return tuple(x[k] if isinstance(k, slice) else x.take(k, axis=0) for x in self._b)

    def adjacent_bound(self, i, cap: float):
        """Lower bound on the chord of the closed curve's run (i, i + n - 2)
        under the cap.

        The run's a-edge and b-edge meet at the vertex before corner i,
        where the curve turns by tau.  Window endpoints x and y from that
        vertex on the two edges have x + y = L - (b - a) >= L - cap, so the
        chord, the third side of a triangle with angle pi - tau between
        them, is at least (x + y) * sin((pi - tau) / 2) >= (L - cap) *
        cos(tau / 2).  The midpoint bound of two adjacent edges is <= 0.
        """
        _, tau = self.curve._atoms
        return (self.L - cap) * np.cos(0.5 * tau[(i - 1) % self.n])

    def run_bound(self, i, k, cap: float):
        """Lower bound on the chords of the runs (i, k) under the cap, paired
        row by row.

        Any two segments are at least |mid_a - mid_b| - (len_a + len_b) / 2
        apart.  On a closed curve the adjacent-edge run (i, i + n - 2) takes
        adjacent_bound instead, and the single-edge run (i, i + n - 1) takes
        L - cap: its a-edge and b-edge are one edge, whose window endpoints
        are b - a <= cap apart the long way round the curve, so the short way,
        which is straight, they are L - (b - a) >= L - cap apart.
        """
        a_lo, a_hi, va0, va1 = self.a_edge(i)
        b_lo, b_hi, vb0, vb1 = self.b_edge(k)
        gap = 0.5 * (va0 + va1) - 0.5 * (vb0 + vb1)
        bound = np.sqrt(_rowdot(gap, gap)) - 0.5 * (a_hi - a_lo) - 0.5 * (b_hi - b_lo)
        if self.closed:
            bound = np.where(k == i + self.n - 2, self.adjacent_bound(i, cap), bound)
            bound = np.where(k == i + self.n - 1, self.L - cap, bound)
        return bound

    def chord_min(self, i, k, cap: float):
        """(chord, a_raw, b_raw) of the runs (i, k) under the cap, chord inf
        where a run is infeasible; i is one corner or pairs with k row by row."""
        a_lo, a_hi, va0, va1 = self.a_edge(i)
        b_lo, b_hi, vb0, vb1 = self.b_edge(k)
        return _capped_chord_min(va0, va1, a_lo, a_hi, vb0, vb1, b_lo, b_hi, cap)

    def runs(self, i, k, cap: float):
        """Columns (chord, a_raw, b_raw, i, k) of the runs (i, k) under the cap."""
        return np.stack((*self.chord_min(i, k, cap), i, k))

    def first_runs(self, cap: float):
        """Columns (chord, a_raw, b_raw, i, k) of the minimal run (i, k_lo[i])
        of every corner that has one, in corner order, under the cap,
        evaluated once per cap: the scans of one curve at one cap share
        them."""
        if self.first[0] != cap:
            i = np.flatnonzero(self.k_lo >= 0)
            self.first = (cap, self.runs(i, self.k_lo[i], cap))
        return self.first[1]

    def finalize(self, a_raw, b_raw, i, k, cap: float):
        """Move open-boundary hits inward and build the window records.

        An endpoint on its boundary corner moves inward by 1e-9 of its edge,
        capped at half the room the move has.  With one endpoint on its
        corner the other moves the same way by the same amount, so the window
        slides and its arclength is unchanged; the room is then the other
        endpoint's distance from its own corner.  With both on corners each
        moves inward and the room is the margin cap - (b - a).  An endpoint
        within four ulps of its corner counts as on it, since a slide by half
        of less room could round back onto the corner.
        """
        a_lo, a_hi, _, _ = self.a_edge(i)
        b_lo, b_hi, _, _ = self.b_edge(k)
        tol = 4.0 * np.spacing(b_lo)  # b_lo >= a_hi >= 0 sets the larger ulp
        on_a, on_b = a_raw >= a_hi - tol, b_raw <= b_lo + tol
        room = np.where(on_a & on_b, cap - (b_raw - a_raw), np.where(on_a, b_raw - b_lo, a_hi - a_raw))
        half_room = 0.5 * np.maximum(room, 0.0)
        down = np.where(on_a, np.minimum((a_hi - a_lo) * 1e-9, half_room), 0.0)
        up = np.where(on_b, np.minimum((b_hi - b_lo) * 1e-9, half_room), 0.0)
        a_raw = a_raw + np.where(on_a, -down, up)
        b_raw = b_raw + np.where(on_b, up, -down)
        if self.closed:
            a_n = np.mod(a_raw, self.L)
            b_n = np.mod(b_raw, self.L)
        else:
            a_n = np.clip(a_raw, 0.0, self.L)
            b_n = np.clip(b_raw, 0.0, self.L)
        chord = np.linalg.norm(self.curve.point_at(a_n) - self.curve.point_at(b_n), axis=1)
        kappa = self.curve.subarc_curvature(a_n, b_n)
        a_n, b_n, chord, arclen = (np.ldexp(x, self.e) for x in (a_n, b_n, chord, b_raw - a_raw))
        return list(map(CurvatureWindow._make, zip(a_n.tolist(), b_n.tolist(), kappa.tolist(),
                                                    chord.tolist(), arclen.tolist())))


def _scanner(curve: PolyCurve) -> _RunScanner:
    """The curve's one _RunScanner, on the curve at unit scale, where no
    squared length overflows or underflows: built on first use and kept in
    the curve's __dict__ beside its cached_property values, so that every
    scan of the curve shares its tables and its minimal runs.  The factor is
    a power of two, so the windows are those of the curve itself."""
    scanner = curve.__dict__.get("_run_scanner")
    if scanner is None:
        unit, e = curve._unit
        if e:
            # the copy turns as the curve does: the scans then read the
            # curve's own atoms, which its curvature methods share
            unit.__dict__.setdefault("_turning", curve._turning)
        # at e = 0 the unit curve is the curve itself, which a proxy leaves
        # free to go when its last reference does
        scanner = _RunScanner(unit if e else weakref.proxy(curve), e)
        curve.__dict__["_run_scanner"] = scanner
    return scanner


def scan_windows(curve: PolyCurve, cap: Optional[float] = None):
    """One minimum-chord window per minimal corner run reaching turning pi.

    For every corner i, the shortest run i..k whose turning sum first reaches
    pi is located; the window endpoints then range over the two free boundary
    edges, and the chord is minimized exactly under the arclength cap
    (default L/2, as in `pi_distance`).  Windows whose minimal arclength
    exceeds `cap` are dropped.  Returns an empty list when no run reaches
    turning pi.
    """
    if cap is None:
        cap = curve.length / 2.0
    _check_positive("cap", cap)
    scanner = _scanner(curve)
    # no window is 2L long, so a larger cap keeps the same windows
    cap = math.ldexp(min(cap, 2.0 * curve.length), -scanner.e)
    runs = scanner.first_runs(cap)
    _, a_raw, b_raw, i, k = runs[:, np.isfinite(runs[0])]
    return scanner.finalize(a_raw, b_raw, i.astype(int), k.astype(int), cap)


def _balls(mid, half):
    """Center and radius of a ball around each chunk of _CHUNK consecutive
    segments, from their midpoints and half-lengths."""
    heads = np.arange(0, len(mid), _CHUNK)
    center = 0.5 * (np.maximum.reduceat(mid, heads) + np.minimum.reduceat(mid, heads))
    reach = np.linalg.norm(mid - center[np.arange(len(mid)) // _CHUNK], axis=1) + half
    return center, np.maximum.reduceat(reach, heads)


def _enumerate_best(curve: PolyCurve, effective_cap: float):
    """Global minimum-chord window over all runs (not only minimal ones).

    Up to _DIRECT_RUNS candidate runs are all evaluated in one call, and the
    minimal ones are kept for scan_windows; more go through _pruned_scan.
    The winner is the least (chord, normalized a, normalized b, i, k), so it
    depends neither on the path nor on the order in which the runs are
    offered.
    """
    scanner = _scanner(curve)
    cap = math.ldexp(effective_cap, -scanner.e)
    i = np.flatnonzero(scanner.k_lo >= 0)
    k_lo = scanner.k_lo[i]
    k_hi = scanner.k_last_under_cap(i, cap)
    live = k_hi >= k_lo
    if not np.any(live):
        return None

    def first(runs):
        """The column of the least (chord, normalized a, normalized b, i, k)."""
        tie = runs[:, runs[0] == np.min(runs[0], initial=np.inf)]
        a_n, b_n = np.mod(tie[1:3], scanner.L) if scanner.closed else tie[1:3]
        return tie[:, np.lexsort((tie[4], tie[3], b_n, a_n))[:1]]

    winners = []  # columns (chord, a_raw, b_raw, i, k), one per offer

    def offer(runs):
        """Take the evaluated runs as candidates; their least chord."""
        winners.append(first(runs))
        return np.min(runs[0], initial=np.inf)

    # a corner whose minimal run breaks the cap is evaluated for scan_windows
    # alone; each corner's first row is its minimal run
    counts = np.maximum(k_hi - k_lo + 1, 1)
    if np.sum(counts) <= _DIRECT_RUNS:
        (r, k), = _ragged(k_lo, counts)
        runs = scanner.runs(i[r], k, cap)
        offer(runs[:, live[r]])
        scanner.first = (cap, runs[:, np.cumsum(counts) - counts])
    else:
        _pruned_scan(scanner, i[live], k_lo[live], k_hi[live], cap, offer)
    _, a_raw, b_raw, wi, wk = first(np.concatenate(winners, axis=1))
    return scanner.finalize(a_raw, b_raw, wi.astype(int), wk.astype(int), cap)[0]


def _sweep_is_cheap(scanner: _RunScanner, limit: float) -> bool:
    """Whether the bar is below the shortest edge, where the boxes of an
    is_embedded sweep at the bar meet few others."""
    return limit < np.min(scanner.curve._edge_lens)


def _pruned_scan(scanner: _RunScanner, i, k_lo, k_hi, cap: float, offer) -> None:
    """Offer, through `offer`, every run (i, k_lo..k_hi) that could win or
    tie.

    The bar is the least chord offered so far, plus a slack of 1e-12 L that
    covers the rounding of the bounds and of the chords.  A run is skipped
    only where a lower bound on its chord exceeds the bar, so that it can
    neither win nor tie.  In order:

    1. On a closed curve, the adjacent-edge run (i, i + n - 2) of least
       `adjacent_bound` sets the first bar.
    2. Each corner's first and last run is evaluated only where its
       `run_bound`, a lower bound on its chord (the proofs are there), is
       within the bar.  With no bar yet (capped mode, open curves) the first
       runs are all taken, from `first_runs`, which scan_windows shares.
       Then the adjacent-edge runs between, against `adjacent_bound`.
    3. Every run left has k_lo < k < k_hi, and k < i + n - 2 if closed.
       Its a-edge enters corner i and its b-edge leaves corner k: on a
       closed curve they are edges i - 1 and k with k - (i - 1) in [2, n - 2]
       (mod n), on an open one edges i and k + 1 with k > i, so they are two
       edges that share no vertex, and the run's chord is at least their
       distance.  is_embedded(bar) is True only if every two such edges are
       more than the bar apart, the slack in the bar covering the rounding
       of both distances; then no run left can win or tie, and the scan
       ends.  The sweep grows each edge's box by half the bar, so it is
       tried only when the bar is below the shortest edge
       (_sweep_is_cheap), where a box meets few others.
    4. Otherwise the rest are checked against the module's bound on three
       levels: balls around chunks of _CHUNK live a-edges against balls
       around chunks of b-edges; then each a-edge of a surviving chunk pair
       against its b-chunk ball; then each run.  A ball holds every edge of
       its chunk, so a level's bound is at most the bound of every run below
       it, and a run that could win or tie is never skipped.
    """
    n, slack = scanner.n, 1e-12 * scanner.L

    def evaluate(i, k):
        """Offer the runs (i, k); their least chord plus the slack."""
        return offer(scanner.runs(i, k, cap)) + slack if len(i) else math.inf

    limit = math.inf
    sharpest = -1  # the corner whose adjacent-edge run set the first bar
    if scanner.closed:
        adjacent = np.flatnonzero((k_lo <= i + n - 2) & (i + n - 2 <= k_hi))
        if adjacent.size:
            j = adjacent[np.argmin(scanner.adjacent_bound(i[adjacent], cap))]
            sharpest = i[j]
            limit = evaluate(i[j:j + 1], i[j:j + 1] + n - 2)
    if limit == math.inf:
        live = np.searchsorted(np.flatnonzero(scanner.k_lo >= 0), i)
        limit = offer(scanner.first_runs(cap)[:, live]) + slack
    else:
        keep = scanner.run_bound(i, k_lo, cap) <= limit
        limit = min(limit, evaluate(i[keep], k_lo[keep]))
    keep = (k_hi > k_lo) & (scanner.run_bound(i, k_hi, cap) <= limit)
    limit = min(limit, evaluate(i[keep], k_hi[keep]))

    # the runs between
    inner = k_hi - k_lo >= 2
    i, k_lo, k_hi = i[inner], k_lo[inner] + 1, k_hi[inner] - 1
    if scanner.closed:
        # k_hi <= i + n - 2 now, so the adjacent-edge run, if inside, is last
        adjacent = k_hi == i + n - 2
        keep = np.flatnonzero(adjacent & (i != sharpest))
        keep = keep[scanner.adjacent_bound(i[keep], cap) <= limit]
        limit = min(limit, evaluate(i[keep], k_hi[keep]))
        k_hi = k_hi - adjacent
        keep = k_hi >= k_lo
        i, k_lo, k_hi = i[keep], k_lo[keep], k_hi[keep]
    if i.size == 0 or (_sweep_is_cheap(scanner, limit) and scanner.curve.is_embedded(limit)):
        return

    a_lo, a_hi, va0, va1 = scanner.a_edge(i)
    a_mid, a_half = 0.5 * (va0 + va1), 0.5 * (a_hi - a_lo)
    b_lo, b_hi, vb0, vb1 = scanner.b_edge(slice(None))
    b_mid, b_half = 0.5 * (vb0 + vb1), 0.5 * (b_hi - b_lo)
    a_center, a_radius = _balls(a_mid, a_half)
    b_center, b_radius = _balls(b_mid, b_half)

    def near(mid, half, r, other_mid, other_half, c):
        """Whether the balls (mid, half)[r] and (other_mid, other_half)[c] are
        within the bar; np.take gathers rows faster than fancy indexing."""
        gap = np.take(mid, r, axis=0) - np.take(other_mid, c, axis=0)
        return np.sqrt(_rowdot(gap, gap)) - half[r] - other_half[c] <= limit

    # chunk g of the live a-edges meets the b-chunks its runs reach
    heads = np.arange(0, len(i), _CHUNK)
    c_lo = np.minimum.reduceat(k_lo, heads) // _CHUNK
    c_hi = np.maximum.reduceat(k_hi, heads) // _CHUNK
    for g, c in _ragged(c_lo, c_hi - c_lo + 1):
        keep = near(a_center, a_radius, g, b_center, b_radius, c)
        g, c = g[keep], c[keep]
        rows = np.minimum(_CHUNK, len(i) - g * _CHUNK)
        for q, r in _ragged(g * _CHUNK, rows):
            c_r = c[q]
            keep = (k_lo[r] // _CHUNK <= c_r) & (c_r <= k_hi[r] // _CHUNK)
            keep &= near(a_mid, a_half, r, b_center, b_radius, c_r)
            r, c_r = r[keep], c_r[keep]
            start = np.maximum(c_r * _CHUNK, k_lo[r])
            for q, k in _ragged(start, np.minimum(c_r * _CHUNK + _CHUNK - 1, k_hi[r]) - start + 1):
                keep = near(a_mid, a_half, r[q], b_mid, b_half, k)
                limit = min(limit, evaluate(i[r[q][keep]], k[keep]))


def pi_distance(curve: PolyCurve, mode: str = "capped", cap: Optional[float] = None,
                step: Optional[float] = None) -> PiDistanceResult:
    """Infimum of endpoint distance over open subarcs with turning >= pi.

    mode="literal": all subarc lengths are allowed, up to a full wrap minus
    one step on closed curves.  On every closed curve this is degenerate by
    construction: near-full-wrap windows drive the value toward zero.

    mode="capped": only subarcs of arclength <= cap (default L/2) are
    scanned.  This gives a usable diagnostic but is NOT equivalent to the
    literal definition and must not be read as a side-length bound.

    The value is exact: each run's minimum chord comes from a closed form,
    nothing is sampled, and the runs the pruning skips cannot win.  `step` only sets the wrap margin of
    closed curves (subarcs up to L - step long) and is reported as the
    result's `resolution`.
    """
    if mode not in ("literal", "capped"):
        raise ValueError("mode must be 'literal' or 'capped'")
    L = curve.length
    if step is None:
        step = L / 720.0
    _check_step(curve, step)

    if mode == "literal":
        effective_cap = (L - step) if curve.closed else L
        cap_out = None
    else:
        if cap is None:
            cap = L / 2.0
        _check_positive("cap", cap)
        effective_cap = min(cap, L - step) if curve.closed else min(cap, L)
        cap_out = float(cap)

    witness = _enumerate_best(curve, effective_cap)
    if witness is None:
        return PiDistanceResult(value=None, witness=None, mode=mode, cap=cap_out,
                                resolution=float(step))
    return PiDistanceResult(value=witness.chord, witness=witness, mode=mode,
                            cap=cap_out, resolution=float(step))


def verify_quad_arc_curvature(curve: PolyCurve, params, tol: float):
    """True iff the directed arc t1 -> t4 (through t2 and t3) of a cyclically
    ordered parameter 4-tuple carries curvature mass at least pi - tol.

    Any square-like quadrilateral inscribed in an arc forces this much
    turning, so failures flag candidates that are not genuine inscriptions.
    params is one tuple (4,), answered by a bool, or rows of tuples (k, 4),
    answered by a bool array (k,) in one pass; a row that is not cyclically
    ordered (on an open curve: not increasing) raises for the whole batch.
    """
    t = np.asarray(params, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != 4:
        raise ValueError("params must be four arclength values or rows of them")
    rows = t.reshape(-1, 4)
    L = curve.length
    if curve.closed:
        gaps = _cyclic_gaps(rows, L)
        if not _winds_once(gaps, L).all():
            raise ValueError("params are not cyclically ordered")
        start = np.mod(rows[:, 0], L)
        kappa = curve.subarc_curvature(start, start + np.sum(gaps[:, :3], axis=1))
    else:
        if np.any(np.diff(rows, axis=1) <= 0.0):
            raise ValueError("params are not cyclically ordered")
        kappa = curve.subarc_curvature(rows[:, 0], rows[:, 3])
    ok = kappa >= math.pi - tol
    return bool(ok[0]) if t.ndim == 1 else ok


def sidelength_bound_report(curve: PolyCurve, solutions, pid: PiDistanceResult) -> dict:
    """Per-solution record of mean side length against the pi-distance value.

    In literal mode on a closed curve the bound is vacuous (the value is
    driven to ~0 by wrap windows) and flagged as such; in capped mode the
    value is diagnostic only and may legitimately exceed true side lengths.
    """
    sols = getattr(solutions, "solutions", solutions)
    entries = []
    for sol in sols:
        side = float(np.mean(sol.sides))
        if pid.value is None:
            holds = True
        else:
            holds = side >= pid.value - 1e-12
        entries.append({"side": side, "pi_distance": pid.value, "holds": holds})

    if pid.unbounded:
        note = "no subarc reaches turning pi: every side-length bound holds vacuously"
    elif pid.mode == "literal" and curve.closed:
        note = ("literal mode is degenerate on closed curves (near-full-wrap "
                "windows force the value toward 0); the bound holds vacuously")
    elif pid.mode == "capped":
        note = ("capped mode is a diagnostic only and is not a valid lower "
                "bound on inscribed side lengths")
    else:
        note = "literal mode on an open curve: the bound is meaningful"

    return {
        "mode": pid.mode,
        "pi_distance": pid.value,
        "note": note,
        "entries": entries,
        "all_hold": all(e["holds"] for e in entries),
    }
