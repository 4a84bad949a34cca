"""pi-distance of a polygonal curve: the infimum of endpoint distance over
open subarcs whose interior turning mass reaches pi.

Two modes are provided.  The literal definition degenerates on closed curves
(a near-full-wrap subarc has turning >= pi and endpoint distance near zero),
so a length-capped variant is offered as a diagnostic; the capped value is
NOT a valid lower bound on inscribed-quadrilateral side lengths and is
labeled as such wherever it is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import PolyCurve, segment_to_segments_distance

__all__ = [
    "CurvatureWindow",
    "PiDistanceResult",
    "scan_windows",
    "pi_distance",
    "verify_quad_arc_curvature",
    "sidelength_bound_report",
]

_PI_SLACK = 5e-13
# samples per edge on the step grid: a capped run compares every a-grid
# point with every b-grid point; at 2048 per edge one run peaks near 240 MB
# (chords, their difference vectors and masks), at 4096 near 960 MB
_MAX_EDGE_SAMPLES = 2048


@dataclass(frozen=True)
class CurvatureWindow:
    """An open subarc (a, b) with curvature mass kappa >= pi.

    a and b are normalized parameters in [0, L); arclen disambiguates arcs
    that wrap past the seam.  chord is the straight-line endpoint distance,
    never exceeding arclen.
    """

    a: float
    b: float
    kappa: float
    chord: float
    arclen: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "kappa": self.kappa,
            "chord": self.chord,
            "arclen": self.arclen,
        }


@dataclass(frozen=True)
class PiDistanceResult:
    """Outcome of a pi-distance scan.

    value is None when no subarc reaches turning pi ("unbounded" in the
    serialized form).  The witness window attains (or approaches, up to the
    sampling resolution) the reported infimum.
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


class _RunScanner:
    """Enumeration helper over contiguous corner runs of a PolyCurve.

    A run (i, k) is the cyclic range of corners i..k; any window whose
    endpoints lie on the run's two boundary edges has exactly those corners
    in its interior, hence curvature mass equal to the run's turning sum.
    """

    def __init__(self, curve: PolyCurve, step: float):
        if step <= 0.0:
            raise ValueError("step must be positive")
        longest = float(np.max(curve._edge_lens))
        samples = math.ceil(longest / step)
        if samples > _MAX_EDGE_SAMPLES:
            raise ValueError(
                f"step {step:.6g} puts {samples} samples on the longest edge; at most "
                f"{_MAX_EDGE_SAMPLES} are allowed, so step must be at least "
                f"{longest / _MAX_EDGE_SAMPLES:.6g}")
        self.curve = curve
        self.step = step
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
        # corner ordinal -> vertex index
        self.vshift = 0 if self.closed else 1
        self.nv = curve.num_vertices

    def vertex_index(self, ordinal: int) -> int:
        return (ordinal + self.vshift) % self.nv

    def run_sum(self, i: int, k: int) -> float:
        return float(self.prefix[k + 1] - self.prefix[i])

    def k_first(self, i: int) -> int:
        """Smallest k >= i whose run sum reaches pi, or -1."""
        target = self.prefix[i] + math.pi - _PI_SLACK
        j = int(np.searchsorted(self.prefix, target, side="left"))
        k = j - 1
        limit = i + self.n - 1 if self.closed else self.n - 1
        if k < i or k > limit:
            return -1
        return k

    def k_last_under_cap(self, i: int, cap: float) -> int:
        """Largest k with minimal window arclength within the cap."""
        j = int(np.searchsorted(self.pos_ext, self.pos[i] + cap, side="right")) - 1
        limit = i + self.n - 1 if self.closed else self.n - 1
        return min(j, limit)

    # -- geometry of a run's boundary edges --------------------------------

    def a_edge(self, i: int):
        """(a_lo, a_hi, v0, v1): raw param interval and endpoints of the
        edge entering corner i.  a may equal a_lo (that vertex atom is then
        excluded, which is outside the run anyway) but must stay < a_hi."""
        vi = self.vertex_index(i)
        prev = (vi - 1) % self.nv
        elen = self.curve._edge_lens[prev]
        a_hi = self.pos[i]
        return a_hi - elen, a_hi, self.curve.vertices[prev], self.curve.vertices[vi]

    def b_edge(self, k: int):
        """(b_lo, b_hi, v0, v1) for the edge leaving corner k (raw params)."""
        vk = self.vertex_index(k % self.n if self.closed else k)
        elen = self.curve._edge_lens[vk]
        b_lo = self.pos_ext[k]
        return b_lo, b_lo + elen, self.curve.vertices[vk], self.curve.vertices[(vk + 1) % self.nv]

    def _grid(self, lo: float, hi: float, include_lo: bool, include_hi: bool):
        """Global multiples of step inside (lo, hi), plus requested endpoints."""
        step = self.step
        first = math.floor(lo / step) + 1
        last = math.floor(hi / step)
        vals = np.arange(first, last + 1, dtype=float) * step
        vals = vals[(vals > lo) & (vals < hi)]
        parts = [vals]
        if include_lo:
            parts.insert(0, np.array([lo]))
        if include_hi:
            parts.append(np.array([hi]))
        return np.concatenate(parts)

    def best_for_run(self, i: int, k: int, cap: float):
        """Minimum-chord candidate (chord, a_raw, b_raw) for run (i, k),
        subject to window arclength <= cap, or None if infeasible."""
        a_lo, a_hi, va0, va1 = self.a_edge(i)
        b_lo, b_hi, vb0, vb1 = self.b_edge(k)
        if b_lo - a_hi > cap:
            return None
        if b_hi - a_lo <= cap:
            dist, s, t = segment_to_segments_distance(va0, va1, vb0[None, :], vb1[None, :])
            a_raw = a_lo + float(s[0]) * (a_hi - a_lo)
            b_raw = b_lo + float(t[0]) * (b_hi - b_lo)
            return float(dist[0]), a_raw, b_raw
        a_grid = self._grid(a_lo, a_hi, include_lo=True, include_hi=False)
        b_grid = self._grid(b_lo, b_hi, include_lo=False, include_hi=True)
        arclen = b_grid[None, :] - a_grid[:, None]
        ok = arclen <= cap
        if not np.any(ok):
            return None
        fa = (a_grid - a_lo) / (a_hi - a_lo)
        fb = (b_grid - b_lo) / (b_hi - b_lo)
        pa = va0 + fa[:, None] * (va1 - va0)
        pb = vb0 + fb[:, None] * (vb1 - vb0)
        chords = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
        chords = np.where(ok, chords, np.inf)
        flat = int(np.argmin(chords))
        ia, ib = divmod(flat, chords.shape[1])
        return float(chords[ia, ib]), float(a_grid[ia]), float(b_grid[ib])

    def finalize(self, chord: float, a_raw: float, b_raw: float, i: int, k: int):
        """Nudge open-boundary hits inward and build the window record."""
        a_lo, a_hi, _, _ = self.a_edge(i)
        b_lo, b_hi, _, _ = self.b_edge(k)
        eps_a = (a_hi - a_lo) * 1e-9
        eps_b = (b_hi - b_lo) * 1e-9
        if a_raw >= a_hi:
            a_raw = a_hi - eps_a
        if b_raw <= b_lo:
            b_raw = b_lo + eps_b
        a_n = a_raw % self.L if self.closed else min(max(a_raw, 0.0), self.L)
        b_n = b_raw % self.L if self.closed else min(max(b_raw, 0.0), self.L)
        chord = float(np.linalg.norm(self.curve.point_at(a_n) - self.curve.point_at(b_n)))
        kappa = self.curve.subarc_curvature(a_n, b_n)
        return CurvatureWindow(
            a=float(a_n),
            b=float(b_n),
            kappa=float(kappa),
            chord=chord,
            arclen=float(b_raw - a_raw),
        )


def scan_windows(curve: PolyCurve, cap: float, step: float):
    """One minimum-chord window per minimal corner run reaching turning pi.

    For every corner i, the shortest run i..k whose turning sum first reaches
    pi is located; the window endpoints then range over the two free boundary
    edges (sampled at spacing <= step wherever the arclength cap binds, exact
    segment-to-segment minimization otherwise).  Windows whose minimal
    arclength exceeds `cap` are dropped.  Returns an empty list when no run
    reaches turning pi.
    """
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    scanner = _RunScanner(curve, step)
    out = []
    for i in range(scanner.n):
        k = scanner.k_first(i)
        if k < 0:
            continue
        cand = scanner.best_for_run(i, k, cap)
        if cand is None:
            continue
        out.append(scanner.finalize(*cand, i, k))
    return out


def _enumerate_best(curve: PolyCurve, effective_cap: float, step: float):
    """Global minimum-chord candidate over all runs (not only minimal ones)."""
    scanner = _RunScanner(curve, step)
    L = scanner.L
    closed = scanner.closed
    best_key = None
    best = None  # (chord, a_raw, b_raw, i, k)

    def offer(chord, a_raw, b_raw, i, k):
        nonlocal best_key, best
        a_n = a_raw % L if closed else a_raw
        b_n = b_raw % L if closed else b_raw
        key = (chord, a_n, b_n)  # ties broken by smaller a, then smaller b
        if best_key is None or key < best_key:
            best_key = key
            best = (chord, a_raw, b_raw, i, k)

    for i in range(scanner.n):
        k_lo = scanner.k_first(i)
        if k_lo < 0:
            continue
        k_hi = scanner.k_last_under_cap(i, effective_cap)
        if k_hi < k_lo:
            continue
        ks = np.arange(k_lo, k_hi + 1)
        a_lo, a_hi, va0, va1 = scanner.a_edge(i)
        if closed:
            vk = ks % scanner.n
        else:
            vk = ks + scanner.vshift
        b_lo = scanner.pos_ext[ks]
        b_len = scanner.curve._edge_lens[vk]
        exact = (b_lo + b_len) - a_lo <= effective_cap

        if np.any(exact):
            sel = ks[exact]
            vsel = vk[exact]
            vb0 = curve.vertices[vsel]
            vb1 = curve.vertices[(vsel + 1) % scanner.nv]
            dist, s, t = segment_to_segments_distance(va0, va1, vb0, vb1)
            j = int(np.argmin(dist))
            a_raw = a_lo + float(s[j]) * (a_hi - a_lo)
            b_raw = float(b_lo[exact][j]) + float(t[j]) * float(b_len[exact][j])
            offer(float(dist[j]), a_raw, b_raw, i, int(sel[j]))

        for k in ks[~exact]:
            res = scanner.best_for_run(i, int(k), effective_cap)
            if res is None:
                continue
            chord, a_raw, b_raw = res
            offer(chord, a_raw, b_raw, i, int(k))

    if best is None:
        return None, None
    chord, a_raw, b_raw, i, k = best
    return scanner.finalize(chord, a_raw, b_raw, i, k), scanner


def pi_distance(curve: PolyCurve, mode: str = "capped", cap: Optional[float] = None,
                step: Optional[float] = None) -> PiDistanceResult:
    """Infimum of endpoint distance over open subarcs with turning >= pi.

    mode="literal": all subarc lengths are allowed, up to a full wrap minus
    one step on closed curves.  On every closed curve this is degenerate by
    construction: near-full-wrap windows drive the value toward zero.

    mode="capped": only subarcs of arclength <= cap (default L/2) are
    scanned.  This gives a usable diagnostic but is NOT equivalent to the
    literal definition and must not be read as a side-length bound.

    The value is an upper-biased estimate converging to the true infimum as
    step -> 0; the sampling resolution is recorded in the result.
    """
    if mode not in ("literal", "capped"):
        raise ValueError("mode must be 'literal' or 'capped'")
    L = curve.length
    if step is None:
        step = L / 720.0
    if step <= 0.0:
        raise ValueError("step must be positive")

    if mode == "literal":
        effective_cap = (L - step) if curve.closed else L
        cap_out = None
    else:
        if cap is None:
            cap = L / 2.0
        if cap <= 0.0:
            raise ValueError("cap must be positive")
        effective_cap = min(cap, L - step) if curve.closed else min(cap, L)
        cap_out = float(cap)

    witness, _ = _enumerate_best(curve, effective_cap, step)
    if witness is None:
        return PiDistanceResult(value=None, witness=None, mode=mode, cap=cap_out,
                                resolution=float(step))
    return PiDistanceResult(value=witness.chord, witness=witness, mode=mode,
                            cap=cap_out, resolution=float(step))


def verify_quad_arc_curvature(curve: PolyCurve, params, tol: float) -> bool:
    """True iff the directed arc t1 -> t4 (through t2 and t3) of a cyclically
    ordered parameter 4-tuple carries curvature mass at least pi - tol.

    Any square-like quadrilateral inscribed in an arc forces this much
    turning, so failures flag candidates that are not genuine inscriptions.
    """
    t = np.asarray(params, dtype=float)
    if t.shape != (4,):
        raise ValueError("params must be four arclength values")
    L = curve.length
    if curve.closed:
        t = np.mod(t, L)
        gaps = np.mod(np.roll(t, -1) - t, L)
        if np.any(gaps == 0.0) or not math.isclose(float(np.sum(gaps)), L, rel_tol=1e-9):
            raise ValueError("params are not cyclically ordered")
        span = float(np.sum(gaps[:3]))
        kappa = curve.subarc_curvature(float(t[0]), float(t[0]) + span)
    else:
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("params are not cyclically ordered")
        kappa = curve.subarc_curvature(float(t[0]), float(t[3]))
    return kappa >= math.pi - tol


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
