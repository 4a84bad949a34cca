"""Quadrilaterals in R^n: square-likeness (equal sides, equal diagonals),
the apex half-angle theta, and the turning of the open three-edge chain."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .curve import _angles, _check_nonnegative

__all__ = ["Quad", "QuadMetrics", "make_square_like"]

QUARTER_PI = math.pi / 4.0

# row k lists the vertex triple omitting vertex k
_TRIPLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# chord c runs from vertex _TAIL[c] to _HEAD[c]: sides pq, qr, rs, sp, diagonals pr, qs
_TAIL, _HEAD = np.array([0, 1, 2, 3, 0, 1]), np.array([1, 2, 3, 0, 2, 3])
# residual r is |chord _PLUS[r]|^2 - |chord _MINUS[r]|^2
_PLUS, _MINUS = np.array([0, 1, 2, 4]), np.array([1, 2, 3, 5])
# _ENDS[c, i] is d(head - tail of chord c) / d(vertex i): +1 at its head, -1 at its tail
_ENDS = np.eye(4)[_HEAD] - np.eye(4)[_TAIL]


# ---------------------------------------------------------------------------
# the batched kernel: every measurement of quads given as points (k, 4, n)
# ---------------------------------------------------------------------------

def _sides_and_residuals(pts):
    """Chord vectors (k, 6, n), side lengths (k, 4), squared diagonals
    |pr|^2, |qs|^2 (k, 2), residual (k, 4) and mean side (k,)."""
    chords = pts[:, _HEAD] - pts[:, _TAIL]
    chord_sq = np.einsum("kij,kij->ki", chords, chords)
    sides = np.sqrt(chord_sq[:, :4])
    res = chord_sq[:, _PLUS] - chord_sq[:, _MINUS]
    return chords, sides, chord_sq[:, 4:], res, sides.sum(axis=1) / 4.0


def _residual_jacobian(chords, tangents) -> np.ndarray:
    """d res_r / d t_i (k, 4, 4) of quads with chords (k, 6, n) whose vertex
    i moves with unit velocity tangents[:, i] (k, 4, n) as t_i grows: exact
    on a polygon, where a vertex is affine along its edge, as chord c gives
    d|c|^2/dt_head = 2 c.u_head and d|c|^2/dt_tail = -2 c.u_tail."""
    grad = 2.0 * np.einsum("kcj,kij->kci", chords, tangents) * _ENDS
    return grad[:, _PLUS] - grad[:, _MINUS]


def _residuals_of_points(pts) -> tuple[np.ndarray, np.ndarray]:
    """Residual 4-vector and mean side length for batched quads (k, 4, n)."""
    *_, res, mean_side = _sides_and_residuals(np.asarray(pts, dtype=float))
    return res, mean_side


def _norms(res, mean_side) -> np.ndarray:
    """max |residual component| / (mean side)^2 per row; inf at mean side 0."""
    out = np.full(mean_side.shape, np.inf)
    return np.divide(np.abs(res).max(axis=1), mean_side * mean_side, out=out, where=mean_side > 0.0)


def _smooth_norms(res, mean_side) -> np.ndarray:
    """||residual||_2 / (mean side)^2 per row; inf at mean side 0.  Unlike
    _norms it has no crease where two components tie.  The residual is
    scaled before it is squared, so it cannot overflow where _norms does not."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = res / (mean_side * mean_side)[:, None]
        out = np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    return np.where(mean_side > 0.0, out, np.inf)


def _thetas(ratio, tol: float = 1e-9) -> np.ndarray:
    """arcsin(min(ratio, 1)) of ratios mean diagonal / (2 * mean side); nan
    where the ratio exceeds 1 + tol, which no square-like quad realizes."""
    return np.where(ratio <= 1.0 + tol, np.arcsin(np.minimum(ratio, 1.0)), np.nan)


class _QuadRows(NamedTuple):
    sides: np.ndarray          # (k, 4) |pq|, |qr|, |rs|, |sp|
    diagonals: np.ndarray      # (k, 2) |pr|, |qs|
    residual: np.ndarray       # (k, 4)
    mean_side: np.ndarray      # (k,)
    residual_norm: np.ndarray  # (k,)
    ratio: np.ndarray          # (k,) mean diagonal / (2 * mean side)
    theta: np.ndarray          # (k,) nan where not realizable
    open_turning: np.ndarray   # (k,)


def _measure(pts) -> _QuadRows:
    """Sides, diagonals, residual and its norm, theta and open turning of
    quads (k, 4, n)."""
    chords, sides, diag_sq, res, mean_side = _sides_and_residuals(pts)
    diags = np.sqrt(diag_sq)
    ratio = diags.sum(axis=1) / 2.0 / (2.0 * mean_side)
    return _QuadRows(
        sides=sides,
        diagonals=diags,
        residual=res,
        mean_side=mean_side,
        residual_norm=_norms(res, mean_side),
        ratio=ratio,
        theta=_thetas(ratio),
        # turning at q plus turning at r along the open chain p->q->r->s
        open_turning=_angles(chords[:, :2], chords[:, 1:3]).sum(axis=1),
    )


def _measure_at(pts, e: int) -> tuple[_QuadRows, _QuadRows]:
    """(_measure of the quads pts (k, 4, n) scaled by 2^-e, the same rows
    with their lengths scaled back: sides, diagonals and mean side by 2^e,
    the residual by 2^2e).  For an e where the scaled chords are near 1, no
    squared chord overflows or underflows; the scaling is exact, so the rows
    are those of the quads as given wherever those are finite.  A residual
    component past the float range is inf."""
    unit = _measure(np.ldexp(pts, -e))
    with np.errstate(over="ignore"):
        residual = np.ldexp(unit.residual, 2 * e)
    return unit, unit._replace(sides=np.ldexp(unit.sides, e), diagonals=np.ldexp(unit.diagonals, e),
                               mean_side=np.ldexp(unit.mean_side, e), residual=residual)


def _defect_by_projection(tri, other) -> float:
    u = tri[1] - tri[0]
    w = tri[2] - tri[0]
    # orthonormalize {u, w}, dropping a near-degenerate second direction
    e1 = u / np.linalg.norm(u)
    w_perp = w - np.dot(w, e1) * e1
    nw = np.linalg.norm(w_perp)
    d = other - tri[0]
    proj = np.dot(d, e1) * e1
    if nw > 1e-14 * np.linalg.norm(w):
        e2 = w_perp / nw
        proj = proj + np.dot(d, e2) * e2
    return float(np.linalg.norm(d - proj))


@dataclass(frozen=True, eq=False)
class Quad:
    """Four pairwise-distinct points p, q, r, s of the same dimension."""

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        pts = [np.asarray(x, dtype=float) for x in (self.p, self.q, self.r, self.s)]
        dim = pts[0].shape
        if any(x.shape != dim or x.ndim != 1 for x in pts):
            raise ValueError("all four points must share one dimension")
        for i in range(4):
            for j in range(i + 1, 4):
                if np.array_equal(pts[i], pts[j]):
                    raise ValueError("quad points must be pairwise distinct")
        object.__setattr__(self, "p", pts[0])
        object.__setattr__(self, "q", pts[1])
        object.__setattr__(self, "r", pts[2])
        object.__setattr__(self, "s", pts[3])

    @classmethod
    def from_points(cls, points) -> "Quad":
        pts = np.asarray(points, dtype=float)
        if pts.shape[0] != 4:
            raise ValueError("need exactly four points")
        return cls(pts[0], pts[1], pts[2], pts[3])

    @cached_property
    def points(self) -> np.ndarray:
        return np.stack([self.p, self.q, self.r, self.s])

    # -- elementary measurements ------------------------------------------

    @cached_property
    def _scale(self) -> int:
        """e with every coordinate under 2^e in magnitude: measured at 2^-e,
        no squared chord of the quad overflows or underflows."""
        return math.frexp(float(np.max(np.abs(self.points))))[1]

    @cached_property
    def _measured(self) -> tuple[_QuadRows, _QuadRows]:
        """The batched kernel's measurements of this one quad (k = 1) at
        unit scale and as given (_measure_at)."""
        return _measure_at(self.points[None], self._scale)

    @property
    def _rows(self) -> _QuadRows:
        return self._measured[1]

    def side_lengths(self) -> np.ndarray:
        """|pq|, |qr|, |rs|, |sp|."""
        return self._rows.sides[0].copy()

    def diagonal_lengths(self) -> np.ndarray:
        """|pr|, |qs|."""
        return self._rows.diagonals[0].copy()

    def residual(self) -> np.ndarray:
        """(|pq|^2-|qr|^2, |qr|^2-|rs|^2, |rs|^2-|sp|^2, |pr|^2-|qs|^2).

        All four components vanish exactly when the quad has equal sides and
        equal diagonals.  Squared distances keep the map smooth in the vertex
        coordinates, which the refinement solver relies on.
        """
        return self._rows.residual[0].copy()

    def residual_norm(self) -> float:
        """max |residual component| / (mean side)^2, dimensionless."""
        return float(self._rows.residual_norm[0])

    def is_square_like(self, tol: float) -> bool:
        """True iff max |residual| <= tol * mean squared side."""
        _check_nonnegative("tol", tol)
        unit = self._measured[0]  # the same comparison at unit scale, where nothing overflows
        mean_sq = float(np.mean(unit.sides[0] ** 2))
        return bool(np.max(np.abs(unit.residual[0])) <= tol * mean_sq)

    def theta(self, tol: float = 1e-9) -> float:
        """Apex half-angle: arcsin(mean diagonal / (2 * mean side)).

        For an exact square-like quad the diagonal is 2*sin(theta) times the
        side, so this inverts the relation; clamped to [0, pi/2].
        """
        rows = self._rows
        if rows.mean_side[0] <= 0.0:
            raise ValueError("degenerate quad: zero mean side")
        theta = float(_thetas(rows.ratio, tol)[0])
        if math.isnan(theta):
            raise ValueError(f"diagonal/(2*side) = {rows.ratio[0]:.6g} > 1: not realizable")
        return theta

    def open_turning(self) -> float:
        """Turning at q plus turning at r along the open chain p->q->r->s.

        For an exact square-like quad this equals 2*pi - 4*theta, which is at
        least pi, with equality exactly for a planar square.
        """
        return float(self._rows.open_turning[0])

    def planarity_defect(self) -> float:
        """Distance of the fourth point from the affine span of the other three.

        The most-spread triple (largest triangle area, by its Gram
        determinant) is used as the base, so the measure stays robust when
        three points are nearly collinear.  In dimension 2 the defect is 0 by
        convention.
        """
        if self.p.shape[0] == 2:
            return 0.0
        pts = np.ldexp(self.points, -self._scale)  # exact; no product of four lengths overflows
        tri = pts[_TRIPLES]
        u = tri[:, 1] - tri[:, 0]
        w = tri[:, 2] - tri[:, 0]
        uu, ww, uw = (np.einsum("ij,ij->i", x, y) for x, y in ((u, u), (w, w), (u, w)))
        k = int(np.argmax(np.maximum(uu * ww - uw * uw, 0.0)))  # row k omits point k
        return math.ldexp(_defect_by_projection(tri[k], pts[k]), self._scale)

    def is_planar_square(self, tol: float) -> bool:
        """Square-like, flat, and with theta at the planar extreme pi/4."""
        if not self.is_square_like(tol):
            return False
        if self.planarity_defect() > tol * float(self._rows.mean_side[0]):
            return False
        try:
            th = self.theta()
        except ValueError:
            return False
        return abs(th - QUARTER_PI) <= tol

    def metrics(self) -> "QuadMetrics":
        rows = self._rows
        return QuadMetrics(
            sides=self.side_lengths(),
            diagonals=self.diagonal_lengths(),
            theta=float(rows.theta[0]),
            open_turning=float(rows.open_turning[0]),
            planarity_defect=self.planarity_defect(),
            residual_norm=float(rows.residual_norm[0]),
        )

    def transformed(self, rotation=None, translation=None) -> "Quad":
        """Apply a rigid motion x -> R x + t to all four points."""
        pts = self.points
        if rotation is not None:
            pts = pts @ np.asarray(rotation, dtype=float).T
        if translation is not None:
            pts = pts + np.asarray(translation, dtype=float)
        return Quad.from_points(pts)

    def to_json_dict(self) -> dict:
        return {"points": [[float(x) for x in row] for row in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Quad":
        if not isinstance(data, dict) or "points" not in data:
            raise ValueError("quad JSON must be an object with a 'points' key")
        return cls.from_points(np.asarray(data["points"], dtype=float))


@dataclass(frozen=True)
class QuadMetrics:
    sides: np.ndarray
    diagonals: np.ndarray
    theta: float
    open_turning: float
    planarity_defect: float
    residual_norm: float


def make_square_like(theta: float, side: float = 1.0, dim: int = 3,
                     rotation=None, translation=None) -> Quad:
    """Construct an exact square-like quadrilateral with apex half-angle theta.

    Canonical placement before the optional rigid motion: the midpoint of qs
    at the origin, q = (0, sin theta, 0), s = (0, -sin theta, 0),
    p = (cos theta, 0, 0) and r = cos theta * (cos phi, 0, sin phi) with
    cos phi = 1 - 2 tan^2(theta); everything scales by `side`.  At
    theta = pi/4 the figure degenerates to the planar square (phi = pi).

    dim=2 is only available for the planar case theta = pi/4.
    """
    if not (0.0 < theta <= QUARTER_PI + 1e-12):
        raise ValueError("theta must lie in (0, pi/4]")
    if side <= 0.0:
        raise ValueError("side must be positive")

    c = math.cos(theta)
    s = math.sin(theta)
    tan_sq = math.tan(theta) ** 2
    cphi = 1.0 - 2.0 * tan_sq
    if cphi <= -1.0 + 1e-12:
        cphi, sphi = -1.0, 0.0  # planar square, snapped to keep the defect exact
    else:
        sphi = math.sqrt(max(1.0 - cphi * cphi, 0.0))

    if dim == 2:
        if sphi != 0.0:
            raise ValueError("dim=2 requires the planar case theta = pi/4")
        pts = side * np.array([[c, 0.0], [0.0, s], [-c, 0.0], [0.0, -s]])
    elif dim == 3:
        pts = side * np.array(
            [
                [c, 0.0, 0.0],
                [0.0, s, 0.0],
                [c * cphi, 0.0, c * sphi],
                [0.0, -s, 0.0],
            ]
        )
    else:
        raise ValueError("dim must be 2 or 3")

    quad = Quad.from_points(pts)
    if rotation is not None or translation is not None:
        quad = quad.transformed(rotation, translation)
    return quad
