"""Output checks for the benchmark's CLI commands.

The checks hold for every workload seed.  They recompute what they compare
against with plain numpy (arclength interpolation, the 8-fold relabeling
symmetry, vertex Hausdorff distance) rather than with sqpeg itself, so a
defect in the library cannot vouch for its own output.  Each check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ELLIPSE_SIDE = 4.0 / math.sqrt(5.0)  # inscribed square of x^2/4 + y^2 = 1
ELLIPSE_SIDE_TOL = 1e-4  # discretization of the 512-gon
CIRCLE_SIDE_TOL = 1e-6
PI_SLACK = 1e-9
MAX_ERRORS = 5


class Polyline:
    """Vertices plus an independent arclength parametrization."""

    def __init__(self, data: dict):
        self.vertices = np.asarray(data["vertices"], dtype=float)
        self.closed = bool(data["closed"])
        v = self.vertices
        ends = np.roll(v, -1, axis=0) if self.closed else v[1:]
        self.edges = ends - v[: len(ends)]
        lens = np.linalg.norm(self.edges, axis=1)
        self.knots = np.concatenate(([0.0], np.cumsum(lens)))
        self.lens = lens
        self.length = float(self.knots[-1])
        self.scale = max(1.0, float(np.max(np.abs(v))))

    def point_at(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.closed:
            s = np.mod(s, self.length)
        idx = np.clip(np.searchsorted(self.knots, s, side="right") - 1, 0, len(self.lens) - 1)
        frac = (s - self.knots[idx]) / self.lens[idx]
        return self.vertices[idx] + frac[..., None] * self.edges[idx]


def symmetry_distance(a, b, L: float) -> float:
    """min over the 8 relabelings of b of the max cyclic parameter distance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    images = [np.roll(b, -r) for r in range(4)] + [np.roll(b[::-1], -r) for r in range(4)]
    d = np.mod(a[None, :] - np.asarray(images), L)
    return float(np.min(np.max(np.minimum(d, L - d), axis=1)))


def _limited(errors: list) -> list:
    if len(errors) > MAX_ERRORS:
        return errors[:MAX_ERRORS] + [f"... {len(errors) - MAX_ERRORS} more"]
    return errors


def check_find(curve: Polyline, text: str, expect=None) -> list:
    """Every quad: residual within tolerance, points on the curve at its
    params, params cyclically ordered, arc curvature flag set; classes
    pairwise at least dedup_tol apart under the relabeling symmetry, up to
    rounding: on solution continua the solver keeps grid-snapped classes
    exactly dedup_tol apart."""
    data = json.loads(text)
    sols = data["solutions"]
    res = data["resolution"]
    L = curve.length
    errors = []
    if not sols:
        errors.append("no solutions")
    for k, s in enumerate(sols):
        p = np.asarray(s["params"], dtype=float)
        if s["residual"] is None or s["residual"] > res["residual_tol"]:
            errors.append(f"quad {k}: residual {s['residual']} > {res['residual_tol']}")
        pts = curve.point_at(p)
        if not np.allclose(pts, np.asarray(s["points"]), rtol=0.0, atol=1e-9 * curve.scale):
            errors.append(f"quad {k}: points differ from point_at(params)")
        if not (p.shape == (4,) and p[0] >= 0.0 and np.all(np.diff(p) > 0.0) and p[3] < L):
            errors.append(f"quad {k}: params {p.tolist()} not cyclically ordered")
        if s["arc_kappa_ok"] is not True:
            errors.append(f"quad {k}: arc_kappa_ok is false")
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            d = symmetry_distance(sols[i]["params"], sols[j]["params"], L)
            if d < res["dedup_tol"] - 1e-9 * L:
                errors.append(f"classes {i},{j}: {d} apart < dedup_tol {res['dedup_tol']}")
    if expect is not None:
        errors += expect(data)
    return _limited(errors)


def ellipse_side(data: dict) -> list:
    return [f"ellipse side {np.mean(s['sides'])} not within {ELLIPSE_SIDE_TOL} of 4/sqrt(5)"
            for s in data["solutions"]
            if abs(float(np.mean(s["sides"])) - ELLIPSE_SIDE) > ELLIPSE_SIDE_TOL]


def circle_family(data: dict) -> list:
    errors = [] if data["non_generic"] is True else ["circle not flagged non_generic"]
    errors += [f"circle sides {s['sides']} not within {CIRCLE_SIDE_TOL} of sqrt(2)"
               for s in data["solutions"]
               if np.max(np.abs(np.asarray(s["sides"]) - math.sqrt(2.0))) > CIRCLE_SIDE_TOL]
    return errors


def _value(field):
    return None if field == "unbounded" else field


def check_analyze(curve: Polyline, text: str, windows_csv: str) -> list:
    """Windows reach turning pi, chord <= arclen, chord = |p(a) - p(b)|;
    literal pi-distance <= capped pi-distance."""
    rep = json.loads(text)
    errors = []
    literal = _value(rep["pi_distance_literal"]["value"])
    capped = _value(rep["pi_distance_capped"]["value"])
    if capped is not None and (literal is None or literal > capped):
        errors.append(f"literal pi-distance {literal} exceeds capped {capped}")
    rows = list(csv.DictReader(io.StringIO(windows_csv)))
    if not rows:
        errors.append("no curvature windows")
        return errors
    cols = {k: np.array([float(r[k]) for r in rows]) for k in ("a", "b", "kappa", "chord", "arclen")}
    L = curve.length
    for k in np.nonzero(cols["kappa"] < math.pi - PI_SLACK)[0]:
        errors.append(f"window {k}: kappa {cols['kappa'][k]} < pi")
    for k in np.nonzero(cols["chord"] > cols["arclen"] + 1e-12 * L)[0]:
        errors.append(f"window {k}: chord {cols['chord'][k]} > arclen {cols['arclen'][k]}")
    chord = np.linalg.norm(curve.point_at(cols["a"]) - curve.point_at(cols["b"]), axis=1)
    for k in np.nonzero(np.abs(chord - cols["chord"]) > 1e-9 * curve.scale)[0]:
        errors.append(f"window {k}: chord {cols['chord'][k]} != |p(a)-p(b)| {chord[k]}")
    return _limited(errors)


def vertex_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


def check_frechet(a: Polyline, b: Polyline, text: str) -> list:
    """The length bound holds and the Frechet value dominates the vertex
    Hausdorff distance."""
    rec = json.loads(text)
    errors = [] if rec["holds"] is True else ["length bound does not hold"]
    lower = vertex_hausdorff(a.vertices, b.vertices)
    if rec["frechet"] is None or rec["frechet"] < lower - 1e-12:
        errors.append(f"frechet {rec['frechet']} below vertex Hausdorff {lower}")
    return errors


CONVERGE_HEADER = ["N", "position_err", "length_err", "curvature_err", "min_side",
                   "pi_capped", "total_curvature"]


def check_converge(n_list: list, text: str) -> list:
    """One row per N, with finite nonnegative errors."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CONVERGE_HEADER:
        return ["converge header mismatch"]
    body = rows[1:]
    if [int(r[0]) for r in body] != list(n_list):
        return [f"converge rows {[r[0] for r in body]} != N list {n_list}"]
    errors = []
    for r in body:
        for name, cell in zip(CONVERGE_HEADER[1:4], r[1:4]):
            if cell == "null" or not (math.isfinite(float(cell)) and float(cell) >= 0.0):
                errors.append(f"N={r[0]}: {name} {cell} is not a finite nonnegative number")
    return errors
