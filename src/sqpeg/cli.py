"""Command-line interface: curve generation, geometric analysis, inscribed
quadrilateral search, convergence experiments, and Frechet/length checks.

Commands: generate, analyze, find, converge, frechet.
Exit codes: 0 success, 1 usage or I/O error, 2 empty solution set.

Output determinism: JSON is written with stable key order and floats at 17
significant digits; identical inputs, seeds, and configs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .approx import convergence_report, discrete_frechet, fillet_smooth, inscribe_polygon, \
    verify_length_bound
from .curve import PolyCurve
from .generators import GeneratorSpec
from .pidist import pi_distance, scan_windows
from .solver import SolverConfig, find_quads

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def _dumps(obj) -> str:
    """JSON text with insertion-ordered keys and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _csv_text(header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _load_curve(path: str) -> PolyCurve:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read '{path}': {exc}") from None
    except json.JSONDecodeError as exc:
        raise _UsageError(f"'{path}' is not valid JSON: {exc}") from None
    try:
        return PolyCurve.from_json_dict(data)
    except ValueError as exc:
        raise _UsageError(f"'{path}' is not a valid curve file: {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(args) -> int:
    if args.kind == "file":
        if not args.from_file:
            raise _UsageError("kind 'file' requires --from-file")
        curve = _load_curve(args.from_file)
    else:
        params = {}
        for key in ("radius", "a", "b", "sides", "points", "r_outer", "r_inner",
                    "scale", "harmonics", "amplitude"):
            val = getattr(args, key, None)
            if val is not None:
                params[key] = val
        if args.cos_coeffs is not None or args.sin_coeffs is not None:
            if args.cos_coeffs is None or args.sin_coeffs is None:
                raise _UsageError("fourier needs both --cos-coeffs and --sin-coeffs")
            params["cos_coeffs"] = json.loads(args.cos_coeffs)
            params["sin_coeffs"] = json.loads(args.sin_coeffs)
        spec = GeneratorSpec(kind=args.kind, samples=args.samples or 0,
                             seed=args.seed, params=params)
        try:
            curve = spec.build()
        except (ValueError, KeyError, RuntimeError) as exc:
            raise _UsageError(f"generation failed: {exc}") from None
    _emit(_dumps(curve.to_json_dict()), args.out)
    return 0


def _cmd_analyze(args) -> int:
    curve = _load_curve(args.curve)
    L = curve.length
    cap = args.cap if args.cap is not None else L / 2.0
    step = args.step if args.step is not None else L / 720.0
    cusp_tol = args.tol if args.tol is not None else 1e-6

    literal = pi_distance(curve, mode="literal", step=step)
    capped = pi_distance(curve, mode="capped", cap=cap, step=step)
    report = {
        "length": L,
        "total_curvature": curve.total_curvature(),
        "cusps": curve.detect_cusps(cusp_tol),
        "embedded": curve.is_embedded(args.clearance),
        "pi_distance_literal": literal.to_json_dict(),
        "pi_distance_capped": capped.to_json_dict(),
    }
    _emit(_dumps(report), args.out)

    if args.windows_csv:
        windows = scan_windows(curve, cap, step)
        rows = [(w.a, w.b, w.kappa, w.chord, w.arclen) for w in windows]
        _emit(_csv_text(["a", "b", "kappa", "chord", "arclen"], rows), args.windows_csv)
    return 0


def _solution_rows(solset):
    rows = []
    for s in solset.solutions:
        rows.append(
            tuple(s.params) + tuple(s.sides) + tuple(s.diagonals)
            + (s.theta, s.open_turning, s.residual_norm, s.arc_kappa_ok)
        )
    return rows


_SOLUTION_HEADER = [
    "t1", "t2", "t3", "t4", "side_pq", "side_qr", "side_rs", "side_sp",
    "diag_pr", "diag_qs", "theta", "open_turning", "residual", "arc_kappa_ok",
]


def _cmd_find(args) -> int:
    curve = _load_curve(args.curve)
    if not curve.closed:
        raise _UsageError("find requires a closed curve")
    cfg = SolverConfig(grid_m=args.grid_m, max_iter=args.max_iter)
    if args.tol is not None:
        cfg.residual_tol = args.tol
    solset = find_quads(curve, cfg)
    _emit(_dumps(solset.to_json_dict()), args.out)
    if args.csv:
        _emit(_csv_text(_SOLUTION_HEADER, _solution_rows(solset)), args.csv)
    return 0 if solset.solutions else 2


def _cmd_converge(args) -> int:
    curve = _load_curve(args.curve)
    if not curve.closed:
        raise _UsageError("converge requires a closed curve")
    n_list = [int(x) for x in args.n_list.split(",")]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise _UsageError("--n-list must be strictly increasing")
    cfg = SolverConfig(grid_m=args.grid_m, max_iter=args.max_iter)
    if args.tol is not None:
        cfg.residual_tol = args.tol

    rows = []
    for n in n_list:
        approx = inscribe_polygon(curve, n)
        if args.fillet_radius is not None:
            smooth = fillet_smooth(approx, args.fillet_radius)
            step = args.resample_step if args.resample_step is not None \
                else smooth.length() / max(4 * n, 64)
            approx = smooth.sample(step)
        rep = convergence_report(curve, approx, dyadic_depth=args.dyadic_depth, index=n)
        solset = find_quads(approx, cfg)
        if solset.solutions:
            min_side = min(float(np.mean(s.sides)) for s in solset.solutions)
        else:
            min_side = float("nan")
        capped = pi_distance(approx, mode="capped")
        rows.append(
            (
                n,
                rep.position_err,
                rep.length_err,
                rep.curvature_err,
                min_side,
                capped.value if capped.value is not None else float("nan"),
                approx.total_curvature(),
            )
        )
    header = ["N", "position_err", "length_err", "curvature_err", "min_side",
              "pi_capped", "total_curvature"]
    _emit(_csv_text(header, rows), args.out)
    return 0


def _cmd_frechet(args) -> int:
    a = _load_curve(args.curve_a)
    b = _load_curve(args.curve_b)
    try:
        record = verify_length_bound(a, b)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    record["frechet"] = discrete_frechet(a, b)
    _emit(_dumps(record), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="sqpeg", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="random seed (generators)")
    parser.add_argument("--tol", type=float, default=None,
                        help="context tolerance (cusp angle for analyze, residual for find)")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a curve JSON file")
    gen.add_argument("kind", choices=["circle", "ellipse", "regular_polygon", "star_polygon",
                                      "fourier", "trefoil", "random_jordan", "file"])
    gen.add_argument("--samples", type=int, default=None)
    gen.add_argument("--radius", type=float, default=None)
    gen.add_argument("--a", type=float, default=None)
    gen.add_argument("--b", type=float, default=None)
    gen.add_argument("--sides", type=int, default=None)
    gen.add_argument("--points", type=int, default=None)
    gen.add_argument("--r-outer", dest="r_outer", type=float, default=None)
    gen.add_argument("--r-inner", dest="r_inner", type=float, default=None)
    gen.add_argument("--scale", type=float, default=None)
    gen.add_argument("--harmonics", type=int, default=None)
    gen.add_argument("--amplitude", type=float, default=None)
    gen.add_argument("--cos-coeffs", default=None, help="JSON array per coordinate")
    gen.add_argument("--sin-coeffs", default=None, help="JSON array per coordinate")
    gen.add_argument("--from-file", default=None)
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="length, curvature, cusps, pi-distance")
    ana.add_argument("curve")
    ana.add_argument("--cap", type=float, default=None, help="arclength cap (default L/2)")
    ana.add_argument("--step", type=float, default=None,
                     help="wrap margin of the pi-distances on closed curves (subarcs "
                          "up to L - step), reported as resolution (default L/720)")
    ana.add_argument("--clearance", type=float, default=0.0)
    ana.add_argument("--windows-csv", default=None,
                     help="also write the minimal curvature windows as CSV")
    ana.set_defaults(func=_cmd_analyze)

    fnd = sub.add_parser("find", help="search for inscribed square-like quadrilaterals")
    fnd.add_argument("curve")
    fnd.add_argument("--grid-m", dest="grid_m", type=int, default=24)
    fnd.add_argument("--max-iter", dest="max_iter", type=int, default=60)
    fnd.add_argument("--csv", default=None, help="also write solutions as CSV")
    fnd.set_defaults(func=_cmd_find)

    cnv = sub.add_parser("converge", help="inscription convergence experiment")
    cnv.add_argument("curve")
    cnv.add_argument("--n-list", dest="n_list", required=True,
                     help="comma-separated increasing vertex counts")
    cnv.add_argument("--fillet-radius", dest="fillet_radius", type=float, default=None)
    cnv.add_argument("--resample-step", dest="resample_step", type=float, default=None)
    cnv.add_argument("--dyadic-depth", dest="dyadic_depth", type=int, default=6)
    cnv.add_argument("--grid-m", dest="grid_m", type=int, default=24)
    cnv.add_argument("--max-iter", dest="max_iter", type=int, default=60)
    cnv.set_defaults(func=_cmd_converge)

    frc = sub.add_parser("frechet", help="discrete Frechet distance and the length bound")
    frc.add_argument("curve_a")
    frc.add_argument("curve_b")
    frc.set_defaults(func=_cmd_frechet)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        sys.stderr.write(f"sqpeg: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"sqpeg: i/o error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"sqpeg: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
