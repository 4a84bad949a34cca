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
import functools
import inspect
import json
import math
import sys
from itertools import chain

import numpy as np

from . import generators
from .approx import convergence_report, discrete_frechet, fillet_smooth, inscribe_polygon, \
    verify_length_bound
from .curve import PolyCurve
from .pidist import pi_distance, scan_windows
from .solver import SolverConfig, find_quads, find_quads_many

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
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list, rows: list) -> str:
    """CSV text of rows of numbers, all formatted by one %-format: "%.17g"
    in the float columns of the first row (the bytes of format(x, ".17g")),
    "%s" in the others.  A non-finite float is written null, as in the
    JSON."""
    lines = [",".join(header)]
    if rows:
        fmt = ",".join("%.17g" if isinstance(v, (float, np.floating)) else "%s" for v in rows[0])
        body = "\n".join([fmt] * len(rows)) % tuple(chain.from_iterable(rows))
        if "n" in body:  # nan, inf and -inf are the only numbers written with an n
            body = body.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
        lines.append(body)
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

def _given(args, *names, **renamed) -> dict:
    """The options that were set, keyed by the library's parameter names;
    `renamed` maps a parameter to the option that sets it.  Options left
    unset take the library's defaults."""
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {param: getattr(args, opt) for param, opt in pairs if getattr(args, opt) is not None}


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**_given(args, "grid_m", "max_iter", residual_tol="tol"))


# each kind's builder in sqpeg.generators, looked up by name at each call
_GENERATORS = {
    "circle": "make_circle",
    "ellipse": "make_ellipse",
    "regular_polygon": "make_regular_polygon",
    "star_polygon": "make_star_polygon",
    "fourier": "make_fourier_curve",
    "trefoil": "make_trefoil",
    "random_jordan": "make_random_jordan",
}
# generate's builder options, each named as the builder parameter it sets
_GENERATE_OPTIONS = {
    "samples": int, "radius": float, "a": float, "b": float, "sides": int, "points": int,
    "r_outer": float, "r_inner": float, "scale": float, "harmonics": int,
    "amplitude": float, "cos_coeffs": json.loads, "sin_coeffs": json.loads,
}


def _cmd_generate(args) -> int:
    if args.kind == "file":
        builder, takes = None, {"from_file"}
    else:
        builder = getattr(generators, _GENERATORS[args.kind])
        takes = inspect.signature(builder).parameters.keys()
    given = _given(args, "from_file", *_GENERATE_OPTIONS)
    extra = sorted(given.keys() - takes)
    if extra:
        raise _UsageError(f"generate {args.kind} takes no "
                          + ", ".join("--" + name.replace("_", "-") for name in extra))
    if builder is None:
        if not args.from_file:
            raise _UsageError("kind 'file' requires --from-file")
        curve = _load_curve(args.from_file)
    else:
        if args.kind == "fourier" and not {"cos_coeffs", "sin_coeffs"} <= given.keys():
            raise _UsageError("fourier needs both --cos-coeffs and --sin-coeffs")
        if "seed" in takes:  # the global --seed reaches only a builder that takes one
            given.update(_given(args, "seed"))
        try:
            curve = builder(**given)
        except (ValueError, TypeError, RuntimeError) as exc:
            raise _UsageError(f"generation failed: {exc}") from None
    _emit(_dumps(curve.to_json_dict()), args.out)
    return 0


def _cmd_analyze(args) -> int:
    curve = _load_curve(args.curve)
    literal = pi_distance(curve, mode="literal", **_given(args, "step"))
    capped = pi_distance(curve, mode="capped", **_given(args, "cap", "step"))
    report = {
        "length": curve.length,
        "total_curvature": curve.total_curvature(),
        "cusps": curve.detect_cusps(**_given(args, "tol")),
        "embedded": curve.is_embedded(**_given(args, "clearance")),
        "pi_distance_literal": literal.to_json_dict(),
        "pi_distance_capped": capped.to_json_dict(),
    }
    _emit(_dumps(report), args.out)

    if args.windows_csv:
        windows = scan_windows(curve, **_given(args, "cap"))
        _emit(_csv_text(["a", "b", "kappa", "chord", "arclen"], windows), args.windows_csv)
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
    solset = find_quads(curve, _solver_config(args))
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
    cfg = _solver_config(args)
    # every N is inscribed first, so a refused N costs no other row's work
    inscribed = [inscribe_polygon(curve, n) for n in n_list]

    approxes, reports = [], []
    for n, approx in zip(n_list, inscribed):
        if args.fillet_radius is not None:
            smooth = fillet_smooth(approx, args.fillet_radius)
            step = args.resample_step if args.resample_step is not None \
                else smooth.length() / max(4 * n, 64)
            approx = smooth.sample(step)
        approxes.append(approx)
        reports.append(convergence_report(curve, approx, index=n, **_given(args, "dyadic_depth")))
    solsets = find_quads_many(approxes, cfg)

    rows = []
    for n, approx, rep, solset in zip(n_list, approxes, reports, solsets):
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

@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process; each parse_args call returns a
    fresh Namespace, and the commands look the library up at call time."""
    parser = _Parser(prog="sqpeg", description=__doc__)
    parser.add_argument("--seed", type=int, help="random seed (random_jordan)")
    parser.add_argument("--tol", type=float,
                        help="context tolerance (cusp angle for analyze, residual for find)")
    parser.add_argument("--out", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a curve JSON file; unset options take the "
                                          "defaults of sqpeg.generators.make_*")
    gen.add_argument("kind", choices=[*_GENERATORS, "file"])
    for name, parse in _GENERATE_OPTIONS.items():
        gen.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                         help="JSON array per coordinate" if parse is json.loads else None)
    gen.add_argument("--from-file")
    gen.set_defaults(func=_cmd_generate)

    ana = sub.add_parser("analyze", help="length, curvature, cusps, pi-distance")
    ana.add_argument("curve")
    ana.add_argument("--cap", type=float, help="arclength cap of the capped pi-distance")
    ana.add_argument("--step", type=float,
                     help="wrap margin of the pi-distances on closed curves (subarcs "
                          "up to L - step), reported as resolution")
    ana.add_argument("--clearance", type=float)
    ana.add_argument("--windows-csv", help="also write the minimal curvature windows as CSV")
    ana.set_defaults(func=_cmd_analyze)

    fnd = sub.add_parser("find", help="search for inscribed square-like quadrilaterals")
    fnd.add_argument("curve")
    fnd.add_argument("--grid-m", type=int)
    fnd.add_argument("--max-iter", type=int)
    fnd.add_argument("--csv", help="also write solutions as CSV")
    fnd.set_defaults(func=_cmd_find)

    cnv = sub.add_parser("converge", help="inscription convergence experiment")
    cnv.add_argument("curve")
    cnv.add_argument("--n-list", required=True, help="comma-separated increasing vertex counts")
    cnv.add_argument("--fillet-radius", type=float)
    cnv.add_argument("--resample-step", type=float)
    cnv.add_argument("--dyadic-depth", type=int)
    cnv.add_argument("--grid-m", type=int)
    cnv.add_argument("--max-iter", type=int)
    cnv.set_defaults(func=_cmd_converge)

    frc = sub.add_parser("frechet", help="discrete Frechet distance and the length bound")
    frc.add_argument("curve_a")
    frc.add_argument("curve_b")
    frc.set_defaults(func=_cmd_frechet)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
