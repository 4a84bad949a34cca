"""Tests for the command-line interface."""

import json
import math
import os
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sqpeg.cli import _csv_text, main
from sqpeg.curve import PolyCurve


def run(args):
    return main(args)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "circle.json"
    assert run(["--out", str(path), "generate", "circle", "--samples", "72"]) == 0
    return str(path)


def test_generate_ellipse(tmp_path):
    out = tmp_path / "e.json"
    assert run(["--out", str(out), "generate", "ellipse", "--a", "2", "--b", "1",
                "--samples", "512"]) == 0
    data = read_json(out)
    assert data["dimension"] == 2
    assert data["closed"] is True
    assert len(data["vertices"]) == 512
    curve = PolyCurve.from_json_dict(data)
    assert np.allclose((curve.vertices[:, 0] / 2) ** 2 + curve.vertices[:, 1] ** 2, 1.0)


def test_generate_trefoil_and_regular_polygon(tmp_path):
    out = tmp_path / "t.json"
    assert run(["--out", str(out), "generate", "trefoil", "--samples", "1024"]) == 0
    tre = PolyCurve.from_json_dict(read_json(out))
    assert tre.dimension == 3 and tre.num_vertices == 1024

    out2 = tmp_path / "h.json"
    assert run(["--out", str(out2), "generate", "regular_polygon", "--sides", "6"]) == 0
    hexa = PolyCurve.from_json_dict(read_json(out2))
    assert abs(hexa.total_curvature() - 2 * math.pi) < 1e-12


def test_generate_random_jordan_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["--seed", "42", "--out", str(path), "generate", "random_jordan",
                    "--samples", "64"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert PolyCurve.from_json_dict(read_json(a)).is_embedded(0.0)


def test_analyze_square(tmp_path):
    src = tmp_path / "sq.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))
    out = tmp_path / "report.json"
    assert run(["--out", str(out), "analyze", str(src)]) == 0
    rep = read_json(out)
    assert math.isclose(rep["total_curvature"], 2 * math.pi, abs_tol=1e-12)
    assert rep["cusps"] == []
    assert rep["embedded"] is True
    assert rep["pi_distance_literal"]["value"] <= 2 * rep["pi_distance_literal"]["resolution"]
    assert rep["pi_distance_capped"]["value"] > 0.5


def test_analyze_open_low_curvature_unbounded(tmp_path):
    src = tmp_path / "arc.json"
    t = np.linspace(0, math.pi / 2, 30)
    src.write_text(json.dumps({
        "dimension": 2, "closed": False,
        "vertices": np.column_stack([np.cos(t), np.sin(t)]).tolist(),
    }))
    out = tmp_path / "rep.json"
    assert run(["--out", str(out), "analyze", str(src)]) == 0
    rep = read_json(out)
    assert rep["pi_distance_literal"]["value"] == "unbounded"


def test_analyze_figure_eight_not_embedded(tmp_path):
    src = tmp_path / "f8.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]],
    }))
    out = tmp_path / "rep.json"
    assert run(["--out", str(out), "analyze", str(src)]) == 0
    assert read_json(out)["embedded"] is False


def test_analyze_windows_csv(tmp_path, circle_file):
    out = tmp_path / "rep.json"
    csv_path = tmp_path / "win.csv"
    assert run(["--out", str(out), "analyze", circle_file,
                "--windows-csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "a,b,kappa,chord,arclen"
    assert len(lines) > 1


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"closed\": true}")
    assert run(["analyze", str(bad)]) == 1
    assert "missing required key" in capsys.readouterr().err


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


@pytest.mark.parametrize("vertices, cause", [
    ([[1e200 * x for x in v] for v in _SQUARE], "the coordinates are too large"),
    ([[1e-200 * x for x in v] for v in _SQUARE], "the coordinates are too small"),
    ([[0.0, 0.0], [1e-9, 0.0], [1e9, 1e9], [0.0, 1.0]], "arclength parameters cannot resolve"),
])
@pytest.mark.parametrize("command", [["find", "{}"], ["analyze", "{}"],
                                     ["converge", "{}", "--n-list", "8"], ["frechet", "{}", "{}"]])
def test_hostile_scale_fails_with_a_message_that_names_the_cause(tmp_path, capsys, vertices,
                                                                  cause, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dimension": 2, "closed": True, "vertices": vertices}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([arg.format(path) for arg in command]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and cause in err


def test_find_jordan64_regression(tmp_path):
    src = tmp_path / "j.json"
    assert run(["--seed", "42", "--out", str(src), "generate", "random_jordan",
                "--samples", "64"]) == 0
    out = tmp_path / "sol.json"
    csv_path = tmp_path / "sol.csv"
    assert run(["--out", str(out), "find", str(src), "--csv", str(csv_path)]) == 0
    sol = read_json(out)
    # frozen baseline from the first build of this corpus entry
    assert len(sol["solutions"]) == 1
    side = float(np.mean(sol["solutions"][0]["sides"]))
    assert math.isclose(side, 1.458924, abs_tol=1e-4)
    assert set(sol) >= {"solutions", "raw_count", "parity_note"}
    assert set(sol["solutions"][0]) == {
        "params", "points", "sides", "diagonals", "theta", "open_turning",
        "residual", "arc_kappa_ok",
    }
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("t1,t2,t3,t4")


def test_find_ellipse_flagship(tmp_path):
    src = tmp_path / "e.json"
    assert run(["--out", str(src), "generate", "ellipse", "--a", "2", "--b", "1",
                "--samples", "512"]) == 0
    out = tmp_path / "sol.json"
    assert run(["--out", str(out), "find", str(src)]) == 0
    sol = read_json(out)
    assert len(sol["solutions"]) == 1
    side = float(np.mean(sol["solutions"][0]["sides"]))
    assert math.isclose(side, 4.0 / math.sqrt(5.0), abs_tol=1e-4)


def test_find_reports_no_residual_above_its_tol(tmp_path):
    # at 3 iterations a trefoil tuple converges just under the tol in the
    # order refinement ran; the reported, sorted tuple must also be under it
    trefoil, out = tmp_path / "trefoil.json", tmp_path / "sols.json"
    assert run(["--out", str(trefoil), "generate", "trefoil", "--samples", "512"]) == 0
    assert run(["--tol", "1e-4", "--out", str(out), "find", str(trefoil), "--max-iter", "3"]) == 0
    data = read_json(out)
    assert data["resolution"]["residual_tol"] == 1e-4
    assert data["solutions"]
    assert all(s["residual"] <= 1e-4 for s in data["solutions"])


@pytest.mark.parametrize("key, value", [("closed", "false"), ("closed", None),
                                        ("dimension", None), ("dimension", [2]),
                                        ("dimension", 2.5)])
def test_analyze_refuses_a_curve_file_of_the_wrong_types(tmp_path, capsys, key, value):
    data = {"dimension": 2, "closed": True, "vertices": [[0, 0], [4, 0], [0, 3.0]]}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({**data, key: value}))
    assert run(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sqpeg: error: ") and f"'{key}'" in err and "Traceback" not in err


def test_find_open_curve_rejected(tmp_path, capsys):
    src = tmp_path / "open.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": False, "vertices": [[0, 0], [1, 0], [1, 1]],
    }))
    assert run(["find", str(src)]) == 1


def test_find_rejects_huge_grid_before_allocating(circle_file, capsys):
    tracemalloc.start()
    try:
        code = run(["find", circle_file, "--grid-m", "10000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "grid_m must be at most 64" in capsys.readouterr().err
    assert peak < 1 << 20


def test_analyze_rejects_tiny_step_before_allocating(tmp_path, capsys):
    src = tmp_path / "square.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))
    tracemalloc.start()
    try:
        code = run(["analyze", str(src), "--step", "1e-9"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert "at most 2048 are allowed, so step must be at least 0.000488281" in err
    assert peak < 1 << 20


@pytest.mark.parametrize("args, message", [
    (["--dyadic-depth", "40"], "dyadic_depth must be between 1 and 12"),
    (["--fillet-radius", "0.05", "--resample-step", "1e-9"],
     "more than 1048576 steps along the curve; step must be at least 5.82"),
    # a later --n-list replaces the 8
    (["--n-list", "100000000"], "n must be between 3 and 1048576 vertices, not 100000000"),
])
def test_converge_rejects_hostile_sizes_before_allocating(circle_file, capsys, args, message):
    tracemalloc.start()
    try:
        code = run(["converge", circle_file, "--n-list", "8", "--grid-m", "8", *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert message in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("args, message", [
    (["--tol", "nan", "find", "{curve}", "--grid-m", "8"], "residual_tol must be finite"),
    (["--tol", "inf", "find", "{curve}", "--grid-m", "8"], "residual_tol must be finite"),
    (["analyze", "{curve}", "--cap", "nan"], "cap must be finite and positive"),
    (["analyze", "{curve}", "--step", "nan"], "step must be finite and positive"),
    (["--tol", "nan", "analyze", "{curve}"], "tol must be finite and positive"),
    (["analyze", "{curve}", "--clearance", "nan"], "clearance must be finite and nonnegative"),
    (["converge", "{curve}", "--n-list", "8", "--grid-m", "8", "--fillet-radius", "nan"],
     "radius must be finite and positive"),
    (["converge", "{curve}", "--n-list", "8", "--grid-m", "8", "--fillet-radius", "0.05",
      "--resample-step", "nan"], "step must be finite and positive"),
])
def test_non_finite_options_fail_with_a_message(circle_file, capsys, args, message):
    assert run([a.format(curve=circle_file) for a in args]) == 1
    assert message in capsys.readouterr().err


def test_find_empty_solution_exit_code(tmp_path, circle_file):
    out = tmp_path / "sol.json"
    # an unreachable residual tolerance forces an empty set
    code = run(["--tol", "1e-18", "--out", str(out), "find", circle_file,
                "--grid-m", "8", "--max-iter", "3"])
    assert code == 2
    sol = read_json(out)
    assert sol["solutions"] == []
    assert "count 0" in sol["parity_note"]


def test_converge_circle(tmp_path, circle_file):
    out = tmp_path / "conv.csv"
    assert run(["--out", str(out), "converge", circle_file, "--n-list", "8,12,16",
                "--grid-m", "12", "--dyadic-depth", "4"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,position_err,length_err,curvature_err,min_side,pi_capped,total_curvature"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    pos = [float(r[1]) for r in rows]
    assert pos[0] > pos[1] > pos[2]
    sides = [float(r[4]) for r in rows]
    assert all(abs(s - math.sqrt(2)) < 0.1 for s in sides)


def test_converge_writes_null_for_an_n_with_no_solutions(tmp_path):
    # no tuple reaches a residual tol of 1e-300, so min_side has no value
    src, out = tmp_path / "c.json", tmp_path / "conv.csv"
    assert run(["--out", str(src), "generate", "circle", "--samples", "8"]) == 0
    assert run(["--tol", "1e-300", "--out", str(out), "converge", str(src), "--n-list", "8,16",
                "--grid-m", "8"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,position_err,length_err,curvature_err,min_side,pi_capped,total_curvature"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[4]) for r in rows] == [("8", "null"), ("16", "null")]
    assert all(math.isfinite(float(c)) for r in rows for c in r[:4] + r[5:])


def test_csv_text_writes_null_for_non_finite_values_in_any_row():
    nan, inf = float("nan"), float("inf")
    rows = [(8, 0.1, 2.5e-300, True), (16, nan, -inf, False), (32, 1.0 / 3.0, inf, True),
            (64, np.float64(-0.0), np.float64(nan), False), (128, 1e300, -7.0, True),
            (256, np.float64(-inf), 5e-324, False)]

    def cell(first, v):  # the row-by-row formatting: format(v, ".17g") in float columns
        if not math.isfinite(v):
            return "null"
        return format(v, ".17g") if isinstance(first, float) else str(v)

    expected = "".join(",".join(map(cell, rows[0], row)) + "\n" for row in rows)
    assert _csv_text(["N", "x", "y", "ok"], rows) == "N,x,y,ok\n" + expected
    assert "nan" not in expected and "inf" not in expected
    assert _csv_text(["N", "x"], []) == "N,x\n"


@pytest.mark.parametrize("scale", ["1e-20", "1e120"])
def test_find_is_scale_invariant(tmp_path, scale):
    # both lie beyond 2^-55 and 2^345, where a search at the curve's own
    # scale loses its normal equations to underflow and overflow
    sides = []
    for a, b in (("2", "1"), (f"2{scale[1:]}", scale)):
        src, out = tmp_path / f"e{a}.json", tmp_path / f"sol{a}.json"
        assert run(["--out", str(src), "generate", "ellipse", "--a", a, "--b", b,
                    "--samples", "64"]) == 0
        assert run(["--out", str(out), "find", str(src)]) == 0
        sides.append([np.mean(s["sides"]) for s in read_json(out)["solutions"]])
    assert len(sides[1]) == len(sides[0]) == 1
    assert math.isclose(sides[1][0], sides[0][0] * float(scale), rel_tol=1e-12)


def test_converge_with_smoothing_flags(tmp_path):
    src = tmp_path / "e.json"
    assert run(["--out", str(src), "generate", "ellipse", "--a", "2", "--b", "1",
                "--samples", "256"]) == 0
    out = tmp_path / "conv.csv"
    assert run(["--out", str(out), "converge", str(src), "--n-list", "12,24",
                "--fillet-radius", "0.05", "--grid-m", "16",
                "--dyadic-depth", "4"]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 2
    # corner rounding preserves total curvature through the resample
    for r in rows:
        assert math.isclose(float(r[6]), 2 * math.pi, abs_tol=1e-9)
    assert float(rows[1][1]) < float(rows[0][1])


def test_converge_square_side_floor_regression(tmp_path):
    src = tmp_path / "sq.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))
    out = tmp_path / "conv.csv"
    assert run(["--out", str(out), "converge", str(src), "--n-list", "16,32,64",
                "--dyadic-depth", "4"]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    # frozen baseline: the rotating-square family floors at sqrt(2)/2
    for r in rows:
        assert math.isclose(float(r[4]), math.sqrt(2) / 2, abs_tol=1e-9)
        assert math.isclose(float(r[5]), 1.0, abs_tol=0.02)


def test_converge_refuses_every_n_before_any_row(circle_file, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("sqpeg.cli.find_quads", lambda *args: calls.append(args))
    assert run(["converge", circle_file, "--n-list", "64,100000000", "--grid-m", "24"]) == 1
    assert calls == []
    assert "not 100000000" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--fillet-radius", "0.05"]])
def test_converge_rows_do_not_depend_on_the_batch(tmp_path, flags):
    # every approximant is searched in one batch; each row is the one its N
    # gives alone, to the byte
    src = tmp_path / "j.json"
    assert run(["--seed", "11", "--out", str(src), "generate", "random_jordan",
                "--samples", "256", "--amplitude", "1.0", "--harmonics", "6"]) == 0

    def rows(n_list):
        out = tmp_path / "conv.csv"
        assert run(["--out", str(out), "converge", str(src), "--n-list", n_list,
                    "--grid-m", "8", *flags]) == 0
        return out.read_text().splitlines()[1:]

    together = rows("8,16,32,64")
    assert together == [row for n in ("8", "16", "32", "64") for row in rows(n)]
    assert all(row.split(",")[4] != "nan" for row in together)


def test_converge_refuses_every_n_before_any_search(circle_file, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("sqpeg.cli.find_quads_many", lambda *args: calls.append(args))
    assert run(["converge", circle_file, "--n-list", "64,100000000", "--grid-m", "24"]) == 1
    assert calls == []
    assert "not 100000000" in capsys.readouterr().err


def test_converge_rejects_bad_n_list(tmp_path, circle_file, capsys):
    assert run(["--out", str(tmp_path / "x.csv"), "converge", circle_file,
                "--n-list", "16,8"]) == 1


def test_frechet_identical(tmp_path, circle_file):
    out = tmp_path / "f.json"
    assert run(["--out", str(out), "frechet", circle_file, circle_file]) == 0
    rep = read_json(out)
    assert rep["frechet"] == 0
    assert rep["holds"] is True


def test_generate_file_copies_a_curve_file(tmp_path, circle_file):
    out = tmp_path / "copy.json"
    assert run(["--out", str(out), "generate", "file", "--from-file", circle_file]) == 0
    assert read_json(out) == read_json(circle_file)
    assert run(["--out", str(out), "generate", "file"]) == 1
    assert run(["--out", str(out), "generate", "file", "--from-file", circle_file,
                "--samples", "8"]) == 1


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 1
    assert run([]) == 1
    assert run(["generate", "no-such-kind"]) == 1


def test_stdout_emission(capsys, tmp_path):
    src = tmp_path / "sq.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))
    assert run(["analyze", str(src)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["length"] == 4


@pytest.mark.parametrize("command, tol, defaults", [
    (["analyze", "--windows-csv", "{csv}"], "1e-6",
     ["--cap", "{half}", "--step", "{step}", "--clearance", "0"]),
    (["find", "--csv", "{csv}"], "1e-9", ["--grid-m", "24", "--max-iter", "60"]),
    (["converge", "--n-list", "8,16", "--fillet-radius", "0.05"], "1e-9",
     ["--grid-m", "24", "--max-iter", "60", "--dyadic-depth", "6"]),
])
def test_unset_options_take_the_library_defaults(tmp_path, circle_file, command, tol,
                                                 defaults):
    L = PolyCurve.from_json_dict(read_json(circle_file)).length

    def outputs(name, spelled):
        out, csv = tmp_path / f"{name}.out", tmp_path / f"{name}.csv"
        fill = {"csv": str(csv), "half": repr(L / 2), "step": repr(L / 720)}
        argv = ["--out", str(out), *(["--tol", tol] if spelled else []), command[0],
                circle_file, *command[1:], *(defaults if spelled else [])]
        assert run([a.format(**fill) for a in argv]) == 0
        return [p.read_bytes() for p in (out, csv) if p.exists()]

    bare = outputs("bare", spelled=False)
    assert bare and bare == outputs("spelled", spelled=True)


def _first_call(argv):
    """(exit code, stdout, stderr) of `main(argv)` as the first call of a
    fresh interpreter."""
    import subprocess
    import sys

    import sqpeg

    code = f"import sys\nfrom sqpeg.cli import main\nsys.exit(main({argv!r}))"
    src = str(Path(sqpeg.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_each_call_reads_only_its_own_options(tmp_path, capsys):
    # the parser is built once per process; an option set in one call must
    # not leak into the next, and a usage error must leave nothing behind
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"dimension": 2, "closed": True,
                                  "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    path = str(square)
    sequence = [
        ["analyze", path, "--cap", "1.5"],
        ["analyze", path],
        ["--seed", "3", "generate", "random_jordan", "--samples", "16"],
        ["generate", "random_jordan", "--samples", "16"],
        ["find", path, "--grid-m", "8"],
        ["find", path],
        ["--tol", "1e-3", "analyze"],
        ["analyze", path, "--step", "0.01"],
    ]
    codes = []
    for argv in sequence:
        codes.append(main(argv))
        captured = capsys.readouterr()
        assert (codes[-1], captured.out, captured.err) == _first_call(argv), argv
    assert codes == [0, 0, 0, 0, 0, 0, 1, 0]
