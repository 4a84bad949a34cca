"""Tests for the command-line interface."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from sqpeg.cli import main
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


def test_converge_rejects_bad_n_list(tmp_path, circle_file, capsys):
    assert run(["--out", str(tmp_path / "x.csv"), "converge", circle_file,
                "--n-list", "16,8"]) == 1


def test_frechet_identical(tmp_path, circle_file):
    out = tmp_path / "f.json"
    assert run(["--out", str(out), "frechet", circle_file, circle_file]) == 0
    rep = read_json(out)
    assert rep["frechet"] == 0
    assert rep["holds"] is True


def test_usage_error_exit_code():
    assert run(["no-such-command"]) == 1
    assert run([]) == 1


def test_stdout_emission(capsys, tmp_path):
    src = tmp_path / "sq.json"
    src.write_text(json.dumps({
        "dimension": 2, "closed": True,
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
    }))
    assert run(["analyze", str(src)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["length"] == 4
