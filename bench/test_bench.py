"""Tests of the benchmark itself, on its smoke workload.

    python3 -m pytest bench/test_bench.py

The smoke workload runs one small command per CLI subcommand, so a run of
a few seconds reports every metric name and goes through every check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from sqpeg import cli  # noqa: E402

SEED = 3


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke_runs():
    """Result of one untraced and one traced smoke run, keyed by --trace."""
    runs = {}
    for trace in (0, 1):
        proc = _bench("--workload", "smoke", "--seed", str(SEED), "--seconds", "1",
                      "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        runs[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return runs


def test_smoke_reports_every_metric_and_passes_checks(smoke_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = smoke_runs[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 4
        assert {m["name"]: m["unit"] for m in spec[key]} == \
            {k: v["unit"] for k, v in result["metrics"].items()}
    # the frechet command computes the distance twice: once inside
    # verify_length_bound and once more in the CLI
    assert smoke_runs[1]["metrics"]["approx.discrete_frechet.calls"]["value"] == 2


def test_trace_sees_calls_made_inside_the_library(smoke_runs):
    lines = (ROOT / ".bench_out" / f"spans-smoke-{SEED}.tsv").read_text().splitlines()[1:]
    name = {}
    edges = set()
    for line in lines:
        index, _, _, parent, span = line.split("\t")[:5]
        name[index] = span
        edges.add((parent, span))
    pairs = {(name.get(parent), span) for parent, span in edges}
    assert ("solver.find_quads", "solver.seed_grid") in pairs
    assert ("approx.verify_length_bound", "approx.discrete_frechet") in pairs
    assert ("solver.find_quads", "pidist.verify_quad_arc_curvature") in pairs


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "find-corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture()
def smoke_outputs(tmp_path):
    inputs = workloads.Inputs(tmp_path, SEED, cli)
    commands = workloads.smoke(inputs)
    outputs = []
    for cmd in commands:
        assert cli.main(list(cmd.argv)) == 0
        outputs.append([Path(p).read_text() for p in cmd.outputs])
    return inputs, commands, outputs


def test_checks_pass_on_real_outputs(smoke_outputs):
    _, commands, outputs = smoke_outputs
    for cmd, texts in zip(commands, outputs):
        assert cmd.check(texts) == [], cmd.label


def _edit(text, change):
    data = json.loads(text)
    change(data)
    return json.dumps(data)


def test_checks_reject_tampered_outputs(smoke_outputs):
    _, commands, outputs = smoke_outputs
    find, analyze, frechet, converge = commands
    (find_out,), (report, windows), (frechet_out,), (conv_out,) = outputs

    def move_point(d):
        d["solutions"][0]["points"][0][0] += 1e-3

    def reorder(d):
        p = d["solutions"][0]["params"]
        p[0], p[1] = p[1], p[0]

    def duplicate_class(d):
        d["solutions"].append(d["solutions"][0])

    def big_residual(d):
        d["solutions"][0]["residual"] = 1.0

    def arc_flag(d):
        d["solutions"][0]["arc_kappa_ok"] = False

    for change in (move_point, reorder, duplicate_class, big_residual, arc_flag):
        assert find.check([_edit(find_out, change)]), change.__name__

    header, first, *rest = windows.splitlines()
    a, b, kappa, chord, arclen = first.split(",")
    for row in ([a, b, "3.0", chord, arclen], [a, b, kappa, str(float(chord) + 1e-6), arclen],
                [a, b, kappa, chord, str(float(chord) / 2)]):
        assert analyze.check([report, "\n".join([header, ",".join(row), *rest]) + "\n"])

    def literal_above_capped(d):
        d["pi_distance_literal"]["value"] = d["pi_distance_capped"]["value"] + 1.0

    assert analyze.check([_edit(report, literal_above_capped), windows])
    assert frechet.check([_edit(frechet_out, lambda d: d.update(holds=False))])
    assert frechet.check([_edit(frechet_out, lambda d: d.update(frechet=0.0))])
    assert converge.check([conv_out.replace("\n16,", "\n17,")])


def test_ellipse_and_circle_expectations():
    side = verify.ELLIPSE_SIDE
    assert verify.ellipse_side({"solutions": [{"sides": [side] * 4}]}) == []
    assert verify.ellipse_side({"solutions": [{"sides": [side + 1e-3] * 4}]})
    circle = {"non_generic": True, "solutions": [{"sides": [2 ** 0.5] * 4}]}
    assert verify.circle_family(circle) == []
    assert verify.circle_family(dict(circle, non_generic=False))


def test_changed_bytes_between_passes_count_as_failures(tmp_path):
    out = tmp_path / "out.txt"
    state = {"n": 0}

    def main(argv):
        state["n"] += 1
        out.write_text(f"{state['n'] // 2}\n")  # changes after the second pass
        return 0

    command = workloads.Command("counter", [], [str(out)], lambda texts: [])
    runner = run.Runner([command], types.SimpleNamespace(main=main))
    for k in range(3):
        runner.run_pass(False, f"pass{k}")
    assert (runner.attempted, runner.failed) == (3, 2)


def test_timed_run_repeats_every_command_and_probes_after_each(tmp_path):
    calls = []

    def main(argv):
        calls.append(argv[0])
        Path(argv[1]).write_text("ok\n")
        return 0

    commands = [workloads.Command(name, [name, str(tmp_path / name)], [str(tmp_path / name)],
                                  lambda texts: []) for name in ("a", "b", "c")]
    runner = run.Runner(commands, types.SimpleNamespace(main=main))
    times, probes = run._commands(runner, deadline=0.0)  # already past: minimum only
    assert calls == ["a", "b", "c"] * run.MIN_PASSES
    assert [len(t) for t in times] == [run.MIN_PASSES] * 3
    assert len(probes) == len(calls) and min(probes) > 0.0
    assert (runner.attempted, runner.failed) == (len(calls), 0)
