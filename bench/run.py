"""Benchmark of the sqpeg command line.

    python3 bench/run.py --workload {find-corpus,find-fine,measure,smoke}
                         --seed N --seconds S --trace {0,1}

Run from the root of a sqpeg checkout.  The benchmark imports `src/sqpeg`
of that checkout, drives `sqpeg.cli.main(argv)` in this one process with
BLAS pinned to one thread, and writes its files under `.bench_out/`.

Set-up generates the workload's curve files and runs the smoke commands as
a warm-up; it is repeated SETUP_REPEATS times and `setup_s` is the time to
import sqpeg (numpy is already loaded by the benchmark's own checks) plus
the median repeat.  Then the workload's fixed command list runs over and
over, in order, until the next command would end after `--seconds` (each
command runs at least MIN_PASSES times), so the whole run is measured and
not only the passes that fit in it whole.  Only the `main(argv)` calls are
timed.  After each command, outside the timed region, its outputs are
hashed and checked: a wrong exit code, an exception, a failed check or
bytes that differ from an earlier run of the command count it as failed.

With `--trace 1` one untraced pass runs first, then traced passes record a
span for every call into the library's public functions (see tracer.py);
the per-layer metrics are medians over the traced passes, and the spans
are written to `.bench_out/spans-<workload>-<seed>.tsv`.

End-to-end metrics (`--trace 0`) time commands in reference seconds
(`ref_s`): wall seconds times PROBE_REF_S over the median time, in this
run, of a fixed probe (interpreted and numpy work) that runs after every
command, so seconds as on a host that runs the probe in PROBE_REF_S.  On
a small shared host the same code runs up to 1.7 times slower from one
second, and from one minute, to the next, as the neighbours' load moves;
wall times of the same code then spread past any useful bound from one run
to the next, and the probe takes much of that out.  The wall times are on
the summary lines.  Each command's time is its fastest over its runs, as a
command now and then takes twice its usual time; `run_s` is the sum of
these, the time of one pass over the list, and `cmd_p50_s` and `cmd_max_s`
are their median and largest.  `ok_ratio` is the commands that passed
over those attempted, that is 1 - fail_ratio (the fail ratio itself is on
the summary line; a metric that is 0 at the baseline cannot carry a
relative bound); `peak_rss_mb`, the peak resident memory of this process;
`setup_s`, in wall seconds.  Per-layer metrics (`--trace 1`) are listed in
BENCHMARK.json.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS pin)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 2
# the probe's typical time on the 2-vCPU x86-64 host, Python 3.11 and
# numpy 2.4, where the benchmark was written
PROBE_REF_S = 0.010
_PROBE_ARRAY = np.linspace(0.0, 1.0, 50_000)


def probe() -> float:
    """Seconds of a fixed mix of interpreted and numpy work, the faster of
    two tries: how fast the host runs this process right now."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k
        for _ in range(20):
            total += float(np.sqrt(_PROBE_ARRAY * _PROBE_ARRAY + 1.0).sum())
        best = min(best, time.perf_counter() - start)
    return best


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    """Runs passes over one command list and keeps the checked results."""

    def __init__(self, commands, cli, tracer=None):
        self.commands = commands
        self.cli = cli
        self.tracer = tracer
        self.first = {}  # command index -> (sha256, check problems) of its first outputs
        self.attempted = 0
        self.failed = 0
        self.bytes_out = []  # per pass

    @staticmethod
    def _verify(cmd, blobs) -> list:
        try:
            return cmd.check([b.decode() for b in blobs])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]

    def run_pass(self, traced: bool, phase: str) -> list:
        """Time one pass; return the per-command seconds."""
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.active = traced
        times, codes = [], []
        for i in range(len(self.commands)):
            if traced:
                self.tracer.command = i
            seconds, rc = self._time(i)
            times.append(seconds)
            codes.append(rc)
        if self.tracer is not None:
            self.tracer.active = False
        self.bytes_out.append(sum(self._check(i, rc) for i, rc in enumerate(codes)))
        return times

    def run_command(self, i: int) -> float:
        """Time command `i` once, then check it; return its seconds."""
        seconds, rc = self._time(i)
        self._check(i, rc)
        return seconds

    def _time(self, i):
        cmd = self.commands[i]
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            rc = self.cli.main(list(cmd.argv))
        except Exception:
            traceback.print_exc()
            rc = None
        return time.perf_counter() - start, rc

    def _check(self, i, rc) -> int:
        """Count command `i` as attempted, and as failed if it is; return
        the bytes it wrote."""
        cmd = self.commands[i]
        self.attempted += 1
        problems = []
        size = 0
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        else:
            try:
                blobs = [Path(p).read_bytes() for p in cmd.outputs]
            except OSError as exc:
                blobs = None
                problems.append(f"missing output: {exc}")
            if blobs is not None:
                size = sum(len(b) for b in blobs)
                digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
                if i not in self.first:
                    self.first[i] = (digest, self._verify(cmd, blobs))
                first_digest, first_problems = self.first[i]
                if digest == first_digest:
                    problems += first_problems
                else:
                    problems.append("output bytes differ from an earlier run")
                    problems += self._verify(cmd, blobs)
        if problems:
            self.failed += 1
            sys.stderr.write(f"FAILED {cmd.label}: {'; '.join(problems)}\n")
        return size


def _commands(runner, deadline):
    """Run the commands in order, over and over, each at least MIN_PASSES
    times, and stop before a command as long as its longest run so far
    would end after `deadline`.  Return each command's seconds, and the
    seconds of the probe run after every command."""
    times = [[] for _ in runner.commands]
    probes = []
    for n in itertools.count():
        i = n % len(times)
        if n >= MIN_PASSES * len(times) and time.perf_counter() + max(times[i]) > deadline:
            return times, probes
        times[i].append(runner.run_command(i))
        probes.append(probe())


def _passes(runner, deadline, traced, minimum):
    """Run at least `minimum` passes, then stop before a pass as long as the
    longest so far would end after `deadline`."""
    passes = []
    while True:
        passes.append(runner.run_pass(traced, f"pass{len(passes)}"))
        longest = max(sum(t) for t in passes)
        if len(passes) >= minimum and time.perf_counter() + longest > deadline:
            return passes


def _setup(workloads, workload, seed, work, cli):
    """Generate the workload's files and run the smoke commands once."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.Inputs(work, seed, cli)
    commands = workloads.WORKLOADS[workload](inputs)
    for cmd in workloads.smoke(inputs):
        cli.main(list(cmd.argv))
    return commands


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "sqpeg" / "cli.py").is_file():
        sys.stderr.write(f"bench: no sqpeg sources under {src}; run from a sqpeg checkout\n")
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2

    t0 = time.perf_counter()
    import sqpeg.cli as cli
    import_s = time.perf_counter() - t0

    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, runner = _traced_run(args, workloads, work, cli, out_dir)
        else:
            metrics, runner = _timed_run(args, workloads, work, cli, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}; python "
          f"{sys.version.split()[0]}, numpy {np.__version__}, nproc {os.cpu_count()}, "
          f"BLAS threads {BLAS_THREADS}")
    print(f"# commands attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_ratio {runner.failed / runner.attempted:.6g}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def _timed_run(args, workloads, work, cli, import_s):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        commands = _setup(workloads, args.workload, args.seed, work, cli)
        setups.append(time.perf_counter() - start)
    runner = Runner(commands, cli)
    times, probes = _commands(runner, time.perf_counter() + args.seconds)
    ok = runner.attempted - runner.failed
    wall = [min(t) for t in times]
    scale = PROBE_REF_S / statistics.median(probes)
    per_command = [w * scale for w in wall]
    print(f"# wall s, fastest per command: {' '.join(f'{w:.4f}' for w in wall)}; "
          f"probe ms: median {statistics.median(probes) * 1e3:.3f}, "
          f"range {min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f}")
    metrics = {
        "run_s": (sum(per_command), "ref_s"),
        "cmd_p50_s": (statistics.median(per_command), "ref_s"),
        "cmd_max_s": (max(per_command), "ref_s"),
        "ok_ratio": (ok / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, runner


def _traced_run(args, workloads, work, cli, out_dir):
    from tracer import COUNTS, Tracer

    tracer = Tracer()
    origin = time.perf_counter()
    tracer.install()
    try:
        tracer.phase = "setup"
        commands = _setup(workloads, args.workload, args.seed, work, cli)
        tracer.active = False
        runner = Runner(commands, cli, tracer)
        deadline = time.perf_counter() + args.seconds
        untraced = sum(runner.run_pass(False, "untraced"))
        traced = _passes(runner, deadline, True, 1)
    finally:
        tracer.uninstall()

    phases = [f"pass{i}" for i in range(len(traced))]
    aggregates = [tracer.aggregate(p) for p in phases]
    for name in COUNTS:
        # an exact count that moves between passes is one more failed check
        if len({a.get(name, 0) for a in aggregates}) > 1:
            runner.attempted += 1
            runner.failed += 1
            sys.stderr.write(f"FAILED exact count {name} differs between passes: "
                             f"{[a.get(name, 0) for a in aggregates]}\n")

    def layer(name):
        values = [a.get(name, 0) for a in aggregates]
        return values[0] if len(set(values)) == 1 else statistics.median(values)

    seeds, cands, classes = (layer(n) for n in ("solver.seeds", "solver.candidates",
                                                 "solver.classes"))
    derived = {
        "solver.converge_ratio": cands / seeds if seeds else 0.0,
        "solver.class_ratio": classes / cands if cands else 0.0,
        "cli.bytes_out": runner.bytes_out[-1],
        "generators.busy_s": tracer.aggregate("setup").get("generators.busy_s", 0.0),
        "trace.overhead_s": statistics.median([sum(t) for t in traced]) - untraced,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"] not in derived and m["name"] not in tracer.metric_names]
    if unknown:
        raise SystemExit(f"bench: BENCHMARK.json names unknown per-layer metrics {unknown}")
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        metrics[name] = {"value": derived[name] if name in derived else layer(name),
                         "unit": m["unit"]}

    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv", origin)
    return metrics, runner


if __name__ == "__main__":
    sys.exit(main())
