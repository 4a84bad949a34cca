"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads find-corpus,measure --seeds 1-10 \
        --out .bench_out/collect.json

Runs `bench/run.py` once per (workload, seed), one run at a time, for
`--seconds` (by default the `run_seconds` of BENCHMARK.json), and
reports for every metric the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"]
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "metrics": {k: dict(summarize([r["metrics"][k]["value"] for r in runs]),
                                unit=names[k]["unit"]) for k in names},
        }
        for k, s in report[workload]["metrics"].items():
            print(f"  {workload:12s} {k:12s} median {s['median']:.6g} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
