"""Run the benchmark on several seeds and report how far each metric spreads.

    python3 bench/spread.py --workload split-32 --seeds 1-10
    python3 bench/spread.py --workload lemmas --seeds 11-15 --save bench/out/lemmas-a.json

Runs are sequential, one fresh process each, with the command and run
length from BENCHMARK.json.  For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, the figure each end-to-end bound is judged against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.6g}"
                                          for k, v in result["metrics"].items()
                                          if args.trace == 0), flush=True)

    print(f"{'metric':<34} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    failed = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share: {sorted(failed)}; all correct: {all(r['correct'] for r in runs)}")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
