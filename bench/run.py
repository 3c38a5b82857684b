"""Benchmark command for hydrostat: one workload per process.

    python3 bench/run.py --workload split-32 --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of this checkout; nothing is
installed.  A run does one warm-up round, then whole rounds of the
workload until ``--seconds`` of rounds have been measured, checks every
round's artifacts, and prints one JSON object as its last line of output:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("split-32", "smooth-64", "lemmas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hydrostat" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  -- a dependency: imported before any timing

    from tracing import COUNTS, METRICS, Tracer, summarize
    from workloads import WORKLOADS

    run_round = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    rounds = []         # (round, traced, layer metrics or None)
    setups = []         # samples from set-up-only rounds

    def one(index, traced, setup_only=False):
        gc.collect()
        out_dir = run_dir / f"round{index}{'-setup' if setup_only else ''}"
        out_dir.mkdir(parents=True)
        if setup_only:
            rnd = run_round(args.seed, out_dir, setup_only=True)
            shutil.rmtree(out_dir)
            setups.append(rnd.setup_s)
            return rnd
        if traced:
            lo, before = tracer.mark()
        rnd = run_round(args.seed, out_dir, tracer if traced else None)
        layers = None
        if traced:
            tracer.uninstall_numpy()
            hi, after = tracer.mark()
            layers = summarize(tracer.spans, lo, hi,
                               {k: after[k] - before[k] for k in after})
        shutil.rmtree(out_dir)
        rounds.append((rnd, traced, layers))
        print(f"round {index}{' traced' if traced else ''}: setup {rnd.setup_s:.4f} s, "
              f"wall {rnd.wall_s:.4f} s, {rnd.failed}/{rnd.attempted} failed", flush=True)
        for problem in rnd.problems:
            print(f"  WRONG: {problem}", flush=True)
        return rnd

    try:
        one(0, False)                           # warm-up: bytecode, stdlib imports
        measured, index = 0.0, 1
        # With tracing, traced and untraced rounds alternate so the run
        # can report its own overhead.
        while measured < args.seconds or (args.trace and index < 3):
            rnd = one(index, bool(args.trace) and index % 2 == 1)
            measured += rnd.setup_s + rnd.wall_s
            if not args.trace:
                # Set-up is short and noisy: take one more sample per round.
                measured += one(index, False, setup_only=True).setup_s
            index += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall_numpy()

    problems = [p for rnd, _, _ in rounds for p in rnd.problems]
    attempted = sum(rnd.attempted for rnd, _, _ in rounds)
    failed = sum(rnd.failed for rnd, _, _ in rounds)
    timed = rounds[1:]
    plain = [rnd for rnd, traced, _ in timed if not traced]

    if not args.trace:
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in plain), "s"),
            "setup_s": (statistics.median([r.setup_s for r in plain] + setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = [(rnd, layers) for rnd, was_traced, layers in timed if was_traced]
        for name in COUNTS:
            seen = {layers[name] for _, layers in traced}
            if len(seen) > 1:
                print(f"NOTE: {name} differs between rounds: {sorted(seen)}", file=sys.stderr)
        metrics = {}
        for name, unit in METRICS.items():
            pick = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (pick(layers[name] for _, layers in traced), unit)
        traced_wall = statistics.median(rnd.wall_s for rnd, _ in traced)
        plain_wall = statistics.median(r.wall_s for r in plain)
        overhead = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
                    "overhead_s": traced_wall - plain_wall}
        base = statistics.median(layers["decomposition.run_s"] for _, layers in traced)
        if base > 0:
            print(f"record share base: run_decomposition {base:.4f} s per round")
        print(f"trace overhead: {overhead['overhead_s']:.4f} s per round "
              f"(traced wall {traced_wall:.4f} s, untraced {plain_wall:.4f} s)")
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "overhead": overhead,
                                 "rounds": [layers for _, layers in traced]})
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
