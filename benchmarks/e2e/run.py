"""End-to-end pool benchmark: one command, six workloads.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints every metric by name with its unit, then —
as the last line — one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` every workload is
run both ways, one fresh subprocess each.  The exit code is non-zero
when an output or determinism check fails.  Names, units and bounds are
read from ``BENCHMARK.json``; see README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's horizon (self-check "
                             "only; BENCHMARK.json numbers are scale 1)")
    return parser.parse_args(argv)


def _run_one(args, spec) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"the program under test is missing: no {SRC}/repro")
    sys.path.insert(0, SRC)
    from harness import run_workload

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), scale=args.scale)
    mismatch = set(result.metrics) ^ {metric["name"] for metric in declared}
    if mismatch:
        sys.exit(f"measured and declared metrics differ: {sorted(mismatch)}")
    print(f"workload {args.workload}  seed {args.seed}  pid {os.getpid()}  "
          f"episodes {result.episodes}  "
          f"envelopes {result.samples['envelopes']}  "
          f"passes {result.samples['passes']}  "
          f"seams restored {result.seams_restored}")
    metrics = {}
    for metric in declared:
        value = result.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<44} {value:>16.6g} {metric['unit']}")
    if result.trace_path:
        print(f"  spans: {os.path.relpath(result.trace_path, ROOT)}")
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


def _run_all(args, spec) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for trace in (0, 1):
        for workload in spec["workloads"]:
            status |= subprocess.run([
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload is None:
        return _run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    return _run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
