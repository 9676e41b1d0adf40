"""Alternating A/B pairs of the end-to-end benchmark across two checkouts.

    python3 benchmarks/ab_pairs.py PARENT CHANGE --workload NAME [...]
        [--seeds 7,11] [--pairs 10] [--claim METRIC]

runs ``benchmarks/e2e/run.py --trace 0`` from each checkout, in a fresh
process each time, ``--pairs`` times per workload and seed.  The side
that runs first alternates pair by pair, so a drift in the host's speed
falls on both sides alike.  Each checkout runs its own harness and its
own ``src/``; the metric names, units, directions and bounds are read
from the CHANGE checkout's ``BENCHMARK.json``.

For every workload (all seeds pooled) and end-to-end metric it prints
each side's median and quartiles, the pairs the change won, lost and
tied, and the median episodes per run (a faster program fits more
episodes into the same timed seconds).  The verdict follows the
choosing-metrics rule for a small sandbox:

* ``gain``: at least ten pairs were run, the change won at least nine
  tenths of them (ties count for neither side), and its median is
  better than the parent's by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: neither, and the parent's own interquartile range
  is wider than the bound, unless every run of the change is better
  than every run of the parent (``better``);
* ``within``: neither, and the runs are tight enough to tell.

A run that exits non-zero, fails its own checks or ends without a
JSON line is reported as ``RUN FAILED``, and its pair is left out of
the medians and the wins; the pairs go on.  The exit code is non-zero
when a run failed, or when a ``--claim`` metric is not a ``gain`` on
every workload named.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from typing import List, Tuple

RUN_PY = os.path.join("benchmarks", "e2e", "run.py")
#: Fewer pairs than this never support a claimed gain.
MIN_PAIRS = 10
_EPISODES = re.compile(r"\bepisodes (\d+)\b")


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One untraced ``run.py`` in ``checkout``; its last-line JSON plus
    the episode count from its header line.  A run whose last line is
    not that JSON comes back as ``{"ok": False, "stderr": ...}``."""
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"ok": False, "stderr": done.stderr}
    episodes = _EPISODES.search(done.stdout)
    result["episodes"] = int(episodes.group(1)) if episodes else 0
    result["ok"] = (done.returncode == 0 and result.get("correct") is True
                    and not result.get("failed"))
    result["stderr"] = done.stderr
    return result


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``, the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: List[float], change: List[float], lower_is_better: bool,
            bound: float) -> Tuple[str, int, int, int]:
    """The verdict for one metric over paired runs, and wins/losses/ties."""
    sign = -1.0 if lower_is_better else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = len(parent) - wins - losses
    p1, p_median, p3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gained = sign * (c_median - p_median)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) \
            and gained > p3 - p1:
        return "gain", wins, losses, ties
    base = abs(p_median) or 1.0
    if -gained / base > bound:
        return "worse", wins, losses, ties
    if (p3 - p1) / base > bound:
        if min(sign * c for c in change) > max(sign * p for p in parent):
            return "better", wins, losses, ties
        return "unresolved", wins, losses, ties
    return "within", wins, losses, ties


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload to run (repeatable)")
    parser.add_argument("--seeds", default="7",
                        help="comma-separated workload seeds (default 7)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload and seed (default 10)")
    parser.add_argument("--claim", action="append", default=[],
                        help="an end-to-end metric that must be a gain")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as handle:
        declared = json.load(handle)["end_to_end"]
    seeds = [int(seed) for seed in args.seeds.split(",")]
    status = 0
    for workload in args.workload:
        sides = {"parent": [], "change": []}
        for seed in seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else (
                    "change", "parent")
                pair_runs = {side: run_once(checkouts[side], workload, seed)
                             for side in order}
                for side, result in pair_runs.items():
                    if not result["ok"]:
                        status = 1
                        print(f"RUN FAILED: {side} {workload} seed {seed}\n"
                              f"{result.get('stderr', '')}", file=sys.stderr)
                if all(result["ok"] for result in pair_runs.values()):
                    for side, result in pair_runs.items():
                        sides[side].append(result)
        if not sides["parent"]:
            continue
        print(f"\n{workload}  seeds {args.seeds}  pairs "
              f"{len(sides['parent'])}  episodes per run (median) parent "
              f"{statistics.median(r['episodes'] for r in sides['parent'])} "
              f"change "
              f"{statistics.median(r['episodes'] for r in sides['change'])}")
        print(f"  {'metric':<22} {'parent q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'W/L/T':>8}  verdict")
        for metric in declared:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in sides[side]]
                      for side in sides}
            outcome, wins, losses, ties = verdict(
                values["parent"], values["change"],
                metric["better"] == "lower", metric["bound"])
            if name in args.claim and outcome != "gain":
                status = 1
            cells = {side: "/".join(f"{v:.4g}" for v in quartiles(values[side]))
                     for side in values}
            print(f"  {name:<22} {cells['parent']:>30} {cells['change']:>30} "
                  f"{wins:>2}/{losses}/{ties:<2}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
