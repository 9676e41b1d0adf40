"""Figure 8: execute hosts failing to run ("dropping") jobs.

For each throughput run, the paper counts the distinct *virtual* nodes and
distinct *physical* nodes that dropped at least one job.  Findings:

* very few nodes encounter problems at 1- and 5-minute jobs;
* some nodes have problems at 18 s, "though not enough to materially
  affect the observed throughput rate";
* at 9 s and especially 6 s, significant portions of the cluster drop
  jobs — at 6 s almost 40 % of the VMs, and every physical node hosted at
  least one dropping VM.

The cause the authors found — "numerous timeout errors" from setting up
and tearing down environments at four jobs per six seconds per node — is
exactly the mechanism in :class:`repro.cluster.ExecutionModel`.
"""

from __future__ import annotations

from typing import Tuple

from repro.experiments.common import (
    PAPER_JOB_LENGTHS,
    SUSTAIN_SECONDS,
    run_throughput_sweep,
)
from repro.metrics import ExperimentResult

#: The job lengths whose drop counts the paper orders, shortest first:
#: significant portions of the cluster at 6 s and 9 s, "some nodes" at
#: 18 s.  At 1 and 5 minutes it claims only "very few", which the "very
#: few drops at 1-5 min jobs" check holds; those single-digit counts are
#: not ordered against each other.
_GROWTH_LENGTHS = (6.0, 9.0, 18.0)


def run(
    job_lengths: Tuple[float, ...] = PAPER_JOB_LENGTHS,
    seed: int = 42,
    sustain_seconds: float = SUSTAIN_SECONDS,
) -> ExperimentResult:
    """Run (or reuse) the sweep and evaluate Figure 8's shape claims."""
    points = run_throughput_sweep(job_lengths, seed, sustain_seconds)
    result = ExperimentResult(
        "fig08",
        "Execute hosts failing to run jobs, by job length",
        params={
            "cluster_vms": 180,
            "physical_nodes": 45,
            "window_s": sustain_seconds,
            "seed": seed,
        },
    )
    # The paper plots the series longest-job first.
    ordered = sorted(points, key=lambda p: -p.job_length_seconds)
    result.series["vms_dropping"] = [
        (p.job_length_seconds, float(p.vms_dropping)) for p in ordered
    ]
    result.series["nodes_dropping"] = [
        (p.job_length_seconds, float(p.nodes_dropping)) for p in ordered
    ]
    for p in ordered:
        result.rows.append(
            {
                "job_length_s": p.job_length_seconds,
                "vms_dropping": p.vms_dropping,
                "physical_dropping": p.nodes_dropping,
                "drop_events": p.drop_events,
                "vm_fraction": round(p.vms_dropping / p.total_vms, 3),
                "node_fraction": round(p.nodes_dropping / p.total_nodes, 3),
            }
        )

    by_length = {p.job_length_seconds: p for p in points}
    long_points = [p for p in points if p.job_length_seconds >= 60.0]
    if long_points:
        worst = max(p.vms_dropping for p in long_points)
        result.add_check(
            "very few drops at 1-5 min jobs",
            "near zero nodes affected",
            f"at most {worst} VMs affected",
            worst <= 4,
        )
    if 18.0 in by_length and 6.0 in by_length:
        growth = [by_length[length] for length in _GROWTH_LENGTHS
                  if length in by_length]
        drops = [p.vms_dropping for p in growth]
        result.add_check(
            "drops grow as jobs shorten",
            "6s >> 9s >= 18s",
            " / ".join(f"{p.job_length_seconds:.0f}s:{p.vms_dropping}"
                       for p in growth),
            all(a >= b for a, b in zip(drops, drops[1:])),
        )
    six = by_length.get(6.0)
    if six is not None:
        vm_fraction = six.vms_dropping / six.total_vms
        node_fraction = six.nodes_dropping / six.total_nodes
        result.add_check(
            "6s: large share of VMs affected",
            "~40% of virtual nodes",
            f"{vm_fraction:.0%}",
            0.2 <= vm_fraction <= 0.6,
        )
        result.add_check(
            "6s: most physical nodes affected",
            "every physical node hosted a dropping VM",
            f"{node_fraction:.0%}",
            node_fraction >= 0.6,
        )
    return result
