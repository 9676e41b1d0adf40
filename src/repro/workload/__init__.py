"""Workload generation for the paper's experiments.

Public surface:

* :func:`fixed_length_batch`, :func:`throughput_preload` — identical-job
  queues for the throughput sweeps.
* :func:`mixed_batch`, :func:`paper_mixed_workload_540`,
  :func:`paper_mixed_workload_180` — the mixed workloads of sections 5.2.3
  and 5.3.3.
* :func:`pulsed_batches`, :func:`paper_large_cluster_pulses` — the pulsed
  ramp-up of section 5.2.2.
* Demand arithmetic: :func:`scheduling_throughput_demand`,
  :func:`optimal_makespan_seconds`, etc.
"""

from repro.workload.jobs import (
    Pulse,
    average_job_seconds,
    fixed_length_batch,
    mixed_batch,
    optimal_makespan_seconds,
    paper_large_cluster_pulses,
    paper_mixed_workload_180,
    paper_mixed_workload_540,
    pulsed_batches,
    scheduling_throughput_demand,
    throughput_preload,
    total_work_seconds,
)

__all__ = [
    "Pulse",
    "average_job_seconds",
    "fixed_length_batch",
    "mixed_batch",
    "optimal_makespan_seconds",
    "paper_large_cluster_pulses",
    "paper_mixed_workload_180",
    "paper_mixed_workload_540",
    "pulsed_batches",
    "scheduling_throughput_demand",
    "throughput_preload",
    "total_work_seconds",
]
