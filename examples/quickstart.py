#!/usr/bin/env python3
"""Quickstart: stand up a CondorJ2 pool, run a workload, query everything.

This is the paper's pitch in fifty lines: submit jobs through a web
service, watch execute nodes pull them via heartbeats, and then answer
operational questions with plain reports — because all the state lives in
a database.

Run:  python examples/quickstart.py
"""

from repro.cluster import ClusterSpec, RELIABLE_EXECUTION
from repro.condorj2 import CondorJ2System
from repro.sim.monitor import per_minute_rate
from repro.workload import fixed_length_batch


def main() -> None:
    # A small pool: 4 physical machines x 2 VMs = 8 slots.
    system = CondorJ2System(
        ClusterSpec(physical_nodes=4, vms_per_node=2),
        seed=7,
        execution=RELIABLE_EXECUTION,
    )

    # Submit 24 one-minute jobs as the user "alice" (via the submitJobs
    # web service — step 1 of the paper's Table 2).
    jobs = fixed_length_batch(24, run_seconds=60.0, owner="alice")
    system.submit_at(0.0, jobs)

    # Run the simulated pool until the workload completes.
    makespan = system.run_until_complete(expected_jobs=24, max_seconds=3600.0)
    print(f"24 jobs on 8 VMs completed at t={makespan:.1f}s "
          f"(optimal {24 * 60 / 8:.0f}s of execution)\n")

    # Everything is queryable: these pages render from the same logic
    # layer the SOAP services use.
    site = system.cas.site
    print(site.queue_page(), "\n")
    print(site.pool_page(), "\n")
    print(site.user_page("alice"), "\n")
    print(site.accounting_page(), "\n")

    # The turnover series the paper plots: completions per second,
    # bucketed by simulated minute.
    print("completions per second, by minute:",
          {minute: round(rate, 3)
           for minute, rate in per_minute_rate(system.completion_times())})


if __name__ == "__main__":
    main()
