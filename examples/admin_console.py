#!/usr/bin/env python3
"""Administrator's tour: configuration, history and failure handling.

Shows the operational side the paper argues for: policies with an audit
trail and machine boot history, both plain tables read with plain SQL,
and the transactional no-lost-jobs guarantee when execute nodes drop
work.

Run:  python examples/admin_console.py
"""

from repro.cluster import ClusterSpec, ExecutionModel
from repro.condorj2 import CondorJ2System
from repro.workload import fixed_length_batch


def main() -> None:
    # An unreliable cluster: aggressive timeout so some starts drop.
    flaky = ExecutionModel(
        setup_cpu_seconds=0.3,
        setup_disk_seconds=0.6,
        timeout_seconds=1.2,
        jitter_fraction=0.6,
        heavy_tail_prob=0.15,
        heavy_tail_factor=4.0,
    )
    system = CondorJ2System(
        ClusterSpec(physical_nodes=3, vms_per_node=2),
        seed=21,
        execution=flaky,
    )
    config = system.cas.config
    db = system.cas.db
    system.start()

    # 1. Configuration management: every change leaves an audit row.
    system.sim.run(until=10.0)
    config.set("scheduling_interval_seconds", "0.5", system.sim.now, "admin")
    system.sim.run(until=20.0)
    config.set("scheduling_interval_seconds", "2.0", system.sim.now, "admin")
    print("policy history for scheduling_interval_seconds:")
    for change in db.query_all(
        "SELECT changed_at, old_value, new_value, changed_by "
        "FROM config_history WHERE policy_name = ? ORDER BY change_id",
        ("scheduling_interval_seconds",),
    ):
        print(f"  t={change['changed_at']:6.1f}  "
              f"{change['old_value']} -> {change['new_value']} "
              f"(by {change['changed_by']})")
    print()

    # 2. Run a workload on the flaky cluster.
    jobs = fixed_length_batch(30, run_seconds=45.0, owner="ops")
    system.submit_at(20.0, jobs)
    system.run_until_complete(expected_jobs=30, max_seconds=7200.0)

    drops = system.drop_stats()
    print(f"drops observed: {drops['drop_events']} "
          f"(on {drops['vms_dropping']} VMs / {drops['nodes_dropping']} nodes)")
    print(f"jobs completed despite drops: {system.completed_count()}/30 "
          "- the transactional queue never loses a job\n")

    # 3. Machine boot history (recorded at registration).
    name = system.nodes[0].name
    boots = db.query_all(
        "SELECT booted_at, cores FROM machine_boot_history "
        "WHERE machine_name = ? ORDER BY boot_id",
        (name,),
    )
    print(f"boot history for {name}: "
          f"{[(b['booted_at'], b['cores']) for b in boots]}")
    print(system.cas.site.pool_page())

    # 4. Per-operation web-service statistics: the gateway meter shows
    # calls, fault rates and latency for every contract-dispatched op
    # (acceptMatch arrives in multiplexed batch envelopes; "execution
    # began" is a heartbeat event, so beginExecute has no row).
    print()
    print(system.cas.site.statistics_page())


if __name__ == "__main__":
    main()
