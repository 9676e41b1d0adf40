"""The CAS cost model: what one web-service call costs the server.

"With respect to overall system scalability and performance, the critical
factors are ... the speed and efficiency with which the Application Server
can perform the HTTP-to-SQL transformation and the database can process
the SQL statements" (section 4.2.3).

The model charges simulated CPU/disk time on the server host per SOAP call
and per SQL statement actually executed (the access layer counts them).
The defining property — and the reason CondorJ2 scales where the schedd
does not — is that **every constant here is independent of queue length**:
indexed point queries and updates cost the same with 10 jobs queued or
50,000.

Constants are occupancy seconds on the paper's quad-Xeon and were
calibrated so Figure 9's utilisation bands land in the paper's ranges
(user growing fastest, ample idle headroom at 20+ jobs/s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.condorj2.storage import StatementCounts


@dataclass
class CasCostModel:
    """Per-operation costs for the CondorJ2 Application Server."""

    # -- request handling ------------------------------------------------
    #: User CPU to parse one SOAP envelope + dispatch (base).
    soap_parse_seconds: float = 0.0025
    #: Additional user CPU per KB of envelope.
    soap_parse_seconds_per_kb: float = 0.0008
    #: User CPU to build the response envelope.
    response_encode_seconds: float = 0.0012
    #: Kernel-mode (network stack, context switches) cost per call.
    system_seconds_per_call: float = 0.0018
    #: User CPU to validate one operation against its contract (request
    #: schema + response schema).  Charged per dispatched op — a batch
    #: envelope pays one transport but N of these, which is exactly the
    #: trade the multiplexed envelope exists to win.
    contract_validate_seconds: float = 0.0002

    # -- SQL execution ---------------------------------------------------
    #: User CPU per SELECT (plan + fetch on an indexed table).
    select_seconds: float = 0.0009
    #: User CPU per INSERT.
    insert_seconds: float = 0.0012
    #: User CPU per UPDATE.
    update_seconds: float = 0.0011
    #: User CPU per DELETE.
    delete_seconds: float = 0.0010
    #: Disk time per transaction commit (group-committed log force).
    commit_io_seconds: float = 0.0020
    #: User CPU to dispatch one batched statement (JDBC executeBatch
    #: marshalling) — charged once per batch on top of the per-row verb
    #: cost, which batching does *not* discount.
    batch_dispatch_seconds: float = 0.0004
    #: User CPU to compile a statement on a prepared-statement cache
    #: miss; cache hits skip it.  A set-oriented workload converges on a
    #: small working set of SQL strings, so this is a startup transient.
    statement_prepare_seconds: float = 0.0003

    # -- storage engine ----------------------------------------------------
    #: Storage spec for the operational store, ``backend[://path]``
    #: ("sqlite", "memory", "wal:///var/pool-wal"); empty string defers to
    #: ``CONDORJ2_STORAGE_ENGINE``, then SQLite in memory.
    storage_backend: str = ""

    # -- durability (WAL engine) ------------------------------------------
    #: Disk time to append one frame (one page) to the write-ahead log
    #: (sequential write into the OS page cache).
    wal_append_io_seconds: float = 0.00002
    #: Disk time to force the log at one commit point — the dominant
    #: durability cost, same order as a commit log force.
    wal_fsync_io_seconds: float = 0.0020
    #: Disk time for one checkpoint (the log's pages copied into the
    #: database file, the log truncated).
    wal_checkpoint_io_seconds: float = 0.0400

    # -- container -------------------------------------------------------
    #: Concurrent request-handling threads in the web/EJB containers.
    thread_pool_size: int = 50
    #: JDBC connections in the container pool.
    connection_pool_size: int = 20

    # -- periodic server-side work ----------------------------------------
    #: Interval of the set-oriented scheduling pass.
    scheduling_interval_seconds: float = 1.0
    #: Interval of the database background process (the 2-hour spikes the
    #: authors attribute to "checkpointing, statistics collection or some
    #: other periodic action" in Figure 10).
    db_background_interval_seconds: float = 7200.0
    #: User CPU burst of one background run.
    db_background_cpu_seconds: float = 90.0
    #: Disk burst of one background run.
    db_background_io_seconds: float = 45.0

    # -- startup ----------------------------------------------------------
    #: One-time user CPU at boot (bean allocation, cache fill, JIT).
    startup_cpu_seconds: float = 40.0
    #: One-time disk at boot (connection creation, catalog reads).
    startup_io_seconds: float = 15.0

    def parse_cost_seconds(self, envelope_bytes: int) -> float:
        """User CPU to parse a request of ``envelope_bytes``."""
        return self.soap_parse_seconds + self.soap_parse_seconds_per_kb * (
            envelope_bytes / 1024.0
        )

    def sql_cost_seconds(self, delta: StatementCounts) -> float:
        """User CPU for the statements in ``delta``.

        Verb counts are per *row* even when batched (the storage engine
        guarantees that), so batching preserves the figures' per-event
        CPU shape; batches add only their dispatch cost and cache misses
        their one-time compilation cost.
        """
        return (
            delta.select * self.select_seconds
            + delta.insert * self.insert_seconds
            + delta.update * self.update_seconds
            + delta.delete * self.delete_seconds
            + delta.batches * self.batch_dispatch_seconds
            + delta.prepared_misses * self.statement_prepare_seconds
        )

    def io_cost_seconds(self, delta: StatementCounts) -> float:
        """Disk time for the commits — and, on a WAL backend, the log
        appends, forces and checkpoints — in ``delta``.

        The durability counters are zero on sqlite/memory backends, so
        there the charge is the ``commits`` term alone; the WAL engine's
        frames, commit points and checkpoints are priced on top.
        """
        return (
            delta.commits * self.commit_io_seconds
            + delta.wal_appends * self.wal_append_io_seconds
            + delta.fsyncs * self.wal_fsync_io_seconds
            + delta.checkpoints * self.wal_checkpoint_io_seconds
        )
