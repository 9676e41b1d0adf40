"""Unit tests for the entity-bean persistence layer."""

import pytest

from repro.condorj2.beans import (
    BeanConsistencyError,
    BeanContainer,
    BeanNotFound,
    JobBean,
    MachineBean,
    PolicyBean,
)
from repro.condorj2.database import Database, DatabaseError


@pytest.fixture
def container():
    return BeanContainer(Database())


def make_policy(container, name="p", value="1"):
    return container.create(
        PolicyBean, policy_name=name, policy_value=value, scope="pool",
        updated_at=0.0, updated_by="system",
    )


def make_job(container, owner="alice", **overrides):
    container.db.execute(
        "INSERT OR IGNORE INTO users (user_name, created_at) VALUES (?, 0.0)",
        (owner,),
    )
    fields = dict(
        owner=owner, cmd="/bin/x", state="idle", run_seconds=60.0,
        submitted_at=0.0, attempts=0,
    )
    fields.update(overrides)
    return container.create(JobBean, **fields)


def test_create_and_find_round_trip(container):
    policy = make_policy(container)
    found = container.find(PolicyBean, "p")
    assert found["policy_value"] == "1"
    assert found.pk_value == policy.pk_value


def test_find_missing_raises(container):
    with pytest.raises(BeanNotFound):
        container.find(PolicyBean, "nobody")
    assert container.find_optional(PolicyBean, "nobody") is None


def _policy_row(name):
    return {"policy_name": name, "policy_value": "1", "updated_at": 0.0}


def test_create_batch_inserts_without_beans(container):
    before = container.instantiations
    created = container.create_batch(
        PolicyBean, [_policy_row("a"), _policy_row("b")])
    assert created == 2
    assert container.instantiations == before  # footnote 1: no bean per tuple
    assert container.db.table_count("config_policies") == 2
    assert container.db.counts.batches >= 1


def test_create_batch_rejects_heterogeneous_rows(container):
    with pytest.raises(DatabaseError):
        container.create_batch(
            PolicyBean,
            [
                _policy_row("a"),
                {"updated_at": 0.0, "policy_value": "1", "policy_name": "b"},
            ],
        )


def test_create_batch_rejects_unknown_columns(container):
    with pytest.raises(DatabaseError):
        container.create_batch(
            PolicyBean, [dict(_policy_row("a"), **{"cmd) SELECT": "x"})])


def test_machine_heartbeat_and_boot_history(container):
    machine = container.create(
        MachineBean, machine_name="m1", cores=2, memory_mb=512, vm_count=4,
        state="alive", last_heartbeat=0.0, boot_count=0,
    )
    machine.record_boot(1.0)
    machine.record_boot(100.0)
    assert machine["boot_count"] == 2
    rows = container.db.query_all(
        "SELECT * FROM machine_boot_history WHERE machine_name = 'm1'"
    )
    assert len(rows) == 2
    stored = container.find(MachineBean, "m1")
    assert (stored["boot_count"], stored["last_heartbeat"]) == (2, 100.0)


def test_policy_change_writes_history(container):
    policy = make_policy(container)
    policy.change_value("2", 10.0, changed_by="admin")
    policy.change_value("3", 20.0, changed_by="admin")
    history = container.db.query_all(
        "SELECT old_value, new_value FROM config_history ORDER BY change_id"
    )
    assert [(r["old_value"], r["new_value"]) for r in history] == [("1", "2"), ("2", "3")]
    assert policy["policy_value"] == "3"
    stored = container.find(PolicyBean, "p")
    assert (stored["policy_value"], stored["updated_at"]) == ("3", 20.0)


def test_container_counts_instantiations(container):
    make_policy(container, "a")
    before = container.instantiations
    container.find(PolicyBean, "a")
    container.find_optional(PolicyBean, "a")
    container.find_optional(PolicyBean, "nobody")
    assert container.instantiations == before + 2


def test_create_checks_invariants_sql_constraints_do_not_cover(container):
    """Rule (c) runs once, where a bean is handed out for a new tuple."""
    with pytest.raises(BeanConsistencyError):
        make_job(container, attempts=-1)
    with pytest.raises(BeanConsistencyError):
        make_job(container, run_seconds=0.0)

