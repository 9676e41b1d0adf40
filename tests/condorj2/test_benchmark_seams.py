"""What the end-to-end benchmark needs of the program, held in tier-1.

``benchmarks/e2e/`` reaches the program two ways: its tracer rebinds
about thirty names from outside (``tracer.install``) and its harness
builds every pool from ``CasCostModel(storage_backend=...)``.  A renamed
seam or a spec form ``create_engine`` stops accepting would otherwise
fail only the benchmark's own self-check.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.condorj2 import CondorJ2System
from repro.condorj2.costs import CasCostModel
from repro.condorj2.storage import (
    MemoryStorageEngine,
    SqliteStorageEngine,
    WalStorageEngine,
)
from repro.workload import fixed_length_batch

TRACER_PATH = Path(__file__).resolve().parents[2] / "benchmarks/e2e/tracer.py"

ENGINES = {
    "sqlite": SqliteStorageEngine,
    "memory": MemoryStorageEngine,
    "wal": WalStorageEngine,
}

#: Layers whose per-layer metrics the harness reads off the spans.
TRACED_LAYERS = ("cas", "web.soap", "api.gateway", "api.fields", "logic",
                 "storage.engine", "storage.raw")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", ENGINES)
def test_tracer_seams_bind_and_restore_around_a_harness_pool(backend,
                                                             tmp_path):
    """Every seam of ``install(..., full=True)`` binds on this engine
    class, fires while a pool built the harness's way runs, and is bound
    back afterwards (``Seams.restore`` raises otherwise)."""
    e2e_tracer = _load_tracer()
    tracer = e2e_tracer.Tracer(keep_trees=True)
    spec = f"wal://{tmp_path}" if backend == "wal" else backend
    seams = e2e_tracer.install(tracer, ENGINES[backend], full=True)
    try:
        system = CondorJ2System(
            ClusterSpec(physical_nodes=2, vms_per_node=2),
            seed=7, costs=CasCostModel(storage_backend=spec))
        system.submit_at(0.0, fixed_length_batch(4, 20.0))
        system.run_until_complete(expected_jobs=4, max_seconds=600.0)
    finally:
        restored = seams.restore()
    assert restored > 2
    assert type(system.cas.db.engine) is ENGINES[backend]
    assert system.completed_count() == 4
    system.cas.db.close()
    for layer in TRACED_LAYERS:
        assert tracer.layer_self_s(layer) > 0, layer
    if backend == "wal":
        assert any(tmp_path.iterdir()), "the log went somewhere else"
