"""Unit tests for scheduled events: order, cancellation and handle state.

Each test runs on ``repro.sim`` and on the kernel it replaced
(``reference_kernel.py``), through the simulator's public calls:
``schedule``, ``schedule_at``, ``EventHandle.cancel``, ``step`` and
``run(until=...)``.
"""

import importlib.util
import pathlib
import sys

import pytest

import repro.sim.kernel as kernel
from repro.sim.errors import SchedulingError


def _reference():
    """``reference_kernel.py``, loaded once under the name
    ``test_kernel_equivalence.py`` gives it."""
    name = "sim_reference_kernel"
    if name not in sys.modules:
        path = pathlib.Path(__file__).resolve().parent / "reference_kernel.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


reference = _reference()


@pytest.fixture(params=[kernel, reference], ids=["repro.sim", "reference"])
def sim(request):
    return request.param.Simulator()


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule_at(3.0, fired.append, "c")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0 and sim.events_processed == 3


def test_same_time_preserves_scheduling_order(sim):
    fired = []
    for label in "abcde":
        sim.schedule_at(5.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_cancelled_events_neither_fire_nor_count(sim):
    fired = []
    keep = sim.schedule(1.0, fired.append, "keep")
    drop = sim.schedule(0.5, fired.append, "drop")
    drop.cancel()
    assert sim.step() is True
    assert fired == ["keep"] and sim.now == 1.0 and keep.fired
    assert sim.step() is False
    assert sim.events_processed == 1


def test_step_skips_a_cancelled_head(sim):
    early = sim.schedule(1.0, lambda: None)
    sim.schedule(4.0, lambda: None)
    early.cancel()
    assert sim.step() is True
    assert sim.now == 4.0


def test_an_empty_simulator_has_nothing_to_fire(sim):
    assert sim.step() is False
    sim.run()
    assert sim.now == 0.0 and sim.events_processed == 0


def test_cancel_after_fire_raises(sim):
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        handle.cancel()


def test_cancel_twice_is_noop(sim):
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled and not handle.pending and not handle.fired
    sim.run()
    assert sim.events_processed == 0


def test_handle_state_transitions(sim):
    handle = sim.schedule_at(1.0, lambda: None)
    assert handle.pending and not handle.fired and not handle.cancelled
    assert handle.time == 1.0
    sim.step()
    assert handle.fired and not handle.pending and not handle.cancelled


def test_same_time_order_survives_interleaved_cancels(sim):
    fired = []
    handles = [sim.schedule_at(5.0, fired.append, label) for label in "abcdefgh"]
    handles[0].cancel()
    handles[3].cancel()
    late = sim.schedule_at(5.0, fired.append, "i")
    handles[7].cancel()
    sim.schedule_at(5.0, fired.append, "j")
    late.cancel()
    sim.run()
    assert fired == list("bcefgj")
    assert sim.events_processed == 6


def test_events_at_one_time_need_not_be_orderable(sim):
    """The sequence number decides every tie, so neither the callbacks
    nor their arguments are ever compared."""
    payloads = [object(), {"a": 1}, None, lambda: None, 3, "x", {1, 2}]
    fired = []
    for payload in payloads:
        sim.schedule_at(1.0, fired.append, payload)
    sim.schedule_at(1.0, lambda first, second: fired.append((first, second)),
                    {"x"}, [1])
    sim.run()
    assert fired == payloads + [({"x"}, [1])]


def test_run_until_leaves_later_events_queued(sim):
    fired = []
    early = sim.schedule(1.0, fired.append, "early")
    cancelled = sim.schedule(2.0, fired.append, "cancelled")
    late = sim.schedule(3.0, fired.append, "late")
    cancelled.cancel()
    sim.run(until=0.5)
    assert fired == [] and sim.now == 0.5 and early.pending
    sim.run(until=1.0)
    assert fired == ["early"] and early.fired and sim.now == 1.0
    sim.run(until=2.5)  # the cancelled one is no event
    assert fired == ["early"] and sim.now == 2.5 and late.pending
    sim.run(until=3.0)
    assert fired == ["early", "late"] and late.fired
    sim.run(until=9.0)
    assert sim.now == 9.0 and sim.events_processed == 2
