"""Unit tests for the simulator and the process/effect model."""

import pytest

from repro.sim import (
    Delay,
    Join,
    ProcessError,
    ResourceError,
    SchedulingError,
    Signal,
    SimulationLimitExceeded,
    Simulator,
    Spawn,
    Use,
    Wait,
)
from repro.sim.resources import Resource


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_callback_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]
    assert sim.now == 2.5


def test_schedule_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


NAN = float("nan")


def test_nan_times_are_refused_and_the_clock_never_runs_back():
    """NaN compares false with everything, so a ``< 0`` guard let it in,
    and a NaN entry fired between any two times: events at 5, 3, NaN, 1,
    4, 2 fired as 1, NaN, 2, 3, 4, 5."""
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(NAN, lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule_at(NAN, lambda: None)
    clock = []
    for time in (5.0, 3.0, NAN, 1.0, 4.0, 2.0):
        try:
            sim.schedule_at(time, lambda: clock.append(sim.now))
        except SchedulingError:
            clock.append("refused")
    sim.run()
    assert clock == ["refused", 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("effect", ["delay", "wait", "use"])
def test_a_nan_effect_fails_the_process_and_the_run_goes_on(effect):
    """Like a negative duration: the error is thrown into the process,
    the clock stays a number and a later event fires at its time."""
    sim = Simulator()
    server = Resource(sim, capacity=1, name="cpu")
    made = {"delay": lambda: Delay(NAN),
            "wait": lambda: Wait(Signal("never"), timeout=NAN),
            "use": lambda: Use(server, NAN)}[effect]
    seen = []

    def proc():
        try:
            yield made()
        except (SchedulingError, ResourceError) as exc:
            seen.append((type(exc).__name__, sim.now))
        yield Delay(2.0)
        seen.append(("done", sim.now))

    process = sim.spawn(proc())
    sim.run()
    refused = "ResourceError" if effect == "use" else "SchedulingError"
    assert seen == [(refused, 0.0), ("done", 2.0)]
    assert process.done and process.error is None and sim.now == 2.0


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_includes_boundary_events():
    sim = Simulator()
    seen = []
    sim.schedule(4.0, lambda: seen.append("boundary"))
    sim.run(until=4.0)
    assert seen == ["boundary"]


def test_run_until_skips_cancelled_and_counts_what_fired():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "cancelled").cancel()
    sim.schedule(2.0, lambda: sim.schedule(0.0, seen.append, "child"))
    sim.schedule(2.0, seen.append, "sibling")
    sim.schedule(3.0, seen.append, "late")
    sim.run(until=2.0)
    # The child was scheduled at the boundary instant: same run, after
    # everything scheduled there before it.
    assert seen == ["sibling", "child"]
    assert (sim.now, sim.events_processed) == (2.0, 3)
    assert sim.step() is True
    assert (seen[-1], sim.now, sim.events_processed) == ("late", 3.0, 4)
    assert sim.step() is False
    assert sim.events_processed == 4


def test_max_events_guard():
    sim = Simulator()

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(max_events=100)


def test_max_events_allows_exactly_that_many():
    """The limit trips only when one more due event would fire: not when
    the queue runs dry, nor when the next event lies past ``until``."""
    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.schedule(delay, lambda: None)
    sim.run(max_events=3)
    assert (sim.now, sim.events_processed) == (3.0, 3)

    sim = Simulator()
    for delay in (1.0, 2.0, 3.0, 10.0):
        sim.schedule(delay, lambda: None)
    sim.run(until=5.0, max_events=3)
    assert (sim.now, sim.events_processed) == (5.0, 3)
    with pytest.raises(SimulationLimitExceeded):
        sim.run(until=20.0, max_events=0)
    # The event that tripped the limit is still queued.
    sim.run()
    assert (sim.now, sim.events_processed) == (10.0, 4)


def test_process_delay_sequence():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield Delay(3.0)
        trace.append(("mid", sim.now))
        yield Delay(2.0)
        trace.append(("end", sim.now))

    sim.spawn(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 3.0), ("end", 5.0)]


def test_process_result_captured():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 42

    process = sim.spawn(proc())
    sim.run()
    assert process.done
    assert process.result == 42


def test_process_error_captured():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        raise ValueError("boom")

    process = sim.spawn(proc())
    sim.run()
    assert process.done
    assert isinstance(process.error, ValueError)


def test_yielding_non_effect_fails_process():
    sim = Simulator()

    def proc():
        yield "not an effect"

    process = sim.spawn(proc())
    sim.run()
    assert isinstance(process.error, ProcessError)


def test_spawn_effect_returns_child():
    sim = Simulator()
    seen = {}

    def child():
        yield Delay(1.0)
        return "child-result"

    def parent():
        handle = yield Spawn(child())
        result = yield Join(handle)
        seen["result"] = result

    sim.spawn(parent())
    sim.run()
    assert seen["result"] == "child-result"


def test_join_propagates_child_exception():
    sim = Simulator()

    def child():
        yield Delay(1.0)
        raise RuntimeError("child failed")

    def parent():
        handle = yield Spawn(child())
        yield Join(handle)

    process = sim.spawn(parent())
    sim.run()
    assert isinstance(process.error, RuntimeError)


def test_join_already_finished_child():
    sim = Simulator()
    seen = {}

    def child():
        yield Delay(0.5)
        return "early"

    def parent(handle):
        yield Delay(5.0)
        seen["result"] = (yield Join(handle))

    handle = sim.spawn(child())
    sim.spawn(parent(handle))
    sim.run()
    assert seen["result"] == "early"


def test_wait_on_signal():
    sim = Simulator()
    signal = Signal("go")
    seen = []

    def waiter():
        fired, value = yield Wait(signal)
        seen.append((fired, value, sim.now))

    sim.spawn(waiter())
    sim.schedule(7.0, signal.fire, "payload")
    sim.run()
    assert seen == [(True, "payload", 7.0)]


def test_wait_on_already_fired_signal_resumes_immediately():
    sim = Simulator()
    signal = Signal("done")
    signal.fire("v")
    seen = []

    def waiter():
        fired, value = yield Wait(signal)
        seen.append((fired, value, sim.now))

    sim.spawn(waiter())
    sim.run()
    assert seen == [(True, "v", 0.0)]


def test_wait_timeout_elapses():
    sim = Simulator()
    signal = Signal("never")
    seen = []

    def waiter():
        fired, value = yield Wait(signal, timeout=3.0)
        seen.append((fired, value, sim.now))

    sim.spawn(waiter())
    sim.run()
    assert seen == [(False, None, 3.0)]


def test_wait_signal_beats_timeout():
    sim = Simulator()
    signal = Signal("fast")
    seen = []

    def waiter():
        fired, value = yield Wait(signal, timeout=10.0)
        seen.append((fired, value, sim.now))

    sim.spawn(waiter())
    sim.schedule(2.0, signal.fire, "won")
    sim.run()
    assert seen == [(True, "won", 2.0)]
    assert sim.now == 2.0  # the timeout event was cancelled


def test_negative_wait_timeout_fails_the_waiting_process():
    """Like a negative Delay: the error is thrown into the process, the
    run goes on, and a later fire resumes nobody."""
    sim = Simulator()
    signal = Signal("late")
    seen = []

    def waiter():
        try:
            yield Wait(signal, timeout=-1.0)
        except SchedulingError:
            seen.append(("refused", sim.now))
        yield Delay(5.0)
        seen.append(("done", sim.now))

    process = sim.spawn(waiter())
    sim.schedule(1.0, signal.fire, "v")
    sim.run()
    assert seen == [("refused", 0.0), ("done", 5.0)]
    assert process.done and process.error is None

    def unguarded():
        yield Wait(Signal("never"), timeout=-0.5)

    uncaught = sim.spawn(unguarded())
    sim.run()
    assert isinstance(uncaught.error, SchedulingError)


def test_signal_fire_twice_raises():
    signal = Signal("once")
    signal.fire()
    with pytest.raises(ProcessError):
        signal.fire()


def test_cancel_stops_process():
    sim = Simulator()
    trace = []

    def proc():
        trace.append("a")
        yield Delay(5.0)
        trace.append("b")

    process = sim.spawn(proc())
    sim.run(until=1.0)
    process.cancel()
    sim.run()
    assert trace == ["a"]
    assert process.cancelled and process.done


def test_cancel_finished_process_is_noop():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return 1

    process = sim.spawn(proc())
    sim.run()
    process.cancel()
    assert not process.cancelled  # finished naturally first


def test_completion_signal_fires_on_finish():
    sim = Simulator()

    def proc():
        yield Delay(1.0)
        return "done"

    process = sim.spawn(proc())
    sim.run()
    assert process.completion.fired
    assert process.completion.value == "done"


def test_use_effect_serialises_on_unit_resource():
    sim = Simulator()
    resource = Resource(sim, capacity=1, name="lock")
    finish_times = []

    def worker():
        yield Use(resource, 2.0)
        finish_times.append(sim.now)

    for _ in range(3):
        sim.spawn(worker())
    sim.run()
    assert finish_times == [2.0, 4.0, 6.0]


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_deterministic_rng_streams():
    first = Simulator(seed=99)
    second = Simulator(seed=99)
    draws_a = [first.rng.stream("x").random() for _ in range(5)]
    draws_b = [second.rng.stream("x").random() for _ in range(5)]
    assert draws_a == draws_b
    assert first.rng.stream("x") is first.rng.stream("x")
    assert draws_a != [first.rng.stream("y").random() for _ in range(5)]
