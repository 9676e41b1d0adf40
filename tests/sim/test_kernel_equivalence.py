"""The kernel against the kernel it replaced: same programs, same runs.

``reference_kernel.py`` (next to this file) is the event queue, process
driver and resource as they stood before heap entries carried their own
callbacks.  A random program -- processes that delay, use and hold
resources under contention, wait on signals fired at equal times, spawn
and join children that fail, get cancelled, and pass negative durations
-- runs on both, and every observable must agree: the resume trace
``(process, now, sent value or exception type)``, each process's
outcome, the clock, ``events_processed`` and every ``UsageMeter``
bucket.  A second property drives both simulators with the same bare
``schedule`` / ``schedule_at`` calls, cancels, steps and bounded runs.

The reference raises ``SchedulingError`` out of ``run`` on a negative
``Wait`` timeout where ``repro.sim`` fails the waiting process, so the
programs give ``Wait`` no negative timeout; ``test_kernel.py`` covers it.
"""

import importlib.util
import pathlib
import sys

from hypothesis import given, settings, strategies as st

import repro.sim.kernel as kernel
import repro.sim.resources as resources
from repro.sim.errors import SchedulingError

_REFERENCE_PATH = pathlib.Path(__file__).resolve().parent / "reference_kernel.py"


def _load_reference():
    name = "sim_reference_kernel"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _REFERENCE_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


reference = _load_reference()

#: (kernel module, Resource class) for each side.
CURRENT = (kernel, resources.Resource)
REFERENCE = (reference, reference.Resource)

# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
# Times are multiples of 0.5 so that events often fall on the same
# instant and the sequence number decides their order.
durations = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -0.5])
timeouts = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.5]))
# Resource 0 is drawn most, so that processes queue for it.
resource_ids = st.sampled_from([0, 0, 0, 1, 2])
signal_ids = st.integers(min_value=0, max_value=3)
tags = st.sampled_from(["user", "system", "io"])

uses = st.tuples(st.just("use"), resource_ids, durations, tags)
simple_ops = st.one_of(
    st.tuples(st.just("delay"), durations),
    uses,
    st.tuples(st.just("wait"), signal_ids, timeouts),
)
ops = st.one_of(
    simple_ops,
    uses,
    st.tuples(st.just("hold"), resource_ids, st.lists(simple_ops, max_size=3)),
    st.tuples(st.just("fire"), signal_ids),
    st.tuples(st.just("spawn"), st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("join")),
    st.tuples(st.just("fail")),
    st.tuples(st.just("bogus")),
)
children = st.lists(
    st.lists(simple_ops, max_size=4).flatmap(
        lambda body: st.sampled_from([body, body + [("fail",)]])),
    min_size=3, max_size=3)
programs = st.fixed_dictionaries({
    "capacities": st.lists(st.integers(min_value=1, max_value=3),
                           min_size=3, max_size=3),
    "processes": st.lists(st.lists(ops, min_size=2, max_size=8),
                          min_size=3, max_size=6),
    "children": children,
    # (time, signal) fires and (time, process) cancels from outside.
    "fires": st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                signal_ids), max_size=4),
    "cancels": st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                  st.integers(min_value=0, max_value=5)),
                        max_size=2),
    "pause": st.sampled_from([0.0, 1.0, 2.5]),
})


def _run(side, program):
    """Run ``program`` on one kernel; return everything it observed."""
    k, resource_type = side
    sim = k.Simulator(seed=3)
    meters = [resources.UsageMeter(bucket_seconds=1.0) for _ in range(3)]
    pool = [resource_type(sim, capacity, name=f"r{index}", meter=meter)
            for index, (capacity, meter)
            in enumerate(zip(program["capacities"], meters))]
    signals = [k.Signal(f"s{index}") for index in range(4)]
    trace = []

    def describe(value):
        if isinstance(value, (k.Process, resource_type)):
            return value.name
        if isinstance(value, tuple):
            return tuple(describe(item) for item in value)
        return value

    def fire(index, value):
        if not signals[index].fired:
            signals[index].fire(value)

    def effect_of(op):
        kind = op[0]
        if kind == "delay":
            return k.Delay(op[1])
        if kind == "use":
            return k.Use(pool[op[1]], op[2], op[3])
        return k.Wait(signals[op[1]], timeout=op[2])

    def body(label, steps):
        """Run ``steps``, logging every resumption; errors thrown in are
        logged and the next step runs."""
        spawned = []
        for op in steps:
            kind = op[0]
            if kind == "fire":
                fire(op[1], label)
                continue
            if kind == "fail":
                raise ValueError(label)
            if kind == "hold":
                effect = k.Acquire(pool[op[1]])
            elif kind == "spawn":
                name = f"{label}.c{len(spawned)}"
                effect = k.Spawn(body(name, program["children"][op[1]]), name)
            elif kind == "join":
                if not spawned:
                    continue
                effect = k.Join(spawned[-1])
            elif kind == "bogus":
                effect = "not an effect"
            else:
                effect = effect_of(op)
            try:
                value = yield effect
            except Exception as exc:  # noqa: BLE001 - logged and survived
                trace.append((label, sim.now, type(exc).__name__))
                continue
            trace.append((label, sim.now, describe(value)))
            if kind == "spawn":
                spawned.append(value)
            elif kind == "hold":
                try:
                    yield from body(f"{label}.h", op[2])
                finally:
                    value.release()
        return label

    processes = [sim.spawn(body(f"p{index}", steps), name=f"p{index}")
                 for index, steps in enumerate(program["processes"])]
    for time, index in program["fires"]:
        sim.schedule(time, fire, index, f"t{time}")
    for time, index in program["cancels"]:
        if index < len(processes):
            sim.schedule(time, processes[index].cancel)
    sim.run(until=program["pause"])
    paused = (sim.now, sim.events_processed)
    sim.run()
    outcomes = [(p.done, p.cancelled, p.result, type(p.error).__name__)
                for p in processes]
    buckets = [{tag: dict(by_minute) for tag, by_minute in meter._buckets.items()}
               for meter in meters]
    held = [(r.busy, r.queued) for r in pool]
    return trace, outcomes, paused, sim.now, sim.events_processed, buckets, held


@given(programs)
@settings(deadline=None)
def test_kernel_runs_every_program_like_the_reference(program):
    assert _run(CURRENT, program) == _run(REFERENCE, program)


# ----------------------------------------------------------------------
# bare events on their own
# ----------------------------------------------------------------------
event_ops = st.lists(st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from([0.0, 1.0, 1.5, 3.0])),
    st.tuples(st.just("schedule_at"), st.sampled_from([0.0, 1.0, 1.5, 3.0])),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.sampled_from([0.5, 1.0, 2.0, 4.5])),
), max_size=40)


def _drive(k, steps):
    """Apply ``steps`` to a fresh simulator of kernel ``k``; return what
    fired when, each step's outcome and every handle's final state."""
    sim = k.Simulator()
    handles, seen = [], []

    def fire(label):
        seen.append((label, sim.now))

    for step in steps:
        kind = step[0]
        if kind in ("schedule", "schedule_at"):
            try:
                handles.append(getattr(sim, kind)(step[1], fire, len(handles)))
            except SchedulingError:
                seen.append(("refused", kind, step[1], sim.now))
        elif kind == "cancel":
            if step[1] < len(handles) and not handles[step[1]].fired:
                handles[step[1]].cancel()
        elif kind == "step":
            seen.append(("step", sim.step(), sim.now))
        else:
            sim.run(until=step[1])
            seen.append(("run", sim.now))
        seen.append(sim.events_processed)
    sim.run()
    states = [(h.time, h.pending, h.fired, h.cancelled) for h in handles]
    return seen, states, sim.now


@given(event_ops)
def test_bare_events_fire_like_the_reference(steps):
    assert _drive(kernel, steps) == _drive(reference, steps)
