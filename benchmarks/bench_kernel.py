"""Perf smoke: the simulation kernel against the kernel it replaced.

``tests/sim/reference_kernel.py`` keeps the kernel as it stood before
heap entries carried their own callbacks (one ``EventHandle`` per push,
an ``isinstance`` chain per effect, every ``Use`` through the waiter
deque, a dict and three closures per ``Wait``).  Both run the same
program here: processes shaped like the CAS serving an envelope, each
looping over

* ``Acquire`` a thread of a small pool,
* four ``Use`` of CPU and disk (parse, system work, SQL, I/O),
* ``release``, then a ``Wait`` with a timeout on a signal that fires
  for every other process (a reply) and times out for the rest (an
  idle poll), then a ``Delay``.

The two kernels take turns, run by run, because this host's speed
drifts; each reading is the minimum over ``ROUNDS`` runs of wall seconds
per event.  The gate: the kernel in ``repro.sim`` at most ``BUDGET`` x
the reference's microseconds per event.  Both must fire the same number
of events and end at the same simulated time.

Run with ``python -m pytest benchmarks/bench_kernel.py -q -s``; the
readings are printed.
"""

import importlib.util
import pathlib
import sys
import time

import repro.sim.kernel as kernel
import repro.sim.resources as resources

BUDGET = 0.8
ROUNDS = 9
PROCESSES = 50
ITERATIONS = 40

_REFERENCE_PATH = (pathlib.Path(__file__).resolve().parent.parent
                   / "tests" / "sim" / "reference_kernel.py")


def _load_reference():
    name = "sim_reference_kernel"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, _REFERENCE_PATH)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _pool(k, resource_type):
    """Run the CAS-shaped mix on kernel module ``k``: (seconds, events, end)."""
    sim = k.Simulator(seed=7)
    meter = resources.UsageMeter()
    threads = resource_type(sim, capacity=8, name="threads")
    cpu = resource_type(sim, capacity=4, name="cpu", meter=meter)
    disk = resource_type(sim, capacity=1, name="disk", meter=meter)

    def serve(index):
        for turn in range(ITERATIONS):
            yield k.Acquire(threads)
            try:
                yield k.Use(cpu, 0.0004 + 0.00001 * index, "user")
                yield k.Use(cpu, 0.0001, "system")
                yield k.Use(cpu, 0.0008, "user")
                yield k.Use(disk, 0.0002, "io")
            finally:
                threads.release()
            reply = k.Signal("reply")
            if (index + turn) % 2:
                sim.schedule(0.003, reply.fire, turn)
            yield k.Wait(reply, timeout=0.01)
            yield k.Delay(0.001 * (index % 7))

    for index in range(PROCESSES):
        sim.spawn(serve(index), name=f"serve{index}")
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start, sim.events_processed, sim.now


def test_kernel_within_budget_of_the_reference():
    reference = _load_reference()
    kernels = [("repro.sim", kernel, resources.Resource, []),
               ("reference", reference, reference.Resource, [])]
    outcomes = set()
    for round_ in range(ROUNDS):
        for _, k, resource_type, samples in (kernels[::-1] if round_ % 2 else kernels):
            seconds, events, end = _pool(k, resource_type)
            outcomes.add((events, end))
            samples.append(seconds / events)
    assert len(outcomes) == 1, outcomes
    (events, _), = outcomes
    new, old = (min(samples) * 1e6 for *_, samples in kernels)
    ratio = new / old
    print(f"\n{PROCESSES} processes x {ITERATIONS} turns, {events} events: "
          f"repro.sim {new:.2f} us/event, reference {old:.2f} us/event, "
          f"ratio {ratio:.2f} (budget {BUDGET})")
    assert ratio <= BUDGET
