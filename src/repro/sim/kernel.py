"""The discrete-event simulation kernel.

The kernel advances a simulated clock by draining a deterministic event
queue.  On top of the raw callback API (:meth:`Simulator.schedule`) it
provides a lightweight *process* abstraction: a process is a Python
generator that yields :class:`Effect` objects — delays, resource usage,
waits on signals — and is resumed by the kernel when each effect completes.

This mirrors the structure of the systems being reproduced: Condor daemons
and the CondorJ2 application server are long-running processes that block on
timers, CPU, disk and messages.

Each event costs what it needs (DESIGN §1.1): :meth:`Simulator.run` is one
loop over bare heap entries, only :meth:`Simulator.schedule` makes an
:class:`EventHandle`, and an effect is dispatched by its exact class (a
subclass is refused).  Effects are slotted dataclasses; treat them as
immutable.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc():
...     yield Delay(5.0)
...     log.append(sim.now)
>>> _ = sim.spawn(proc())
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import ProcessError, SchedulingError, SimulationLimitExceeded
from repro.sim.events import EventHandle
from repro.sim.rng import RngRegistry


class Effect:
    """Base class for everything a process generator may yield."""

    __slots__ = ()


@dataclass(slots=True)
class Delay(Effect):
    """Suspend the process for ``seconds`` of simulated time."""

    seconds: float


@dataclass(slots=True)
class Use(Effect):
    """Occupy one server of ``resource`` for ``duration`` seconds.

    The process queues FIFO behind earlier requests when all servers are
    busy.  ``tag`` labels the busy time in the resource's usage meter
    (e.g. ``"user"``, ``"system"``, ``"io"``) — the CPU-utilisation figures
    in the paper are reconstructed from these tags.
    """

    resource: "Resource"
    duration: float
    tag: str = "busy"


@dataclass(slots=True)
class Acquire(Effect):
    """Take one server of ``resource`` and hold it across further effects.

    The process resumes with the resource once granted; it must call
    ``resource.release()`` when done (typically in a try/finally).  Used
    for pools held across multi-step work: application-server threads,
    database connections.
    """

    resource: "Resource"
    tag: str = "held"


@dataclass(slots=True)
class Wait(Effect):
    """Wait for ``signal`` to fire, optionally bounded by ``timeout``.

    The process is resumed with a ``(fired, value)`` tuple: ``(True, v)``
    when the signal fired with value ``v``, ``(False, None)`` when the
    timeout elapsed first.  A negative or NaN timeout on a signal that
    has not fired throws :class:`SchedulingError` into the process.
    """

    signal: "Signal"
    timeout: Optional[float] = None


@dataclass(slots=True)
class Spawn(Effect):
    """Start a child process; the parent resumes immediately with it."""

    generator: Generator
    name: Optional[str] = None


@dataclass(slots=True)
class Join(Effect):
    """Wait until ``process`` terminates; resumes with its return value.

    If the joined process failed, its exception is re-raised inside the
    joining process.
    """

    process: "Process"


class Signal:
    """A one-shot event that processes can wait on.

    Once fired, the value is latched: any later :class:`Wait` resumes
    immediately.  Firing twice is a programming error.
    """

    __slots__ = ("_fired", "_value", "_waiters", "name")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        """Whether :meth:`fire` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The latched value (None until fired)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the signal, resuming every current and future waiter."""
        if self._fired:
            raise ProcessError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)

    def _subscribe(self, resume: Callable[[Any], None]) -> None:
        """Register a callback to run with the value when the signal fires."""
        self._waiters.append(resume)


class _Waiting:
    """A process blocked on a :class:`Wait`.

    The signal calls it when it fires, and its timeout entry, if any,
    calls :meth:`expire`; whichever comes first cancels the other, so the
    process resumes once.
    """

    __slots__ = ("process", "signal", "timeout_entry")

    def __init__(self, process: "Process", signal: Signal):
        self.process = process
        self.signal = signal
        self.timeout_entry: Optional[list] = None

    def __call__(self, value: Any) -> None:
        entry = self.timeout_entry
        if entry is not None:
            entry[2] = None
            self.timeout_entry = None
        self.process.sim._step(self.process, (True, value), None)

    def expire(self) -> None:
        self.timeout_entry = None
        self.signal._waiters.remove(self)
        self.process.sim._step(self.process, (False, None), None)


class Process:
    """A running simulated process wrapping a generator of effects."""

    __slots__ = ("sim", "name", "generator", "result", "error", "done", "completion", "_cancelled")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.done = False
        self._cancelled = False
        self.completion = Signal(name=f"{self.name}.completion")

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` stopped this process before completion."""
        return self._cancelled

    def cancel(self) -> None:
        """Stop the process.  Pending effects are abandoned.

        Cancelling a finished process is a no-op so that race conditions
        between natural termination and supervision logic stay benign.
        """
        if self.done:
            return
        self._cancelled = True
        self.done = True
        self.generator.close()
        self.completion.fire(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} {state}>"


class Simulator:
    """Discrete-event simulator: clock, event queue and process driver."""

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = RngRegistry(seed)
        #: The event queue: a heap of ``[time, seq, callback, args]``
        #: entries (:mod:`repro.sim.events`).
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._events_processed = 0

    # ------------------------------------------------------------------
    # raw callback API
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if not delay >= 0:  # NaN too: it would fire between any two times
            raise SchedulingError(f"negative or NaN delay {delay!r}")
        return self._push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise SchedulingError(f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._push(time, callback, args)

    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> EventHandle:
        """Queue a cancellable event: its handle stands in the callback slot."""
        handle = EventHandle(time, callback, args)
        entry = [time, next(self._seq), handle, args]
        handle._entry = entry
        heappush(self._heap, entry)
        return handle

    def _after(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Kernel-internal :meth:`schedule`: no handle, ``delay`` >= 0."""
        heappush(self._heap, [self.now + delay, next(self._seq), callback, args])

    # ------------------------------------------------------------------
    # process API
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator of effects."""
        process = Process(self, generator, name=name)
        # Start on the next kernel dispatch at the current time, so spawning
        # inside a callback never reenters the generator synchronously.
        self._after(0.0, self._step, process, None, None)
        return process

    def _step(self, process: Process, to_send: Any, to_throw: Optional[BaseException]) -> None:
        """Advance a process generator by one effect and start that effect."""
        if process.done:
            return
        try:
            if to_throw is None:
                effect = process.generator.send(to_send)
            else:
                effect = process.generator.throw(to_throw)
        except StopIteration as stop:
            process.done = True
            process.result = stop.value
            process.completion.fire(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - simulated failure path
            process.done = True
            process.error = exc
            process.completion.fire(None)
            return
        kind = effect.__class__
        if kind is Use:
            effect.resource._use(process, effect.duration, effect.tag)
        elif kind is Delay:
            seconds = effect.seconds
            if not seconds >= 0:
                self._step(process, None, SchedulingError(f"negative or NaN delay {seconds!r}"))
                return
            self._after(seconds, self._step, process, None, None)
        elif kind is Wait:
            self._wait(process, effect.signal, effect.timeout)
        elif kind is Acquire:
            effect.resource._acquire(process)
        elif kind is Spawn:
            self._step(process, self.spawn(effect.generator, name=effect.name or ""), None)
        elif kind is Join:
            self._join(process, effect.process)
        else:
            self._step(
                process, None, ProcessError(f"process yielded non-effect {effect!r}")
            )

    def _wait(self, process: Process, signal: Signal, timeout: Optional[float]) -> None:
        if signal._fired:
            self._step(process, (True, signal._value), None)
            return
        if timeout is not None and not timeout >= 0:
            self._step(process, None, SchedulingError(f"negative or NaN timeout {timeout!r}"))
            return
        waiting = _Waiting(process, signal)
        signal._waiters.append(waiting)
        if timeout is not None:
            entry = [self.now + timeout, next(self._seq), waiting.expire, ()]
            waiting.timeout_entry = entry
            heappush(self._heap, entry)

    def _join(self, process: Process, child: Process) -> None:
        def resume(_value: Any) -> None:
            if child.error is not None:
                self._step(process, None, child.error)
            else:
                self._step(process, child.result, None)

        if child.completion.fired:
            resume(None)
        else:
            child.completion._subscribe(resume)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next pending event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _, callback, args = heappop(heap)
            if callback is not None:
                self.now = time
                self._events_processed += 1
                callback(*args)
                return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        When ``until`` is given, all events with timestamp <= ``until`` fire
        and the clock finishes exactly at ``until``.  ``max_events`` guards
        against runaway simulations: the run raises
        :class:`SimulationLimitExceeded` when one more event is due after
        that many have fired.
        """
        heap = self._heap
        horizon = math.inf if until is None else until
        # Counts down to zero; without a limit it starts below zero and
        # never gets there.
        budget = -1 if max_events is None else max_events
        while heap:
            entry = heappop(heap)
            time, _, callback, args = entry
            if callback is None:  # cancelled
                continue
            if time > horizon or not budget:
                heappush(heap, entry)
                if time > horizon:
                    break
                raise SimulationLimitExceeded(
                    f"exceeded {max_events} events at simulated time {self.now:.3f}"
                )
            budget -= 1
            self.now = time
            self._events_processed += 1
            callback(*args)
        if until is not None and until > self.now:
            self.now = until

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

