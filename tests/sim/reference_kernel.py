"""The simulation kernel as it stood before effects and heap entries
were slimmed down: the reference the current kernel is held to.

This is the event queue (``sim/events.py``), the process driver
(``sim/kernel.py``) and the FIFO resource (``sim/resources.py``) of that
kernel, unchanged but for living in one module.  It pushes one
``EventHandle`` per event, interprets effects through an ``isinstance``
chain, sends every ``Use`` through the waiter deque and gives every
``Wait`` a state dict and three closures.  ``test_kernel_equivalence.py``
runs random programs on it and on ``repro.sim`` and requires the same
resume trace, clock, event count, metered usage and bare-event order.

Three behaviours differ on purpose, and the properties keep clear of
them: here a negative ``Wait`` timeout raises ``SchedulingError`` out of
``run`` (``repro.sim`` fails the waiting process), ``run(max_events=n)``
raises after exactly ``n`` events even when no further event is due,
and a NaN time, delay or timeout is accepted (``repro.sim`` refuses it
as it refuses a negative one).
``UsageMeter`` and the error types are shared with ``repro.sim``.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.sim.errors import (
    ProcessError,
    ResourceError,
    SchedulingError,
    SimulationLimitExceeded,
)
from repro.sim.resources import UsageMeter
from repro.sim.rng import RngRegistry


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Instances are returned by :meth:`EventQueue.push` (and by the simulator's
    ``schedule`` helpers). Cancelling a handle is O(1): the entry stays in the
    heap but is skipped when popped.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an event that already fired is a programming error and
        raises :class:`SchedulingError`; cancelling twice is a no-op.
        """
        if self._fired:
            raise SchedulingError("cannot cancel an event that already fired")
        self._cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("cancelled" if self._cancelled else "pending")
        return f"<EventHandle t={self.time:.6f} {state} {self.callback!r}>"


class EventQueue:
    """A deterministic priority queue of timestamped callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        """Number of pending (non-cancelled) events."""
        return sum(1 for _, _, handle in self._heap if handle.pending)

    def push(self, time: float, callback: Callable[..., Any], args: tuple = ()) -> EventHandle:
        """Schedule ``callback(*args)`` at simulated ``time``."""
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._counter), handle))
        return handle

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None when empty."""
        entry = self._next_live()
        return None if entry is None else entry[0]

    def pop(self, until: Optional[float] = None) -> Optional[EventHandle]:
        """Remove and return the next live event handle.

        None when the queue is empty or, given ``until``, when the next
        live event is later than that; it then stays queued.
        """
        entry = self._next_live()
        if entry is None or (until is not None and entry[0] > until):
            return None
        heapq.heappop(self._heap)
        handle = entry[2]
        handle._fired = True
        return handle

    def _next_live(self) -> Optional[tuple[float, int, EventHandle]]:
        """The heap's first entry once cancelled ones are dropped."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2]._cancelled:
                return entry
            heapq.heappop(heap)
        return None


class Effect:
    """Base class for everything a process generator may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Delay(Effect):
    """Suspend the process for ``seconds`` of simulated time."""

    seconds: float


@dataclass(frozen=True)
class Use(Effect):
    """Occupy one server of ``resource`` for ``duration`` seconds.

    The process queues FIFO behind earlier requests when all servers are
    busy.  ``tag`` labels the busy time in the resource's usage meter
    (e.g. ``"user"``, ``"system"``, ``"io"``) — the CPU-utilisation figures
    in the paper are reconstructed from these tags.
    """

    resource: Resource
    duration: float
    tag: str = "busy"


@dataclass(frozen=True)
class Acquire(Effect):
    """Take one server of ``resource`` and hold it across further effects.

    The process resumes with the resource once granted; it must call
    ``resource.release()`` when done (typically in a try/finally).  Used
    for pools held across multi-step work: application-server threads,
    database connections.
    """

    resource: Resource
    tag: str = "held"


@dataclass(frozen=True)
class Wait(Effect):
    """Wait for ``signal`` to fire, optionally bounded by ``timeout``.

    The process is resumed with a ``(fired, value)`` tuple: ``(True, v)``
    when the signal fired with value ``v``, ``(False, None)`` when the
    timeout elapsed first.
    """

    signal: Signal
    timeout: Optional[float] = None


@dataclass(frozen=True)
class Spawn(Effect):
    """Start a child process; the parent resumes immediately with it."""

    generator: Generator
    name: Optional[str] = None


@dataclass(frozen=True)
class Join(Effect):
    """Wait until ``process`` terminates; resumes with its return value.

    If the joined process failed, its exception is re-raised inside the
    joining process.
    """

    process: Process


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

    def _subscribe(self, resume: Callable[[Any], None]) -> Callable[[], None]:
        """Register a resume callback; returns an unsubscribe function."""
        self._waiters.append(resume)

        def unsubscribe() -> None:
            if resume in self._waiters:
                self._waiters.remove(resume)

        return unsubscribe


class Process:
    """A running simulated process wrapping a generator of effects."""

    __slots__ = ("sim", "name", "generator", "result", "error", "done", "completion", "_cancelled")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
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
        self._queue = EventQueue()
        self._events_processed = 0

    # ------------------------------------------------------------------
    # raw callback API
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SchedulingError(f"cannot schedule at {time!r}, now is {self.now!r}")
        return self._queue.push(time, callback, args)

    # ------------------------------------------------------------------
    # process API
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator of effects."""
        process = Process(self, generator, name=name)
        # Start on the next kernel dispatch at the current time, so spawning
        # inside a callback never reenters the generator synchronously.
        self.schedule(0.0, self._step, process, None, None)
        return process

    def _step(
        self,
        process: Process,
        to_send: Any,
        to_throw: Optional[BaseException],
    ) -> None:
        """Advance a process generator by one effect."""
        if process.done:
            return
        try:
            if to_throw is not None:
                effect = process.generator.throw(to_throw)
            else:
                effect = process.generator.send(to_send)
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
        self._dispatch(process, effect)

    def _dispatch(self, process: Process, effect: Any) -> None:
        """Interpret one yielded effect for ``process``."""
        if isinstance(effect, Delay):
            if effect.seconds < 0:
                self._step(process, None, SchedulingError(f"negative delay {effect.seconds!r}"))
                return
            self.schedule(effect.seconds, self._step, process, None, None)
        elif isinstance(effect, Use):
            effect.resource._enqueue(process, effect.duration, effect.tag)
        elif isinstance(effect, Acquire):
            effect.resource._enqueue_acquire(process, effect.tag)
        elif isinstance(effect, Wait):
            self._dispatch_wait(process, effect)
        elif isinstance(effect, Spawn):
            child = self.spawn(effect.generator, name=effect.name or "")
            self._step(process, child, None)
        elif isinstance(effect, Join):
            self._dispatch_join(process, effect.process)
        else:
            self._step(
                process, None, ProcessError(f"process yielded non-effect {effect!r}")
            )

    def _dispatch_wait(self, process: Process, effect: Wait) -> None:
        signal = effect.signal
        if signal.fired:
            self._step(process, (True, signal.value), None)
            return
        state = {"resolved": False}
        timeout_handle: Optional[EventHandle] = None

        def on_fire(value: Any) -> None:
            if state["resolved"]:
                return
            state["resolved"] = True
            if timeout_handle is not None and timeout_handle.pending:
                timeout_handle.cancel()
            self._step(process, (True, value), None)

        unsubscribe = signal._subscribe(on_fire)

        if effect.timeout is not None:

            def on_timeout() -> None:
                if state["resolved"]:
                    return
                state["resolved"] = True
                unsubscribe()
                self._step(process, (False, None), None)

            timeout_handle = self.schedule(effect.timeout, on_timeout)

    def _dispatch_join(self, process: Process, child: Process) -> None:
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
        return self._fire_next(None)

    def _fire_next(self, until: Optional[float]) -> bool:
        """Fire the next pending event unless it is later than ``until``."""
        handle = self._queue.pop(until)
        if handle is None:
            return False
        if handle.time < self.now:
            raise SchedulingError("event queue returned an event from the past")
        self.now = handle.time
        self._events_processed += 1
        handle.callback(*handle.args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        When ``until`` is given, all events with timestamp <= ``until`` fire
        and the clock finishes exactly at ``until``.  ``max_events`` guards
        against runaway simulations.
        """
        start_count = self._events_processed
        while True:
            if max_events is not None and self._events_processed - start_count >= max_events:
                raise SimulationLimitExceeded(
                    f"exceeded {max_events} events at simulated time {self.now:.3f}"
                )
            if not self._fire_next(until):
                break
        if until is not None and until > self.now:
            self.now = until

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed


@dataclass
class _Waiter:
    process: Process
    duration: float
    tag: str
    #: When True this is a bare acquisition: the server stays occupied
    #: until an explicit :meth:`Resource.release` call.
    hold: bool = False


class Resource:
    """A FIFO pool of ``capacity`` identical servers with usage metering."""

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        name: str = "",
        meter: Optional[UsageMeter] = None,
    ):
        if capacity <= 0:
            raise ResourceError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.meter = meter
        self._busy = 0
        self._queue: deque[_Waiter] = deque()

    @property
    def busy(self) -> int:
        """Number of currently occupied servers."""
        return self._busy

    @property
    def queued(self) -> int:
        """Number of processes waiting for a server."""
        return len(self._queue)

    def _enqueue(self, process: Process, duration: float, tag: str) -> None:
        """Kernel entry point for the :class:`~repro.sim.kernel.Use` effect."""
        if duration < 0:
            self.sim._step(process, None, ResourceError(f"negative duration {duration!r}"))
            return
        self._queue.append(_Waiter(process, duration, tag))
        self._maybe_start()

    def _enqueue_acquire(self, process: Process, tag: str) -> None:
        """Kernel entry point for the :class:`~repro.sim.kernel.Acquire` effect."""
        self._queue.append(_Waiter(process, 0.0, tag, hold=True))
        self._maybe_start()

    def release(self) -> None:
        """Return a server taken via :class:`~repro.sim.kernel.Acquire`.

        Held acquisitions are not metered (the holder typically performs
        metered work on other resources while holding this one).
        """
        if self._busy <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        self._busy -= 1
        self._maybe_start()

    def _maybe_start(self) -> None:
        while self._busy < self.capacity and self._queue:
            waiter = self._queue.popleft()
            if waiter.process.done:
                continue
            self._busy += 1
            if waiter.hold:
                self.sim.schedule(0.0, self._granted, waiter)
            else:
                start = self.sim.now
                self.sim.schedule(waiter.duration, self._finish, waiter, start)

    def _granted(self, waiter: _Waiter) -> None:
        if waiter.process.done:
            # The acquirer died while queued-then-granted: give it back.
            self._busy -= 1
            self._maybe_start()
            return
        self.sim._step(waiter.process, self, None)

    def _finish(self, waiter: _Waiter, start: float) -> None:
        self._busy -= 1
        if self.meter is not None:
            self.meter.add(start, waiter.duration, waiter.tag)
        self._maybe_start()
        if not waiter.process.done:
            self.sim._step(waiter.process, None, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} busy={self._busy}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )
