"""The discrete-event simulation kernel.

The kernel advances a simulated clock by draining a deterministic event
queue.  On top of the raw callback API (:meth:`Simulator.schedule`) it
provides a lightweight *process* abstraction: a process is a Python
generator that yields :class:`Effect` objects — delays, resource usage,
waits on signals — and is resumed by the kernel when each effect completes.

This mirrors the structure of the systems being reproduced: Condor daemons
and the CondorJ2 application server are long-running processes that block on
timers, CPU, disk and messages.

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

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.errors import ProcessError, SchedulingError, SimulationLimitExceeded
from repro.sim.events import EventHandle, EventQueue
from repro.sim.rng import RngRegistry


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

    resource: "Resource"
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

    resource: "Resource"
    tag: str = "held"


@dataclass(frozen=True)
class Wait(Effect):
    """Wait for ``signal`` to fire, optionally bounded by ``timeout``.

    The process is resumed with a ``(fired, value)`` tuple: ``(True, v)``
    when the signal fired with value ``v``, ``(False, None)`` when the
    timeout elapsed first.
    """

    signal: "Signal"
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


def run_to_completion(generators: Iterable[Generator], seed: int = 0) -> Simulator:
    """Convenience: spawn the given generators and run until quiescent."""
    sim = Simulator(seed=seed)
    for generator in generators:
        sim.spawn(generator)
    sim.run()
    return sim
