"""Event queue primitives for the discrete-event kernel.

The queue is a binary heap of ``(time, sequence, handle)`` tuples. The
sequence number makes execution order deterministic for events scheduled at
the same instant: whichever was scheduled first fires first. It is also
unique, so comparing two entries is decided by the time or the sequence and
never reaches the handle, whose callback and arguments need not be
orderable; tuples of a float and an int compare without calling back into
Python. Determinism matters because every experiment in the reproduction
must be exactly repeatable from its seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from repro.sim.errors import SchedulingError


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
