"""Cancellable events for the discrete-event kernel.

The kernel's queue (``Simulator._heap``) is a binary heap of ``[time,
seq, callback, args]`` lists.  The sequence number makes execution order
deterministic for events scheduled at the same instant: whichever was
scheduled first fires first.  It is also unique, so comparing two
entries is decided by the time or the sequence and never reaches the
callback or its arguments, which need not be orderable; lists led by a
float and an int compare without calling back into Python.  Determinism
matters because every experiment in the reproduction must be exactly
repeatable from its seed.

The kernel pushes its own events bare; ``Simulator.schedule`` and
``schedule_at`` put a callable :class:`EventHandle` in the callback
slot.  Cancelling empties that slot, and the entry is dropped when it
reaches the top of the heap.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.errors import SchedulingError


class EventHandle:
    """A cancellable reference to a scheduled callback.

    Instances are returned by the simulator's ``schedule`` and
    ``schedule_at``.  Cancelling a handle is O(1): the entry stays in the
    heap but is skipped when popped.
    """

    __slots__ = ("time", "callback", "args", "_entry", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        #: The heap entry while the event is pending, else None.
        self._entry: Optional[list] = None
        self._fired = False

    def __call__(self, *args: Any) -> None:
        """Fire: the kernel calls the handle in place of its callback."""
        self._fired = True
        self._entry = None
        self.callback(*args)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._entry is None and not self._fired

    @property
    def fired(self) -> bool:
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return self._entry is not None

    def cancel(self) -> None:
        """Prevent the callback from running.

        Cancelling an event that already fired is a programming error and
        raises :class:`SchedulingError`; cancelling twice is a no-op.
        """
        if self._fired:
            raise SchedulingError("cannot cancel an event that already fired")
        if self._entry is not None:
            self._entry[2] = None
            self._entry = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else ("pending" if self.pending else "cancelled")
        return f"<EventHandle t={self.time:.6f} {state} {self.callback!r}>"
