"""FIFO multi-server resources and tagged usage metering.

A :class:`Resource` models a pool of identical servers (CPU cores, disk
arms, database connections, schedd threads).  Processes occupy one server
for a fixed duration via the :class:`~repro.sim.kernel.Use` effect; when all
servers are busy they queue first-come-first-served.

Every completed occupancy is recorded in a :class:`UsageMeter` bucketed by
simulated minute (configurable) and by *tag* — the paper's CPU plots
(Figures 9, 10 and 14) distinguish user, system and io-wait cycles, which we
reproduce by tagging each occupancy accordingly.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.errors import ResourceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Process, Simulator


@dataclass(frozen=True)
class UtilizationSample:
    """Utilisation of one metering bucket, as fractions of capacity.

    ``fractions`` maps tag -> busy fraction; ``idle`` is the remainder.
    ``minute`` is the bucket index (bucket width defaults to 60 s, hence the
    name).
    """

    minute: int
    fractions: Dict[str, float]
    idle: float

    def fraction(self, tag: str) -> float:
        """Busy fraction for ``tag`` (0.0 when the tag never occurred)."""
        return self.fractions.get(tag, 0.0)


class UsageMeter:
    """Accumulates tagged busy-time into fixed-width time buckets."""

    def __init__(self, bucket_seconds: float = 60.0):
        if bucket_seconds <= 0:
            raise ResourceError("bucket_seconds must be positive")
        self.bucket_seconds = bucket_seconds
        self._buckets: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self._last_time = 0.0

    def add(self, start: float, duration: float, tag: str) -> None:
        """Record an occupancy of ``duration`` seconds beginning at ``start``.

        Occupancies spanning bucket boundaries are split proportionally.
        """
        if duration < 0:
            raise ResourceError(f"negative duration {duration!r}")
        if duration == 0:
            return
        end = start + duration
        self._last_time = max(self._last_time, end)
        bucket_tags = self._buckets[tag]
        index = int(start // self.bucket_seconds)
        cursor = start
        while cursor < end:
            bucket_end = (index + 1) * self.bucket_seconds
            slice_end = min(end, bucket_end)
            bucket_tags[index] += slice_end - cursor
            cursor = slice_end
            index += 1

    def busy_seconds(self, tag: str, minute: int) -> float:
        """Total busy seconds recorded for ``tag`` in bucket ``minute``."""
        return self._buckets.get(tag, {}).get(minute, 0.0)

    def total_seconds(self, tag: str) -> float:
        """Total busy seconds recorded for ``tag`` across all buckets."""
        return sum(self._buckets.get(tag, {}).values())

    def tags(self) -> List[str]:
        """All tags ever recorded, sorted for stable output."""
        return sorted(self._buckets)

    def utilization(
        self,
        capacity: float,
        until: Optional[float] = None,
        tags: Optional[List[str]] = None,
    ) -> List[UtilizationSample]:
        """Per-bucket utilisation fractions against ``capacity`` servers.

        Returns one sample per bucket from 0 through the last bucket touched
        (or through ``until`` seconds when given), including all-idle
        buckets, so plots over the series have a complete time axis.
        """
        if capacity <= 0:
            raise ResourceError("capacity must be positive")
        horizon = until if until is not None else self._last_time
        last_bucket = max(0, int((horizon - 1e-9) // self.bucket_seconds)) if horizon > 0 else -1
        selected = tags if tags is not None else self.tags()
        samples: List[UtilizationSample] = []
        denom = capacity * self.bucket_seconds
        for minute in range(last_bucket + 1):
            fractions = {
                tag: self.busy_seconds(tag, minute) / denom for tag in selected
            }
            idle = max(0.0, 1.0 - sum(fractions.values()))
            samples.append(UtilizationSample(minute=minute, fractions=fractions, idle=idle))
        return samples


class Resource:
    """A FIFO pool of ``capacity`` identical servers with usage metering.

    A request that finds a server free takes it at once: a server is freed
    only when nobody is queued or the queue's head starts at once.  The
    queue holds ``(process, duration, tag)``, ``duration`` None to acquire.
    """

    def __init__(
        self,
        sim: "Simulator",
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
        self._queue: deque[tuple] = deque()

    @property
    def busy(self) -> int:
        """Number of currently occupied servers."""
        return self._busy

    @property
    def queued(self) -> int:
        """Number of processes waiting for a server."""
        return len(self._queue)

    def _use(self, process: "Process", duration: float, tag: str) -> None:
        """Kernel entry point for the :class:`~repro.sim.kernel.Use` effect."""
        if not duration >= 0:  # NaN too: its finish would corrupt the clock
            self.sim._step(process, None, ResourceError(f"negative or NaN duration {duration!r}"))
        elif self._busy < self.capacity:
            self._busy += 1
            sim = self.sim
            sim._after(duration, self._finish, process, duration, tag, sim.now)
        else:
            self._queue.append((process, duration, tag))

    def _acquire(self, process: "Process") -> None:
        """Kernel entry point for the :class:`~repro.sim.kernel.Acquire` effect."""
        if self._busy < self.capacity:
            self._busy += 1
            self.sim._after(0.0, self._granted, process)
        else:
            self._queue.append((process, None, None))

    def release(self) -> None:
        """Return a server taken via :class:`~repro.sim.kernel.Acquire`.

        Held acquisitions are not metered (the holder typically performs
        metered work on other resources while holding this one).
        """
        if self._busy <= 0:
            raise ResourceError(f"release of idle resource {self.name!r}")
        self._busy -= 1
        self._start_queued()

    def _start_queued(self) -> None:
        """Hand free servers to the queue's head, skipping finished processes."""
        queue = self._queue
        sim = self.sim
        while self._busy < self.capacity and queue:
            process, duration, tag = queue.popleft()
            if process.done:
                continue
            self._busy += 1
            if duration is None:
                sim._after(0.0, self._granted, process)
            else:
                sim._after(duration, self._finish, process, duration, tag, sim.now)

    def _granted(self, process: "Process") -> None:
        if process.done:
            # The acquirer died while queued-then-granted: give it back.
            self._busy -= 1
            self._start_queued()
            return
        self.sim._step(process, self, None)

    def _finish(self, process: "Process", duration: float, tag: str, start: float) -> None:
        self._busy -= 1
        if self.meter is not None:
            self.meter.add(start, duration, tag)
        if self._queue:
            self._start_queued()
        self.sim._step(process, None, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} busy={self._busy}/{self.capacity} "
            f"queued={len(self._queue)}>"
        )
