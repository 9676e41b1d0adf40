"""Calibration kernel: turns this box's wall seconds into reference seconds.

The sandbox's cores are shared and their speed drifts by 10-25 % on a
scale of tenths of a second to minutes; ``process_time`` tracks wall, so
it is speed drift, not descheduling, and neither CPU time nor min-of-k
removes it.  What does: a fixed piece of work of the same kind as the
program's (dict/str churn, ``sqlite3`` point queries, string scanning)
run *between* the chunks of every timed window, so it is exposed to the
same drift.  A measured time is reported as

    measured * CALIB_REF_S / (mean calibration slice time of that window)

This module never imports ``repro``: a change to the program cannot move
the yardstick.
"""

from __future__ import annotations

import sqlite3
import time
from typing import List

#: Wall seconds one :meth:`Calibrator.slice` took on the builder's box
#: (median over the A/A runs recorded in README.md).  A constant: it
#: only fixes the unit, every comparison divides it out.
CALIB_REF_S = 0.0022


class Calibrator:
    """A fixed ~2 ms workload whose wall time measures host speed."""

    _ROWS = 1000

    def __init__(self) -> None:
        self._conn = sqlite3.connect(":memory:")
        self._conn.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        self._conn.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, "v%d" % i) for i in range(self._ROWS)],
        )
        self.samples: List[float] = []

    def slice(self) -> None:
        """Run the kernel once and record how long it took."""
        started = time.perf_counter()
        churn = {}
        for i in range(2000):
            churn["key%d" % (i % 400)] = str(i) + "x"
        select = self._conn.execute
        total = 0
        for k in range(self._ROWS):
            total += len(select("SELECT v FROM t WHERE k = ?", (k,)).fetchone()[0])
        text = "".join("<a>%d</a>" % i for i in range(1000))
        total += text.count("<a>") + len(text.replace("<a>", "[").split("["))
        self.samples.append(time.perf_counter() - started)

    def take(self) -> float:
        """Mean slice time since the last call."""
        samples, self.samples = self.samples, []
        return sum(samples) / len(samples)

    def close(self) -> None:
        self._conn.close()


def reference_factor(mean_slice_s: float) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return CALIB_REF_S / mean_slice_s
