"""Discrete-event simulation substrate for the CondorJ2 reproduction.

Public surface:

* :class:`Simulator` — the event loop and process driver.
* Effects — :class:`Delay`, :class:`Use`, :class:`Wait`, :class:`Spawn`,
  :class:`Join` — yielded by process generators.
* :class:`Signal` — one-shot waitable event.
* :class:`Resource` / :class:`UsageMeter` — FIFO servers with tagged
  busy-time metering.
* :class:`Host` — a machine with cores, speed, memory and disk.
* :class:`Network` / :class:`MessageTrace` — message transport with
  channel accounting.
* :class:`EventLog` and series helpers — experiment instrumentation.
"""

from repro.sim.errors import (
    MemoryExhausted,
    ProcessError,
    ResourceError,
    SchedulingError,
    SimError,
    SimulationLimitExceeded,
)
from repro.sim.events import EventHandle
from repro.sim.kernel import (
    Acquire,
    Delay,
    Effect,
    Join,
    Process,
    Signal,
    Spawn,
    Simulator,
    Use,
    Wait,
)
from repro.sim.cpu import TAG_IO, TAG_SYSTEM, TAG_USER, Host, p3_node, quad_xeon
from repro.sim.monitor import (
    EventLog,
    LoggedEvent,
    in_progress_series,
    per_minute_rate,
    rolling_average,
    steady_state_rate,
)
from repro.sim.network import (
    LatencyModel,
    Message,
    MessageTrace,
    Network,
    NetworkError,
    RpcResult,
    TraceRecord,
)
from repro.sim.resources import Resource, UsageMeter, UtilizationSample
from repro.sim.rng import RngRegistry

__all__ = [
    "Acquire",
    "Delay",
    "Effect",
    "EventHandle",
    "EventLog",
    "Host",
    "Join",
    "LatencyModel",
    "LoggedEvent",
    "MemoryExhausted",
    "Message",
    "MessageTrace",
    "Network",
    "NetworkError",
    "Process",
    "ProcessError",
    "Resource",
    "ResourceError",
    "RngRegistry",
    "RpcResult",
    "SchedulingError",
    "Signal",
    "SimError",
    "SimulationLimitExceeded",
    "Simulator",
    "Spawn",
    "TAG_IO",
    "TAG_SYSTEM",
    "TAG_USER",
    "TraceRecord",
    "UsageMeter",
    "UtilizationSample",
    "Use",
    "Wait",
    "in_progress_series",
    "p3_node",
    "per_minute_rate",
    "quad_xeon",
    "rolling_average",
    "steady_state_rate",
]
