"""Span recorder and the seams it is attached to.

Nothing under ``src/`` knows it is being watched: every span is recorded
by rebinding a name the program already looks up at call time (a module
global, a class attribute) to a wrapper defined here, before the pool is
built, and binding the original back afterwards.

A span is ``name, start, end, parent`` plus the sequence number of the
envelope it served.  Self time of a span is its duration minus the
duration of its direct children; a layer's share is the self time of all
spans whose name is the layer's or starts with ``<layer>.``, over the
wall time of the traced window.  Whatever the window spent outside every
other span — the sim kernel, the network model, the startd coroutines,
``cluster/execution`` — is the self time of the root ``sim`` span.

With ``full=False`` only two seams are bound (``handle_request``
resumptions and ``run_pass``): the timers the end-to-end metrics need.
"""

from __future__ import annotations

import functools
import heapq
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: How many of the slowest envelopes keep their full span tree, and the
#: sampling stride for the rest.
SLOWEST_KEPT = 50
SAMPLE_EVERY = 100


class Envelope:
    """One request envelope: its spans and summed service time."""

    __slots__ = ("seq", "service_s", "spans")

    def __init__(self, seq: int, keep_spans: bool):
        self.seq = seq
        self.service_s = 0.0
        #: ``[name, detail, start, end, parent_index]`` per span, or
        #: None when trees are not kept.
        self.spans: Optional[List[list]] = [] if keep_spans else None

    def tree(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "service_us": self.service_s * 1e6,
            "spans": [
                {"name": name, "detail": detail, "start": start, "end": end,
                 "parent": parent, "seq": self.seq}
                for name, detail, start, end, parent in self.spans or ()
            ],
        }


class Tracer:
    """In-memory span stack with per-name self-time aggregation."""

    def __init__(self, keep_trees: bool):
        self.keep_trees = keep_trees
        self._clock = time.perf_counter
        #: Open spans, innermost last: ``[name, start, child_s, index]``.
        self._stack: List[list] = []
        #: The envelope whose generator is executing right now.
        self.envelope: Optional[Envelope] = None
        self._next_seq = 0
        self.reset()

    def reset(self) -> None:
        """Forget every closed span (in-flight envelopes carry on)."""
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        #: Service time of every envelope closed since the reset.
        self.envelope_service_s: List[float] = []
        #: ``(duration, matches created, ran outside an envelope)``.
        self.passes: List[tuple] = []
        self.op_durations: Dict[str, List[float]] = defaultdict(list)
        self.op_statements: Dict[str, int] = defaultdict(int)
        self.match_insert_s: List[float] = []
        self._slowest: List[tuple] = []
        self.sampled: List[Envelope] = []

    # -- spans -----------------------------------------------------------
    def push(self, name: str, detail: Optional[str] = None) -> None:
        index = -1
        envelope = self.envelope
        if envelope is not None and envelope.spans is not None:
            index = len(envelope.spans)
            parent = self._stack[-1][3] if self._stack else -1
            envelope.spans.append([name, detail, 0.0, 0.0, parent])
        self._stack.append([name, self._clock(), 0.0, index])

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self._clock()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            record = self.envelope.spans[index]
            record[2] = start
            record[3] = end
        return duration

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(seconds for name, seconds in self.self_s.items()
                   if name == layer or name.startswith(prefix))

    # -- envelopes -------------------------------------------------------
    def open_envelope(self) -> Envelope:
        self._next_seq += 1
        return Envelope(self._next_seq, self.keep_trees)

    def close_envelope(self, envelope: Envelope) -> None:
        self.envelope_service_s.append(envelope.service_s)
        if envelope.spans is None:
            return
        if envelope.seq % SAMPLE_EVERY == 0:
            self.sampled.append(envelope)
        entry = (envelope.service_s, envelope.seq, envelope)
        if len(self._slowest) < SLOWEST_KEPT:
            heapq.heappush(self._slowest, entry)
        elif entry > self._slowest[0]:
            heapq.heapreplace(self._slowest, entry)

    def slowest(self) -> List[Envelope]:
        return [entry[2] for entry in sorted(self._slowest, reverse=True)]


# ----------------------------------------------------------------------
# seams
# ----------------------------------------------------------------------
class Seams:
    """Rebound names, remembered so they can be bound back."""

    def __init__(self) -> None:
        self._bound: List[tuple] = []

    def bind(self, owner: Any, attr: str, value: Any) -> None:
        own = vars(owner)
        self._bound.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> int:
        """Bind every original back; returns how many names that was.

        Raises if a name does not hold its original afterwards — a
        leaked wrapper would time the next episode twice.
        """
        for owner, attr, was_own, original in reversed(self._bound):
            if was_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for owner, attr, was_own, original in self._bound:
            if vars(owner).get(attr) is not (original if was_own else None):
                raise RuntimeError(f"seam {owner!r}.{attr} was not restored")
        count, self._bound = len(self._bound), []
        return count


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    push, pop = tracer.push, tracer.pop

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        push(name)
        try:
            return fn(*args, **kwargs)
        finally:
            pop()
    return wrapper


def _handle_request(tracer: Tracer, original: Callable) -> Callable:
    """Time every resumption of one envelope's generator as a ``cas``
    span; the envelope's service time is their sum, so coroutines the
    kernel interleaves between two resumptions are not charged to it."""

    @functools.wraps(original)
    def handle_request(cas, message):
        generator = original(cas, message)
        envelope = tracer.open_envelope()
        resume, value = generator.send, None
        try:
            while True:
                tracer.envelope = envelope
                tracer.push("cas")
                try:
                    effect = resume(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    envelope.service_s += tracer.pop()
                    tracer.envelope = None
                try:
                    resume, value = generator.send, (yield effect)
                except GeneratorExit:
                    raise
                except BaseException as exc:  # the kernel threw into us
                    resume, value = generator.throw, exc
        finally:
            generator.close()
            tracer.close_envelope(envelope)
    return handle_request


def _run_pass(tracer: Tracer, original: Callable) -> Callable:
    @functools.wraps(original)
    def run_pass(service, *args, **kwargs):
        tracer.push("logic.sched")
        try:
            created = original(service, *args, **kwargs)
        except BaseException:
            tracer.pop()
            raise
        tracer.passes.append((tracer.pop(), created, tracer.envelope is None))
        return created
    return run_pass


def _dispatch(tracer: Tracer, original: Callable) -> Callable:
    @functools.wraps(original)
    def dispatch(gateway, operation, *args, **kwargs):
        before = gateway.counts.statements
        tracer.push("api.gateway", operation)
        try:
            return original(gateway, operation, *args, **kwargs)
        finally:
            tracer.op_durations[operation].append(tracer.pop())
            tracer.op_statements[operation] += (
                gateway.counts.statements - before)
    return dispatch


def _execute_raw(tracer: Tracer, original: Callable,
                 match_insert_sql: str) -> Callable:
    @functools.wraps(original)
    def _execute_raw(engine, sql, *args, **kwargs):
        tracer.push("storage.raw.execute")
        try:
            return original(engine, sql, *args, **kwargs)
        finally:
            duration = tracer.pop()
            if sql == match_insert_sql:
                tracer.match_insert_s.append(duration)
    return _execute_raw


def _sized(tracer: Tracer, name: str, counter: str, fn: Callable,
           measure_result: bool) -> Callable:
    """A codec span that also counts the envelope's characters."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop()
        tracer.counters[counter] += len(result if measure_result else args[0])
        return result
    return wrapper


def install(tracer: Tracer, engine_class: type, full: bool) -> Seams:
    """Bind the wrappers.  Must run before the pool is built: handlers
    are captured when ``ContractRegistry.bind`` is called."""
    from repro.condorj2 import cas, startd, system
    from repro.condorj2.api.contracts import ContractRegistry
    from repro.condorj2.api.fields import SchemaDef
    from repro.condorj2.api.gateway import ServiceGateway
    from repro.condorj2.logic.scheduling import (
        MATCH_INSERT_SQL,
        SchedulingService,
    )
    from repro.condorj2.storage import StatementCounts, StorageEngine
    from repro.condorj2.web import transport

    seams = Seams()
    server = cas.CondorJ2ApplicationServer
    seams.bind(server, "handle_request",
               _handle_request(tracer, server.handle_request))
    seams.bind(SchedulingService, "run_pass",
               _run_pass(tracer, SchedulingService.run_pass))
    if not full:
        return seams

    # web.soap: the server's codec names live in `cas`, the clients' in
    # `startd`, `system` and the shared transport helper.
    seams.bind(cas, "decode_envelope", _sized(
        tracer, "web.soap.server.decode", "bytes_in",
        cas.decode_envelope, measure_result=False))
    for encoder in ("encode_response", "encode_batch_response"):
        seams.bind(cas, encoder, _sized(
            tracer, "web.soap.server.encode", "bytes_out",
            getattr(cas, encoder), measure_result=True))
    seams.bind(cas, "envelope_size", _spanned(
        tracer, "web.soap.server.size", cas.envelope_size))
    for module in (startd, system):
        for codec in ("encode_request", "encode_batch_request"):
            seams.bind(module, codec, _spanned(
                tracer, "web.soap.client.encode", getattr(module, codec)))
        for codec in ("decode_response", "decode_batch_response"):
            seams.bind(module, codec, _spanned(
                tracer, "web.soap.client.decode", getattr(module, codec)))
    seams.bind(transport, "envelope_size", _spanned(
        tracer, "web.soap.client.size", transport.envelope_size))

    seams.bind(ServiceGateway, "dispatch",
               _dispatch(tracer, ServiceGateway.dispatch))
    seams.bind(SchemaDef, "validate",
               _spanned(tracer, "api.fields", SchemaDef.validate))

    original_bind = ContractRegistry.bind

    @functools.wraps(original_bind)
    def bind(registry, name, handler):
        original_bind(registry, name, _spanned(tracer, "logic", handler))
    seams.bind(ContractRegistry, "bind", bind)
    # The MATCHINFO probes that were not skipped, counted where they run.
    seams.bind(SchedulingService, "pending_matches_for_machine", _spanned(
        tracer, "logic.matchinfo",
        SchedulingService.pending_matches_for_machine))

    for method in ("snapshot", "delta"):
        seams.bind(StatementCounts, method, _spanned(
            tracer, f"storage.counters.{method}",
            getattr(StatementCounts, method)))
    for method in ("execute", "executemany", "commit", "rollback"):
        seams.bind(StorageEngine, method, _spanned(
            tracer, "storage.engine", getattr(StorageEngine, method)))

    # The raw seam: wrap what the concrete engine class resolves each
    # hook to, on that class only, so a `super()` call inside an
    # override is not a second span.
    seams.bind(engine_class, "_execute_raw", _execute_raw(
        tracer, engine_class._execute_raw, MATCH_INSERT_SQL))
    for hook, name in (
        ("_executemany_raw", "storage.raw.executemany"),
        ("_commit_raw", "storage.raw.commit"),
        ("begin", "storage.raw.begin"),
        ("_compile_plan", "storage.planner.compile"),
    ):
        seams.bind(engine_class, hook,
                   _spanned(tracer, name, getattr(engine_class, hook)))
    if hasattr(engine_class, "checkpoint"):
        seams.bind(engine_class, "checkpoint", _spanned(
            tracer, "storage.wal.checkpoint", engine_class.checkpoint))
    return seams
