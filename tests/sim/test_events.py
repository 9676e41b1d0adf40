"""Unit tests for the event queue."""

import pytest

from repro.sim.errors import SchedulingError
from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    fired = []
    queue.push(3.0, fired.append, ("c",))
    queue.push(1.0, fired.append, ("a",))
    queue.push(2.0, fired.append, ("b",))
    while True:
        handle = queue.pop()
        if handle is None:
            break
        handle.callback(*handle.args)
    assert fired == ["a", "b", "c"]


def test_same_time_preserves_insertion_order():
    queue = EventQueue()
    fired = []
    for label in "abcde":
        queue.push(5.0, fired.append, (label,))
    while (handle := queue.pop()) is not None:
        handle.callback(*handle.args)
    assert fired == list("abcde")


def test_len_counts_live_events():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    first.cancel()
    assert len(queue) == 1


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    keep = queue.push(1.0, fired.append, ("keep",))
    drop = queue.push(0.5, fired.append, ("drop",))
    drop.cancel()
    handle = queue.pop()
    assert handle is keep
    assert queue.pop() is None


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    queue.push(4.0, lambda: None)
    assert queue.peek_time() == 1.0
    early.cancel()
    assert queue.peek_time() == 4.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_cancel_after_fire_raises():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
    queue.pop()
    with pytest.raises(SchedulingError):
        handle.cancel()


def test_cancel_twice_is_noop():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_handle_state_transitions():
    queue = EventQueue()
    handle = queue.push(1.0, lambda: None)
    assert handle.pending and not handle.fired and not handle.cancelled
    queue.pop()
    assert handle.fired and not handle.pending


def test_same_time_order_survives_interleaved_cancels():
    queue = EventQueue()
    fired = []
    handles = [queue.push(5.0, fired.append, (label,)) for label in "abcdefgh"]
    handles[0].cancel()
    handles[3].cancel()
    late = queue.push(5.0, fired.append, ("i",))
    handles[7].cancel()
    queue.push(5.0, fired.append, ("j",))
    late.cancel()
    assert len(queue) == 6
    while (handle := queue.pop()) is not None:
        handle.callback(*handle.args)
    assert fired == list("bcefgj")
    assert len(queue) == 0


def test_entries_at_one_timestamp_need_not_be_orderable():
    """The sequence number decides every tie, so neither the callbacks
    nor their arguments are ever compared."""
    queue = EventQueue()
    payloads = [object(), {"a": 1}, None, lambda: None, 3, "x", {1, 2}]
    for payload in payloads:
        queue.push(1.0, (lambda value: value), (payload,))
    popped = []
    while (handle := queue.pop()) is not None:
        popped.append(handle.args[0])
    assert popped == payloads


def test_pop_until_leaves_later_events_queued():
    queue = EventQueue()
    early = queue.push(1.0, lambda: None)
    cancelled = queue.push(2.0, lambda: None)
    late = queue.push(3.0, lambda: None)
    cancelled.cancel()
    assert queue.pop(until=0.5) is None
    assert queue.pop(until=1.0) is early
    assert queue.pop(until=2.5) is None  # the cancelled one is no event
    assert late.pending and queue.peek_time() == 3.0 and len(queue) == 1
    assert queue.pop(until=3.0) is late
    assert queue.pop(until=9.0) is None
