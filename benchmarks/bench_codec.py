"""Perf smoke: the one-pass envelope decoder against the tree path.

Every public decoder reads an envelope in one pass (``soap._scan``),
which builds the payload as it reads and falls back on the tree reader
(``soap._read``, one regex token per tag, and the walk) only for text it
cannot show the tree path accepts.  Both paths run in this process, on the same envelope, taking
turns sample by sample because this host's speed drifts; each reading
is the minimum of ``ROUNDS`` samples.  Two gates:

* the 100-job ``submitJobs`` envelope, the largest the workloads send,
  decodes in at most ``BULK_BUDGET`` x the tree path's time, memos warm;
* a struct of 2,000 keys that never repeat, where no run of tags is the
  same as another on the wire, decodes in at most
  ``DISTINCT_KEYS_BUDGET`` x the tree path's time with every memo
  emptied before each decode: input that does not repeat costs no more
  than the tree path.

Run with ``python -m pytest benchmarks/bench_codec.py -q -s``; the
readings are printed.
"""

import random
import time

import pytest

from repro.condorj2.web import soap
from repro.condorj2.web.soap import decode_envelope, encode_request

#: The thirteen users of every end-to-end workload.
OWNERS = [f"user{index:02d}" for index in range(13)]

#: Each budget is the gate it replaced (0.8 and 1.2 of a tree path that
#: memoised tag heads) times the smallest ratio of that tree path's time
#: to the token loop's in twelve interleaved readings (0.353 and 0.490),
#: rounded down: the absolute bound is no looser.
BULK_BUDGET = 0.28
DISTINCT_KEYS_BUDGET = 0.58
ROUNDS = 15


def _bulk_envelope():
    """A bulk submit as ``submit_monitor_sqlite``'s user sends it."""
    rng = random.Random(7)
    jobs = [{"job_id": 41 + index, "owner": rng.choice(OWNERS),
             "run_seconds": 60.0 * rng.uniform(0.8, 1.2),
             "requirements": None}
            for index in range(100)]
    return encode_request("submitJobs", {"jobs": jobs})


def _distinct_keys_envelope():
    payload = {f"field_{index:04d}_{index * 7919 % 10007:05d}": f"v{index}"
               for index in range(2000)}
    return encode_request("op", payload)


def _empty_memos():
    soap._RUNS.clear()
    soap._COMPILED.clear()


def _tree_decode(envelope):
    """``decode_envelope`` with the one pass declining: the tree path."""
    scan = soap._scan
    soap._scan = lambda envelope: None
    try:
        return decode_envelope(envelope)
    finally:
        soap._scan = scan


def _sample(decode, envelope, cold, repeat):
    """Seconds per call of ``decode`` over ``repeat`` calls."""
    total = 0.0
    for _ in range(repeat):
        if cold:
            _empty_memos()
        start = time.perf_counter()
        decode(envelope)
        total += time.perf_counter() - start
    return total / repeat


def _readings(envelope, cold, repeat):
    """(one pass, tree path) seconds per decode, min of ``ROUNDS``."""
    assert decode_envelope(envelope) == _tree_decode(envelope)
    one_pass, tree = [], []
    turns = [(decode_envelope, one_pass), (_tree_decode, tree)]
    for round_ in range(ROUNDS):
        for decode, samples in turns[::-1] if round_ % 2 else turns:
            samples.append(_sample(decode, envelope, cold, repeat))
    return min(one_pass), min(tree)


@pytest.mark.parametrize("name, envelope, cold, repeat, budget", [
    ("bulk submitJobs, 100 jobs", _bulk_envelope(), False, 20, BULK_BUDGET),
    ("2,000 distinct keys, cold memos", _distinct_keys_envelope(), True, 3,
     DISTINCT_KEYS_BUDGET),
])
def test_one_pass_within_budget_of_the_tree_path(name, envelope, cold,
                                                 repeat, budget):
    one_pass, tree = _readings(envelope, cold, repeat)
    ratio = one_pass / tree
    print(f"\n{name} ({len(envelope) / 1024:.1f} KiB): one pass "
          f"{one_pass * 1e6:.0f} us, tree path {tree * 1e6:.0f} us, "
          f"ratio {ratio:.2f} (budget {budget})")
    assert ratio <= budget
