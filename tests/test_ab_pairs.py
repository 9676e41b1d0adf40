"""``benchmarks/ab_pairs.py``: the verdict on paired runs, and a run
that ends without its JSON line."""

import importlib.util
import textwrap
from pathlib import Path

import pytest

AB_PAIRS_PATH = Path(__file__).resolve().parents[1] / "benchmarks/ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Parent runs with quartiles 99.625/100/100.375 (IQR 0.75).
PARENT = [99.0, 99.5, 99.5, 100.0, 100.0, 100.0, 100.0, 100.5, 100.5, 101.0]


def test_gain_needs_nine_of_ten_wins_and_more_than_the_parents_iqr(ab_pairs):
    change = [value - 5.0 for value in PARENT]
    assert ab_pairs.verdict(PARENT, change, True, 0.15) == ("gain", 10, 0, 0)
    # The same runs, higher is better: every pair lost by 5 %.
    assert ab_pairs.verdict(PARENT, change, False, 0.15)[0] == "within"
    assert ab_pairs.verdict(PARENT, change, False, 0.04) == (
        "worse", 0, 10, 0)


def test_eight_wins_or_a_gain_inside_the_iqr_is_no_gain(ab_pairs):
    eight = [value - 5.0 for value in PARENT[:8]] + PARENT[8:]
    assert ab_pairs.verdict(PARENT, eight, True, 0.15) == (
        "within", 8, 0, 2)
    small = [value - 0.5 for value in PARENT]
    assert ab_pairs.verdict(PARENT, small, True, 0.15) == (
        "within", 10, 0, 0)


def test_fewer_than_ten_pairs_never_make_a_gain(ab_pairs):
    parent = PARENT[:9]
    change = [value - 5.0 for value in parent]
    assert ab_pairs.verdict(parent, change, True, 0.15) == (
        "within", 9, 0, 0)


def test_a_parent_spread_wider_than_the_bound(ab_pairs):
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]  # IQR 20 % of the median
    overlapping = [85.0, 95.0, 99.0, 105.0, 115.0]
    assert ab_pairs.verdict(parent, overlapping, True, 0.1) == (
        "unresolved", 3, 2, 0)
    disjoint = [value - 50.0 for value in parent]
    assert ab_pairs.verdict(parent, disjoint, True, 0.1) == (
        "better", 5, 0, 0)


@pytest.mark.parametrize("stdout", ["", "episodes 3\\nTraceback"])
def test_a_run_without_its_json_line_is_a_failed_run(ab_pairs, tmp_path,
                                                      stdout):
    run_py = tmp_path / "benchmarks" / "e2e" / "run.py"
    run_py.parent.mkdir(parents=True)
    run_py.write_text(textwrap.dedent(f"""\
        import sys
        print("{stdout}", end="")
        sys.exit("crashed after its header")
    """))
    result = ab_pairs.run_once(str(tmp_path), "idle_poll_sqlite", 7)
    assert result["ok"] is False
    assert "crashed after its header" in result["stderr"]


def test_a_run_that_fails_its_checks_is_a_failed_run(ab_pairs, tmp_path):
    run_py = tmp_path / "benchmarks" / "e2e" / "run.py"
    run_py.parent.mkdir(parents=True)
    run_py.write_text(
        'print("idle_poll_sqlite seed 7 episodes 4")\n'
        'print(\'{"correct": false, "failed": 1, "metrics": {}}\')\n')
    result = ab_pairs.run_once(str(tmp_path), "idle_poll_sqlite", 7)
    assert (result["ok"], result["episodes"]) == (False, 4)
