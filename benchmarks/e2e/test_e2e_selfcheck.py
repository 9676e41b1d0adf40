"""Self-check of the end-to-end benchmark (not in tier-1's testpaths):

    python -m pytest benchmarks/e2e/test_e2e_selfcheck.py -q

Every workload at a tenth of its horizon, seeds 7 and 11, untraced and
traced, each in its own subprocess through the one command.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

HEADER = re.compile(r"^workload (\S+)  seed (\d+)  pid (\d+)  episodes (\d+)  "
                    r"envelopes (\d+)  passes (\d+)  seams restored (\d+)$")


@pytest.fixture(scope="module", params=(7, 11))
def sections(request):
    """One all-workloads run per seed, split into per-process sections
    keyed by ``(workload, trace)``."""
    completed = subprocess.run(
        [sys.executable, RUN, "--seed", str(request.param),
         "--seconds", "0.1", "--scale", "0.1"],
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    found = {}
    for block in re.split(r"(?m)^(?=workload )", completed.stdout):
        if not block.strip():
            continue
        lines = block.splitlines()
        header = HEADER.match(lines[0])
        assert header, lines[0]
        result = json.loads(lines[-1])
        trace = 0 if "setup_s" in result["metrics"] else 1
        assert int(header.group(2)) == request.param
        found[header.group(1), trace] = (header, lines[1:-1], result)
    return found


def test_every_workload_ran_both_ways_in_its_own_process(sections):
    assert set(sections) == {(name, trace) for name in WORKLOADS
                             for trace in (0, 1)}
    pids = [header.group(3) for header, _, _ in sections.values()]
    assert len(set(pids)) == len(pids)
    assert str(os.getpid()) not in pids


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", WORKLOADS)
def test_metrics_checks_and_seams(sections, name, trace):
    header, table, result = sections[name, trace]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = [line.split() for line in table
                   if line.split()[:1] == [metric["name"]]]
        assert len(printed) == 1, metric["name"]
        assert printed[0][2] == metric["unit"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert not [line for line in table if line.startswith("CHECK FAILED")]
    # Two timers untraced, the whole seam set traced; all bound back.
    episodes, restored = int(header.group(4)), int(header.group(7))
    assert episodes >= 2
    if trace:
        assert restored > 2 * episodes
    else:
        assert restored == 2 * episodes


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_self_times_add_up_to_the_traced_wall(sections, name):
    with open(os.path.join(HERE, "out", f"trace_{name}.json")) as handle:
        trace = json.load(handle)
    self_s = sum(entry["self_s"] for entry in trace["aggregates"].values())
    assert self_s == pytest.approx(trace["traced_wall_s"], rel=0.01)
    for envelope in trace["slowest_envelopes"] + trace["sampled_envelopes"]:
        assert envelope["spans"][0]["name"] == "cas"
        for span in envelope["spans"]:
            assert span["seq"] == envelope["seq"]
            assert span["end"] >= span["start"]
            assert span["parent"] < len(envelope["spans"])


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark the command fails and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
