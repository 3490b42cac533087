"""tools/replay.py, the request replay that compares two trees' answers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay.py"


@pytest.fixture(scope="module")
def replay_tool():
    pytest.importorskip("mpmath")  # benchmarks/workloads.py draws through it
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_cycle_replays_to_one_stable_line_per_request(replay_tool):
    requests = replay_tool.workload_requests("closed-forms", 3, count=1)
    first = list(replay_tool.replay(requests))
    assert len(first) == len(requests) == 200
    for argv, line in zip(requests, first):
        label, rc, out, err = line.split("\t")
        assert label.split()[0] == argv[0]
        assert rc == "rc=0" and out.startswith("out=") and err.startswith("err=")
    assert list(replay_tool.replay(requests)) == first
