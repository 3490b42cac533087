"""tools/ab.py, the paired per-request timing of two trees."""

import importlib.util
import shutil
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def ab_tool():
    pytest.importorskip("mpmath")  # benchmarks/workloads.py draws through it
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ratios(ab_tool, sources, into):
    trees = ab_tool.load_trees(sources, into)
    requests = ab_tool.replay.workload_requests("closed-forms", 3, count=2)
    return [(change / parent, same)
            for parent, change, same in ab_tool.paired(trees, requests)]


def test_a_tree_against_itself_reads_one(ab_tool, tmp_path):
    results = _ratios(ab_tool, (SRC, SRC), tmp_path)
    assert len(results) == 400
    assert all(same for _, same in results)
    assert abs(statistics.median(ratio for ratio, _ in results) - 1.0) <= 0.05


def test_a_tree_with_a_slower_layer_reads_above_one(ab_tool, tmp_path):
    # Every request solves a state; 1 ms of sleep per solve in the change.
    slow = tmp_path / "slow"
    shutil.copytree(SRC / "kratzer2d", slow / "kratzer2d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    system = slow / "kratzer2d" / "system.py"
    system.write_text(system.read_text() + (
        "\n\nimport time as _time\n_solve_state = solve_state\n\n\n"
        "def solve_state(*args, **kwargs):\n"
        "    _time.sleep(0.001)\n"
        "    return _solve_state(*args, **kwargs)\n"))
    results = _ratios(ab_tool, (SRC, slow), tmp_path / "loaded")
    assert all(same for _, same in results)
    assert statistics.median(ratio for ratio, _ in results) > 1.5


def test_main_prints_one_line_per_workload(ab_tool, capsys):
    assert ab_tool.main([str(SRC), str(SRC), "--seeds", "3", "--cycles", "1",
                         "--workloads", "closed-forms"]) == 0
    out, err = capsys.readouterr()
    name, count, median, q1, q3, total, answers = out.rstrip("\n").split("\t")
    assert (name, count, answers) == ("closed-forms", "requests=200", "all equal")
    assert total.startswith("total=") and float(total[len("total="):]) > 0.0
    assert err == ""
