"""tools/replay.py, the request replay that compares two trees' answers."""

import importlib.util
from pathlib import Path

import pytest

from kratzer2d import cli

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


def test_report_prints_the_lines_then_a_summary_on_stderr(replay_tool, capsys):
    requests = [("compute", "--De", "1", "--re", "1", "--measure", "energy"),
                ("compute", "--De", "1e30", "--re", "1", "--measure", "renyi"),
                ("compute", "--De", "1", "--re", "1", "--measure", "energy"),
                ("compute",)]
    replay_tool.report(requests)
    out, err = capsys.readouterr()
    assert out.splitlines() == list(replay_tool.replay(requests))
    assert err == "4 requests: rc=0 2, rc=1 1, rc=2 1\n"


def test_the_flag_reader_reads_every_workload_request_as_the_parser_does(replay_tool, capsys):
    # Every benchmark request takes the reader's path and gets the parser's
    # namespace (compared by repr, where nan equals nan); EXTRA's requests
    # either do the same or are left to the parser.
    parser = cli.build_parser()
    tables = cli._flag_tables(parser)
    workload = [argv for name in replay_tool.WORKLOADS
                for argv in replay_tool.workload_requests(name, 3)
                if argv != replay_tool.TRENDS]
    extra = [argv for argv in replay_tool.EXTRA if argv != replay_tool.TRENDS]
    left = 0
    for argv in workload + extra:
        args = cli._read_flags(tables, list(argv))
        if args is None:
            assert argv in extra, argv
            left += 1
            continue
        assert repr(args) == repr(parser.parse_args(list(argv))), argv
    assert left == 6  # EXTRA's argv that only argparse reads
    capsys.readouterr()
