"""Time two trees on the benchmark workloads' requests, paired request by request.

Each tree's kratzer2d package is copied under its own package name
(kratzer2d_parent and kratzer2d_change) into a temporary directory, and
both copies are loaded into this one process; the package imports itself
only relatively, so a renamed copy imports cleanly.  Every request that
tools/replay.py replays (built and run by replay's own functions) goes to
both trees back to back, the tree that goes first alternating from one
request to the next, and each request gives the ratio of the change's
time to the parent's.  One line per workload (``extra`` for replay's
EXTRA requests) then gives the request count, the median and quartiles
of that ratio, the ratio of the summed times (what the benchmark's
evals_per_s reads), and whether every answer (exit code, stdout and
stderr) matched; the argv of each request whose answers differ follows
on stderr.
The exit code is 1 when any answer differs.

    python tools/ab.py /path/to/parent/src src --seeds 3,4

One process sees no import or start-up cost and no peak memory, so
setup_s and peak_rss_mb still come from benchmarks/run.py.  The tool is an
instrument beside the benchmark's gates, not one of them.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
# replay imports kratzer2d for its own runs; this checkout's src serves that
sys.path.append(str(TOOLS.parent / "src"))
sys.path.append(str(TOOLS))

import replay  # noqa: E402

NAMES = ("kratzer2d_parent", "kratzer2d_change")


def load_trees(sources, into: Path) -> list[tuple]:
    """(cli, validation) of each src directory's kratzer2d, imported under NAMES.

    A copy loaded earlier under the same name leaves sys.modules first.
    """
    sys.path.insert(0, str(into))
    trees = []
    for src, name in zip(sources, NAMES):
        shutil.copytree(Path(src) / "kratzer2d", into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for module in [key for key in sys.modules if key.split(".")[0] == name]:
            del sys.modules[module]
        importlib.invalidate_caches()
        trees.append((importlib.import_module(f"{name}.cli"),
                      importlib.import_module(f"{name}.validation")))
    return trees


def paired(trees, requests):
    """(parent's seconds, change's seconds, same answer) per request."""
    for i, argv in enumerate(requests):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        seconds, answers = [0.0, 0.0], [None, None]
        for side in order:
            start = time.perf_counter()
            answers[side] = replay._run(argv, *trees[side])
            seconds[side] = time.perf_counter() - start
        yield seconds[0], seconds[1], answers[0] == answers[1]


def summary(name: str, results) -> str:
    """One line: request count, median and quartiles of the per-request ratio,
    the ratio of the summed times, answers."""
    ratios = [change / parent for parent, change, _ in results]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    total = sum(change for _, change, _ in results) / sum(parent for parent, _, _ in results)
    differ = sum(not same for _, _, same in results)
    answers = "all equal" if not differ else f"{differ} differ"
    return (f"{name}\trequests={len(results)}\tmedian={median:.3f}\t"
            f"q1={q1:.3f}\tq3={q3:.3f}\ttotal={total:.3f}\t{answers}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="src directory of the parent tree")
    parser.add_argument("change", help="src directory of the changed tree")
    parser.add_argument("--seeds", default="1", help="comma list of workload seeds")
    parser.add_argument("--cycles", type=int, default=None,
                        help="cycles per workload and seed (default: a 25 s run's)")
    parser.add_argument("--workloads", default=",".join([*replay.WORKLOADS, "extra"]),
                        help="comma list of workloads; 'extra' is replay's EXTRA")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    differ = False
    with tempfile.TemporaryDirectory() as into:
        trees = load_trees((args.parent, args.change), Path(into))
        for name in args.workloads.split(","):
            if name == "extra":
                requests = list(replay.EXTRA)
            else:
                requests = [request for seed in seeds for request in
                            replay.workload_requests(name, seed, args.cycles)]
            results = list(paired(trees, requests))
            print(summary(name, results), flush=True)
            for request, (_, _, same) in zip(requests, results):
                if not same:
                    differ = True
                    print(f"{name}: answers differ: {request}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
