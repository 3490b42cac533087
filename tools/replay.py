"""Replay the benchmark workloads' requests and print a digest of each answer.

For each workload and each seed, every request of the whole cycles that
a 25 s benchmark run executes goes through ``kratzer2d.cli.main`` in this
process (the paper-tables cycles' ``trends`` requests through
``validation.check_trends``, as benchmarks/run.py runs them).  Then
``check_trends``, ``validate``, ``table --tables 1|2`` in markdown and
csv, and ``table --units converted`` under the series and the matrix
run once, with argv at the edges of the numeric range and of argv
reading.  Each request prints one line: its argv, its exit code, and
the sha256 of its stdout and of its stderr.  After the last request one
summary line goes to stderr: the request count and the count of each
exit code.  The requests come from benchmarks/workloads.py, which is
only imported.

Two trees answer the same way when their stdout diffs empty:

    PYTHONPATH=src python tools/replay.py --seeds 3,4 > change.txt
    PYTHONPATH=/path/to/parent/src python tools/replay.py --seeds 3,4 > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import warnings
from collections import Counter
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "benchmarks"))

from workloads import WORKLOADS, cycles  # noqa: E402

from kratzer2d import cli, validation  # noqa: E402

RUN_SECONDS = 25.0
TRENDS = ("trends",)
EXTRA = (
    TRENDS,
    ("validate",),
    ("table", "--tables", "1"),
    ("table", "--tables", "2"),
    ("table", "--tables", "1", "--format", "csv"),
    ("table", "--tables", "2", "--format", "csv"),
    ("table", "--units", "converted"),
    ("table", "--units", "converted", "--method", "matrix"),
    # extreme scales: beta^2 subnormal, mu at 1e-300, a coupling past the matrix limit
    ("compute", "--De", "1e-160", "--re", "1", "--m", "1", "--measure", "shannon,renyi"),
    ("compute", "--De", "1e-160", "--re", "1", "--m", "1", "--measure", "shannon,renyi",
     "--mode", "mathieu"),
    ("compute", "--De", "1", "--re", "1", "--mu", "1e-300", "--m", "1",
     "--measure", "energy,shannon,renyi"),
    ("compute", "--De", "1", "--re", "1", "--D", "1e40", "--method", "matrix",
     "--measure", "energy"),
    # 4 mu past the double range at Dm = 0: the coupling is 4 (mu Dm) = 0
    ("compute", "--De", "1", "--re", "1", "--mu", "5e307", "--measure", "energy"),
    # nu past 2 sqrt(b): the Fourier window must reach past the mirror k = -nu
    ("compute", "--De", "1", "--re", "1", "--m", "600", "--delta", "0.4", "--D", "25000",
     "--mode", "mathieu", "--measure", "energy"),
    ("compute", "--De", "1", "--re", "1", "--m", "600", "--delta", "0.4", "--D", "25000",
     "--method", "matrix", "--measure", "energy"),
    ("compute", "--De", "1", "--re", "1", "--m", "3000", "--delta", "0.4", "--D", "1e6",
     "--mode", "mathieu", "--measure", "energy"),
    # one lambda, beta halved: the second takes the first's W_q radial sum
    ("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2", "--n", "2",
     "--m", "1", "--mode", "mathieu", "--measure", "wq,tsallis,renyi", "--q", "3"),
    ("compute", "--De", "0.75", "--re", "2", "--D", "0.3", "--delta", "0.2", "--n", "2",
     "--m", "1", "--mode", "mathieu", "--measure", "wq,tsallis,renyi", "--q", "3"),
    # lambda past the double range, and beta under it
    ("compute", "--De", "2.66e281", "--re", "5.7e67", "--mu", "1.94e8", "--n", "20",
     "--m", "1", "--delta", "2.29", "--measure", "energy,fisher"),
    ("compute", "--De", "1e-300", "--re", "1e-150", "--mu", "1e-150", "--m", "1",
     "--measure", "energy"),
    # Mathieu mode at integer 2 (m + delta), which the workloads avoid: the
    # eigensolve's tied pair at nu^2 and its overlap pick
    ("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0", "--n", "1",
     "--m", "2", "--mode", "mathieu", "--measure", "fisher,wq", "--q", "3"),
    ("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.5", "--n", "1",
     "--m", "1", "--mode", "mathieu", "--measure", "fisher,wq", "--q", "3"),
    # beta^2 past the double range where Fisher's I is not
    ("compute", "--De", "1.81e239", "--re", "6.68e-17", "--mu", "9.72e70", "--n", "8",
     "--delta", "0.75", "--measure", "fisher"),
    # argv that only argparse reads: its errors and help text
    ("compute", "--bogus", "1"),
    ("compute", "--De=1", "--re", "1"),
    ("compute", "--De", "1", "--re", "1", "--mea", "energy"),
    ("compute", "--De", "-1", "--re", "1"),
    ("compute", "--De", "1", "--re", "1", "--n", "1.5"),
    ("compute", "-h"),
)


def workload_requests(name: str, seed: int, count: int | None = None) -> list[tuple]:
    """The argv of every request in the first ``count`` cycles of a workload
    (by default as many as a RUN_SECONDS run executes); ``TRENDS`` stands
    for a check_trends request."""
    workload = WORKLOADS[name]
    if count is None:
        count = workload.cycle_count(RUN_SECONDS)
    batches = cycles(workload, seed)
    return [request.argv if request.kind != "trends" else TRENDS
            for _ in range(count) for request in next(batches)]


def _run(argv: tuple, cli=cli, validation=validation) -> tuple[object, str, str]:
    """Exit code (or "raised", with the exception on stderr), stdout, stderr.

    ``cli`` and ``validation`` are the modules of the tree that answers,
    by default the ``kratzer2d`` on the path.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv == TRENDS:
                with warnings.catch_warnings():
                    # as `kratzer2d validate`: the verdict line carries the outcome
                    warnings.simplefilter("ignore")
                    print(validation.check_trends().line())
                rc = 0
            else:
                rc = cli.main(list(argv))
    except SystemExit as exc:  # usage errors exit through argparse
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a raising request is an answer too
        rc = "raised"
        err.write(f"{type(exc).__name__}: {exc}\n")
    return rc, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(requests):
    """One line per request: argv, exit code, sha256 of stdout and stderr."""
    for argv in requests:
        rc, out, err = _run(argv)
        label = "check_trends" if argv == TRENDS else shlex.join(argv)
        yield f"{label}\trc={rc}\tout={_sha(out)}\terr={_sha(err)}"


def report(requests) -> None:
    """Print replay's line for each request on stdout, then one summary
    line on stderr: the request count and the count of each exit code."""
    codes = Counter()
    for line in replay(requests):
        print(line, flush=True)
        codes[line.split("\t")[1]] += 1
    counts = ", ".join(f"{code} {count}" for code, count in sorted(codes.items()))
    print(f"{sum(codes.values())} requests: {counts}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True,
                        help="comma list of workload seeds, e.g. 3,4")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    requests = [argv for name in WORKLOADS for seed in seeds
                for argv in workload_requests(name, seed)]
    report(requests + list(EXTRA))
    return 0


if __name__ == "__main__":
    sys.exit(main())
