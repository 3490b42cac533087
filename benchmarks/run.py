"""kratzer2d benchmark: one closed-loop client driving the package in-process.

Usage (from the repository root):

    python3 benchmarks/run.py --workload closed-forms --seed 1 --seconds 25 --trace 0

Requests go through the public entry points, ``kratzer2d.cli.main(argv)``
and ``kratzer2d.validation.check_trends()``, one at a time, with BLAS
thread pools pinned to one thread.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs a fixed request list
untraced, traced and untraced again, and reports the per-layer metrics and
the tracing overhead.  Request times are the process's CPU time (see
``execute``), and the process moves to the least disturbed CPU between
requests (see ``CorePicker``).  Both check a seeded sample of outputs against an mpmath
reference.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record (environment,
failure classes, sample counts) is written under .bench_out/.
"""

import os

# Pinned before numpy is imported anywhere in this process or its children.
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from check import ParseError, compare, parse  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload, cycles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
FAILURE_TYPES = ("AccuracyError", "TruncationError", "SeriesSingularError")

# Canned requests run under tracing before the traced pass; each named
# function must be reached, so a binding the tracer missed fails loudly.
CANNED = (
    (("compute", "--De", "1", "--re", "1", "--D", "0.1", "--delta", "0.2", "--n", "2",
      "--m", "1", "--measure", "fisher,shannon,tsallis,wq,energy", "--q", "2"),
     ("system.solve_state", "specfun.mathieu_char_series", "measures.fisher_closed",
      "measures.shannon_closed", "oracle.shannon_numeric", "measures.wq_closed",
      "specfun.log_gamma0", "oracle.angular_integrals_numeric", "system.angular_profile")),
    (("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2", "--n", "1",
      "--m", "1", "--mode", "mathieu", "--method", "matrix", "--measure", "fisher,wq"),
     ("specfun.mathieu_even_solution", "specfun.mathieu_char_matrix",
      "oracle.fisher_numeric", "oracle.wq_numeric")),
    (("sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "3", "--De", "1",
      "--measure", "renyi"), ("measures.renyi",)),
    (("table", "--tables", "2"), ("measures.tsallis",)),
)


@dataclass
class Outcome:
    request: Request
    seconds: float  # CPU time of this process during the request
    wall: float     # wall-clock time of the request
    failure: str | None  # None on success, else the failure class
    out: str


def _classify(stderr: str, exc_name: str | None) -> str:
    """Failure class of a request; the CLI reports errors on stderr."""
    if exc_name is not None:
        return exc_name if exc_name in FAILURE_TYPES else "other"
    if "hint: retry with --method matrix" in stderr:
        return "SeriesSingularError"
    first = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if re.search(r"\(achieved \S+\)$", first):
        return "AccuracyError"  # AccuracyError appends the achieved error
    if "truncation" in first:
        return "TruncationError"
    return "other"


def execute(cli, validation, request: Request) -> Outcome:
    """Run one request; time it on both the CPU and the wall clock.

    A request is single-threaded computation with no I/O (output goes to a
    buffer), so on a dedicated core its CPU time equals its wall time.  On
    a shared machine the wall clock also counts time the core spends on
    other processes or is stolen by the hypervisor, which the kernel leaves
    out of CPU time.  That time lands on random requests and moves the
    percentiles, so the metrics use the CPU clock; the wall clock is kept
    in the record.
    """
    out, err = io.StringIO(), io.StringIO()
    exc_name = None
    start, wall_start = time.process_time(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if request.kind == "trends":
                with warnings.catch_warnings():
                    # as `kratzer2d validate`: the verdict line carries the outcome
                    warnings.simplefilter("ignore")
                    print(validation.check_trends().line())
                rc = 0
            else:
                rc = cli.main(list(request.argv))
    except SystemExit as exc:  # usage errors exit through argparse
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising request is a failed request
        rc, exc_name = 1, type(exc).__name__
    seconds, wall = time.process_time() - start, time.perf_counter() - wall_start
    failure = None if rc == 0 and exc_name is None else _classify(err.getvalue(), exc_name)
    return Outcome(request, seconds, wall, failure, out.getvalue())


class Tally:
    """Running totals of a request stream, in memory that does not grow with
    the stream except for one float per request: latencies, failure
    classes, evals, and a seeded reservoir sample of parsed outputs."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.latencies: list[float] = []
        self.walls: list[float] = []
        self.failures: Counter = Counter()
        self.evals = 0
        self.problems: list[str] = []
        self._sizes = workload.samples
        self._rng = random.Random(f"check:{workload.name}:{seed}")
        self._seen: Counter = Counter()
        self._sample: dict = defaultdict(list)

    def add(self, outcome: Outcome) -> None:
        self.latencies.append(outcome.seconds)
        self.walls.append(outcome.wall)
        if outcome.failure is not None:
            self.failures[outcome.failure] += 1
            return
        self.evals += outcome.request.evals
        request = outcome.request
        try:
            parsed = parse(request, outcome.out)
        except (ParseError, ValueError, IndexError) as exc:
            self.problems.append(f"unparsed {request.argv}: {exc}")
            return
        size, sample = self._sizes.get(request.kind, 0), self._sample[request.kind]
        self._seen[request.kind] += 1
        if len(sample) < size:
            sample.append((request, parsed))
        else:
            slot = self._rng.randrange(self._seen[request.kind])
            if slot < size:
                sample[slot] = (request, parsed)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check(self) -> tuple[int, int]:
        """(checked, wrong): unparsed outputs plus the sample against the reference."""
        checked = wrong = len(self.problems)
        for sample in self._sample.values():
            for request, parsed in sample:
                bad = compare(request, parsed, self._rng)
                checked += 1
                wrong += bool(bad)
                self.problems += bad
        return checked, wrong


def _probe() -> float:
    """CPU time of a fixed pure-Python loop of about a millisecond."""
    start = time.process_time()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.process_time() - start


class CorePicker:
    """Moves the process to whichever allowed CPU runs a probe fastest.

    On a shared virtual machine a vCPU runs up to 1.5 times slower, for
    seconds at a time, when the host runs other work beside it, and the
    two vCPUs of the reference machine did so independently: over 90 s a
    fixed loop ran up to 1.44 times slower on one than on the other.  The
    guest scheduler cannot see this.  Picking the faster vCPU between
    requests took the quartile spread of evals_per_s over six seeds from
    0.24 to 0.10 (paper-tables) and from 0.16 to 0.08 (mathieu-oracle) in
    interleaved runs with and without it.  A pick costs about 3 ms of
    probing per allowed CPU.
    """

    INTERVAL_S = 0.5

    def __init__(self) -> None:
        movable = hasattr(os, "sched_setaffinity")
        self.cpus = sorted(os.sched_getaffinity(0)) if movable else []
        self.last = -math.inf

    def pick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if len(self.cpus) < 2 or (not force and now - self.last < self.INTERVAL_S):
            return
        self.last = now
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe() for _ in range(3))
        os.sched_setaffinity(0, {min(speed, key=speed.get)})


PICKER = CorePicker()


def run_requests(cli, validation, requests, tally: Tally,
                 tracer: Tracer | None = None) -> float:
    """Run requests in order; returns their summed latency."""
    busy = 0.0
    for index, request in enumerate(requests):
        PICKER.pick()
        if tracer is not None:
            tracer.request_id = index
        outcome = execute(cli, validation, request)
        busy += outcome.seconds
        tally.add(outcome)
    return busy


def timed_loop(cli, validation, workload: Workload, seed: int, seconds: float):
    """The run's whole cycles (workload.cycle_count(seconds) of them).

    The count depends on `seconds` only, never on how fast the cycles ran,
    so a seed always yields the same requests and the same failures.
    Returns the tally and each cycle's request time."""
    tally, batches = Tally(workload, seed), cycles(workload, seed)
    per_cycle = [run_requests(cli, validation, next(batches), tally)
                 for _ in range(workload.cycle_count(seconds))]
    return tally, per_cycle


def setup_times(workload: Workload) -> list[float]:
    """Fresh-interpreter set-up times: import the CLI, answer the warm-up request."""
    times = []
    for _ in range(SETUP_REPEATS):
        PICKER.pick(force=True)  # the probe process inherits the CPU
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *workload.warmup],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        if record["rc"] != 0:
            raise RuntimeError(f"warm-up request exited {record['rc']}")
        times.append(record["setup_s"])
    return times


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "pinned_threads": PINNED_THREADS, "seed": seed,
    }


def end_to_end(cli, validation, workload: Workload, args) -> tuple[dict, dict]:
    setups = setup_times(workload)
    # Lazy set-up in this process finishes before timing starts.
    execute(cli, validation, Request("compute", workload.warmup, 1))
    tally, per_cycle = timed_loop(cli, validation, workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked, wrong = tally.check()
    attempted, failed = len(tally.latencies), tally.failed
    latencies = tally.latencies
    wall_p = statistics.quantiles(tally.walls, n=10, method="inclusive")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "evals_per_s": (tally.evals / sum(per_cycle), "1/s"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "request_p90_ms": (1e3 * statistics.quantiles(
            latencies, n=10, method="inclusive")[8], "ms"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "correct_ratio": (1.0 - wrong / max(checked, 1), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "attempted": attempted, "failed": failed, "correct": wrong == 0,
        "fail_ratio": failed / attempted,
        "failures_by_type": {t: tally.failures[t] for t in FAILURE_TYPES + ("other",)},
        "wrong_ratio": wrong / max(checked, 1), "checked": checked, "wrong": wrong,
        "problems": tally.problems, "latency_samples": attempted,
        "cycles": len(per_cycle), "cycle_cpu_s": per_cycle,
        "request_cpu_s": sum(per_cycle), "request_wall_s": sum(tally.walls),
        "wall_request_p50_ms": 1e3 * statistics.median(tally.walls),
        "wall_request_p90_ms": 1e3 * wall_p[8], "setup_samples_s": setups,
    }
    return metrics, record


def traced(cli, validation, workload: Workload, args) -> tuple[dict, dict]:
    batches = cycles(workload, args.seed)
    requests = [r for _ in range(workload.trace_cycles) for r in next(batches)]
    profile_cache = sys.modules["kratzer2d.system"].angular_profile
    execute(cli, validation, Request("compute", workload.warmup, 1))

    def untraced_pass() -> float:
        profile_cache.cache_clear()
        start = time.process_time()
        run_requests(cli, validation, requests, Tally(workload, args.seed))
        return time.process_time() - start

    untraced_s = untraced_pass()
    tracer, tally = Tracer(), Tally(workload, args.seed)
    with tracer.installed():
        for argv, names in CANNED:
            tracer.reset()
            outcome = execute(cli, validation, Request("compute", argv, 1))
            calls = tracer.call_counts()
            missed = [n for n in ("cli.main",) + names if calls[n + ".calls"] < 1]
            if outcome.failure is not None or missed:
                raise RuntimeError(f"canned request {argv} reached no {missed} "
                                   f"(failure: {outcome.failure})")
        tracer.reset()
        profile_cache.cache_clear()
        start = time.process_time()
        run_requests(cli, validation, requests, tally, tracer)
        traced_s = time.process_time() - start
        layers = tracer.layer_metrics()
    # untraced passes before and after, so warm-up favours neither side
    untraced_s = 0.5 * (untraced_s + untraced_pass())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")

    checked, wrong = tally.check()
    metrics = {**layers, "trace.overhead_ratio": (traced_s / untraced_s, "ratio")}
    record = {
        "attempted": len(tally.latencies), "failed": tally.failed, "correct": wrong == 0,
        "checked": checked, "wrong": wrong, "problems": tally.problems,
        "untraced_s": untraced_s, "traced_s": traced_s, "spans": len(tracer.spans),
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kratzer2d" / "__init__.py").is_file():
        print(f"error: no kratzer2d sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from kratzer2d import cli, validation

    if Path(cli.__file__).resolve().parent != SRC / "kratzer2d":
        print(f"error: imported kratzer2d from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    metrics, record = run(cli, validation, workload, args)
    record.update(workload=workload.name, trace=args.trace, seconds=args.seconds,
                  environment=environment(args.seed),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{record['attempted']} requests, {record['failed']} failed, "
          f"{record['checked']} checked, {record['wrong']} wrong")
    notes = {}
    if not args.trace:
        by_type = ", ".join(f"{t} {n}" for t, n in record["failures_by_type"].items())
        print(f"fail_ratio {record['fail_ratio']:.6g} ratio "
              f"({record['failed']} of {record['attempted']}; {by_type})")
        print(f"wrong_ratio {record['wrong_ratio']:.6g} ratio "
              f"({record['wrong']} of {record['checked']} checked)")
        notes = {"setup_s": f"median of {SETUP_REPEATS}",
                 "request_p50_ms": f"n={record['attempted']}",
                 "request_p90_ms": f"n={record['attempted']}"}
    for problem in record["problems"]:
        print(f"wrong: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({notes[name]})" if name in notes else ""))
    print(f"environment {json.dumps(record['environment'])}; full record {result_path}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
