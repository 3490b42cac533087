"""Seeded request streams for the three benchmark workloads.

A workload is an endless series of cycles.  A cycle covers every stratum
of the workload once (measure, q, n and, where it matters, m) with fresh
seeded parameters, in a seeded order.  A run executes a fixed number of
whole cycles, set by its length in seconds, so every run has the same mix,
and the seed moves only the parameters within it.  Parameters are
continuous draws, so no state repeats across a run except the intended
four-request groups of the mathieu workload.

Inputs are drawn only where the state is bound and the angular method is
defined, decided from the physics alone:

* bound: the radial radicand a/4 + 2 mu re^2 De must be positive, where a
  is the even Mathieu characteristic number.  For the series route a is
  the series itself; for the matrix route a >= -2b (the operator
  -d^2/dz^2 + 2b cos 2z is bounded below by -2b) gives a sufficient test.
* series defined: m + delta stays 0.05 away from 0.5, 1 and 1.5, where
  the series denominators vanish.
* matrix branch non-degenerate: 2 (m + delta) stays 0.02 away from an
  integer, where the even branch is picked by a degenerate start.

No input is filtered by calling the program; requests that fail stay in
the stream and are counted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import series_char_number

# Built-in molecule presets as tabulated (De in eV, re in angstrom), read
# by `table` as raw atomic-unit numbers with mu = 1.
PRESETS = {"Cs2": (0.4524686595, 4.648), "Li2": (1.055918901, 2.6729),
           "SiSn": (2.642965641, 2.514)}
TABLE_N, TABLE_M = (1, 2, 4, 6, 8), (0, 1, 2)
TRENDS_EVALS = 1200  # 300 states x (I, S, T_2, R_2) in check_trends


@dataclass(frozen=True)
class Request:
    """One closed-loop request and what its output is checked against.

    ``state`` is (De, re, D, delta, n, m) as passed on the command line;
    ``evals`` counts the measure values one success yields.
    """

    kind: str  # "compute", "sweep", "table" or "trends"
    argv: tuple[str, ...]
    evals: int
    measure: str = ""
    q: int = 2
    route: str = "cosine"
    state: tuple = ()
    extra: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return "%.6g" % x


def _series_bound(m: int, De: float, re: float, D: float, delta: float) -> bool:
    m_eff = m + delta
    if min(abs(m_eff - s) for s in (0.5, 1.0, 1.5)) < 0.05:
        return False
    return float(series_char_number(m_eff, 4.0 * D)) / 4.0 + 2.0 * re * re * De > 0.0


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled.

    Parameters that set a request's cost are drawn this way, so every
    cycle has nearly the same cost profile whatever the seed.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


def _cosine_state(rng: random.Random, n: int, m: int, d_max: float,
                  De: float | None = None) -> tuple:
    while True:
        De_i, D, delta = (float(_num(v)) for v in (
            rng.uniform(0.5, 5.0) if De is None else De,
            rng.uniform(0.0, d_max), rng.random()))
        if _series_bound(m, De_i, 1.0, D, delta):
            return (_num(De_i), "1", _num(D), _num(delta), n, m)


def _compute(state: tuple, measure: str, q: int, route: str = "cosine") -> Request:
    De, re, D, delta, n, m = state
    argv = ["compute", "--De", De, "--re", re, "--D", D, "--delta", delta,
            "--n", str(n), "--m", str(m), "--measure", measure, "--q", str(q)]
    if route == "mathieu":
        argv += ["--mode", "mathieu", "--method", "matrix"]
    return Request("compute", tuple(argv), 1, measure, q, route, state)


CLOSED_MEASURES = ("energy", "fisher", "tsallis", "renyi", "wq")


def closed_forms_cycle(rng: random.Random) -> list[Request]:
    """195 one-measure computes (measure x q x n = 0..12) and 5 sweeps."""
    cycle = []
    for measure in CLOSED_MEASURES:
        for q in (2, 3, 4):
            for n in range(13):
                state = _cosine_state(rng, n, rng.randrange(3), 0.2)
                cycle.append(_compute(state, measure, q))
    for measure in CLOSED_MEASURES:
        q, n, m = rng.choice((2, 3, 4)), rng.randrange(9), rng.randrange(3)
        De, _, D, delta, _, _ = _cosine_state(rng, n, m, 0.2)
        if rng.random() < 0.5:
            var, lo, hi = "De", float(De), float(De) + rng.uniform(1.0, 3.0)
        elif _series_bound(m, float(De), 1.0, 0.2, float(delta)):
            var, lo, hi = "D", 0.0, 0.2
        else:
            var, lo, hi = "De", float(De), float(De) + 1.0
        argv = ("sweep", "--var", var, "--from", _num(lo), "--to", _num(hi),
                "--steps", "50", "--De", De, "--re", "1", "--D", D,
                "--deltas", delta, "--n", str(n), "--m", str(m),
                "--measure", measure, "--q", str(q))
        cycle.append(Request("sweep", argv, 50, measure, q, "cosine",
                             (De, "1", D, delta, n, m), {"var": var}))
    rng.shuffle(cycle)
    return cycle


def _table_params(rng: random.Random) -> tuple[str, str]:
    while True:
        delta, D = float(_num(rng.random())), float(_num(rng.uniform(0.0, 0.5)))
        if all(_series_bound(m, De, re, D, delta)
               for De, re in PRESETS.values() for m in TABLE_M):
            return _num(delta), _num(D)


def _table(rng: random.Random, tables: int, q: int) -> Request:
    delta, D = _table_params(rng)
    fmt = rng.choice(("markdown", "csv"))
    argv = ("table", "--tables", str(tables), "--delta", delta, "--D", D,
            "--q", str(q), "--format", fmt)
    return Request("table", argv, 2 * len(PRESETS) * len(TABLE_N) * len(TABLE_M),
                   q=q, extra={"tables": tables, "delta": delta, "D": D, "format": fmt})


def paper_tables_cycle(rng: random.Random) -> list[Request]:
    """check_trends, table 1, table 2 at q = 2, 3, 4, and 162 Shannon
    computes (n x m, six times).

    p50 and p90 fall among the computes and the table-2 requests, so the
    computes take half the cycle: with 54 per cycle the percentiles rested
    on a third of the run's time, and over ten seeds they spread by 0.24
    (p50) and 0.27 (p90) against 0.19 for evals_per_s.
    """
    cycle = [Request("trends", (), TRENDS_EVALS), _table(rng, 1, rng.choice((2, 3, 4)))]
    cycle += [_table(rng, 2, q) for q in (2, 3, 4)]
    depths = iter(_stratified(rng, 162, 0.5, 5.0))
    for _ in range(6):
        for n in range(9):
            for m in range(3):
                state = _cosine_state(rng, n, m, 0.2, next(depths))
                cycle.append(_compute(state, "shannon", 2))
    rng.shuffle(cycle)
    return cycle


MATHIEU_MEASURES = ("fisher", "wq", "tsallis", "renyi")


def _mathieu_state(rng: random.Random, n: int, m: int, D: float,
                   delta: float) -> tuple | None:
    De = float(_num(rng.uniform(1.0, 5.0)))
    D, delta = float(_num(D)), float(_num(delta))
    nu = 2.0 * (m + delta)
    if abs(nu - round(nu)) < 0.02 or 2.0 * De - 2.0 * D <= 0.0:
        return None
    return (_num(De), "1", _num(D), _num(delta), n, m)


def mathieu_oracle_cycle(rng: random.Random) -> list[Request]:
    """27 states (n = 0..8 x q = 2, 3, 4), each asked for 4 measures in a row.

    The profile's cost grows with the coupling and depends on m + delta, so
    D and delta are stratified and m is balanced within the cycle.  The cost
    of branch tracking rises in steps with D; with D up to 1 the median
    request sat on the step between the 16 ms and 27 ms modes, and p50
    moved by a third between runs of the same code, so D stays below 0.5.
    """
    couplings = _stratified(rng, 27, 0.05, 0.5)
    fluxes = _stratified(rng, 27, 0.0, 1.0)
    orders = [i % 4 for i in range(27)]
    rng.shuffle(orders)
    groups = []
    for n in range(9):
        for q in (2, 3, 4):
            m, D, delta = orders.pop(), couplings.pop(), fluxes.pop()
            state = _mathieu_state(rng, n, m, D, delta)
            while state is None:  # redraw within the flux's stratum
                width = 1.0 / 27
                delta = width * (int(delta / width) + rng.random())
                state = _mathieu_state(rng, n, m, D, delta)
            groups.append([_compute(state, measure, q, "mathieu")
                           for measure in MATHIEU_MEASURES])
    rng.shuffle(groups)
    return [request for group in groups for request in group]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: object    # rng -> list[Request]
    cycle_seconds: float  # CPU seconds of one cycle on the reference host
    min_cycles: int  # whole cycles a timed run always completes
    trace_cycles: int  # cycles in a traced run (fixed, so counts repeat)
    samples: dict    # kind -> successful requests checked against the reference
    warmup: tuple[str, ...]  # the request a fresh process answers first

    def cycle_count(self, seconds: float) -> int:
        """Cycles in a run of `seconds`: as many as fill it on the reference
        host (a 2-vCPU Xeon virtual machine), fixed so runs repeat exactly."""
        return max(self.min_cycles, round(seconds / self.cycle_seconds))


# min_cycles keeps at least 100 requests per run, so p90 has 10 beyond it.
WORKLOADS = {
    "closed-forms": Workload(
        "closed-forms", closed_forms_cycle, 0.95, 1, 2,
        {"compute": 24, "sweep": 3},
        ("compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1",
         "--measure", "tsallis", "--q", "2")),
    "paper-tables": Workload(
        "paper-tables", paper_tables_cycle, 13.0, 2, 1,
        {"compute": 3, "table": 2, "trends": 1},
        ("compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1",
         "--measure", "shannon")),
    "mathieu-oracle": Workload(
        "mathieu-oracle", mathieu_oracle_cycle, 1.6, 1, 2,
        {"compute": 8},
        ("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2",
         "--n", "1", "--m", "1", "--mode", "mathieu", "--method", "matrix",
         "--measure", "fisher")),
}


def cycles(workload: Workload, seed: int):
    """Cycles forever, all from one seeded generator."""
    rng = random.Random(seed)
    while True:
        yield workload.cycle(rng)
