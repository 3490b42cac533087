"""Cross-validation suite: every closed form against an independent route.

Each check returns a CheckResult carrying the worst observed deviation
and its tolerance; the CLI ``validate`` command prints one line per
check and exits nonzero if any fails (a check that raises is reported
as an ``[ERROR]`` line, counted as failed, and the rest still run).
The table machinery compares computed measures against published
reference values for three diatomic molecules under several unit
interpretations, because the reference tables do not state the mass
convention or entropy order they used.

:func:`evaluate` is the one place that routes a measure to its closed
form or to the oracle; the CLI commands, the trend suite and the table
scan all take their measures from it.
"""

from __future__ import annotations

import math
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from . import molecules
from .measures import (
    fisher_closed,
    renyi,
    shannon_closed,
    tsallis,
    wq_closed,
)
from .oracle import (
    fisher_numeric,
    radial_fd_eigen,
    shannon_numeric,
    wq_numeric,
)
from .specfun import (
    SeriesSingularError,
    ValidityWarning,
    mathieu_char_series,
    mathieu_even_solution,
)
from .system import (
    AngularMode,
    SolvedState,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    make_params,
    solve_state,
)

__all__ = [
    "CheckResult",
    "VALIDATE_CHECKS",
    "evaluate",
    "REFERENCE_MEASURES",
    "run_checks",
    "check_normalization",
    "check_fisher",
    "check_entropic_moments",
    "check_mathieu",
    "check_spectrum",
    "check_trends",
    "check_shannon_asymptotic",
    "check_renyi_limit",
    "check_table_patterns",
    "table_scan",
    "ordering_violations",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check.

    When the check raised, ``error`` holds the exception and ``detail``
    its traceback.
    """

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""
    error: str = ""

    def line(self) -> str:
        if self.error:
            return f"[ERROR] {self.name}: {self.error}"
        status = "PASS" if self.passed else "FAIL"
        text = f"[{status}] {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e})"
        return f"{text} — {self.detail}" if self.detail else text


def evaluate(params: SystemParams, state: SolvedState, measures: Iterable[str],
             q: int = 2) -> tuple[str, dict[str, float]]:
    """The measures of one solved state, each by its one route.

    Closed forms assume the cosine angular convention, so under it they
    answer; under the numeric Mathieu profile the oracle's quadratures
    do.  Shannon is always the quadrature (the closed form is only
    asymptotic).  Tsallis, Renyi and W_q share one entropic moment of
    order ``q``, evaluated at most once.  Returns the route of Fisher
    and the moment ("closed form" or "quadrature") and the values by
    symbol: I, I1, I2, S, T, R, W, E and E_total, as far as asked for.
    """
    cosine = state.mode is AngularMode.PAPER_COSINE
    values: dict[str, float] = {}
    moment = None
    for name in measures:
        if name == "fisher":
            f = fisher_closed(params, state) if cosine else fisher_numeric(params, state)
            values.update(I=f.I, I1=f.I1, I2=f.I2)
        elif name == "shannon":
            values["S"] = shannon_numeric(params, state)
        elif name == "energy":
            values.update(E=state.energy, E_total=state.energy_total)
        else:
            if moment is None:
                moment = (wq_closed if cosine else wq_numeric)(params, state, q)
                values["W"] = moment.Wq
            if name == "tsallis":
                values["T"] = tsallis(moment)
            elif name == "renyi":
                values["R"] = renyi(moment)
    return ("closed form" if cosine else "quadrature"), values


def _solve(params: SystemParams, spec: StateSpec) -> tuple[SolvedState, bool]:
    """Solve in cosine mode with the characteristic-number series, matrix
    fallback when the series denominators vanish.  Returns (state,
    used_fallback)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            return solve_state(params, spec, method="series"), False
    except SeriesSingularError:
        return solve_state(params, spec, method="matrix"), True


def _base_grid() -> Iterable[tuple[SystemParams, StateSpec]]:
    for De in (1.0, 3.0):
        for delta in (0.0, 0.2, 0.5):
            for Dm in (0.0, 0.1):
                params = make_params(De=De, re=1.0, Dm=Dm, delta=delta, mu=1.0)
                for m in (0, 1, 2):
                    for n in range(9):
                        yield params, StateSpec(n, m)


def check_normalization() -> CheckResult:
    """Density integrates to 1 over the plane on the full parameter grid:
    the entropic moment W_1 by the oracle's panel rule."""
    worst, where, fallbacks = 0.0, "", 0
    for params, spec in _base_grid():
        state, fell = _solve(params, spec)
        fallbacks += fell
        dev = abs(wq_numeric(params, state, 1.0).Wq - 1.0)
        if dev > worst:
            worst, where = dev, f"n={spec.n_r} m={spec.m} De={params.De} d={params.delta} D={params.Dm}"
    return CheckResult(
        "normalization", worst <= 1e-8, worst, 1e-8,
        f"324 states, worst at {where}; {fallbacks} matrix fallbacks",
    )


def check_fisher() -> CheckResult:
    """Closed-form Fisher information against gradient-integral quadrature."""
    worst = {0.0: 0.0, 0.1: 0.0}
    for params, spec in _base_grid():
        state, _ = _solve(params, spec)
        closed = fisher_closed(params, state)
        numeric = fisher_numeric(params, state)
        dev = abs(closed.I - numeric.I) / abs(numeric.I)
        worst[params.Dm] = max(worst[params.Dm], dev)
    passed = worst[0.0] <= 1e-8 and worst[0.1] <= 1e-6
    return CheckResult(
        "fisher-closed-vs-quadrature", passed, max(worst.values()), 1e-6,
        f"no dipole: {worst[0.0]:.2e} (tol 1e-08); dipole 0.1: {worst[0.1]:.2e} (tol 1e-06)",
    )


def check_entropic_moments() -> CheckResult:
    """Closed-form entropic moments W_q against quadrature, plus a mutation
    guard: the halved-denominator variant must land at twice the oracle."""
    worst, where = 0.0, ""
    for De in (1.0, 3.0):
        for delta in (0.0, 0.2):
            params = make_params(De=De, re=1.0, delta=delta, mu=1.0)
            for m in (1, 2):
                for n in range(5):
                    state, _ = _solve(params, StateSpec(n, m))
                    for q in (2, 3):
                        closed = wq_closed(params, state, q).Wq
                        numeric = wq_numeric(params, state, float(q)).Wq
                        dev = abs(closed - numeric) / numeric
                        if dev > worst:
                            worst, where = dev, f"q={q} n={n} m={m} De={De} d={delta}"
    params = make_params(De=1.0, re=1.0, mu=1.0)
    state, _ = _solve(params, StateSpec(2, 1))
    mutant = 2.0 * wq_closed(params, state, 2).Wq
    ratio = mutant / wq_numeric(params, state, 2.0).Wq
    mutation_caught = abs(ratio - 2.0) <= 1e-6
    passed = worst <= 1e-6 and mutation_caught
    return CheckResult(
        "entropic-moments", passed, worst, 1e-6,
        f"80 states, worst at {where}; halved-denominator mutant lands at "
        f"{ratio:.6f}x the oracle (must be 2x)",
    )


def check_mathieu() -> CheckResult:
    """Characteristic-number power series against the tridiagonal eigensolver."""

    def series(m_eff: float, b: float) -> float:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            return mathieu_char_series(m_eff, b)

    def matrix(m_eff: float, b: float) -> float:
        return mathieu_even_solution(m_eff, b).char_number

    worst_small, at_small = 0.0, ""
    for m_eff in (0.2, 2.2):
        for b in np.linspace(0.1, 1.0, 10):
            dev = abs(series(m_eff, b) - matrix(m_eff, b))
            if dev > worst_small:
                worst_small, at_small = dev, f"m_eff={m_eff} b={b:.1f}"
    worst_large, at_large = 0.0, ""
    for b in np.linspace(2.0, 20.0, 10):
        dev = abs(series(2.2, b) - matrix(2.2, b))
        if dev > worst_large:
            worst_large, at_large = dev, f"m_eff=2.2 b={b:.0f}"
    passed = worst_small <= 1e-4 and worst_large <= 1e-2
    return CheckResult(
        "mathieu-series-vs-matrix", passed, max(worst_small, worst_large), 1e-2,
        f"b<=1: {worst_small:.2e} at {at_small} (tol 1e-04); "
        f"b<=20: {worst_large:.2e} at {at_large} (tol 1e-02)",
    )


def check_spectrum() -> CheckResult:
    """Finite-difference radial eigenvalues against the closed-form spectrum."""
    worst, where = 0.0, ""
    for De in (1.0, 3.0):
        for delta in (0.0, 0.2, 0.5):
            params = make_params(De=De, re=1.0, delta=delta, mu=1.0)
            for m in (0, 1, 2):
                fd = radial_fd_eigen(params, m, count=3)
                for n, fd_energy in enumerate(fd):
                    closed = solve_state(params, StateSpec(n, m)).energy
                    dev = abs(fd_energy - closed) / abs(closed)
                    if dev > worst:
                        worst, where = dev, f"n={n} m={m} De={De} d={delta}"
    return CheckResult(
        "radial-spectrum-fd", worst <= 1e-4, worst, 1e-4,
        f"54 levels, worst at {where}",
    )


def _measures_at(params: SystemParams, spec: StateSpec) -> tuple[float, float, float, float]:
    state, _ = _solve(params, spec)
    _, values = evaluate(params, state, ("fisher", "shannon", "tsallis", "renyi"), 2)
    return values["I"], values["S"], values["T"], values["R"]


def _strict(values: list[float], direction: int) -> float:
    """Largest wrong-direction step (0.0 when strictly monotone)."""
    diffs = direction * np.diff(np.asarray(values))
    bad = float(np.min(diffs))
    return max(0.0, -bad) if bad <= 0.0 else 0.0


def check_trends() -> CheckResult:
    """Monotonicity of the measures along the published parameter sweeps.

    Well-depth sweep (n=2, m=0, no dipole): localization grows with the
    well depth and shrinks with flux; entropies do the opposite.  Dipole
    sweep (n=2, m=2, De=3): localization falls as the dipole strength
    rises, entropies rise, within the validity window of the series.
    """
    # (swept variable, grid, state, parameters at (value, delta), I's direction)
    sweeps = (
        ("De", np.linspace(0.5, 5.0, 50), StateSpec(2, 0),
         lambda v, delta: make_params(De=v, re=1.0, delta=delta, mu=1.0), 1),
        ("D", np.linspace(0.0, 5.0, 50), StateSpec(2, 2),
         lambda v, delta: make_params(De=3.0, re=1.0, Dm=v, delta=delta, mu=1.0), -1),
    )
    worst, labels = 0.0, []
    for var, grid, spec, build, sign in sweeps:
        fisher_by_delta = []
        for delta in (0.0, 0.3, 0.6):
            columns = list(zip(*(_measures_at(build(float(v), delta), spec) for v in grid)))
            fisher_by_delta.append(columns[0])
            for symbol, vals, direction in zip("ISTR", columns, (sign, -sign, -sign, -sign)):
                viol = _strict(vals, direction)
                if viol > 0.0:
                    trend = "up" if direction > 0 else "down"
                    labels.append(f"{symbol} {trend} in {var} (delta={delta})")
                    worst = max(worst, viol)
        if var == "De":
            # I(delta_{k+1}) - I(delta_k) per De point
            drops = np.diff(np.asarray(fisher_by_delta), axis=0)
            if float(np.max(drops)) >= 0.0:
                labels.append("I down in delta")
                worst = max(worst, float(np.max(drops)))
    detail = "all monotone on 50-point grids" if not labels else "; ".join(labels)
    return CheckResult("trend-suite", not labels, worst, 0.0, detail)


def check_shannon_asymptotic() -> CheckResult:
    """The closed-form entropy gap must shrink from n=5 to n=20."""
    params = make_params(De=1.0, re=1.0, mu=1.0)

    def gap(n: int) -> float:
        state, _ = _solve(params, StateSpec(n, 0))
        return abs(shannon_closed(params, state).S - shannon_numeric(params, state))

    g5, g10, g20 = gap(5), gap(10), gap(20)
    return CheckResult(
        "shannon-asymptotic", g20 < g5, g20, g5,
        f"|closed - numeric| at n=5: {g5:.4f}, n=10: {g10:.4f}, n=20: {g20:.4f}; "
        "must shrink from n=5 to n=20",
    )


def check_renyi_limit() -> CheckResult:
    """Order->1 limit of the Renyi entropy lands on the Shannon entropy."""
    params = make_params(De=1.0, re=1.0, mu=1.0)
    state, _ = _solve(params, StateSpec(0, 0))
    r_near_one = renyi(wq_numeric(params, state, 1.01))
    s = shannon_numeric(params, state)
    dev = abs(r_near_one - s)
    return CheckResult(
        "renyi-limit", dev <= 0.02, dev, 0.02,
        f"R(1.01)={r_near_one:.4f} vs S={s:.4f}",
    )


# --- published reference tables (three diatomic molecules, delta=0.2, D=0.4) ---

# rows: n, m, Fisher (Cs2, Li2, SiSn), Shannon (Cs2, Li2, SiSn),
#       Tsallis (Cs2, Li2, SiSn), Renyi (Cs2, Li2, SiSn)
_REFERENCE_ROWS = [
    (1, 0, 1.20, 3.01, 6.32, 6.2815, 5.3274, 4.6874,
     0.99751, 0.99350, 0.98784, 5.9954, 5.0362, 4.4098),
    (1, 1, 1.15, 2.86, 6.46, 6.3875, 5.4561, 4.7559,
     0.99777, 0.99430, 0.98866, 6.1056, 5.1670, 4.4792),
    (1, 2, 1.13, 2.75, 6.52, 6.5810, 5.6816, 4.8837,
     0.99816, 0.99547, 0.99003, 6.2992, 5.3962, 4.6084),
    (2, 0, 1.39, 3.34, 8.20, 6.9706, 6.0591, 5.2857,
     0.99876, 0.996882, 0.99336, 6.6897, 5.7715, 5.0144),
    (2, 1, 1.32, 3.14, 7.80, 7.0611, 6.1641, 5.3459,
     0.99887, 0.99722, 0.99375, 6.7849, 5.8848, 5.0756),
    (2, 2, 1.25, 2.91, 7.73, 7.2296, 6.3581, 5.4591,
     0.99904, 0.99771, 0.99443, 6.9526, 6.0812, 5.1898),
    (4, 0, 1.25, 2.84, 8.11, 8.0276, 7.1660, 6.2181,
     0.99957, 0.99898, 0.99740, 7.7518, 6.8894, 5.9541),
    (4, 1, 1.18, 2.74, 7.84, 8.0971, 7.2455, 6.2676,
     0.99960, 0.99907, 0.99753, 7.8273, 6.9778, 6.0038),
    (4, 2, 1.10, 2.52, 7.61, 8.2311, 7.3980, 6.3601,
     0.99965, 0.99920, 0.99775, 7.9600, 7.1311, 6.0969),
    (6, 0, 0.998, 2.27, 7.08, 8.8416, 8.0125, 6.9510,
     0.99981, 0.99957, 0.99876, 8.5686, 7.7410, 6.6907),
    (6, 1, 0.958, 2.17, 6.74, 8.8981, 8.0750, 6.9925,
     0.99982, 0.99960, 0.99881, 8.6316, 7.8141, 6.7326),
    (6, 2, 0.910, 2.01, 6.66, 9.0096, 8.2010, 7.0710,
     0.99984, 0.99964, 0.99890, 8.7413, 7.9400, 6.8115),
    (8, 0, 0.798, 1.77, 5.95, 9.5087, 8.7020, 7.5595,
     0.99990, 0.99978, 0.99933, 9.2367, 8.4331, 7.3023),
    (8, 1, 0.770, 1.70, 5.76, 9.5562, 8.7525, 7.5960,
     0.99991, 0.99980, 0.99935, 9.2909, 8.4956, 7.3386),
    (8, 2, 0.733, 1.58, 5.63, 9.6512, 8.8600, 7.6640,
     0.99992, 0.99982, 0.99939, 9.3847, 8.6028, 7.4069),
]

TABLE_MOLECULES = ("Cs2", "Li2", "SiSn")
TABLE_ROWS = tuple((r[0], r[1]) for r in _REFERENCE_ROWS)

REFERENCE_MEASURES: dict[tuple[int, int], dict[str, dict[str, float]]] = {
    (n, m): {
        "Cs2": {"I": ic, "S": sc, "T": tc, "R": rc},
        "Li2": {"I": il, "S": sl, "T": tl, "R": rl},
        "SiSn": {"I": isn, "S": ssn, "T": tsn, "R": rsn},
    }
    for n, m, ic, il, isn, sc, sl, ssn, tc, tl, tsn, rc, rl, rsn in _REFERENCE_ROWS
}

TABLE_DELTA = 0.2
TABLE_DIPOLE = 0.4


def _computed_tables(
    params_by_molecule: Mapping[str, SystemParams], q_values: Iterable[int]
) -> dict[int, dict[tuple[int, int], dict[str, dict[str, float]]]]:
    """Measures for the reference-table states at each order q, routed
    by :func:`evaluate` (closed Fisher/Tsallis/Renyi, numerical Shannon:
    the reference Shannon values follow the exact integral, not the
    asymptotic closed form).  Each state is solved, and its Fisher and
    Shannon values computed, once for all orders; Tsallis and Renyi
    share one W_q per state and order."""
    tables: dict[int, dict[tuple[int, int], dict[str, dict[str, float]]]] = {
        q: {} for q in q_values}
    for (n, m) in TABLE_ROWS:
        for table in tables.values():
            table[(n, m)] = {}
        for name, params in params_by_molecule.items():
            state, _ = _solve(params, StateSpec(n, m))
            _, common = evaluate(params, state, ("fisher", "shannon"))
            for q, table in tables.items():
                _, values = evaluate(params, state, ("tsallis", "renyi"), q)
                table[(n, m)][name] = {"I": common["I"], "S": common["S"],
                                       "T": values["T"], "R": values["R"]}
    return tables


def _table_configurations() -> list[tuple[str, Callable[[molecules.MoleculePreset], SystemParams]]]:
    configs: list[tuple[str, Callable]] = [
        (
            f"converted-{conv}",
            lambda p, c=conv: molecules.to_atomic_units(
                p, Dm=TABLE_DIPOLE, delta=TABLE_DELTA, mu_convention=c
            ),
        )
        for conv in molecules.MU_CONVENTIONS
    ]
    configs.append(
        ("raw-numbers",
         lambda p: molecules.raw_number_params(p, Dm=TABLE_DIPOLE, delta=TABLE_DELTA))
    )
    return configs


@dataclass(frozen=True)
class TableScanEntry:
    label: str
    q: int
    max_rel_dev: float | None
    note: str = ""
    table: dict | None = field(default=None, repr=False, compare=False)


def table_scan(q_values: tuple[int, ...] = (2, 3, 4, 5)) -> list[TableScanEntry]:
    """Deviation of each unit-interpretation configuration from the
    published table values, scanned over the entropy order q; each
    entry keeps the table it scored."""
    presets = molecules.load_presets()
    entries: list[TableScanEntry] = []
    for label, build in _table_configurations():
        try:
            params_map = {name: build(presets[name]) for name in TABLE_MOLECULES}
            tables = _computed_tables(params_map, q_values)
        except (UnboundAngularError, SeriesSingularError) as exc:
            for q in q_values:
                entries.append(TableScanEntry(label, q, None, f"no bound state ({exc})"))
            continue
        for q, table in tables.items():
            dev = 0.0
            for key, row in table.items():
                for mol, ours in row.items():
                    ref = REFERENCE_MEASURES[key][mol]
                    for measure in ("I", "S", "T", "R"):
                        dev = max(dev, abs(ours[measure] - ref[measure]) / abs(ref[measure]))
            entries.append(TableScanEntry(label, q, dev, table=table))
    return entries


def ordering_violations(
    table: Mapping[tuple[int, int], Mapping[str, Mapping[str, float]]]
) -> list[str]:
    """Check the reference-table ordering patterns on a computed table."""
    bad: list[str] = []
    for (n, m), row in table.items():
        if not row["SiSn"]["I"] > row["Li2"]["I"] > row["Cs2"]["I"]:
            bad.append(f"I molecule order at (n={n}, m={m})")
        if not row["Cs2"]["S"] > row["Li2"]["S"] > row["SiSn"]["S"]:
            bad.append(f"S molecule order at (n={n}, m={m})")
    n_values = sorted({n for n, _ in table})
    m_values = sorted({m for _, m in table})
    for mol in TABLE_MOLECULES:
        for m in m_values:
            for measure in ("S", "T", "R"):
                vals = [table[(n, m)][mol][measure] for n in n_values]
                if _strict(vals, 1) > 0.0:
                    bad.append(f"{measure} not increasing in n ({mol}, m={m})")
        for n in n_values:
            vals = [table[(n, m)][mol]["I"] for m in m_values]
            if _strict(vals, -1) > 0.0:
                bad.append(f"I not decreasing in m ({mol}, n={n})")
    return bad


def check_table_patterns() -> CheckResult:
    """Reference-table reproduction: ordering patterns on the closest
    unit interpretation, plus the quantitative deviation report."""
    entries = table_scan()
    usable = [e for e in entries if e.max_rel_dev is not None]
    best = min(usable, key=lambda e: e.max_rel_dev)
    converted = [e for e in usable if e.label.startswith("converted")]
    converted_best = min(converted, key=lambda e: e.max_rel_dev) if converted else None
    violations = ordering_violations(best.table)
    parts = [f"closest config {best.label} (q={best.q}) max dev {best.max_rel_dev:.1%}"]
    if converted_best is None or converted_best.max_rel_dev > 0.10:
        conv_txt = (
            f"{converted_best.label} (q={converted_best.q}) at {converted_best.max_rel_dev:.0%}"
            if converted_best else "all unbound"
        )
        parts.append(
            "tables not reproducible from the stated inputs under documented "
            f"unit conventions (best converted: {conv_txt})"
        )
    if violations:
        parts.append("ordering violations: " + "; ".join(violations))
    return CheckResult(
        "table-patterns", not violations, float(len(violations)), 0.0,
        "; ".join(parts),
    )


VALIDATE_CHECKS: dict[str, Callable[[], CheckResult]] = {
    "normalization": check_normalization,
    "fisher-closed-vs-quadrature": check_fisher,
    "entropic-moments": check_entropic_moments,
    "mathieu-series-vs-matrix": check_mathieu,
    "radial-spectrum-fd": check_spectrum,
    "trend-suite": check_trends,
    "shannon-asymptotic": check_shannon_asymptotic,
    "renyi-limit": check_renyi_limit,
}


def run_checks(
    names: Iterable[str] | None = None,
    progress: Callable[[CheckResult], None] | None = None,
) -> list[CheckResult]:
    """Run the named checks (all by default) in declaration order.

    A check that raises is reported as failed, with the exception as its
    ``error`` and the traceback as its ``detail``, and the remaining
    checks still run.
    """
    selected = list(VALIDATE_CHECKS) if names is None else list(names)
    unknown = [n for n in selected if n not in VALIDATE_CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}; known: {list(VALIDATE_CHECKS)}")
    results = []
    for name in selected:
        try:
            result = VALIDATE_CHECKS[name]()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            result = CheckResult(name, False, math.nan, math.nan,
                                 traceback.format_exc(),
                                 f"{type(exc).__name__}: {exc}")
        if progress is not None:
            progress(result)
        results.append(result)
    return results
