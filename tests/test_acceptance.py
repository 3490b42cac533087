"""Acceptance gate: ten go/no-go criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict
line; failing criteria repeat their line in the assertion message.

Four criteria are expected to fail and are left failing on purpose —
they document real discrepancies between the closed forms and the
independent numerical routes (see README, "Known failing checks"):

* criterion 4  — the characteristic-number power series leaves its
  stated tolerance well inside the checked coupling range;
* criterion 7  — the published-table ordering patterns do not hold for
  the corrected Fisher closed form, and no documented unit convention
  reproduces the table values within 10%;
* criterion 8  — the closed-form entropy gap grows, not shrinks, with
  the radial quantum number;
* criterion 10 — the validate command exits nonzero because it runs
  the failing checks of criteria 4 and 8.

Weakening the tolerances or special-casing the failures would hide
exactly what these tests exist to measure.
"""

import subprocess
import sys
import time

from kratzer2d.validation import (
    check_entropic_moments,
    check_fisher,
    check_mathieu,
    check_normalization,
    check_renyi_limit,
    check_shannon_asymptotic,
    check_spectrum,
    check_table_patterns,
    check_trends,
)


def _verdict(num: int, title: str, passed: bool, elapsed: float,
             budget: float | None, detail: str) -> str:
    status = "PASS" if passed else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" < {budget:.0f}s" if budget else "")
    line = f"[{status}] criterion {num}: {title} ({timing}) — {detail}"
    print(line, flush=True)
    return line


def _run(num: int, title: str, check, budget: float | None) -> None:
    start = time.perf_counter()
    result = check()
    elapsed = time.perf_counter() - start
    in_budget = budget is None or elapsed < budget
    line = _verdict(num, title, result.passed and in_budget, elapsed,
                    budget, result.detail)
    assert result.passed and in_budget, line


def test_criterion_1_normalization():
    # |integral(rho) - 1| <= 1e-8 over n<=8, m<=2, De in {1,3},
    # delta in {0,0.2,0.5}, D in {0,0.1}.
    _run(1, "density normalization on the full state grid",
         check_normalization, budget=10.0)


def test_criterion_2_fisher_closed_vs_quadrature():
    # Relative difference <= 1e-8 without the dipole, <= 1e-6 with it.
    _run(2, "Fisher closed form vs gradient quadrature",
         check_fisher, budget=10.0)


def test_criterion_3_entropic_moments_and_mutant():
    # W_q closed vs quadrature <= 1e-6 for q in {2,3}, n <= 4, m in {1,2};
    # the halved-denominator variant must miss by a factor of 2.
    _run(3, "entropic moments closed vs quadrature, mutant lands at 2x",
         check_entropic_moments, budget=30.0)


def test_criterion_4_mathieu_series_vs_matrix():
    # |a_series - a_matrix| <= 1e-4 for b <= 1 (orders 0.2, 2.2) and
    # <= 1e-2 for b <= 20 (order 2.2).  The series truncation genuinely
    # exceeds both bounds inside those windows.
    _run(4, "characteristic-number series within stated windows",
         check_mathieu, budget=5.0)


def test_criterion_5_radial_spectrum():
    # Finite-difference eigenvalues within 1e-4 relative of the closed
    # spectrum for the three lowest levels, no dipole.
    _run(5, "finite-difference radial spectrum vs closed form",
         check_spectrum, budget=30.0)


def test_criterion_6_monotone_trends():
    # Localization up in well depth, down in flux and dipole strength;
    # entropies the other way; strict on 50-point grids.
    _run(6, "measure monotonicity along parameter sweeps",
         check_trends, budget=None)


def test_criterion_7_reference_table_patterns():
    # Molecule/quantum-number ordering patterns of the reference tables,
    # plus the closer of the two readings of the preset numbers at q = 2,
    # raw and NIST-converted (must come within 10% to count as reproduced).
    _run(7, "reference-table ordering and closest-configuration scan",
         check_table_patterns, budget=None)


def test_criterion_8_shannon_asymptotic_direction():
    # |S_closed - S_numeric| at n=20 must be below its n=5 value.
    _run(8, "closed-form entropy gap shrinks with n",
         check_shannon_asymptotic, budget=None)


def test_criterion_9_renyi_limit():
    # ln(W_q)/(1-q) at q = 1.01 within 0.02 of the Shannon entropy.
    _run(9, "Renyi order->1 limit lands on Shannon",
         check_renyi_limit, budget=None)


def test_criterion_10_validate_command():
    # The installed CLI's validate suite must exit 0 in under 2 minutes.
    argv = [sys.executable, "-m", "kratzer2d.cli", "validate"]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = proc.returncode == 0 and elapsed < 120.0
    line = _verdict(10, "validate command exits 0", passed, elapsed, 120.0,
                    f"exit {proc.returncode}; {tail}")
    assert passed, line
