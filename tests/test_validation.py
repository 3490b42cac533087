"""Validation-suite plumbing: result formatting, check registry,
reference-table shape, and the ordering checker on synthetic data.

The heavy checks themselves run in tests/test_acceptance.py; here only
the fast ones run directly.
"""

import math

import pytest

from kratzer2d import AccuracyError
from kratzer2d.validation import (
    REFERENCE_MEASURES,
    TABLE_MOLECULES,
    TABLE_ROWS,
    VALIDATE_CHECKS,
    CheckResult,
    check_entropic_moments,
    check_mathieu,
    check_normalization,
    check_renyi_limit,
    check_table_patterns,
    ordering_violations,
    run_checks,
    table_scan,
)


def test_check_result_line_with_detail():
    result = CheckResult("example", False, 1.385e1, 1e-2, "series leaves its window")
    assert result.line() == (
        "[FAIL] example: worst 1.385e+01 (tol 1.0e-02) — series leaves its window"
    )


def test_check_result_line_without_detail():
    result = CheckResult("example", True, 2.5e-14, 1e-8)
    assert result.line() == "[PASS] example: worst 2.500e-14 (tol 1.0e-08)"


def test_registry_names_and_order():
    assert list(VALIDATE_CHECKS) == [
        "normalization",
        "fisher-closed-vs-quadrature",
        "entropic-moments",
        "mathieu-series-vs-matrix",
        "radial-spectrum-fd",
        "trend-suite",
        "shannon-asymptotic",
        "renyi-limit",
    ]


def test_run_checks_unknown_name():
    with pytest.raises(KeyError, match="unknown checks"):
        run_checks(["renyi-limit", "nope"])


def test_run_checks_progress_callback():
    seen = []
    results = run_checks(["renyi-limit"], progress=seen.append)
    assert len(results) == 1
    assert seen == results
    assert results[0].name == "renyi-limit"


def test_run_checks_reports_raising_check_and_continues(monkeypatch):
    def boom():
        raise AccuracyError("W_q quadrature did not settle", 1.859e-9)

    monkeypatch.setitem(VALIDATE_CHECKS, "entropic-moments", boom)
    seen = []
    results = run_checks(["entropic-moments", "renyi-limit"], progress=seen.append)
    assert seen == results
    assert [r.name for r in results] == ["entropic-moments", "renyi-limit"]
    errored, later = results
    assert not errored.passed and math.isnan(errored.worst)
    assert errored.detail.startswith("Traceback") and "in boom" in errored.detail
    assert errored.line() == (
        "[ERROR] entropic-moments: AccuracyError: "
        "W_q quadrature did not settle (achieved 1.859e-09)"
    )
    assert later.passed and later.line().startswith("[PASS] renyi-limit")


def test_renyi_limit_check_passes():
    result = check_renyi_limit()
    assert result.passed
    assert result.worst == pytest.approx(5.020e-3, rel=1e-3)


def test_entropic_moments_check_passes():
    result = check_entropic_moments()
    assert result.passed
    assert result.worst <= 1e-6
    assert "mutant" in result.detail


def test_mathieu_check_reports_series_breakdown():
    # The series truncation exceeds its tolerance inside the checked
    # coupling range; the check must report that honestly.
    result = check_mathieu()
    assert not result.passed
    assert result.worst == pytest.approx(13.85, rel=1e-2)


def test_normalization_counts_the_matrix_fallbacks():
    # m + delta = 0.5, 1 and 1.5 with the dipole on: 3 orders x 2 depths x 9 n.
    assert check_normalization().detail.endswith("; 54 matrix fallbacks")


def test_table_scan_scores_the_two_readings():
    # The physical conversion binds no state at D = 0.4; the raw numbers do.
    converted, raw = table_scan()
    assert (converted.label, converted.max_rel_dev, converted.table) == (
        "converted-nist", None, None)
    assert raw.label == "raw-numbers"
    assert raw.max_rel_dev == pytest.approx(0.674, abs=5e-4)
    assert set(raw.table) == set(TABLE_ROWS)


def test_table_patterns_check_reports_the_raw_reading():
    result = check_table_patterns()
    assert not result.passed
    assert result.worst == 9.0
    assert result.detail.startswith("closest config raw-numbers (q=2) max dev 67.4%; ")
    assert result.detail.count("I not decreasing in m") == 9


def test_reference_table_shape():
    assert len(REFERENCE_MEASURES) == 15
    assert set(REFERENCE_MEASURES) == set(TABLE_ROWS)
    for row in REFERENCE_MEASURES.values():
        assert set(row) == set(TABLE_MOLECULES)
        for measures in row.values():
            assert set(measures) == {"I", "S", "T", "R"}
    # spot-check two published entries
    assert REFERENCE_MEASURES[(1, 0)]["Cs2"]["I"] == 1.20
    assert REFERENCE_MEASURES[(8, 2)]["SiSn"]["R"] == 7.4069


def _synthetic_table():
    i_base = {"SiSn": 6.0, "Li2": 3.0, "Cs2": 1.0}
    s_base = {"Cs2": 6.0, "Li2": 5.0, "SiSn": 4.0}
    return {
        (n, m): {
            mol: {
                "I": i_base[mol] - 0.2 * m + 0.01 * n,
                "S": s_base[mol] + 0.5 * n + 0.1 * m,
                "T": 0.9 + 0.01 * n + 0.001 * m,
                "R": 5.0 + 0.5 * n + 0.1 * m,
            }
            for mol in TABLE_MOLECULES
        }
        for n in (1, 2)
        for m in (0, 1)
    }


def test_ordering_violations_clean_table():
    assert ordering_violations(_synthetic_table()) == []


def test_ordering_violations_planted():
    table = _synthetic_table()
    table[(2, 0)]["Cs2"]["I"] = 100.0       # breaks SiSn > Li2 > Cs2
    table[(2, 1)]["Li2"]["S"] = 5.3         # drops below its n=1 value
    table[(1, 1)]["SiSn"]["I"] = 7.0        # rises with m
    assert set(ordering_violations(table)) == {
        "I molecule order at (n=2, m=0)",
        "S not increasing in n (Li2, m=1)",
        "I not decreasing in m (SiSn, n=1)",
    }
