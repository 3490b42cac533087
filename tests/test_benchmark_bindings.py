"""The benchmark leans on the package by name and by definition; keep both.

benchmarks/tracing.py wraps each (module, function) pair of SPANNED and
COUNTED, and the tracer and benchmarks/run.py call the lru_cache interface
of system.angular_profile.  A rename in the package would otherwise show
up only when the benchmark runs.  benchmarks/reference.py defines the
Mathieu branch on its own (Sturm bisection in mpmath); the package's
matrix route must pick the same branch.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _benchmark_module(name: str):
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


@pytest.fixture(scope="module")
def tracing():
    return _benchmark_module("tracing")


def test_traced_functions_resolve(tracing):
    pairs = tracing.SPANNED + tracing.COUNTED
    assert pairs
    for module, name in pairs:
        fn = getattr(importlib.import_module(f"kratzer2d.{module}"), name, None)
        assert callable(fn), f"kratzer2d.{module}.{name}"


def test_angular_profile_keeps_cache_interface():
    from kratzer2d import system

    assert callable(system.angular_profile.cache_info)
    assert callable(system.angular_profile.cache_clear)


@pytest.mark.parametrize("m_eff, b", [(2.2, 20.0), (4.3, 50.0), (1.001, 100.0), (1.01, 200.0)])
def test_matrix_branch_matches_benchmark_reference(m_eff, b):
    # The reference takes the eigenvalue whose rank is that of (2 m_eff)^2
    # on the diagonal; near-integer orders at large b are where a branch
    # tracker loses it.
    mpmath = pytest.importorskip("mpmath")
    from kratzer2d.specfun import mathieu_even_solution

    reference = _benchmark_module("reference")
    with mpmath.workdps(40):
        ref, _ = reference.matrix_char_solution(mpmath.mpf(m_eff), mpmath.mpf(b))
    ours = mathieu_even_solution(m_eff, b).char_number
    assert ours == pytest.approx(float(ref), rel=1e-10, abs=0.0)
