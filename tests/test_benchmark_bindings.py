"""The benchmark leans on the package by name and by definition; keep both.

benchmarks/tracing.py wraps each (module, function) pair of SPANNED and
COUNTED, and the tracer and benchmarks/run.py call the lru_cache interface
of system.angular_profile.  A rename in the package would otherwise show
up only when the benchmark runs.  benchmarks/reference.py defines the
Mathieu branch on its own (Sturm bisection in mpmath); the package's
matrix route must pick the same branch.  benchmarks/run.py checks, in a
traced run only, that each of its CANNED requests reaches the layers it
names; the same check runs here on every test run.
"""

import ast
import contextlib
import importlib
import io
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


def _canned_requests():
    # Read the literal without executing any of run.py.
    tree = ast.parse((BENCHMARKS / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CANNED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmarks/run.py defines no CANNED")


CANNED = _canned_requests()


@pytest.mark.parametrize("argv, names", CANNED,
                         ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(CANNED)])
def test_canned_request_reaches_named_layers(tracing, argv, names):
    from kratzer2d import cli

    tracer = tracing.Tracer()
    out, err = io.StringIO(), io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, err.getvalue()
    calls = tracer.call_counts()
    missed = [name for name in ("cli.main",) + tuple(names) if calls[name + ".calls"] < 1]
    assert not missed, f"{argv} reached no {missed}"


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
