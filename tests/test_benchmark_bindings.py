"""The benchmark's tracer binds package functions by name; keep them there.

benchmarks/tracing.py wraps each (module, function) pair of SPANNED and
COUNTED, and the tracer and benchmarks/run.py call the lru_cache interface
of system.angular_profile.  A rename in the package would otherwise show
up only when the benchmark runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCHMARKS))


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
