"""Per-layer tracing by wrapping the package's public functions.

Each traced function is replaced, in every kratzer2d module attribute that
holds it, by a wrapper that records a span (id, parent span, request id,
name, start, end, raised).  The CLI and validation modules hold their
functions through from-imports, so binding only the defining module would
miss them; install() therefore rebinds every attribute and then checks that
no unwrapped original is left.  Library boundaries (scipy's quad and
eigh_tridiagonal) and the hot Laguerre recurrence are counted, not spanned,
per importing module.  Spans stay in memory until write() is called.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs that get spans; each layer's public entry points.
SPANNED = (
    ("cli", "main"),
    ("system", "solve_state"),
    ("system", "angular_profile"),
    ("specfun", "log_gamma0"),
    ("specfun", "mathieu_char_series"),
    ("specfun", "mathieu_even_solution"),
    ("specfun", "mathieu_char_matrix"),
    ("measures", "fisher_closed"),
    ("measures", "shannon_closed"),
    ("measures", "wq_closed"),
    ("measures", "tsallis"),
    ("measures", "renyi"),
    ("oracle", "shannon_numeric"),
    ("oracle", "wq_numeric"),
    ("oracle", "fisher_numeric"),
    ("oracle", "angular_integrals_numeric"),
    ("validation", "check_trends"),
)
# Counted only: the per-point Laguerre recurrence (bound wherever it is
# imported) and library calls (bound in the named module only).
COUNTED = (("specfun", "laguerre"),)
LIBRARY = (("oracle", "quad"), ("oracle", "eigh_tridiagonal"),
           ("specfun", "eigh_tridiagonal"))


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._cache_info = None

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            raised = False
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.request_id, name, start, end, raised)

        wrapper.__wrapped__ = fn
        if hasattr(fn, "cache_info"):  # keep the lru_cache interface working
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _counted(self, name: str, fn, count_integrand: bool = False):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if count_integrand:
                integrand = args[0]

                def counted(*inner):
                    counts[name + ".integrand_evals"] += 1
                    return integrand(*inner)

                args = (counted,) + args[1:]
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kratzer2d" or name.startswith("kratzer2d.")}
        saved = []

        def bind_everywhere(original, wrapper):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        originals = []
        for mod_name, fn_name in SPANNED:
            original = getattr(modules[f"kratzer2d.{mod_name}"], fn_name)
            originals.append(original)
            bind_everywhere(original, self._spanned(f"{mod_name}.{fn_name}", original))
        for mod_name, fn_name in COUNTED:
            original = getattr(modules[f"kratzer2d.{mod_name}"], fn_name)
            originals.append(original)
            bind_everywhere(original, self._counted(f"{mod_name}.{fn_name}", original))
        for mod_name, fn_name in LIBRARY:
            mod = modules[f"kratzer2d.{mod_name}"]
            original = getattr(mod, fn_name, None)
            if original is None:  # the module no longer calls this library: 0 calls
                continue
            saved.append((mod, fn_name, original))
            setattr(mod, fn_name, self._counted(f"{mod_name}.{fn_name}", original,
                                                count_integrand=fn_name == "quad"))
        self._cache_info = modules["kratzer2d.system"].angular_profile.cache_info
        left = [f"{name}.{attr}" for name, mod in modules.items()
                for attr, value in vars(mod).items()
                if any(value is original for original in originals)]
        try:
            if left:
                raise RuntimeError(f"tracing missed bindings: {left}")
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def call_counts(self) -> Counter:
        """Calls per traced name (spanned and counted)."""
        out = Counter(self.counts)
        for span in self.spans:
            out[span[3] + ".calls"] += 1
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """{metric: (value, unit)} for every traced name."""
        child = Counter()
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        busy, own, errors = Counter(), Counter(), Counter()
        for sid, _, _, name, start, end, raised in self.spans:
            busy[name] += end - start
            own[name] += end - start - child[sid]
            errors[name] += raised
        calls = self.call_counts()
        out = {}
        for mod_name, fn_name in SPANNED:
            name = f"{mod_name}.{fn_name}"
            out[name + ".calls"] = (calls[name + ".calls"], "count")
            out[name + ".busy_ms"] = (1e3 * busy[name], "ms")
            out[name + ".self_ms"] = (1e3 * own[name], "ms")
            out[name + ".errors"] = (errors[name], "count")
        for key in ("specfun.laguerre.calls", "oracle.quad.calls",
                    "oracle.quad.integrand_evals", "oracle.eigh_tridiagonal.calls",
                    "specfun.eigh_tridiagonal.calls"):
            out[key] = (calls[key], "count")
        info = self._cache_info()
        lookups = info.hits + info.misses
        out["system.angular_profile.hit_ratio"] = (
            info.hits / lookups if lookups else 0.0, "ratio")
        solutions = calls["specfun.mathieu_even_solution.calls"]
        out["specfun.mathieu_char_matrix.per_solution"] = (
            calls["specfun.mathieu_char_matrix.calls"] / solutions if solutions else 0.0,
            "ratio")
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, times in microseconds from the first span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, request, name, start, end, raised in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "request": request, "name": name,
                    "start_us": round(1e6 * (start - origin), 1),
                    "dur_us": round(1e6 * (end - start), 1), "raised": raised,
                }) + "\n")
