"""Parse the CLI's printed values and compare a sample with the reference.

Every successful request's output must parse.  A seeded sample is then
compared, number by number, with reference.reference().  A printed value
v agrees with its reference r when

    |v - r| <= rtol |r| + atol + half a unit in v's last printed digit,

with (rtol, atol) no tighter than the route's own stated target:

* closed forms: rtol 1e-10 (they are exact formulas in float64);
* Shannon by adaptive quadrature: atol 1e-9, shannon_numeric's target;
* Gauss-rule oracle (mathieu mode): rtol 1e-10, the oracle's drift gate.
"""

from __future__ import annotations

import math
import random
import re

from reference import reference
from workloads import PRESETS, Request

_COMPUTE_PATTERNS = {
    "energy": r"^energy: E=(?P<E>\S+) E_total=(?P<E_total>\S+)$",
    "fisher": r"^fisher: I=(?P<I>\S+) \(radial I1=(?P<I1>\S+), angular I2=(?P<I2>\S+);",
    "shannon": r"^shannon: S=(?P<S>\S+) \(quadrature\)$",
    "tsallis": r"^tsallis: T_\d+=(?P<T>\S+) \(W_\d+=(?P<W>\S+)\)$",
    "renyi": r"^renyi: R_\d+=(?P<R>\S+) \(W_\d+=(?P<W>\S+)\)$",
    "wq": r"^entropic moment: W_\d+=(?P<W>\S+)$",
}
# The value a sweep row or a table cell carries, per measure.
_HEADLINE = {"energy": "E", "fisher": "I", "shannon": "S", "tsallis": "T",
             "renyi": "R", "wq": "W"}
_TABLE_MEASURES = {"I": "fisher", "S": "shannon", "T": "tsallis", "R": "renyi"}


class ParseError(ValueError):
    """A successful request printed something the benchmark cannot read."""


def parse(request: Request, out: str):
    """{key: (value, significant digits printed)}; raises ParseError.

    The CLI prints %.10g everywhere except markdown tables (%.6g); %g drops
    trailing zeros, so the digit count comes from the format, not the text.
    """
    if request.kind == "compute":
        pattern = re.compile(_COMPUTE_PATTERNS[request.measure], re.M)
        match = pattern.search(out)
        if match is None:
            raise ParseError(f"no {request.measure} line in {out!r}")
        return {k: (float(v), 10) for k, v in match.groupdict().items()}
    if request.kind == "sweep":
        lines = out.strip().splitlines()
        steps = int(request.argv[request.argv.index("--steps") + 1])
        if lines[0] != "var,value,measure,delta,n,m" or len(lines) != steps + 1:
            raise ParseError(f"unexpected sweep output {lines[:2]!r}")
        return [(float(row.split(",")[2]), 10) for row in lines[1:]]
    if request.kind == "table":
        if request.extra["format"] == "csv":
            digits = 10
            rows = [line.split(",") for line in out.splitlines()
                    if line and not line.startswith("#")]
        else:
            digits = 6
            rows = [[cell.strip() for cell in line.strip("|").split("|")]
                    for line in out.splitlines() if line.startswith("| ")]
        header, body = rows[0], rows[1:]
        if len(body) != 15 or any(len(row) != len(header) for row in body):
            raise ParseError(f"unexpected table shape {len(body)} rows")
        return {(int(row[0]), int(row[1]), name): (float(cell), digits)
                for row in body for name, cell in zip(header[2:], row[2:])}
    if request.kind == "trends":
        verdict = out.strip()
        if not verdict.startswith(("[PASS] trend-suite", "[FAIL] trend-suite")):
            raise ParseError(f"unexpected trend verdict {verdict!r}")
        return verdict
    raise ParseError(f"nothing to parse for {request.kind}")


def _half_unit(value: float, digits: int) -> float:
    """Half a unit in the last of `digits` significant digits of value."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


def _tolerance(measure: str) -> tuple[float, float]:
    """(rtol, atol): Shannon by quadrature has an absolute target."""
    return (0.0, 1e-9) if measure == "shannon" else (1e-10, 0.0)


def _sweep_grid(request: Request, index: int) -> str:
    """The swept value of row `index`, by the sweep's own grid arithmetic."""
    argv = request.argv
    start, stop, steps = (float(argv[argv.index(flag) + 1])
                          for flag in ("--from", "--to", "--steps"))
    return repr(start + index * ((stop - start) / (steps - 1)))


def _targets(request: Request, parsed, rng: random.Random):
    """(measure, q, state, route, {key: (value, digits)}) for each value to check."""
    if request.kind == "compute":
        yield request.measure, request.q, request.state, request.route, parsed
    elif request.kind == "sweep":
        index = rng.randrange(len(parsed))
        De, re_, D, delta, n, m = request.state
        value = _sweep_grid(request, index)
        if request.extra["var"] == "De":
            De = value
        else:
            D = value
        yield (request.measure, request.q, (De, re_, D, delta, n, m), "cosine",
               {_HEADLINE[request.measure]: parsed[index]})
    elif request.kind == "table":
        n, m, column = rng.choice(sorted(parsed))
        measure = _TABLE_MEASURES[column[0]]
        De, re_ = PRESETS[column[2:-1]]
        state = (repr(De), repr(re_), request.extra["D"], request.extra["delta"], n, m)
        yield (measure, request.q, state, "cosine",
               {_HEADLINE[measure]: parsed[(n, m, column)]})


def compare(request: Request, parsed, rng: random.Random) -> list[str]:
    """Mismatch descriptions for one sampled request (empty when it agrees)."""
    if request.kind == "trends":  # criterion 6 passes at the reference commit
        return [] if parsed.startswith("[PASS]") else [parsed]
    problems = []
    for measure, q, state, route, printed in _targets(request, parsed, rng):
        ref = reference(measure, q, state, route)
        rtol, atol = _tolerance(measure)
        for key, (value, digits) in printed.items():
            limit = rtol * abs(ref[key]) + atol + _half_unit(value, digits)
            if not abs(value - ref[key]) <= limit:
                problems.append(f"{measure} {key} at {state} ({route}, q={q}): "
                                f"printed {value!r}, reference {ref[key]!r}")
    return problems
