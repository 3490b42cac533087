"""Command-line interface.

Subcommands: ``compute`` (single-state measures with component
breakdowns), ``table`` (the published-table layout for molecule
presets), ``sweep`` (CSV parameter sweeps for plotting), ``validate``
(the cross-validation suite).  Exit codes: 0 success, 1 computation or
validation failure, 2 usage error.

:func:`kratzer2d.validation.evaluate` is the one place that routes a
measure to its closed form or to the oracle; ``compute``, ``sweep`` and
``table`` only solve states and format what it returns.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from contextlib import nullcontext
from typing import IO

from . import molecules
from .measures import shannon_closed
from .oracle import AccuracyError
from .specfun import SeriesSingularError, TruncationError, ValidityWarning
from .system import (
    AngularMode,
    StateSpec,
    SystemParams,
    UnboundAngularError,
    make_params,
    solve_state,
)
from .validation import TABLE_ROWS, CheckResult, evaluate, run_checks

# Each measure and the symbol of its headline value.
SYMBOLS = {"fisher": "I", "shannon": "S", "tsallis": "T", "renyi": "R",
           "wq": "W", "energy": "E"}
MEASURES = tuple(SYMBOLS)
# compute's output for each measure, filled in from evaluate's values.
COMPUTE_LINES = {
    "fisher": "fisher: I={I} (radial I1={I1}, angular I2={I2}; {route})",
    "shannon": "shannon: S={S} (quadrature)",
    "tsallis": "tsallis: T_{q}={T} (W_{q}={W})",
    "renyi": "renyi: R_{q}={R} (W_{q}={W})",
    "wq": "entropic moment: W_{q}={W}",
    "energy": "energy: E={E} E_total={E_total}",
}
# compute's line after Shannon's under the cosine profile, the convention
# of the asymptotic closed form.
SHANNON_CLOSED_LINE = ("shannon closed form (asymptotic): "
                       "S={S_closed} [S1={S1} S2={S2} S3={S3} S4={S4}]")
UNIT_CHOICES = ("raw", "converted")
# --q of compute and sweep; _check_q enforces it.
Q_HELP = "entropy order: integer >= 2 for tsallis/renyi, >= 1 for wq"


def _fmt(x: float) -> str:
    return "%.10g" % x


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _quantum_number(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {value}")
    return value


def _add_state_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=_quantum_number, default=0,
                     help="radial quantum number (>= 0)")
    sub.add_argument("--m", type=_quantum_number, default=0,
                     help="angular quantum number (>= 0)")
    sub.add_argument(
        "--mode", choices=("cosine", "mathieu"), default="cosine",
        help="angular profile: closed-form cosine or numeric even solution",
    )
    sub.add_argument(
        "--method", choices=("series", "matrix"), default="series",
        help="angular eigenvalue route: power series or tridiagonal matrix",
    )


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--De", type=float, help="well depth (hartree)")
    sub.add_argument("--re", type=float, help="equilibrium distance (bohr)")
    sub.add_argument("--D", type=float, default=0.0,
                     help="dipole strength (hartree*bohr^2)")
    sub.add_argument("--delta", type=float, default=0.0,
                     help="flux ratio (dimensionless)")
    sub.add_argument("--mu", type=float, default=None,
                     help="reduced mass (electron masses); default 1 or preset value")
    sub.add_argument("--preset", help="molecule preset name (e.g. Cs2, Li2, SiSn)")
    sub.add_argument("--preset-file", help="JSON file merged over built-in presets")
    sub.add_argument(
        "--units", choices=UNIT_CHOICES, default="raw",
        help="preset interpretation: 'raw' uses the tabulated numbers as "
        "atomic-unit values with mu=1 (reproduces the published tables); "
        "'converted' applies the physical unit conversion",
    )
    sub.add_argument(
        "--mu-convention", choices=molecules.MU_CONVENTIONS, default="nist",
        help="reduced-mass convention for --units converted",
    )


def _preset_params(preset: molecules.MoleculePreset,
                   args: argparse.Namespace) -> SystemParams:
    """A preset's parameters as --units reads them, with --D and --delta."""
    if args.units == "raw":
        return molecules.raw_number_params(preset, Dm=args.D, delta=args.delta)
    return molecules.to_atomic_units(preset, Dm=args.D, delta=args.delta,
                                     mu_convention=args.mu_convention)


def _params_from_args(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> tuple[SystemParams, str]:
    """Build SystemParams from either a preset or explicit values."""
    preset_name = getattr(args, "preset", None)
    if preset_name and (args.De is not None or args.re is not None):
        parser.error("--preset and explicit --De/--re are mutually exclusive")
    if preset_name:
        preset = molecules.get_preset(preset_name, getattr(args, "preset_file", None))
        params = _preset_params(preset, args)
        note = (f"preset {preset.name}, raw-numbers interpretation (mu=1)"
                if args.units == "raw" else
                f"preset {preset.name}, converted units ({args.mu_convention} mass)")
        if args.mu is not None:
            params = make_params(De=params.De, re=params.re, Dm=params.Dm,
                                 delta=params.delta, mu=args.mu)
            note += f", mu overridden to {args.mu}"
        return params, note
    if args.De is None or args.re is None:
        parser.error("either --preset or both --De and --re are required")
    mu = 1.0 if args.mu is None else args.mu
    params = make_params(De=args.De, re=args.re, Dm=args.D, delta=args.delta, mu=mu)
    return params, "explicit parameters"


def _parse_measures(parser: argparse.ArgumentParser, text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    bad = [name for name in names if name not in MEASURES]
    if bad:
        parser.error(f"unknown measure(s) {bad}; choose from {', '.join(MEASURES)}")
    if not names:
        parser.error("no measure given")
    return names


def _check_q(parser: argparse.ArgumentParser, measures: list[str], q: int) -> None:
    """Refuse an entropy order that the requested measures cannot take."""
    if q < 2 and ({"tsallis", "renyi"} & set(measures)):
        parser.error("--q must be an integer >= 2 for tsallis/renyi")
    if q < 1 and "wq" in measures:
        parser.error("--q must be an integer >= 1 for wq")


def _report_warnings(caught: list[warnings.WarningMessage]) -> int:
    """Print each distinct warning once, in first-seen order; return how many."""
    messages = dict.fromkeys(str(w.message) for w in caught)
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)
    return len(messages)


def cmd_compute(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    params, note = _params_from_args(parser, args)
    measures = _parse_measures(parser, args.measure)
    _check_q(parser, measures, args.q)
    spec, q = StateSpec(args.n, args.m), args.q
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state = solve_state(params, spec, mode=AngularMode(args.mode), method=args.method)
        route, values = evaluate(params, state, measures, q)
        lines = [
            f"state: n={spec.n_r} m={spec.m} delta={_fmt(params.delta)} "
            f"D={_fmt(params.Dm)} mode={args.mode} method={args.method}",
            f"parameters: De={_fmt(params.De)} re={_fmt(params.re)} "
            f"mu={_fmt(params.mu)} ({note})",
            f"solution: b={_fmt(state.b)} E_theta={_fmt(state.e_theta)} "
            f"lambda={_fmt(state.lam)} beta={_fmt(state.beta)}",
        ]
        closed_shannon = "shannon" in measures and state.mode is AngularMode.PAPER_COSINE
        if closed_shannon:
            s = shannon_closed(params, state)
            values.update(S_closed=s.S, S1=s.S1, S2=s.S2, S3=s.S3, S4=s.S4)
        fields = {key: _fmt(x) for key, x in values.items()}
        for name in measures:
            lines.append(COMPUTE_LINES[name].format(q=q, route=route, **fields))
            if name == "shannon" and closed_shannon:
                lines.append(SHANNON_CLOSED_LINE.format(**fields))
    reported = _report_warnings(caught)
    if reported:
        lines.append(f"flags: {reported} warning(s), see stderr")
    print("\n".join(lines))
    return 0


def _open_output(path: str | None) -> IO[str]:
    if path is None or path == "-":
        return nullcontext(sys.stdout)  # type: ignore[return-value]
    return open(path, "w", encoding="utf-8", newline="")


def cmd_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.steps < 2:
        parser.error("--steps must be >= 2")
    if not args.start < args.stop:
        parser.error("--from must be < --to")
    measures = _parse_measures(parser, args.measure)
    if len(measures) != 1:
        parser.error("sweep takes exactly one --measure")
    _check_q(parser, measures, args.q)
    measure = measures[0]
    if args.var != "De" and args.De is None:
        parser.error("--De is required when it is not the swept variable")
    deltas = sorted(args.deltas)
    if args.var == "delta":
        deltas = [None]  # the swept value supplies the flux ratio

    step = (args.stop - args.start) / (args.steps - 1)
    grid = [args.start + i * step for i in range(args.steps)]
    mode = AngularMode(args.mode)

    rows = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for value in grid:
            for delta in deltas:
                De = value if args.var == "De" else args.De
                Dm = value if args.var == "D" else args.D
                dl = value if args.var == "delta" else delta
                params = make_params(De=De, re=args.re, Dm=Dm, delta=dl,
                                     mu=1.0 if args.mu is None else args.mu)
                state = solve_state(params, StateSpec(args.n, args.m),
                                    mode=mode, method=args.method)
                _, values = evaluate(params, state, measures, args.q)
                rows.append((value, values[SYMBOLS[measure]], dl))
    _report_warnings(caught)

    with _open_output(args.output) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["var", "value", "measure", "delta", "n", "m"])
        for value, result, dl in rows:
            writer.writerow([args.var, _fmt(value), _fmt(result), _fmt(dl), args.n, args.m])
    return 0


def cmd_table(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = [part.strip() for part in args.presets.split(",") if part.strip()]
    if not names:
        parser.error("--presets must name at least one molecule")
    presets = {name: molecules.get_preset(name, args.preset_file) for name in names}
    if args.q < 2:
        parser.error("--q must be an integer >= 2 for the closed-form entropies")

    params_map = {name: _preset_params(preset, args) for name, preset in presets.items()}
    mass_notes = [f"{name}: mu=1 (raw)" if args.units == "raw" else f"{name}: mu={_fmt(p.mu)}"
                  for name, p in params_map.items()]

    measures = ("fisher", "shannon") if args.tables == 1 else ("tsallis", "renyi")
    header = ["n", "m"] + [f"{SYMBOLS[meas]}({name})" for meas in measures
                           for name in names]

    body: list[list[str]] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for n, m in TABLE_ROWS:
            values = {}
            for name, params in params_map.items():
                state = solve_state(params, StateSpec(n, m), method=args.method)
                _, values[name] = evaluate(params, state, measures, args.q)
            cells = [values[name][SYMBOLS[meas]] for meas in measures for name in names]
            body.append([str(n), str(m)] + [
                (_fmt(v) if args.format == "csv" else "%.6g" % v) for v in cells
            ])
    _report_warnings(caught)

    units_note = (
        "raw-numbers interpretation (tabulated De/re used as atomic-unit values)"
        if args.units == "raw" else f"converted units, {args.mu_convention} masses"
    )
    footer = [
        f"q = {args.q} (Tsallis/Renyi order); delta = {_fmt(args.delta)}; "
        f"D = {_fmt(args.D)}",
        f"units: {units_note}; reduced masses: " + ", ".join(mass_notes),
        "Shannon column computed by quadrature of the exact density",
    ]
    with _open_output(args.output) as handle:
        if args.format == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)
            for line in footer:
                handle.write(f"# {line}\n")
        else:
            widths = [max(len(h), *(len(row[i]) for row in body))
                      for i, h in enumerate(header)]
            def md_row(cells: list[str]) -> str:
                return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
            handle.write(md_row(header) + "\n")
            handle.write("|" + "|".join("-" * (w + 2) for w in widths) + "|\n")
            for row in body:
                handle.write(md_row(row) + "\n")
            for line in footer:
                handle.write(f"\n_{line}_\n")
    return 0


def _report_check(result: CheckResult) -> None:
    print(result.line(), flush=True)
    if result.error:
        print(result.detail, end="", file=sys.stderr, flush=True)


def cmd_validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    names = None
    if args.checks:
        names = [part.strip() for part in args.checks.split(",") if part.strip()]
    with warnings.catch_warnings():
        # The checks deliberately walk into warned-about territory
        # (out-of-range couplings); the verdict lines already carry the
        # outcome.
        warnings.simplefilter("ignore", ValidityWarning)
        results = run_checks(names, progress=_report_check)
    failed = [r for r in results if not r.passed]
    print(f"{len(results)} checks: {len(results) - len(failed)} passed, "
          f"{len(failed)} failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kratzer2d",
        allow_abbrev=False,
        description="Bound states and information measures of a planar "
        "Kratzer-type molecular potential with a dipole term and a "
        "magnetic-flux line.",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="measures for a single state")
    _add_param_flags(p_compute)
    _add_state_flags(p_compute)
    p_compute.add_argument("--measure", default="fisher",
                           help="comma list from: " + ", ".join(MEASURES))
    p_compute.add_argument("--q", type=int, default=2, help=Q_HELP)

    p_table = sub.add_parser("table", help="published-table layout for presets")
    p_table.add_argument("--tables", type=int, choices=(1, 2), default=1,
                         help="1: Fisher/Shannon; 2: Tsallis/Renyi")
    p_table.add_argument("--presets", default="Cs2,Li2,SiSn",
                         help="comma list of preset names")
    p_table.add_argument("--preset-file", help="JSON file merged over built-ins")
    p_table.add_argument("--delta", type=float, default=0.2)
    p_table.add_argument("--D", type=float, default=0.4)
    p_table.add_argument("--q", type=int, default=2,
                         help="Tsallis/Renyi order (recorded in the footer)")
    p_table.add_argument("--units", choices=UNIT_CHOICES, default="raw")
    p_table.add_argument("--mu-convention", choices=molecules.MU_CONVENTIONS,
                         default="nist")
    p_table.add_argument("--method", choices=("series", "matrix"), default="series")
    p_table.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p_table.add_argument("--output", help="output path (default stdout)")

    p_sweep = sub.add_parser("sweep", help="CSV sweep over De, D, or delta")
    p_sweep.add_argument("--var", choices=("De", "D", "delta"), required=True)
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--deltas", type=_float_list, default=[0.0],
                         help="comma list of flux ratios (ignored when --var delta)")
    p_sweep.add_argument("--De", type=float, help="well depth when not swept")
    p_sweep.add_argument("--re", type=float, default=1.0)
    p_sweep.add_argument("--D", type=float, default=0.0)
    p_sweep.add_argument("--mu", type=float, default=None)
    _add_state_flags(p_sweep)
    p_sweep.add_argument("--measure", default="fisher")
    p_sweep.add_argument("--q", type=int, default=2, help=Q_HELP)
    p_sweep.add_argument("--output", help="output path (default stdout)")

    p_validate = sub.add_parser("validate", help="run the cross-validation suite")
    p_validate.add_argument("--checks", help="comma list of check names (default all)")
    return parser


def _config_token(value) -> str:
    """A JSON value as a flag's text: a list becomes a comma list."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the flag values of a --config JSON file put after the subcommand.

    --config is a top-level option, so it is read as the parser reads it:
    from the tokens before the subcommand only, under its full name (the
    parser takes no abbreviations).  Anywhere else it is left to the parser,
    which reports it as a usage error.  Each entry becomes ``--flag=value``
    right after the subcommand name, so it goes through the flag's type and
    choices, and the same flag given later on the command line wins.  A null
    entry leaves its flag at the default.  The parser itself is left as it is.
    """
    subparsers = next(action.choices
                      for action in parser._subparsers._group_actions  # noqa: SLF001
                      if isinstance(action, argparse._SubParsersAction))  # noqa: SLF001
    command = next((i for i, token in enumerate(argv) if token in subparsers
                    and (i == 0 or argv[i - 1] != "--config")), len(argv))
    path = None
    for i, token in enumerate(argv[:command]):
        if token == "--config" and i + 1 < command:
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    with open(path, encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object of flag values")
    config = {str(k).replace("-", "_"): v for k, v in config.items()}
    # each subcommand's flags by destination
    flags = {name: {a.dest: a.option_strings[-1]
                    for a in sub._actions if a.option_strings}  # noqa: SLF001
             for name, sub in subparsers.items()}
    unknown = sorted(set(config).difference(*flags.values()))
    if unknown:
        raise ValueError(f"--config keys {unknown} name no flag of any subcommand")
    if command == len(argv):
        return argv  # no subcommand: the parser reports it
    own = flags[argv[command]]
    given = [f"{own[k]}={_config_token(v)}"
             for k, v in config.items() if k in own and v is not None]
    return argv[:command + 1] + given + argv[command + 1:]


# The parser of every main() call in this process, built on the first one.
# Nothing changes it after that: --config values go into argv instead.
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else list(argv)
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    # Looked up per call, so the module's current cmd_* functions run.
    commands = {"compute": cmd_compute, "table": cmd_table,
                "sweep": cmd_sweep, "validate": cmd_validate}
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        return commands[args.command](parser, args)
    except SeriesSingularError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: retry with --method matrix", file=sys.stderr)
        return 1
    except (UnboundAngularError, TruncationError,
            AccuracyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
