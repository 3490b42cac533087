"""Command-line interface: golden outputs, routing, exit codes.

Most tests drive main(argv) in process and capture the streams; the
byte-stability and warning-order tests go through real subprocesses
since reproducible output is part of the interface contract.
"""

import json
import os
import subprocess
import sys

import pytest

import kratzer2d.measures
import kratzer2d.validation
from kratzer2d import AccuracyError
from kratzer2d.cli import main
from kratzer2d.validation import VALIDATE_CHECKS

COMPUTE_GOLDEN = """\
state: n=0 m=0 delta=0 D=0 mode=cosine method=series
parameters: De=1 re=1 mu=1 (explicit parameters)
solution: b=0 E_theta=0 lambda=1.914213562 beta=1.0448155
fisher: I=1.140561795 (radial I1=1.140561795, angular I2=0; closed form)
shannon: S=3.964817007 (quadrature)
shannon closed form (asymptotic): S=2.077473911 [S1=0.3862943611 S2=1.013208942 S3=0.6779706082 S4=0]
tsallis: T_2=0.9620007796 (W_2=0.03799922037)
renyi: R_2=3.270189636 (W_2=0.03799922037)
energy: E=-0.5458197144 E_total=0.4541802856
"""

SWEEP_GOLDEN = """\
var,value,measure,delta,n,m
De,0.5,0.2332361516,0,2,0
De,0.5,0.2246506048,0.3,2,0
De,1.625,1.325930067,0,2,0
De,1.625,1.30327305,0.3,2,0
De,2.75,2.659427372,0,2,0
De,2.75,2.628206471,0.3,2,0
De,3.875,4.071402408,0,2,0
De,3.875,4.034370655,0.3,2,0
De,5,5.508413247,0,2,0
De,5,5.467182533,0.3,2,0
"""


def test_compute_standard_golden(capsys):
    code = main(
        ["compute", "--De", "1", "--re", "1",
         "--measure", "fisher,shannon,tsallis,renyi,energy"]
    )
    assert code == 0
    assert capsys.readouterr().out == COMPUTE_GOLDEN


def test_compute_mathieu_mode_routes_to_quadrature(capsys):
    code = main(
        ["compute", "--De", "3", "--re", "1", "--D", "0.1", "--delta", "0.2",
         "--n", "2", "--m", "2", "--mode", "mathieu", "--measure", "fisher,wq"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "solution: b=0.4 E_theta=-4.801089543" in out
    # Closed forms assume the cosine profile, so the numeric mode must
    # report quadrature values instead.
    assert ("fisher: I=2.894468261 (radial I1=1.852192656, "
            "angular I2=1.042275605; quadrature)") in out
    assert "entropic moment: W_2=0.004611989346" in out


def test_compute_mathieu_shannon_omits_the_cosine_closed_form(capsys):
    # The asymptotic closed form belongs to the cosine profile (its S1 is
    # the cosine angular entropy); under the Mathieu profile only the
    # quadrature value is printed.
    code = main(
        ["compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2",
         "--n", "2", "--m", "1", "--mode", "mathieu", "--method", "matrix",
         "--measure", "shannon"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "shannon: S=5.317208842 (quadrature)"
    assert not any("closed form" in line for line in lines)


def test_sweep_csv_golden(capsys):
    code = main(
        ["sweep", "--var", "De", "--from", "0.5", "--to", "5", "--steps", "5",
         "--deltas", "0,0.3", "--n", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN


def test_sweep_over_flux_uses_value_as_delta(capsys):
    code = main(
        ["sweep", "--var", "delta", "--from", "0", "--to", "0.4",
         "--steps", "3", "--De", "2"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "var,value,measure,delta,n,m"
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[0] == "delta"
        assert parts[1] == parts[3]  # swept value supplies the flux ratio
    assert len(lines) == 4


def test_table_fisher_shannon_markdown(capsys):
    code = main(["table", "--tables", "1"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "| n | m | I(Cs2)   | I(Li2)   | I(SiSn) | S(Cs2)  | S(Li2)  | S(SiSn) |"
    )
    assert lines[2] == (
        "| 1 | 0 | 0.521434 | 1.25552  | 2.78011 | 6.57038 | 5.6488  | 4.99063 |"
    )
    assert "_q = 2 (Tsallis/Renyi order); delta = 0.2; D = 0.4_" in out
    assert "raw-numbers interpretation" in out


def test_table_tsallis_renyi_csv(capsys):
    code = main(["table", "--tables", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,T(Cs2),T(Li2),T(SiSn),R(Cs2),R(Li2),R(SiSn)"
    assert lines[1] == (
        "1,0,0.9974621333,0.9935899165,0.9877969386,"
        "5.976431422,5.049882989,4.406068421"
    )
    assert len([l for l in lines if l and not l.startswith("#")]) == 16


def test_table_writes_output_file(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code = main(["table", "--tables", "2", "--format", "csv",
                 "--output", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    content = out_path.read_text()
    assert content.startswith("n,m,T(Cs2)")
    assert "# q = 2" in content


@pytest.mark.parametrize(
    "argv",
    [
        ["compute"],  # neither preset nor explicit De/re
        ["compute", "--De", "1", "--re", "1", "--preset", "Cs2"],
        ["compute", "--De", "1", "--re", "1", "--measure", "tsallis", "--q", "1"],
        ["compute", "--De", "1", "--re", "1", "--measure", "bogus"],
        ["sweep", "--var", "De", "--from", "0.5", "--to", "5", "--steps", "1"],
        ["sweep", "--var", "De", "--from", "5", "--to", "0.5", "--steps", "3"],
        ["sweep", "--var", "De", "--from", "0.5", "--to", "5", "--steps", "3",
         "--measure", "fisher,shannon"],
        ["sweep", "--var", "D", "--from", "0", "--to", "2", "--steps", "3"],
        ["compute", "--De", "1", "--re", "1", "--n", "-1"],
        ["compute", "--De", "1", "--re", "1", "--m", "-1"],
    ],
    ids=["no-params", "preset-conflict", "tsallis-q1", "bad-measure",
         "one-step", "reversed-range", "two-measures", "missing-De",
         "negative-n", "negative-m"],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    capsys.readouterr()  # drain argparse's usage message


@pytest.mark.parametrize("measure,q", [("wq", "0"), ("tsallis", "1"), ("renyi", "0")])
def test_sweep_checks_q_like_compute(measure, q, capsys):
    messages = []
    for argv in (["compute", "--De", "1", "--re", "1"],
                 ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "2"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--measure", measure, "--q", q])
        assert excinfo.value.code == 2
        messages.append(capsys.readouterr().err.splitlines()[-1])
    assert messages[0] == messages[1]
    assert messages[1].startswith("kratzer2d: error: --q must be an integer >= ")


def test_unknown_preset_exits_1(capsys):
    assert main(["compute", "--preset", "Nope"]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown molecule preset 'Nope' (known: Cs2, Li2, SiSn)\n"


def test_singular_series_order_suggests_matrix(capsys):
    # m_eff = m + delta = 0.5 has vanishing series denominators.
    code = main(["compute", "--De", "1", "--re", "1", "--D", "0.1",
                 "--delta", "0.5", "--measure", "energy"])
    assert code == 1
    err = capsys.readouterr().err
    assert "series denominators vanish near m_eff = 0.5" in err
    assert "hint: retry with --method matrix" in err


def test_singular_order_matrix_method_succeeds(capsys):
    code = main(["compute", "--De", "1", "--re", "1", "--D", "0.1",
                 "--delta", "0.5", "--measure", "energy", "--method", "matrix"])
    assert code == 0
    assert "energy: E=" in capsys.readouterr().out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "measure": "energy"}))
    code = main(["--config", str(cfg), "compute", "--De", "1", "--re", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "state: n=2 m=0" in out
    assert "energy: E=-0.1305392042 E_total=0.8694607958" in out
    # explicit flags still beat config defaults
    code = main(["--config", str(cfg), "compute", "--De", "1", "--re", "1",
                 "--n", "0"])
    assert code == 0
    assert "state: n=0 m=0" in capsys.readouterr().out


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "measure": "energy"}))
    assert main(["--config", str(cfg), "compute", "--De", "1", "--re", "1"]) == 0
    assert "state: n=2 m=0" in capsys.readouterr().out
    assert main(["compute", "--De", "1", "--re", "1"]) == 0
    out = capsys.readouterr().out
    assert "state: n=0 m=0" in out
    assert "fisher: I=" in out and "energy:" not in out


def test_config_key_naming_no_flag_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nn": 2, "measure": "energy"}))
    code = main(["--config", str(cfg), "compute", "--De", "1", "--re", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --config keys ['nn'] name no flag of any subcommand\n"


def test_validate_single_check_passes(capsys):
    code = main(["validate", "--checks", "renyi-limit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] renyi-limit" in out
    assert "1 checks: 1 passed, 0 failed" in out


def test_validate_failing_check_exits_1(capsys):
    code = main(["validate", "--checks", "mathieu-series-vs-matrix"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[FAIL] mathieu-series-vs-matrix" in out
    assert "0 passed, 1 failed" in out


def test_validate_raising_check_reports_error_and_exits_1(capsys, monkeypatch):
    def boom():
        raise AccuracyError("W_q quadrature did not settle", 1.859e-9)

    monkeypatch.setitem(VALIDATE_CHECKS, "entropic-moments", boom)
    code = main(["validate", "--checks", "entropic-moments,renyi-limit"])
    assert code == 1
    captured = capsys.readouterr()
    assert "Traceback" in captured.err and "in boom" in captured.err
    lines = captured.out.splitlines()
    assert lines[0].startswith("[ERROR] entropic-moments: AccuracyError:")
    assert lines[1].startswith("[PASS] renyi-limit")
    assert lines[2] == "2 checks: 1 passed, 1 failed"


def test_validate_unknown_check_exits_1(capsys):
    code = main(["validate", "--checks", "bogus"])
    assert code == 1
    assert "unknown checks" in capsys.readouterr().err


def test_sweep_output_is_byte_stable():
    argv = [sys.executable, "-m", "kratzer2d.cli", "sweep", "--var", "D",
            "--from", "0", "--to", "1", "--steps", "4", "--De", "3",
            "--deltas", "0.2", "--n", "1", "--m", "1"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"var,value,measure,delta,n,m\n")


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_compute_evaluates_the_entropic_moment_once(monkeypatch, capsys):
    # Tsallis, Renyi and W_q all come from one W_q, in either route.
    closed = _counting(monkeypatch, kratzer2d.measures, "log_gamma0")
    code = main(["compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1",
                 "--measure", "tsallis,renyi,wq", "--q", "3"])
    assert code == 0
    assert len(closed) == 1
    numeric = _counting(monkeypatch, kratzer2d.validation, "wq_numeric")
    code = main(["compute", "--De", "3", "--re", "1", "--D", "0.1", "--delta", "0.2",
                 "--n", "1", "--m", "1", "--mode", "mathieu", "--method", "matrix",
                 "--measure", "tsallis,renyi,wq", "--q", "3"])
    assert code == 0
    assert len(numeric) == 1
    capsys.readouterr()


def test_sweep_mathieu_tsallis_matches_compute(capsys):
    state = ["--re", "1", "--D", "0.1", "--n", "1", "--m", "1",
             "--mode", "mathieu", "--method", "matrix", "--measure", "tsallis"]
    code = main(["sweep", "--var", "De", "--from", "2", "--to", "3", "--steps", "3",
                 "--deltas", "0.2", "--q", "3"] + state)
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[1] for row in rows] == ["2", "2.5", "3"]
    for row in rows:
        code = main(["compute", "--De", row[1], "--delta", "0.2", "--q", "3"] + state)
        assert code == 0
        assert f"tsallis: T_3={row[2]} (W_3=" in capsys.readouterr().out


def test_compute_flags_count_the_printed_warnings(capsys):
    # A ValidityWarning from the series and a CancellationWarning from
    # gamma0, each printed once however often it was raised.
    code = main(["compute", "--De", "1", "--re", "1", "--D", "0.3", "--delta", "0.2",
                 "--n", "10", "--m", "1", "--q", "4", "--measure", "fisher,tsallis,renyi"])
    assert code == 0
    captured = capsys.readouterr()
    printed = captured.err.splitlines()
    assert len(printed) == len(set(printed)) == 2
    assert all(line.startswith("warning: ") for line in printed)
    assert captured.out.splitlines()[-1] == "flags: 2 warning(s), see stderr"


def test_table_warnings_do_not_depend_on_hash_seed():
    argv = [sys.executable, "-m", "kratzer2d.cli", "table", "--tables", "2",
            "--format", "csv"]
    errs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        errs.append(subprocess.run(argv, capture_output=True, check=True, env=env).stderr)
    assert len(errs[0].splitlines()) >= 2
    assert errs[0] == errs[1]
