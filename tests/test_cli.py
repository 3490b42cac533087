"""Command-line interface: golden outputs, routing, exit codes.

Most tests drive main(argv) in process and capture the streams; the
byte-stability and warning-order tests go through real subprocesses
since reproducible output is part of the interface contract.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kratzer2d.cli
import kratzer2d.measures
import kratzer2d.oracle
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

MATHIEU_Q3_GOLDEN = """\
state: n=2 m=1 delta=0.2 D=0.3 mode=mathieu method=matrix
parameters: De=3 re=1 mu=1 (explicit parameters)
solution: b=1.2 E_theta=-1.440323092 lambda=3.235017933 beta=1.146127879
fisher: I=2.971321926 (radial I1=2.509273382, angular I2=0.4620485439; quadrature)
entropic moment: W_3=6.160423787e-05
tsallis: T_3=0.4999691979 (W_3=6.160423787e-05)
renyi: R_3=4.847389947 (W_3=6.160423787e-05)
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


def test_compute_mathieu_second_order_golden(capsys):
    # Fisher's angular sums are taken at q = 2 and W_3 needs a second grid
    # of the same profile, which the q = 2 test above never reaches.
    code = main(
        ["compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2",
         "--n", "2", "--m", "1", "--mode", "mathieu", "--method", "matrix",
         "--measure", "fisher,wq,tsallis,renyi", "--q", "3"]
    )
    assert code == 0
    assert capsys.readouterr().out == MATHIEU_Q3_GOLDEN


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


def test_table_in_converted_units_exits_1_under_the_series(capsys):
    # At b = 4 mu D ~ 1e4-2e5 the series is far outside its window and
    # leaves the first state with no bound radial branch.
    assert main(["table", "--units", "converted"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: radicand ") and err.count("\n") == 1


def test_table_in_converted_units_answers_under_the_matrix(capsys):
    assert main(["table", "--units", "converted", "--method", "matrix"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "| n | m | I(Cs2)  | I(Li2)  | I(SiSn) | S(Cs2)  | S(Li2)  | S(SiSn) |"
    )
    assert sum(line.startswith("| ") for line in lines[2:]) == 15


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
        ["compute", "--De", "1", "--re", "1", "--units", "converted",
         "--measure", "energy"],
        ["validate", "--checks", ","],
        ["compute", "--preset", "Cs2", "--mu-convention", "nist"],
        ["table", "--mu-convention", "nist"],
        ["compute", "--De", "1", "--re", "1", "--mode", "mathieu", "--method", "series"],
        ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "3",
         "--De", "1", "--deltas", ",", "--measure", "fisher"],
        ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "3",
         "--De", "1", "--deltas", "0.1,x", "--measure", "fisher"],
        ["compute", "--De", "1", "--re", "1", "--n", "1.5"],
        ["compute", "--De", "1", "--re", "1", "--measure", ","],
        ["table", "--presets", ","],
        ["table", "--q", "1"],
    ],
    ids=["no-params", "preset-conflict", "tsallis-q1", "bad-measure",
         "one-step", "reversed-range", "two-measures", "missing-De",
         "negative-n", "negative-m", "units-without-preset", "no-checks",
         "compute-mu-convention", "table-mu-convention", "mathieu-series",
         "empty-deltas", "bad-delta", "fractional-n", "no-measures", "no-presets",
         "table-q1"],
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


def test_preset_compute_matches_table_cells(capsys):
    # README's example; I and S are the Cs2 cells of the (1, 0) row of
    # `table --tables 1 --format csv`.
    code = main(["compute", "--preset", "Cs2", "--delta", "0.2", "--D", "0.4",
                 "--n", "1", "--measure", "fisher,shannon"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == ("parameters: De=0.4524686595 re=4.648 mu=1 "
                        "(preset Cs2, raw-numbers interpretation (mu=1))")
    assert lines[3].startswith("fisher: I=0.5214337349 ")
    assert lines[4] == "shannon: S=6.570381026 (quadrature)"


@pytest.mark.parametrize(
    "flags,line",
    [(["--units", "converted"],
      "parameters: De=0.01662791654 re=8.783447027 mu=121135.9091 "
      "(preset Cs2, converted units (nist mass))"),
     (["--mu", "2"],
      "parameters: De=0.4524686595 re=4.648 mu=2 "
      "(preset Cs2, raw-numbers interpretation (mu=1), mu overridden to 2.0)")],
    ids=["converted", "mu-override"],
)
def test_preset_parameters_line_notes(flags, line, capsys):
    assert main(["compute", "--preset", "Cs2", "--measure", "energy"] + flags) == 0
    assert capsys.readouterr().out.splitlines()[1] == line


@pytest.mark.parametrize(
    "flags",
    [["--m", "2", "--D", "nan", "--measure", "fisher"],
     ["--De", "inf", "--measure", "energy"]],
    ids=["nan-dipole", "inf-depth"],
)
def test_non_finite_parameters_exit_1(flags, capsys):
    assert main(["compute", "--De", "1", "--re", "1"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be" in err


def test_nan_radicand_exits_1(capsys):
    # At D = 1e300 the characteristic-number series overflows to NaN,
    # which a bound check written as radicand <= 0 let through.
    argv = ["compute", "--De", "1", "--re", "1", "--D", "1e300", "--measure", "energy"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: radicand nan") and err.count("\n") == 1


@pytest.mark.parametrize("flags, reason", [
    (["--De", "2.66e281", "--re", "5.7e67", "--mu", "1.94e8", "--n", "20", "--m", "1",
      "--delta", "2.29", "--measure", "energy,fisher"],
     "lambda = 1/2 + sqrt(radicand) overflows"),
    (["--De", "1e300", "--re", "1e-100", "--mu", "1e150", "--m", "1", "--measure", "energy"],
     "beta = -mu A / (n_r + lambda) overflows"),
    (["--De", "1e-300", "--re", "1e-150", "--mu", "1e-150", "--m", "1", "--measure", "energy"],
     "beta = -mu A / (n_r + lambda) underflows"),
], ids=["lambda-inf", "beta-inf", "beta-0"])
def test_lambda_or_beta_outside_the_double_range_exits_1(flags, reason, capsys):
    # An infinite lambda once printed lambda=inf beta=nan and E=nan with
    # exit 0, and a beta that underflows to 0 a bare "math domain error"
    # from ln N^2.
    assert main(["compute"] + flags) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


def _limited_memory():
    # 1 GB of address space: a layout past the panel or row limit fails
    # with MemoryError instead of taking the machine's memory.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flags, reason", [
    (["--De", "1e14", "--measure", "shannon"], "panels"),
    (["--De", "1e300", "--measure", "shannon"], "panels"),
    (["--De", "1e30", "--measure", "renyi,wq"], "ln W_q"),
    (["--De", "1e30", "--measure", "renyi"], "ln W_q"),
    (["--De", "1e300", "--measure", "wq"], "ln W_q"),
    (["--De", "1", "--n", "100000", "--measure", "shannon"], "limit of 8192"),
    (["--De", "1", "--n", "100000", "--mode", "mathieu", "--measure", "fisher"],
     "limit of 8192"),
    (["--De", "1", "--n", "100", "--q", "1000", "--measure", "wq"], "MiB limit"),
    (["--De", "1", "--n", "2000", "--measure", "wq"], "MiB limit"),
], ids=["shannon-1e14", "shannon-1e300", "renyi-wq-1e30", "renyi-1e30", "wq-1e300",
        "shannon-n1e5", "mathieu-fisher-n1e5", "wq-n100-q1000", "wq-n2000"])
def test_requests_past_the_numeric_range_exit_1(flags, reason):
    # Shannon's panel rule would lay out 7.1e6 panels at De 1e14 (and
    # overflow its count at 1e300); the W_q closed form's cancelling
    # terms round off past 1e-10 of ln W_q at both larger depths.  At
    # n = 1e5 the Laguerre zeros would take a 74.5 GiB Jacobi matrix
    # (Shannon's n rows, Fisher's 2 (n + 6)).  The gamma0 sum of W_q
    # would raise a packed integer of about 29 GiB at (q, n) = (1000, 100)
    # and of 46 MiB at (2, 2000), past its 32 MiB limit.
    argv = [sys.executable, "-m", "kratzer2d.cli", "compute", "--re", "1"] + flags
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          preexec_fn=_limited_memory)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert reason in proc.stderr


def test_energy_and_entropies_at_a_reduced_mass_of_1e_300(capsys):
    # beta = 1.3e-300 squares to 0, but E = -8.9e-301 is a normal double, and
    # S and R_2 are the De 1e-150 values plus 300 ln 10.
    argv = ["compute", "--De", "1", "--re", "1", "--mu", "1e-300", "--m", "1",
            "--measure", "energy,shannon,renyi"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "energy: E=-8.888888889e-301 E_total=1\n" in out
    assert "shannon: S=1384.399946 (quadrature)\n" in out
    assert "renyi: R_2=1383.97672 (W_2=0)\n" in out


@pytest.mark.parametrize("mode", ["cosine", "mathieu"])
def test_energy_at_a_reduced_mass_of_5e307(mode, capsys):
    # 4 mu passes the double range, but the coupling 4 (mu Dm) at Dm = 0 is 0.
    argv = ["compute", "--De", "1", "--re", "1", "--mu", "5e307", "--measure", "energy",
            "--mode", mode]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "solution: b=0 E_theta=0 " in out and out.endswith("energy: E=-1 E_total=0\n")
    assert err == ""


def test_converted_preset_moment_at_lambda_465(capsys):
    argv = ["compute", "--preset", "Cs2", "--units", "converted", "--delta", "0.2",
            "--D", "0.4", "--n", "8", "--m", "2", "--method", "matrix",
            "--measure", "renyi", "--q", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "lambda=465.109993 " in lines[2]
    assert lines[-1].startswith("renyi: R_4=3.573731729 ")


def test_fisher_where_lambda_rounds_to_one_half_exits_0(capsys):
    assert main(["compute", "--De", "1e-300", "--re", "1", "--measure", "fisher"]) == 0
    assert "angular I2=0;" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags,q,w",
    [(["--De", "1e6", "--re", "7e-5", "--mu", "1e9", "--m", "1",
       "--measure", "wq,tsallis,renyi"], 34, "6.374886699e+305"),
     (["--De", "0.05", "--re", "1", "--D", "0.01", "--delta", "0.2", "--m", "1",
       "--mode", "mathieu", "--method", "matrix", "--measure", "renyi"], 100, "0"),
     (["--De", "1e6", "--re", "7e-5", "--mu", "1e9", "--D", "1e-12", "--m", "1",
       "--mode", "mathieu", "--method", "matrix", "--measure", "renyi"], 36, "inf")],
    ids=["closed-q34", "mathieu-underflow", "mathieu-overflow"],
)
def test_moment_outside_exp_range_keeps_renyi_finite(flags, q, w, capsys):
    # ln W_34 = 704.1, so W_34 still fits a double; W_100 underflows to 0
    # and W_36 overflows, but R_q divides ln W_q and stays finite.
    assert main(["compute"] + flags + ["--q", str(q)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    head, tail = line.split(" (")
    assert head.startswith(f"renyi: R_{q}=")
    assert math.isfinite(float(head.split("=")[1]))
    assert tail == f"W_{q}={w})"


def test_unsettled_fisher_quadrature_exits_1(monkeypatch, capsys):
    # A recurrence that returns NaN makes Fisher's drift NaN; the gate
    # must refuse it.
    monkeypatch.setattr(kratzer2d.oracle, "_laguerre_scaled",
                        lambda n, alpha, x: (np.full_like(x, np.nan),) * 2 + (0.0,))
    code = main(["compute", "--De", "3", "--re", "1", "--delta", "0.2", "--n", "2",
                 "--m", "1", "--mode", "mathieu", "--method", "matrix",
                 "--measure", "fisher"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: Fisher quadrature did not settle (achieved nan)\n"


def test_unknown_preset_exits_1(capsys):
    assert main(["compute", "--preset", "Nope"]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown molecule preset 'Nope' (known: Cs2, Li2, SiSn)\n"


@pytest.mark.parametrize("value", [None, True], ids=["null", "true"])
@pytest.mark.parametrize("command", [["compute", "--preset", "Cs2"], ["table"]],
                         ids=["compute", "table"])
def test_preset_file_field_that_is_not_a_number_exits_1(tmp_path, capsys, value, command):
    # null and true are not numbers (float(True) would read 1 eV): one
    # error line that names the preset and the field.
    path = tmp_path / "presets.json"
    path.write_text(json.dumps({"name": "Cs2", "De_eV": value}))
    assert main(command + ["--preset-file", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: preset 'Cs2' field 'De_eV' must be a number, got {value!r}\n"


SINGULAR_ORDER_ARGV = ["compute", "--De", "1", "--re", "1", "--D", "0.1",
                       "--delta", "0.5", "--measure", "energy"]


def test_singular_series_order_suggests_matrix(capsys):
    # m_eff = m + delta = 0.5 has vanishing series denominators: the default
    # and --method series requests answer by the matrix, and the state line says so.
    outputs = []
    for extra in ([], ["--method", "series"]):
        assert main(SINGULAR_ORDER_ARGV + extra) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].err == ""
    assert "mode=cosine method=matrix" in outputs[0].out
    assert "energy: E=-0.484730592 " in outputs[0].out


def test_singular_order_matrix_method_succeeds(capsys):
    assert main(SINGULAR_ORDER_ARGV) == 0
    default = capsys.readouterr()
    code = main(SINGULAR_ORDER_ARGV + ["--method", "matrix"])
    assert code == 0
    matrix = capsys.readouterr()
    assert "energy: E=" in matrix.out
    assert matrix == default


@pytest.mark.parametrize("argv", [
    ["table", "--tables", "1", "--delta", "0"],
    ["sweep", "--var", "delta", "--from", "0", "--to", "1", "--steps", "3",
     "--De", "1", "--D", "0.1", "--measure", "energy"],
], ids=["table-delta-0", "sweep-over-flux"])
def test_singular_series_orders_answer_in_table_and_sweep(argv, capsys):
    # m + delta = 1 in the table's m = 1 rows, 0.5 at the sweep's middle point.
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "sweep":
        assert out.splitlines()[2] == "delta,0.5,-0.484730592,0.5,0,0"
    else:
        assert len(out.splitlines()) == 23


def test_mathieu_mode_defaults_to_the_matrix(capsys):
    argv = ["compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2",
            "--n", "2", "--m", "1", "--mode", "mathieu", "--measure", "fisher,wq"]
    assert main(argv) == 0
    default = capsys.readouterr()
    assert main(argv + ["--method", "matrix"]) == 0
    assert capsys.readouterr() == default
    assert "mode=mathieu method=matrix" in default.out


def test_repeated_measure_prints_once(capsys):
    assert main(["compute", "--De", "1", "--re", "1", "--measure", "fisher,energy,fisher"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[3:]] == ["fisher", "energy"]


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


@pytest.mark.parametrize("entry, flag", [({"n": -1}, ["--n", "-1"]),
                                         ({"mode": "bogus"}, ["--mode", "bogus"])],
                         ids=["negative-n", "bad-mode"])
def test_config_values_pass_the_flags_checks(tmp_path, capsys, entry, flag):
    # A bad config value is the usage error the same flag gives on the
    # command line, with the same message.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    messages = []
    for argv in (["--config", str(cfg), "compute"], ["compute"] + flag):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--De", "1", "--re", "1"])
        assert excinfo.value.code == 2
        messages.append(capsys.readouterr().err.splitlines()[-1])
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"kratzer2d compute: error: argument {flag[0]}: ")


def test_config_list_is_a_comma_list_and_null_the_default(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"deltas": [0, 0.3], "mu": None}))
    code = main(["--config", str(cfg), "sweep", "--var", "De", "--from", "0.5",
                 "--to", "5", "--steps", "5", "--n", "2"])
    assert code == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(kratzer2d.cli, "_PARSER", None)
    built = _counting(monkeypatch, kratzer2d.cli, "build_parser")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"measure": "energy"}))
    for argv in (["compute", "--De", "1", "--re", "1"],
                 ["--config", str(cfg), "compute", "--De", "1", "--re", "1"],
                 ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "2"]):
        assert main(argv) == 0
    assert len(built) <= 1
    capsys.readouterr()


def _parsed(parser, argv):
    """The parser's own reading of argv: the repr of its namespace (NaN-aware,
    since repr prints nan alike), or its exit code."""
    try:
        return repr(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _fuzzed_argv(rng, parser):
    """A subcommand (now and then none) and up to five flags, each with a
    value that its flag takes or one that tests the edges of argv reading."""
    subcommands = kratzer2d.cli._subcommands(parser)
    name = rng.choice(list(subcommands) + ["--config", "bogus"])
    actions = [a for a in subcommands.get(name, parser)._actions if a.option_strings]
    argv = [name]
    for _ in range(rng.randrange(6)):
        action = rng.choice(actions)
        flag = action.option_strings[-1]
        value = (str(rng.choice(action.choices)) if action.choices
                 else rng.choice(["1", "2", "0.5", "3", "energy", "Cs2", "0.1,0.2"]))
        if rng.random() < 0.3:
            value = rng.choice(["-1", "-0.5", "", "x", "nan", "inf", "1e400", " 5", "1_0",
                                "1.5", "-", "--", "--De", "fisher,renyi", "cosine", "De"])
        kind = rng.random()
        if kind < 0.05:
            argv.append(f"{flag}={value}")
        elif kind < 0.1:
            argv += [flag[:-1], value]  # an abbreviation, or "-" from "-h"
        elif kind < 0.13:
            argv += ["--bogus", value]
        else:
            argv += [flag, value]
    if len(argv) > 1 and rng.random() < 0.1:
        del argv[rng.randrange(1, len(argv))]  # an odd token count
    return argv


def test_the_flag_reader_gives_the_parsers_namespace_or_leaves_argv_to_it(capsys):
    # Flag orders, repeated flags, "=" forms, abbreviations, values that are
    # negative, empty or not numbers, and odd token counts: wherever the
    # reader answers, the parser gives the same namespace; a namespace for
    # an argv that the parser refuses fails here.
    parser = kratzer2d.cli.build_parser()
    tables = kratzer2d.cli._flag_tables(parser)
    rng = random.Random(5)
    read = refused = 0
    for _ in range(4000):
        argv = _fuzzed_argv(rng, parser)
        args = kratzer2d.cli._read_flags(tables, argv)
        parsed = _parsed(parser, argv)
        if args is not None:
            read += 1
            assert repr(args) == parsed, argv
        refused += isinstance(parsed, int)
    capsys.readouterr()
    assert read > 400 and refused > 400


@pytest.mark.parametrize("argv", [
    ["compute", "--De", "2.5", "--re", "1.5", "--n", "3", "--m", "1", "--delta", "0.2",
     "--measure", "renyi", "--q", "3"],
    ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "3", "--n", "1",
     "--D", "0.3", "--measure", "tsallis", "--q", "2"],
    ["table", "--tables", "2", "--format", "csv"],
    ["validate", "--checks", "renyi-limit"],
], ids=lambda argv: argv[0])
def test_a_well_formed_request_skips_the_parser(argv, monkeypatch, capsys):
    main(["compute", "--De", "1", "--re", "1", "--measure", "energy"])  # build the parser

    def refuse(*args, **kwargs):
        raise AssertionError("parse_args called")

    monkeypatch.setattr(kratzer2d.cli._PARSER, "parse_args", refuse)
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["compute", "--bogus", "1"],
    ["compute", "--De=1", "--re", "1"],
    ["compute", "--De", "1", "--re", "1", "--mea", "energy"],
    ["compute", "--De", "-1", "--re", "1"],
    ["compute", "--De", "1", "--re", "1", "--n", "1.5"],
    ["compute", "-h"],
], ids=["unknown", "equals-form", "abbreviation", "negative", "bad-type", "help"])
def test_any_other_request_gets_the_parsers_own_answer(argv, monkeypatch, capsys):
    def answer():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code,) + tuple(capsys.readouterr())

    answered = answer()
    assert kratzer2d.cli._read_flags(kratzer2d.cli._FLAGS, argv) is None
    monkeypatch.setattr(kratzer2d.cli, "_read_flags", lambda tables, argv: None)
    assert answered == answer()


def test_config_key_naming_no_flag_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nn": 2, "measure": "energy"}))
    code = main(["--config", str(cfg), "compute", "--De", "1", "--re", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --config keys ['nn'] name no flag of any subcommand\n"


def test_config_help_key_names_no_flag(tmp_path, capsys):
    # -h/--help is an action, not a flag with a value: a config file
    # cannot set it, and says so as for any other unknown key.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"help": True}))
    code = main(["--config", str(cfg), "compute", "--De", "1", "--re", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --config keys ['help'] name no flag of any subcommand\n"


def test_fisher_past_the_square_of_beta_prints_a_finite_value(capsys):
    argv = ["compute", "--De", "1.81e239", "--re", "6.68e-17", "--mu", "9.72e70",
            "--n", "8", "--delta", "0.75", "--measure", "fisher"]
    assert main(argv) == 0
    assert ("fisher: I=9.547504512e+172 (radial I1=9.547504512e+172, angular I2=0; "
            "closed form)") in capsys.readouterr().out


def test_config_abbreviation_is_a_usage_error(tmp_path, capsys):
    # The top-level parser takes no abbreviations, so --conf is not read
    # as --config, and the file is not skipped without a word either.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2}))
    with pytest.raises(SystemExit) as excinfo:
        main(["--conf", str(cfg), "compute", "--De", "1", "--re", "1",
              "--measure", "energy"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_config_after_the_subcommand_is_a_usage_error(tmp_path, capsys):
    # --config belongs to the top-level parser, which reads it only before
    # the subcommand; after it, the file is not opened at all.
    with pytest.raises(SystemExit) as excinfo:
        main(["compute", "--De", "1", "--re", "1",
              "--config", str(tmp_path / "nope.json")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


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


SWEEP_DE_ARGV = ["sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "2",
                 "--De", "1", "--measure", "fisher"]


@pytest.mark.parametrize("repeated, once", [
    (["validate", "--checks", "renyi-limit,renyi-limit"],
     ["validate", "--checks", "renyi-limit"]),
    (["table", "--tables", "1", "--presets", "Cs2,Cs2"],
     ["table", "--tables", "1", "--presets", "Cs2"]),
    (SWEEP_DE_ARGV + ["--deltas", "0.2,0.2"], SWEEP_DE_ARGV + ["--deltas", "0.2"]),
], ids=["checks", "presets", "deltas"])
def test_a_repeated_list_entry_counts_once(capsys, repeated, once):
    assert main(repeated) == 0
    out = capsys.readouterr().out
    assert main(once) == 0
    assert out == capsys.readouterr().out


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
    # The series' ValidityWarning, raised for each of the three measures,
    # is printed once and counted once.
    code = main(["compute", "--De", "1", "--re", "1", "--D", "0.3", "--delta", "0.2",
                 "--n", "10", "--m", "1", "--q", "4", "--measure", "fisher,tsallis,renyi"])
    assert code == 0
    captured = capsys.readouterr()
    printed = captured.err.splitlines()
    assert len(printed) == 1
    assert printed[0].startswith("warning: characteristic-number series outside")
    assert captured.out.splitlines()[-1] == "flags: 1 warning(s), see stderr"


def test_compute_quiet_where_gamma0_cancels(capsys):
    # The gamma0 sum cancels about 14 digits here; the fixed-point sum
    # keeps the value exact to its bound, so nothing is flagged.
    code = main(["compute", "--De", "3", "--re", "1", "--n", "4", "--m", "1",
                 "--measure", "tsallis", "--q", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "flags:" not in captured.out


def test_table_warnings_do_not_depend_on_hash_seed():
    argv = [sys.executable, "-m", "kratzer2d.cli", "table", "--tables", "2",
            "--format", "csv"]
    errs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        errs.append(subprocess.run(argv, capture_output=True, check=True, env=env).stderr)
    printed = errs[0].decode().splitlines()
    assert len(printed) == 2
    assert all(line.startswith("warning: characteristic-number series outside")
               for line in printed)
    assert errs[0] == errs[1]


def _fresh_python(script: str, *args: str) -> subprocess.CompletedProcess:
    # A new interpreter on the same package: this one has scipy loaded.
    src = str(Path(kratzer2d.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


SCIPY_ON_DEMAND = """
import contextlib, io, sys
from kratzer2d.cli import main

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

def scipy_modules():
    return [name for name in sys.modules if name.startswith("scipy")]

run("compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1",
    "--measure", "tsallis", "--q", "2")
run("sweep", "--var", "De", "--from", "1", "--to", "2", "--steps", "3", "--De", "1")
assert not scipy_modules(), scipy_modules()
run("compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1", "--measure", "shannon")
run("validate", "--checks", "entropic-moments,renyi-limit")
assert not scipy_modules(), scipy_modules()
run("compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2", "--n", "1",
    "--m", "1", "--mode", "mathieu", "--method", "matrix", "--measure", "fisher")
assert "scipy.linalg" in sys.modules, scipy_modules()
"""


def test_closed_forms_never_load_scipy():
    # Cosine closed forms solve no eigenproblem, and the quadratures take
    # their Laguerre zeros from numpy, so scipy stays unloaded until the
    # Mathieu matrix route needs its tridiagonal eigensolver.
    proc = _fresh_python(SCIPY_ON_DEMAND)
    assert proc.returncode == 0, proc.stderr


TWICE = """
import contextlib, io, json, sys
from kratzer2d.cli import main

runs = []
for _ in range(2):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(sys.argv[1:])
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


@pytest.mark.parametrize("argv", [
    ["compute", "--De", "3", "--re", "1", "--D", "0.3", "--delta", "0.2", "--n", "1",
     "--m", "1", "--mode", "mathieu", "--method", "matrix", "--measure", "fisher,wq"],
    ["compute", "--De", "1", "--re", "1", "--n", "2", "--m", "1", "--measure", "shannon"],
], ids=["mathieu-matrix", "cosine-shannon"])
def test_first_request_prints_what_a_warm_one_does(argv):
    # The Mathieu case's first eigensolve imports scipy inside compute's
    # warning capture, so a warning raised by that import would be printed
    # and flagged.
    proc = _fresh_python(TWICE, *argv)
    assert proc.returncode == 0, proc.stderr
    (first_code, first_out, first_err), (code, out, _) = json.loads(proc.stdout)
    assert first_code == code == 0
    assert first_err == ""
    assert "flags:" not in first_out
    assert first_out == out
