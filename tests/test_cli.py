"""Command-line interface: subcommands, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcheun.recurrence
import dcheun.solutions
from dcheun.cli import format_complex, main, parse_complex
from dcheun.errors import NoConvergence

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_complex_literal_round_trip():
    for text, val in [
        ("1", 1.0),
        ("-2.5", -2.5),
        ("i", 1j),
        ("2i", 2j),
        ("-0.5i", -0.5j),
        ("1+2i", 1 + 2j),
        ("1.5-0.25i", 1.5 - 0.25j),
    ]:
        assert parse_complex(text) == val
    for val in (1.0, -2.5, 1j, 1 + 2j, 1.5 - 0.25j, -3j):
        assert parse_complex(format_complex(val)) == val
    for bad in ("", "1 + 2i", "abc", "2i+1i+3"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_eval_terminating_setup(capsys):
    # B3 = -i omega B1 closes the N = 1 series of pair 1 exactly
    code, out, _ = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,0.5i",
        "--pair", "1", "--variant", "zero", "--z", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == "1"
    rec = payload["records"][0]
    assert rec["residual"] < 1e-10
    assert rec["warnings"] == ""


def test_eval_evaluates_each_point_once(capsys, monkeypatch):
    # the residual is formed from the (value, d1, d2) already computed
    real_evaluate, points = dcheun.solutions.evaluate, []

    def counting_evaluate(sol, z, *args):
        points.append(z)
        return real_evaluate(sol, z, *args)

    monkeypatch.setattr(dcheun.solutions, "evaluate", counting_evaluate)
    code, out, _ = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,0.5i",
        "--pair", "1", "--variant", "zero", "--z", "1", "2",
    )
    assert code == 0
    assert len(json.loads(out)["records"]) == 2
    assert points == [1, 2]


def test_eval_sector_warning_field(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,0.5i",
        "--pair", "1", "--variant", "zero", "--z", "-1",
    )
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert "SectorWarning" in rec["warnings"]


def test_eval_malformed_complex_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,bogus", "--pair", "1", "--z", "1",
    )
    assert code == 2
    assert "malformed" in err


def test_eval_csv_column_order(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,0.5i",
        "--pair", "1", "--variant", "zero", "--z", "1", "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "z,value,d1,d2,residual,warnings"


def test_spectrum_tridiag(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--potential", "double-morse",
        "--B", "2", "--C", "0", "--s", "0.5",
    )
    assert code == 0
    payload = json.loads(out)
    energies = [float(r["energy"]) for r in payload["records"]]
    assert energies == pytest.approx([-1.25, 0.75], abs=1e-9)
    assert payload["certificates"]["certified_real_distinct"] is True


def test_spectrum_not_qes_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--potential", "double-morse",
        "--B", "2", "--C", "0", "--s", "0.3", "--method", "tridiag",
    )
    assert code == 3
    assert "half-integer" in err


def test_spectrum_cf_empty_bracket_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "spectrum", "--potential", "second-type",
        "--B", "2", "--s", "0.5", "--method", "cf", "--bracket", "-3", "8",
    )
    assert code == 3
    assert "no spectrum" in err


@pytest.mark.parametrize("argv", [
    ["--B", "nan", "--C", "0", "--s", "0.5"],
    ["--B", "2", "--C", "0", "--s", "nan"],
    ["--B", "2", "--C", "0", "--s", "0.5", "--method", "cf", "--bracket", "-3", "inf"],
    ["--B", "2", "--C", "0", "--s", "0.5", "--method", "cf", "--bracket", "nan", "2"],
], ids=["B_nan", "s_nan", "bracket_inf", "bracket_nan"])
def test_spectrum_non_finite_input_exits_2(argv, capsys):
    code, _, err = run_cli(capsys, "spectrum", "--potential", "double-morse", *argv)
    assert code == 2
    assert "must be finite" in json.loads(err)["error"]


def test_spectrum_cf_recovers_algebraic_levels(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--potential", "double-morse",
        "--B", "2", "--C", "0", "--s", "0.5",
        "--method", "cf", "--bracket", "-3", "2",
    )
    assert code == 0
    energies = [float(r["energy"]) for r in json.loads(out)["records"]]
    assert energies == pytest.approx([-1.25, 0.75], abs=1e-8)


def test_transform_sign_flip(capsys):
    code, out, _ = run_cli(capsys, "transform", "--rule", "r2", "--params", "2,2,2,i,i")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert (rec["B1"], rec["B2"], rec["B3"]) == ("-2.0", "2.0", "2.0")
    assert rec["omega"] == "1.0i" and rec["eta"] == "1.0i"


def test_transform_inversion_fixed_point(capsys):
    code, out, _ = run_cli(capsys, "transform", "--rule", "r1", "--params", "2,2,5,1,0")
    assert code == 0
    rec = json.loads(out)["records"][0]
    assert [rec[k] for k in ("B1", "B2", "B3", "omega", "eta")] == [
        "2.0", "2.0", "5.0", "1.0", "0.0",
    ]


def test_transform_unknown_rule_exits_2(capsys):
    code, _, err = run_cli(capsys, "transform", "--rule", "r9", "--params", "2,2,5,1,0")
    assert code == 2
    assert "unknown rule" in err


@pytest.mark.parametrize("suite, seed", [
    pytest.param("rules", 7, id="rules"),
    pytest.param("kernels", 7, id="kernels"),
    # finite-difference derivatives pushed the K1 adjoint defect over
    # 1e-5 at these seeds
    pytest.param("kernels", 0, id="kernels-seed0"),
    pytest.param("kernels", 2, id="kernels-seed2"),
    pytest.param("integrals", 7, id="integrals"),
    pytest.param("pairs", 7, id="pairs"),
])
def test_verify_suites_pass(suite, seed, capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--seed", str(seed))
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(rec["passed"] for rec in payload["records"])


def test_verify_kernel_fault_injection_fails(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "kernels", "--seed", "7",
        "--inject-kernel-fault", "0.05",
    )
    assert code != 0
    assert json.loads(out)["passed"] is False


def test_rules_covariance_fails_when_every_root_raises(capsys, monkeypatch):
    # a draw whose root cannot be found is no pass: with every draw raising,
    # the covariance check once passed with value 0.0
    def no_root(*args, **kwargs):
        raise NoConvergence("no root")

    monkeypatch.setattr(dcheun.recurrence, "char_root", no_root)
    code, out, _ = run_cli(capsys, "verify", "--suite", "rules", "--seed", "7")
    assert code != 0
    payload = json.loads(out)
    assert payload["passed"] is False
    (rec,) = [r for r in payload["records"] if r["check"] == "r2_covariance_residual"]
    assert rec["passed"] is False


def test_verify_output_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "--suite", "integrals", "--seed", "5")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_nonpositive_tolerance_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "rules", "--tol", "-1")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tolerance_exits_2(tol, capsys):
    # every check would pass under worst < inf and fail under worst < nan
    code, out, err = run_cli(capsys, "verify", "--suite", "rules", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "finite" in json.loads(err)["error"]


def test_missing_subcommand_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--params", "1,1,0.5,0.5i,0.5i", "--pair", "1", "--variant", "zero",
         "--z", "1e308"],
        ["spectrum", "--potential", "double-morse", "--B", "1e200", "--C", "0", "--s", "0.5"],
    ],
    ids=["eval_overflow", "spectrum_overflow"],
)
def test_arithmetic_error_is_a_json_error_line(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(err)["schema_version"] == "1"


@pytest.mark.parametrize("terms", ["-3", "0"])
def test_eval_terms_below_one_exits_2(terms, capsys):
    code, _, err = run_cli(
        capsys, "eval", "--params", "1,1,0.5,0.5i,0.5i", "--pair", "2",
        "--terms", terms, "--z", "1",
    )
    assert code == 2
    assert "--terms" in json.loads(err)["error"]


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _imported_modules(importtime_stderr: str) -> list:
    """Module names from ``python -X importtime`` lines on stderr."""
    return [
        line.rsplit("|", 1)[-1].strip()
        for line in importtime_stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]


def test_import_loads_no_scipy():
    # mpmath is a test oracle only: no library route loads it, and Gamma is
    # the package's own
    proc = _python(
        "-c",
        "import sys, dcheun, dcheun.cli; dcheun.specialfn.gamma(0.3+1j); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cold_verify_integrals_loads_no_scipy_integrate():
    # every integral runs on the package's own exp-sinh rule
    proc = _python("-X", "importtime", "-m", "dcheun.cli", "verify", "--suite", "integrals")
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = _imported_modules(proc.stderr)
    assert "dcheun.quadrature" in modules
    assert [m for m in modules if m.startswith("scipy.integrate") or m == "mpmath"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--rule", "r3", "--params", "2,2,2,i,i"],
        ["verify", "--suite", "rules"],
        # a member whose U terms take the M connection, and so Gamma
        ["eval", "--params", "1,0.5,1,i,0.5i", "--pair", "1", "--variant", "zero",
         "--z", "0.7-0.4i"],
        ["spectrum", "--potential", "double-morse", "--B", "2", "--C", "0.5", "--s", "0.5"],
        ["spectrum", "--potential", "double-morse", "--B", "2", "--C", "0.5", "--s", "0.5",
         "--method", "cf", "--bracket", "-3", "1"],
        ["verify", "--suite", "pairs"],
        ["verify", "--suite", "integrals"],
        ["verify", "--suite", "kernels"],
    ],
    ids=["transform", "verify_rules", "eval", "spectrum_tridiag", "spectrum_cf",
         "verify_pairs", "verify_integrals", "verify_kernels"],
)
def test_cold_cli_process_loads_no_scipy(argv):
    proc = _python("-X", "importtime", "-m", "dcheun.cli", *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["schema_version"] == "1"
    modules = _imported_modules(proc.stderr)
    assert "dcheun" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
