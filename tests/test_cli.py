import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from su2qfi import __version__, cli, mqfi_closed_form, numerics, spin, split_velocity
from su2qfi.cli import (FIGURE_IDS, MAX_POINTS, MAX_TROTTER_STEPS, SCENARIOS, _fmt,
                        _validation_verdict, evaluate_point, main)

import reference_oracles
from reference_oracles import drive_frequency_total, mqfi_split


def static_omega0_mqfi(omega0, lam, j, t):
    """The library's closed form for estimating omega0 of the static field (lam, 0, omega0)."""
    return mqfi_closed_form(j, split_velocity([lam, 0.0, omega0], [0.0, 0.0, 1.0]), t)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(path):
    with open(path) as handle:
        return [line.rstrip("\n") for line in handle if not line.startswith("#")]


def parse_csv(path):
    lines = data_lines(path)
    header = lines[0].split(",")
    rows = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return header, rows


# --- single-point evaluation ---------------------------------------------------

def test_mqfi_polar_angle_optimum(capsys):
    code, out, _ = run(["mqfi", "case1-theta", "--r", "1", "--t", "3.14159265", "--j", "1"], capsys)
    assert code == 0
    total = float(out.splitlines()[1].split("=")[1])
    assert total == pytest.approx(16.0, abs=1e-6)


def test_mqfi_driven_coupling_on_resonance(capsys):
    code, out, _ = run(
        ["mqfi", "case3-lambda", "--omega0", "1", "--omega", "1", "--lambda", "1", "--t", "2", "--j", "1"],
        capsys,
    )
    assert code == 0
    assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(16.0, abs=1e-12)


def test_mqfi_generic_multiplicative(capsys):
    code, out, _ = run(
        ["mqfi", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1", "--t", "2", "--j", "0.5"], capsys
    )
    assert code == 0
    assert float(out.splitlines()[1].split("=")[1]) == pytest.approx(4.0, abs=1e-12)


def test_mqfi_json_output(capsys):
    code, out, _ = run(
        ["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "1", "--json"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["scenario"] == "case2-omega0"
    expected = static_omega0_mqfi(1.0, 1.0, 1.0, 1.0)
    assert record["total"] == pytest.approx(expected.total, rel=1e-15)
    # stable key ordering for diff-based use
    assert list(record) == sorted(record)


def test_spin_within_rounding_of_a_half_integer_is_that_half_integer(capsys):
    # the closed forms take the rounded j, as the oracles' spin matrices do
    point = ["mqfi", "case2-lambda", "--omega0", "1", "--lambda", "1", "--t", "1"]
    rounded, exact = (run([*point, "--j", j], capsys) for j in ("0.5000000001", "0.5"))
    assert rounded == exact and "total=0.92202815261731264\n" in exact[1]


# --- exit codes ------------------------------------------------------------------

def test_missing_parameter_exits_2(capsys):
    code, _, err = run(["mqfi", "case2-omega0", "--t", "1"], capsys)
    assert code == 2
    assert "requires" in err


def test_zero_static_field_answers_all_quadratic(capsys):
    # a zero static field is not degenerate: the whole 4 j^2 t^2 |v|^2 is quadratic
    code, out, err = run(
        ["mqfi", "case2-omega0", "--omega0", "0", "--lambda", "0", "--t", "1.5", "--j", "2.5", "--json"], capsys
    )
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["total"] == record["quadratic"] == 4 * 2.5**2 * 1.5**2
    assert record["oscillatory"] == 0.0


def test_unknown_scenario_exits_2(capsys):
    code, _, _ = run(["mqfi", "case9", "--t", "1"], capsys)
    assert code == 2


def test_bad_vector_exits_2(capsys):
    code, _, _ = run(["mqfi", "generic", "--rvec", "1,2", "--vvec", "0,0,1", "--t", "1"], capsys)
    assert code == 2


def test_sweep_bad_range_exits_2(capsys):
    code, _, _ = run(
        ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
         "--start", "5", "--stop", "1"], capsys
    )
    assert code == 2


def test_sweep_forbids_omega_with_delta(capsys):
    code, _, err = run(
        ["sweep", "case3-omega", "--omega0", "0", "--lambda", "1", "--omega", "1", "--t", "1",
         "--variable", "Delta", "--start", "-1", "--stop", "1"], capsys
    )
    assert code == 2
    assert "Delta" in err


def test_validation_failure_exits_3(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
         "--start", "0.5", "--stop", "1.5", "--points", "3", "--validate",
         "--fd-step", "0.5", "--out", str(out)], capsys
    )
    assert code == 3
    assert "validation failed" in err
    assert out.exists()  # the CSV with the offending residuals is still written


def test_validation_failure_names_swept_value_and_margin(tmp_path, capsys):
    code, _, err = run(
        ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
         "--start", "0.5", "--stop", "1.5", "--points", "3", "--validate",
         "--fd-step", "0.5", "--out", str(tmp_path / "sweep.csv")], capsys
    )
    assert code == 3
    assert err == ("validation failed: fd residual 0.016461095470234211 at row 2 (t=1.5) "
                   "is not within 1e-06 (margin 1.65e+04)\n")


def test_series_oracle_of_a_huge_field_is_finite(tmp_path, capsys):
    # ||h|| = 1e14: the commutator chain of the unscaled field overflowed, and 0 * inf gave NaN at t = 0
    out = tmp_path / "sweep.csv"
    code, _, err = run(["sweep", "case2-omega0", "--omega0", "1e14", "--lambda", "1", "--variable", "t",
                        "--start", "0", "--stop", "1e-9", "--points", "3", "--validate", "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    residuals = rows[:, header.index("residual_series"):]
    assert np.all(np.isfinite(residuals)) and np.all(residuals < 1e-6)


def test_moving_frame_series_failure_exits_3_as_on_every_scenario(capsys):
    # a tiny field over a huge time gives the matrix series NaN (ROADMAP item 6); the drive-frequency
    # row fails validation naming the series oracle, as its generic twin does, where the moving
    # frame's composition once rejected the series as a parameter error
    tiny, grid = "4.909093465297727e-91", ["--variable=t", "--start=0", "--stop=2.037035976334486e+91", "--points=3"]
    for argv in (["sweep", "case3-omega", f"--omega0={tiny}", f"--lambda={tiny}", "--omega=4.909093465297727e-92"],
                 ["sweep", "generic", f"--rvec=0,0,{tiny}", f"--vvec=0,0,{tiny}"]):
        code, _, err = run([*argv, *grid, "--validate"], capsys)
        assert code == 3, argv
        assert err.startswith("validation failed: series residual nan at row 1 (t=1.018517988167243e+91) "), argv


@pytest.mark.parametrize("argv", [
    ["sweep", "case1-theta", "--r=1e300", "--variable=t", "--start=0", "--stop=1e-300", "--points=3"],
    ["sweep", "generic", "--rvec=0,0,1", "--vvec=1e200,0,0", "--variable=t", "--start=0", "--stop=1e-200", "--points=3"],
], ids=["case1-theta", "generic"])
def test_finite_difference_step_of_a_velocity_whose_squares_overflow(argv, tmp_path, capsys):
    # |v|^2 above the double range once made the step NaN: an exit 2 on a value never given
    out = tmp_path / "sweep.csv"
    assert run([*argv, "--validate", "--out", str(out)], capsys)[:3:2] == (0, "")
    header, rows = parse_csv(out)
    residuals = rows[:, header.index("residual_series"):]
    assert np.all(residuals < 1e-11)


def test_failed_oracle_check_names_its_first_row(tmp_path, capsys):
    # a step far below roundoff makes the stencil's anti-Hermitian residue fail on every row
    code, out, err = run(
        ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
         "--start", "0.5", "--stop", "1.5", "--points", "300", "--validate", "--fd-step", "1e-13"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("su2qfi: parameter error: anti-Hermitian residue ")
    assert err.endswith("finite-difference step 1.000e-13 is misconfigured at row 0 (t=0.5)\n")


@pytest.mark.parametrize("argv, option", [
    (["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--r", "5", "--t", "1"], "--r"),
    (["mqfi", "case1-theta", "--r", "1", "--rvec", "1,2,3", "--t", "1"], "--rvec"),
    (["sweep", "case3-lambda", "--omega0", "1", "--lambda", "1", "--omega", "1", "--phi", "0.2",
      "--variable", "t", "--start", "0", "--stop", "1"], "--phi"),
    (["optimal-state", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1", "--lambda", "1", "--t", "1"], "--lambda"),
], ids=["mqfi", "vector-option", "sweep", "optimal-state"])
def test_option_the_scenario_does_not_take_exits_2(argv, option, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"su2qfi: parameter error: scenario {argv[1]} does not take {option}\n"


def test_generic_field_beyond_squared_norm_overflow(capsys):
    # |rvec|^2 overflows, the radial split does not: MQFI = 4 j^2 t^2 |v|^2
    code, out, _ = run(["mqfi", "generic", "--rvec", "1e200,0,0", "--vvec", "1,0,0", "--t", "1"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == ["total=4", "quadratic=4", "oscillatory=0"]


def test_unwritable_output_exits_4(tmp_path, capsys):
    code, _, err = run(
        ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
         "--start", "0", "--stop", "1", "--points", "3",
         "--out", str(tmp_path / "missing" / "x.csv")], capsys
    )
    assert code == 4
    assert "i/o error" in err


@pytest.mark.parametrize("argv", [
    ["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "1e200"],   # t^2 overflows
    ["mqfi", "case2-omega0", "--omega0", "nan", "--lambda", "1", "--t", "1"],
    ["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "inf"],
    ["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "-1"],
    ["mqfi", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "1", "--j", "0.3"],
    ["mqfi", "case1-theta", "--r", "1e308", "--t", "10"],   # finite input, non-finite r t
    ["mqfi", "case3-omega", "--omega0", "1", "--lambda", "1", "--omega", "0", "--t", "1e200"],   # total 2e400
    ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
     "--start", "-1", "--stop", "1", "--points", "3"],
    ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
     "--start", "0", "--stop", "1", "--points", str(MAX_POINTS + 1)],
    ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
     "--start", "0", "--stop", "1", "--points", str(10**13)],
    ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
     "--start", "0", "--stop", "1", "--points", "1e3"],
    ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
     "--start", "0", "--stop", "1", "--t", "5"],
    ["figure", "fig1a", "--validate", "--series-order", "0"],
    ["figure", "fig1a", "--validate", "--steps", "0"],
    # stop - start overflows, which np.linspace would turn into inf and NaN grid values
    ["sweep", "case2-lambda", "--omega0", "1", "--t", "1", "--variable", "lambda",
     "--start=-1e308", "--stop=1e308", "--points", "3"],
    ["sweep", "case3-omega", "--omega0", "1", "--lambda", "1", "--t", "1", "--variable", "Delta",
     "--start=-1e308", "--stop=1e308", "--points", "3"],
    # the squared eigenvalue spreads, 4e310 and 2.5e313, are above the double range
    ["optimal-state", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1e155", "--j", "1", "--t", "1"],
    ["optimal-state", "generic", "--rvec", "5e-324,-1e-300,3.14159", "--vvec", "0.5,-1e-300,1e155",
     "--j", "50", "--t", "0.5"],
], ids=["overflowing-t", "nan-param", "inf-t", "negative-t", "bad-spin",
        "nonfinite-output", "overflowing-kp-t", "negative-t-sweep", "points-cap-plus-1", "points-1e13",
        "points-float-text", "t-on-t-sweep", "figure-series-order-0", "figure-steps-0",
        "range-wider-than-doubles-lambda", "range-wider-than-doubles-delta",
        "optimal-state-infinite-qfi", "optimal-state-nan-qfi"])
def test_bad_input_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("su2qfi: parameter error: ")
    assert "Traceback" not in err


def test_t_on_a_t_sweep_is_named(capsys):
    code, _, err = run(["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
                        "--start", "0", "--stop", "1", "--t", "5"], capsys)
    assert code == 2
    assert "--t" in err


_SWEPT_OPTIONS = [(scenario, variable) for scenario in SCENARIOS
                  for variable in SCENARIOS[scenario].sweepable if variable != "Delta"]


@pytest.mark.parametrize("scenario, variable", _SWEPT_OPTIONS, ids=[f"{s}-{v}" for s, v in _SWEPT_OPTIONS])
def test_swept_parameter_option_exits_2(scenario, variable, tmp_path, capsys):
    # the grid sets the swept parameter, so its own option is an error, worded for every parameter as for t
    options = [f"--{name}=0.7,0.2,0.5" if name in ("rvec", "vvec") else f"--{name}=0.7"
               for name in SCENARIOS[scenario].params]
    out = tmp_path / "sweep.csv"
    code, stdout, err = run(["sweep", scenario, *options, "--t=1", f"--variable={variable}", "--start=0",
                             "--stop=1", "--points=2", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"su2qfi: parameter error: {variable} is the swept variable; "
                   f"do not pass --{variable} when sweeping {variable}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["--version"]])
def test_help_and_version_exit_0(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == "" and (out.startswith("usage: su2qfi") or out == f"su2qfi {__version__}\n")


def test_overflowing_validated_sweep_prints_one_stderr_line():
    # r t overflows in the oracles; numpy's warnings stay off the real stderr
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "su2qfi", "sweep", "case1-r", "--theta", "1", "--phi", "0.5", "--t", "10",
         "--variable", "r", "--start", "1e306", "--stop", "3e307", "--points", "600", "--validate"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("su2qfi: parameter error: ")


def _scenario_options(scenario, s):
    if scenario.startswith("case1-"):
        return [f"--r={s!r}", "--theta=1", "--phi=0.5"] if scenario != "case1-phi" else [f"--r={s!r}", "--theta=1"]
    if scenario.startswith("case2-"):
        return [f"--omega0={s!r}", f"--lambda={-s!r}"]
    if scenario.startswith("case3-"):
        return [f"--omega0={s!r}", f"--lambda={s!r}", f"--omega={s / 2!r}"]
    return [f"--rvec={s!r},{-s!r},{s!r}", "--vvec=0.3,-1.1,0.4"]


_ALL_SCENARIOS = ["case1-theta", "case1-phi", "case1-r", "case2-omega0", "case2-lambda",
                  "case3-omega", "case3-lambda", "case3-omega0", "generic"]


@pytest.mark.parametrize("scenario", _ALL_SCENARIOS)
def test_finite_inputs_from_tiny_to_huge_never_raise(scenario, capsys):
    # every size from 1e-300 to 1e300 ends in an answer, one parameter-error
    # line or, under --validate, one validation-failure line; a sweep's
    # parameter error, overflow included, names its row by the swept t
    for s in (1e-300, 1e-200, 1e-100, 1e-80, 1.0, 1e80, 1e100, 1e200, 1e300):
        for t in ("1e-300", "1", "1e300"):
            options = _scenario_options(scenario, s)
            sweep = ["sweep", scenario, *options, "--variable=t", "--start=0", f"--stop={t}", "--points=3"]
            for argv in (["mqfi", scenario, *options, f"--t={t}"], sweep, sweep + ["--validate", "--steps=50"]):
                code, out, err = run(argv, capsys)
                assert code in ((0, 2, 3) if "--validate" in argv else (0, 2)), argv
                assert err.count("\n") == int(code != 0) and "Traceback" not in err, argv
                if code == 2 and argv[0] == "sweep":
                    assert "at t=" in err or "(t=" in err, (argv, err)


# signed magnitudes from 1e-300 to 1e300, and exact zeros
_SIGNED = st.one_of(st.just(0.0), st.builds(lambda sign, exponent: sign * 10.0**exponent,
                                            st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)))
_TIME = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent))


def _validation(draw, steps):
    """--validate with ``steps`` time-ordered steps and, on some lines, an --fd-step from 1e-300 to 1e300."""
    fd_step = [f"--fd-step={10.0 ** draw(st.floats(-300.0, 300.0))!r}"] if draw(st.booleans()) else []
    return ["--validate", f"--steps={steps}", *fd_step]


def _rarely(draw) -> bool:
    # a validated figure or a validated j = 50 sweep takes about 0.1 s; these are drawn rarely
    return draw(st.integers(0, 5)) == 5


def _swept_option(variable: str) -> str:
    """The option that a sweep of ``variable`` must not take: its own, or --omega for Delta."""
    return "omega" if variable == "Delta" else variable


@st.composite
def _command_lines(draw):
    """One mqfi, optimal-state, sweep, validated-sweep or figure command line, the first four on a drawn scenario point."""
    command = draw(st.sampled_from(["mqfi", "optimal-state", "sweep", "validate", "figure"]))
    if command == "figure":
        argv = ["figure", draw(st.sampled_from(FIGURE_IDS))]
        return argv + (_validation(draw, draw(st.integers(1, 2000))) if _rarely(draw) else [])
    scenario = draw(st.sampled_from(_ALL_SCENARIOS))
    spec = SCENARIOS[scenario]
    j = 50.0 if command == "validate" and _rarely(draw) else draw(
        st.sampled_from([0.5, 1.0, 2.0] if command == "validate" else [0.5, 1.0, 3.0, 10.0]))
    params = {name: ",".join(repr(draw(_SIGNED)) for _ in range(3 if name in ("rvec", "vvec") else 1))
              for name in spec.required + tuple(spec.defaults)}
    t = draw(_TIME)
    if command in ("mqfi", "optimal-state"):
        return [command, scenario, f"--j={j!r}", f"--t={t!r}", *(f"--{k}={v}" for k, v in params.items())] + (
            ["--json"] if command == "mqfi" and draw(st.booleans()) else [])
    variable = draw(st.sampled_from(spec.sweepable))
    own = draw(st.integers(0, 4)) == 4   # now and then the swept parameter's own option too, an error
    if variable == "t":
        grid = [0.0, t]
    else:
        grid = sorted([draw(_SIGNED), draw(_SIGNED)])
        if not own:
            params = {k: v for k, v in params.items() if k != _swept_option(variable)}
    argv = ["sweep", scenario, f"--j={j!r}", f"--variable={variable}", f"--start={grid[0]!r}", f"--stop={grid[1]!r}",
            "--points=3", *(f"--{k}={v}" for k, v in params.items())] + ([] if variable == "t" and not own else [f"--t={t!r}"])
    return argv + (_validation(draw, 50) if command == "validate" else [])


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=_command_lines())
def test_cli_contract_fuzz(argv):
    # every command line ends in an answer of finite numbers, or in one stderr line and a
    # documented exit code: 2, or 3 under --validate; never a traceback or a numpy warning
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in ((0, 2, 3) if "--validate" in argv else (0, 2)), (argv, err)
    assert err.count("\n") == int(code != 0) and err.endswith("\n" if code else ""), (argv, err)
    swept = [a.split("=", 1)[1] for a in argv if a.startswith("--variable=")]
    if swept and any(a.startswith(f"--{_swept_option(swept[0])}=") for a in argv):
        assert code == 2, (argv, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert out and re.search(r"(?i)\b(nan|inf|infinity)\b", out) is None, (argv, out)


# every numeric option, on a command line that takes it
_SWEEP_LAMBDA = ["sweep", "case2-lambda", "--omega0=1", "--t=1", "--variable=lambda"]
_NUMERIC_OPTIONS = [
    (["mqfi", "case1-theta", "--t=1"], "--r"),
    (["mqfi", "case1-theta", "--r=1", "--t=1"], "--theta"),
    (["mqfi", "case1-theta", "--r=1", "--t=1"], "--phi"),
    (["mqfi", "case3-omega", "--lambda=1", "--omega=0.5", "--t=1"], "--omega0"),
    (["mqfi", "case3-omega", "--omega0=1", "--omega=0.5", "--t=1"], "--lambda"),
    (["mqfi", "case3-omega", "--omega0=1", "--lambda=1", "--t=1"], "--omega"),
    (["mqfi", "generic", "--vvec=0,1,0", "--t=1"], "--rvec"),
    (["optimal-state", "generic", "--rvec=1,0,0", "--t=1"], "--vvec"),
    (["mqfi", "generic", "--rvec=1,0,0", "--vvec=0,1,0", "--t=1"], "--j"),
    (["mqfi", "generic", "--rvec=1,0,0", "--vvec=0,1,0"], "--t"),
    (["optimal-state", "generic", "--rvec=1,0,0", "--vvec=0,1,0", "--t=1"], "--phase"),
    ([*_SWEEP_LAMBDA, "--stop=1", "--points=3"], "--start"),
    ([*_SWEEP_LAMBDA, "--start=-1e6", "--points=3"], "--stop"),
    ([*_SWEEP_LAMBDA, "--start=0", "--stop=1"], "--points"),
    (["sweep", "case2-lambda", "--omega0=1", "--variable=lambda", "--start=0", "--stop=1", "--points=3"], "--t"),
    (["sweep", "case3-lambda", "--omega0=1", "--omega=0.5", "--t=1", "--variable=lambda", "--start=0", "--stop=1",
      "--points=3", "--validate"], "--steps"),
    ([*_SWEEP_LAMBDA, "--start=0", "--stop=1", "--points=3", "--validate"], "--fd-step"),
]
_NEGATIVE_SPELLINGS = ["-2", "-0", "-.5", "-3.", "-1e5", "-1.5e-3", "-1E+2", "-inf", "-Infinity", "-nan", "-1,0,0",
                       "-1e-3,-2,.5", "-inf,0,0", "-1,2"]


def _answer(argv, capsys):
    """Exit code, stdout without its timestamp, and stderr of one command line."""
    code, out, err = run(argv, capsys)
    return code, re.sub(r'timestamp"?[=:] ?"?[^"\s]+', "timestamp", out), err


@pytest.mark.parametrize("argv, option", _NUMERIC_OPTIONS, ids=[f"{a[0]}{o}" for a, o in _NUMERIC_OPTIONS])
def test_negative_value_after_a_space_reads_as_its_equals_form(argv, option, capsys):
    # argparse's own pattern takes "-1e5", "-inf" or "-1,0,0" after a space for an unknown option
    for value in _NEGATIVE_SPELLINGS:
        spaced = _answer([*argv, option, value], capsys)
        assert spaced == _answer([*argv, f"{option}={value}"], capsys), value
        assert "expected one argument" not in spaced[2], value


# how each scenario's twin scales: the options scaled by 2^k (t by 2^-k), and the power of 4^-k the parts take
_SCALED_RATES = {"case1-theta": (("r",), 0), "case1-phi": (("r",), 0), "case1-r": (("r",), 1),
                 "case2-omega0": (("omega0", "lambda"), 1), "case2-lambda": (("omega0", "lambda"), 1),
                 "case3-omega": (("omega0", "lambda", "omega"), 1), "case3-lambda": (("omega0", "lambda", "omega"), 1),
                 "case3-omega0": (("omega0", "lambda", "omega"), 1), "generic": (("rvec", "vvec"), 0)}


def _exact_scalings(x: float, sign: int) -> range:
    """The k for which x 2^(sign k) is zero or a normal double, so the scaling is exact."""
    if x == 0.0:
        return range(-2000, 2001)
    e = math.frexp(x)[1]   # |x| 2^n is normal for -1021 <= e + n <= 1024
    return range(-1021 - e, 1025 - e) if sign > 0 else range(e - 1024, e + 1022)


@st.composite
def _scale_twins(draw):
    """(point, twin, n): mqfi on a drawn point, on its twin of rates times 2^k and t times 2^-k, and the parts' 2^n."""
    scenario = draw(st.sampled_from(_ALL_SCENARIOS))
    spec = SCENARIOS[scenario]
    rates, power = _SCALED_RATES[scenario]
    params = {name: [draw(_SIGNED) for _ in range(3 if name in ("rvec", "vvec") else 1)]
              for name in spec.required + tuple(spec.defaults)}
    t = draw(_TIME)
    ks = [_exact_scalings(x, 1) for name in rates for x in params[name]] + [_exact_scalings(t, -1)]
    lo, hi = max(k.start for k in ks), min(k.stop for k in ks) - 1
    k = min(max(draw(st.integers(-1000, 1000)), lo), hi)
    tail = [f"--j={draw(st.sampled_from([0.5, 1.0, 3.0, 50.0]))!r}"] + (["--json"] if draw(st.booleans()) else [])

    def argv(n):
        values = {name: [math.ldexp(x, n) if name in rates else x for x in xs] for name, xs in params.items()}
        return ["mqfi", scenario, f"--t={math.ldexp(t, -n)!r}", *tail,
                *(f"--{name}={','.join(map(repr, xs))}" for name, xs in values.items())]
    return argv(0), argv(k), -2 * k * power


def _ldexp(x, n) -> float:
    """x 2^n as a double: inf above the double range, as numpy's ldexp gives it."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(float(x), n))


def _mqfi_parts_of(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return code, err.getvalue()
    if "--json" in argv:
        record = json.loads(out.getvalue())
        return code, {name: record[name] for name in ("total", "quadratic", "oscillatory")}
    return code, dict(line.split("=") for line in out.getvalue().splitlines()[1:])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(twins=_scale_twins())
def test_mqfi_scale_twins_give_the_same_answer(twins):
    # Powers of two commute with rounding: (rates, t) -> (2^k rates, 2^-k t) keeps the generic and
    # case1 angle parts and scales the others' by 4^-k.  A twin gives the same exit code and its
    # parts within 5 ulp wherever both are normal doubles (oscillatory in ulp of total); the one
    # allowed mismatch is a twin whose parts leave the double range, a documented exit 2.
    base, twin, shift = twins
    (code, parts), (twin_code, twin_parts) = _mqfi_parts_of(base), _mqfi_parts_of(twin)
    if code != twin_code:
        answered, factor, refused = (parts, shift, twin_parts) if code == 0 else (twin_parts, -shift, parts)
        assert "MQFI is not finite" in refused, (base, twin, refused)
        assert any(math.isinf(_ldexp(x, factor)) for x in answered.values()), (base, twin)
        return
    if code != 0:
        return
    expected = {name: _ldexp(x, shift) for name, x in parts.items()}
    for name, unit in (("total", "total"), ("quadratic", "quadratic"), ("oscillatory", "total")):
        got, want = float(twin_parts[name]), expected[name]
        held = (got, want, float(parts[name]), float(parts[unit]), float(twin_parts[unit]))
        if all(np.finfo(float).tiny <= abs(x) < math.inf for x in held):
            assert abs(got - want) <= 5 * math.ulp(expected[unit]), (base, twin, name, got, want)


@pytest.mark.parametrize("scenario", _ALL_SCENARIOS)
def test_optimal_state_agrees_with_mqfi(scenario, capsys):
    # The optimal state of the closed generator attains the closed-form MQFI,
    # and optimal-state never answers where mqfi exits 2.  optimal-state may
    # exit 2 where mqfi answers (a generator power above the double range).
    # A zero field (s = 0) answers in both; negative sizes too.
    for s in (0.0, 1e-300, 1e-200, 1e-100, 1e-80, 1.0, 1e80, 1e100, 1e103, 1e150, 1e200, 1e300, -1.0, -1e100):
        for t in ("1e-300", "1e-100", "1", "1e10", "1e100", "1e300"):
            options = _scenario_options(scenario, s)
            code_mqfi, out_mqfi, _ = run(["mqfi", scenario, *options, f"--t={t}", "--json"], capsys)
            code_state, out_state, _ = run(["optimal-state", scenario, *options, f"--t={t}"], capsys)
            assert code_mqfi in (0, 2) and code_state in (0, 2), (s, t)
            assert not (code_mqfi == 2 and code_state == 0), (s, t)
            if s == 0.0:
                # a zero field has no direction to turn: case1's angles give 0 at every t, and so does
                # case3-omega, whose lam = 0 leaves U independent of omega; elsewhere
                # 4 j^2 t^2 |v|^2 overflows only at t = 1e300, and so does the generator's t^3
                angle, drive = scenario in ("case1-theta", "case1-phi"), scenario == "case3-omega"
                assert code_mqfi == (0 if angle or drive or float(t) < 1e300 else 2), t
                assert code_state == (0 if angle or drive or float(t) < 1e300 else 2), t
                assert not (angle or drive) or json.loads(out_mqfi)["total"] == 0.0, t
            if code_mqfi != 0 or code_state != 0 or json.loads(out_state)["degenerate"]:
                continue
            total = json.loads(out_mqfi)["total"]
            assert json.loads(out_state)["qfi"] == pytest.approx(total, rel=1e-12, abs=0.0), (s, t)


def test_zero_field_is_one_point_across_scenarios(capsys):
    # the same physical point, a zero field moving along x, prints the same parts in every vector-form scenario
    parts = [run(["mqfi", *argv, "--t", "2"], capsys)[1].splitlines()[1:] for argv in (
        ["generic", "--rvec", "0,0,0", "--vvec", "1,0,0"],
        ["case2-lambda", "--omega0", "0", "--lambda", "0"],
        ["case3-lambda", "--omega0", "1", "--lambda", "0", "--omega", "1"],
    )]
    assert parts[0] == ["total=16", "quadratic=16", "oscillatory=0"]
    assert parts[1] == parts[0] and parts[2] == parts[0]


@pytest.mark.parametrize("residuals, trotter, named", [
    ({"series": [0.0, float("nan")], "fd": [0.0, 0.0]}, None, "series residual nan at row 1"),
    ({"series": [0.0, 0.0], "fd": [float("inf"), 1.0]}, None, "fd residual inf at row 0"),
    ({"series": [0.0], "fd": [1e-3]}, (0, float("nan")), "trotter residual nan at row 0"),
])
def test_non_finite_residual_fails_validation(residuals, trotter, named, capsys):
    code = _validation_verdict({k: np.array(v) for k, v in residuals.items()}, trotter)
    assert code == 3
    assert named in capsys.readouterr().err


_STEPS_SWEEP = ["sweep", "case3-lambda", "--omega0", "1", "--lambda", "1", "--omega", "1",
                "--variable", "t", "--start", "0.1", "--stop", "1", "--points", "2", "--validate"]


@pytest.mark.parametrize("steps", ["0", "-3", str(MAX_TROTTER_STEPS + 1), "1e12", "x"],
                         ids=["zero", "negative", "cap-plus-1", "float-text", "not-a-number"])
def test_bad_steps_exit_2(steps, capsys):
    code, out, err = run(_STEPS_SWEEP + ["--steps", steps], capsys)
    assert code == 2
    assert out == ""
    assert "steps" in err and "Traceback" not in err


@pytest.mark.parametrize("order", ["0", "-1", "101", str(10**6), "2.5", "16"],
                         ids=["zero", "negative", "cap-plus-1", "million", "not-an-integer", "in-old-range"])
def test_bad_series_order_exits_2(order, capsys):
    # --series-order is gone: the series oracle runs at generator_series's default
    # order, 24, so every value, in the old range [1, 100] or not, is an unknown option
    code, out, err = run(_STEPS_SWEEP + ["--series-order", order], capsys)
    assert code == 2
    assert out == ""
    assert err == f"su2qfi: parameter error: unrecognized arguments: --series-order {order}\n"


def test_back_to_back_main_calls_do_not_share_options(tmp_path, capsys):
    # main reuses one parser; each call still starts from the defaults
    sweep = ["sweep", "case3-lambda", "--omega0=1", "--lambda=1", "--omega=1", "--variable=t",
             "--start=0.5", "--stop=2", "--points=3"]
    csvs = [tmp_path / f"{k}.csv" for k in range(4)]
    codes = [run(sweep + argv + ["--out", str(out)], capsys)[0] for argv, out in
             zip((["--validate", "--steps=1"], [], ["--validate"], ["--fd-step=1e-3"]), csvs)]
    assert codes == [3, 0, 0, 0]   # one Magnus step (3.6e-5) misses the trotter check's 1e-6
    checks = [[line for line in open(out) if line.startswith("# trotter_check")] for out in csvs]
    headers = [data_lines(out)[0] for out in csvs]
    derived = cli._derived_steps({"omega0": 1.0, "lambda": 1.0, "omega": 1.0}, 1.0, 0.5)
    assert "steps=1 " in checks[0][0] and f"steps={derived} " in checks[2][0]
    assert checks[1] == checks[3] == []
    assert headers[0] == headers[2] == "t,total,quadratic,oscillatory,residual_series,residual_fd"
    assert headers[1] == headers[3] == "t,total,quadratic,oscillatory"
    assert data_lines(csvs[1]) == data_lines(csvs[3])


@pytest.mark.parametrize("argv, reference", [
    # 4 j^2 lam^2 / kp^4 [kp^2 t^2 - 2 kp t sin(kp t) + 2 - 2 cos(kp t)] with kp = 1e100
    (["mqfi", "case3-omega", "--omega0", "1e100", "--lambda", "1", "--omega", "0", "--t", "1"],
     4.0 * 1e-200 * (1.0 - 2.0 * math.sin(1e100) / 1e100 + (2.0 - 2.0 * math.cos(1e100)) / 1e200)),
    # 4 j^2 [lam^2 t^2 / k^2 + 4 (omega0 / k)^2 sin^2(k t / 2) / k^2] with k = 1e100
    (["mqfi", "case2-lambda", "--omega0", "1e100", "--lambda", "1", "--t", "1"],
     4.0 * (1e-200 + 4.0 * math.sin(5e99) ** 2 * 1e-200)),
    # |field|^2 overflows too; 4 j^2 [(omega0 / k)^2 t^2 + O(1e-400)] with k = sqrt(2) 1e200
    (["mqfi", "case2-omega0", "--omega0", "1e200", "--lambda", "1e200", "--t", "1"], 2.0),
    # the static lam result with omega0 -> delta = 1e200
    (["mqfi", "case3-lambda", "--omega0", "1e200", "--lambda", "1e200", "--omega", "0", "--t", "1"], 2.0),
    # kp = sqrt(2) 1e200 but kp t = 1.4e100: 4 j^2 (lam / kp)^2 t^2 [1 + O(1e-100)]
    (["mqfi", "case3-omega", "--omega0", "1e200", "--lambda", "1e200", "--omega", "0", "--t", "1e-100"],
     2e-200),
    # (kp t)^2 = 1e400 overflows, and the total 4e-400 is below the double range
    (["mqfi", "case3-omega", "--omega0", "1e200", "--lambda", "1", "--omega", "0", "--t", "1"], 0.0),
], ids=["case3-omega", "case2-lambda", "case2-omega0-square", "case3-lambda-square", "case3-omega-square",
        "case3-omega-below-range"])
def test_large_field_mqfi_is_rescaled_not_overflowed(argv, reference, capsys):
    # a power of |field| overflows although the MQFI is finite
    code, out, _ = run(argv, capsys)
    assert code == 0
    total = float(out.splitlines()[1].split("=")[1])
    assert total == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_large_field_sweep_is_rescaled_not_overflowed(capsys):
    code, out, _ = run(["sweep", "case2-omega0", "--omega0", "1e200", "--lambda", "1e200",
                        "--variable", "t", "--start", "0", "--stop", "1", "--points", "3"], capsys)
    assert code == 0
    totals = [float(line.split(",")[1]) for line in out.splitlines()[3:]]
    assert totals == pytest.approx([0.0, 0.5, 2.0], rel=1e-12, abs=0.0)


_FIELD_SIZES = np.logspace(-300, 300, 121)


@pytest.mark.parametrize("scenario", ["case2-omega0", "case2-lambda", "case3-lambda", "case3-omega0", "generic",
                                      "case3-omega"])
def test_mqfi_matches_high_precision_formula_from_tiny_to_huge_fields(scenario, capsys):
    # |field| from 1e-300 to 1e300 at t = 1, where |field|^2, |field|^4 and
    # sin^2(|field| t / 2) underflow or overflow, and for case3-omega the
    # x^4 of its series bracket or the (kp t)^2 of its closed bracket
    for s in _FIELD_SIZES.tolist():
        omega0, lam, omega = 1.2 * s, 0.8 * s, 0.6 * s
        if scenario == "generic":
            r, v = (0.36 * s, -0.48 * s, 0.8 * s), (0.3, -1.1, 0.4)
            options = [f"--rvec={','.join(map(repr, r))}", "--vvec=0.3,-1.1,0.4"]
        else:
            options = [f"--omega0={omega0!r}", f"--lambda={lam!r}"]
            if scenario.startswith("case3-"):
                options.append(f"--omega={omega!r}")
            else:
                omega = 0.0
            r = (lam, 0.0, mpmath.mpf(omega0) - mpmath.mpf(omega))
            v = (0.0, 0.0, 1.0) if scenario.endswith("omega0") else (1.0, 0.0, 0.0)
        code, out, err = run(["mqfi", scenario, *options, "--t=1", "--j=1.5", "--json"], capsys)
        assert (code, err) == (0, "")
        if scenario == "case3-omega":
            expected = float(4 * 1.5**2 * drive_frequency_total(lam, r[2], 1.0, 50))
        else:
            expected = float(4 * 1.5**2 * sum(mqfi_split(r, v, 1.0, 50)))
        assert json.loads(out)["total"] == pytest.approx(expected, rel=1e-12, abs=0.0), s


@pytest.mark.parametrize("rvec, vvec, t", [
    # 4 j^2 (r.v)^2 t^2 underflows before the division by |r|^2
    ("1e-86,0,0", "1e-57,0,0", "1e-65"),
    # 16 j^2 |r x v|^2 / |r|^4 overflows before sin^2(|r| t / 2) brings it back
    ("1e-70,0,0", "0,1e84,0", "1"),
    # r.v itself overflows, though the MQFI is 4e20
    ("1e300,0,0", "1e10,1,0", "1"),
    # |r x v| itself overflows, though the MQFI is 1.4e21
    ("1e150,0,0", "1,1e160,0", "1"),
    # t^2 underflows to zero, though the quadratic part is 4e-140
    ("1e-100,0,0", "1e100,0,0", "1e-170"),
    # t^2 is subnormal and has lost digits, though the quadratic part is 4e-120
    ("1e-100,0,0", "1e100,0,0", "1e-160"),
    # (r.v / |r|)^2 overflows, though the MQFI is 4e200
    ("1e-100,0,0", "1e300,0,0", "1e-200"),
    # sin^2(|r| t / 2) underflows to zero, though the oscillatory part is 4e-140
    ("1e-100,0,0", "0,1e100,0", "1e-170"),
    # sin^2(|r| t / 2) / |r|^2 underflows, though the MQFI is 1.9e-200
    ("1e200,0,0", "0,1e100,0", "1"),
    # the phase |r| t / 2 is subnormal, though the MQFI is 4e-240
    ("1e-200,0,0", "0,1,0", "1e-120"),
    # t^2 overflows, though the MQFI is 4e20
    ("0,0,1", "0,0,1e-150", "1e160"),
    # the velocity is subnormal and would lose digits if divided, though the MQFI is 4e-300
    ("1,0,0", "1e-315,0,0", "1e165"),
    # |r| = 2^996 and the phase is the double nearest pi, exactly: sin(|r| t / 2) / |r| is subnormal,
    # though the MQFI is 5.4e-31
    ("6.696928794914171e+299,0,0", "0,1e300,0", "9.382189208807487e-300"),
    # |r x v| sin(|r| t / 2) / |r| is subnormal for the scaled field (5e-21 times a phase of 1e-300),
    # though the oscillatory part is 1.6e-239
    ("1e-200,0,0", "1,1e-20,0", "2e-100"),
    # |r| is subnormal and loses digits when formed from the field, though the oscillatory part is 1.3e105
    ("0,-1.2622984054e-314,-9.45631542e-316", "6.1011105093889585e+29,0,-2.8567395185066804e+37",
     "621486049701019.8"),
    # every product of r.v = 1e-400 is below the double range, though the quadratic part is 4e-300
    ("1,1e-200,0", "0,1e-200,1", "1e250"),
])
def test_generic_mqfi_matches_high_precision_formula_where_a_direct_product_leaves_range(rvec, vvec, t, capsys):
    code, out, err = run(["mqfi", "generic", f"--rvec={rvec}", f"--vvec={vvec}", f"--t={t}", "--json"], capsys)
    assert (code, err) == (0, "")
    got = json.loads(out)
    quad, osc = mqfi_split([float(x) for x in rvec.split(",")], [float(x) for x in vvec.split(",")], float(t), 60)
    for name, value in zip(("total", "quadratic", "oscillatory"), (quad + osc, quad, osc)):   # normal or exactly 0
        assert got[name] == pytest.approx(float(4 * value), rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("argv", [
    # t^2 overflows and (lam / kp)^2 underflows, though both parts are 4e-60
    ["case3-omega", "--omega0=1e-10", "--lambda=1e-200", "--omega=0", "--t=1e160"],
    # x^4 of the series bracket is subnormal, though the total is 1e-112
    ["case3-omega", "--omega0=0", "--lambda=1e-100", "--omega=0", "--t=1e22"],
    # kp^4 overflows, though the MQFI is 4e-120
    ["case3-omega", "--omega0=1e160", "--lambda=1e100", "--omega=0", "--t=1"],
    # kp t overflows, though the MQFI is 2e300
    ["case3-omega", "--omega0=1e200", "--lambda=1e200", "--omega=0", "--t=1e150"],
    # a zero field: v.v underflows, though the MQFI is 4e-200, or t^2 overflows, though it is 4
    ["generic", "--rvec=0,0,0", "--vvec=1e-200,0,0", "--t=1e100"],
    ["generic", "--rvec=0,0,0", "--vvec=1e-200,0,0", "--t=1e200"],
    # hypot(lam, delta) overflows, though the MQFI is 2e-20
    ["case3-omega", "--omega0=1.5e308", "--lambda=1.5e308", "--omega=0", "--t=1e-10"],
    # kp is subnormal and loses digits, though the quadratic part is 2 and, at t = 1e150, the total is about 1e-32
    ["case3-omega", "--omega0=1e-316", "--lambda=1e-316", "--omega=0", "--t=1"],
    ["case3-omega", "--omega0=1e-316", "--lambda=1e-316", "--omega=0", "--t=1e150"],
])
def test_drive_and_zero_field_mqfi_match_60_digits_where_a_direct_product_leaves_range(argv, capsys):
    code, out, err = run(["mqfi", *argv, "--json"], capsys)
    assert (code, err) == (0, "")
    got, p = json.loads(out), dict(arg[2:].split("=") for arg in argv[1:])
    t = float(p["t"])
    if argv[0] == "generic":
        v = [float(x) for x in p["vvec"].split(",")]
        total = quad = mqfi_split(v, v, t, 60)[0]   # a field along v has the short-time value, all quadratic
    else:
        lam, delta = float(p["lambda"]), float(p["omega0"]) - float(p["omega"])
        total, quad = drive_frequency_total(lam, delta, t, 60), mqfi_split((lam, 0.0, delta), (1.0, 0.0, 0.0), t, 60)[0]
    assert got["total"] == pytest.approx(float(4 * total), rel=1e-12, abs=0.0)
    assert got["quadratic"] == pytest.approx(float(4 * quad), rel=1e-12, abs=0.0)


def test_finite_residuals_within_limit_pass(capsys):
    assert _validation_verdict({"series": np.array([1e-9]), "fd": np.array([0.0])}, (0, 1e-7)) == 0
    assert capsys.readouterr().err == ""


# --- sweeps -----------------------------------------------------------------------

def test_sweep_values_match_library(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        ["sweep", "case2-omega0", "--omega0", "0.4", "--lambda", "1.2", "--j", "1.5",
         "--variable", "t", "--start", "0", "--stop", "2", "--points", "21", "--out", str(out)],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "total", "quadratic", "oscillatory"]
    assert rows.shape == (21, 4)
    for t, total, quad, osc in rows:
        expected = static_omega0_mqfi(0.4, 1.2, 1.5, t)
        assert total == pytest.approx(expected.total, rel=1e-15, abs=1e-15)
        assert quad == pytest.approx(expected.quadratic, rel=1e-15, abs=1e-15)
        assert osc == pytest.approx(expected.oscillatory, rel=1e-15, abs=1e-15)


def test_sweep_stdout_roundtrip(capsys):
    code, out, _ = run(
        ["sweep", "generic", "--rvec", "0.3,0.2,1.0", "--vvec", "0.5,-0.1,0.2",
         "--variable", "t", "--start", "0", "--stop", "3", "--points", "7"], capsys
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    values = [float(c) for c in lines[1].split(",")]
    # 17 significant digits round-trip exactly
    assert f"{values[1]:.17g}" in lines[1]


def test_sweep_validate_passes_on_generic_points(tmp_path, capsys):
    out = tmp_path / "val.csv"
    code, _, _ = run(
        ["sweep", "generic", "--rvec", "0.8,-0.4,1.1", "--vvec", "0.2,0.9,-0.5",
         "--variable", "t", "--start", "0.1", "--stop", "2.9", "--points", "50",
         "--validate", "--out", str(out)], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-2:] == ["residual_series", "residual_fd"]
    assert np.max(rows[:, 4:]) < 1e-6


def test_trotter_check_at_odd_step_count(tmp_path, capsys):
    out = tmp_path / "odd.csv"
    code, _, _ = run(
        ["sweep", "case3-lambda", "--omega0", "1", "--lambda", "1", "--omega", "1", "--j", "3",
         "--variable", "t", "--start", "0.5", "--stop", "2", "--points", "3",
         "--validate", "--steps", "99999", "--out", str(out)], capsys
    )
    assert code == 0
    with open(out) as handle:
        (check,) = [line for line in handle if line.startswith("# trotter_check")]
    assert "steps=99999" in check
    assert float(check.split("residual=")[1]) <= 1e-6


def test_sweep_delta_variable(tmp_path, capsys):
    out = tmp_path / "delta.csv"
    code, _, _ = run(
        ["sweep", "case3-omega", "--omega0", "0", "--lambda", "1", "--t", "1",
         "--variable", "Delta", "--start", "-2", "--stop", "2", "--points", "41",
         "--out", str(out)], capsys
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[np.argmax(rows[:, 1]), 0] == pytest.approx(0.0, abs=1e-12)


# --- figures ----------------------------------------------------------------------

def test_figure_presets_are_byte_stable(tmp_path, capsys):
    for fig in ("fig1a", "fig2b"):
        first = tmp_path / f"{fig}_1.csv"
        second = tmp_path / f"{fig}_2.csv"
        assert run(["figure", fig, "--out", str(first)], capsys)[0] == 0
        assert run(["figure", fig, "--out", str(second)], capsys)[0] == 0
        assert data_lines(first) == data_lines(second)


def test_figure_quadratic_column_is_first_term(tmp_path, capsys):
    out = tmp_path / "fig1b.csv"
    assert run(["figure", "fig1b", "--out", str(out)], capsys)[0] == 0
    _, rows = parse_csv(out)
    k = 137
    expected = static_omega0_mqfi(1.0, 1.0, 1.0, rows[k, 0])
    assert rows[k, 2] == pytest.approx(expected.quadratic, rel=1e-15)
    assert rows[k, 1] == pytest.approx(expected.total, rel=1e-15)
    # with balanced couplings the oscillation is a minor correction at late times
    late = rows[rows[:, 0] >= 10.0]
    assert np.max(late[:, 3]) < 0.02 * np.min(late[:, 2])


def test_figure_transverse_scan_decreases(tmp_path, capsys):
    out = tmp_path / "fig1d.csv"
    assert run(["figure", "fig1d", "--out", str(out)], capsys)[0] == 0
    _, rows = parse_csv(out)
    total = rows[:, 1]
    assert np.all(np.diff(total) <= 1e-12)
    assert total[-1] < 1e-3 * total[0]


def test_figure_resonance_scan_peaks_at_zero(tmp_path, capsys):
    out = tmp_path / "fig2a.csv"
    assert run(["figure", "fig2a", "--out", str(out)], capsys)[0] == 0
    _, rows = parse_csv(out)
    assert rows[np.argmax(rows[:, 1]), 0] == pytest.approx(0.0, abs=1e-12)


def test_sweep_reproduces_figure_preset(tmp_path, capsys):
    # an explicit sweep with the fig1a parameters emits the same data grid
    sweep_out = tmp_path / "sweep.csv"
    fig_out = tmp_path / "fig.csv"
    code, _, _ = run(
        ["sweep", "case2-omega0", "--omega0", "0.1", "--lambda", "1", "--j", "1",
         "--variable", "t", "--start", "0", "--stop", "20", "--points", "2001",
         "--out", str(sweep_out)], capsys
    )
    assert code == 0
    assert run(["figure", "fig1a", "--out", str(fig_out)], capsys)[0] == 0
    assert data_lines(sweep_out) == data_lines(fig_out)


def test_figure_validation_with_custom_trotter_steps(tmp_path, capsys):
    out = tmp_path / "fig2a.csv"
    code, _, _ = run(["figure", "fig2a", "--validate", "--steps", "20000", "--out", str(out)], capsys)
    assert code == 0
    with open(out) as handle:
        comments = [line for line in handle if line.startswith("#")]
    assert any("steps=20000" in line for line in comments)


def test_time_ordered_check_forms_no_spin_j_matrix(monkeypatch):
    # the check compares two SU(2) elements by their rotation angle, so even at j = 50 it
    # calls no eigendecomposition and no spin-j exponential
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    expm = counted("hermitian_expm", spin.hermitian_expm)
    for module in (spin, numerics, cli, reference_oracles):   # every namespace that holds the name
        monkeypatch.setattr(module, "hermitian_expm", expm)
    residual = cli.trotter_cross_check({"omega0": 1.0, "lambda": 1.0, "omega": 5.0}, 50, 1.0, 1000)
    assert calls == []
    assert 0 < residual < 1e-3
    # the counters see the spin-j propagator the check no longer builds
    reference_oracles.propagator(spin.build_spin_rep(50), np.array([1.0, 0.0, -5.0]), 1.0, 5.0)
    assert calls == ["hermitian_expm", "eigh", "hermitian_expm", "eigh"]


@pytest.mark.parametrize("fig, check", [
    ("fig2a", "# trotter_check t=1 steps=183 residual=1.1495882957163501e-10"),
    ("fig2b", "# trotter_check t=0.20000000000000001 steps=8 residual=9.2105598375179914e-11"),
])
def test_figure_trotter_check_line_is_pinned(fig, check, tmp_path, capsys):
    # the time-ordered product against the driven-frame propagator of the oracles
    out = tmp_path / f"{fig}.csv"
    assert run(["figure", fig, "--validate", "--out", str(out)], capsys)[0] == 0
    with open(out) as handle:
        assert [line.rstrip("\n") for line in handle if line.startswith("# trotter_check")] == [check]


# SHA-256 of each plain preset's data section (header and rows).
PRESET_SHA256 = {
    "fig1a": "876c7fc787503fddce6bf00cd429d79f220ec241b488e361d72f3c9857d972b9",
    "fig1b": "260451c56205ef7169dba28b12801ab937f6a5b0226eb82a671219998926b976",
    "fig1c": "30dcdbb19ecbd090312d00d67a4896a4c240957cf6d0f9f6f98d01fdb546e308",
    "fig1d": "ac6551fe2284b4d261913185a71baee9e068667bc17a4b55edab71fef175221a",
    "fig2a": "f84f64b43302969fc4c5c48658b7385c9eb7c5e8deaf0a103ece66035a1ba0b8",
    "fig2b": "6a29b48571b7bce82bcad38421456728c78f93b3039b4be8f5d214cd7334e87e",
}


@pytest.mark.parametrize("fig", sorted(PRESET_SHA256))
def test_figure_data_section_is_pinned(fig, tmp_path, capsys):
    out = tmp_path / f"{fig}.csv"
    assert run(["figure", fig, "--out", str(out)], capsys)[0] == 0
    data = "".join(line + "\n" for line in data_lines(out)).encode()
    assert hashlib.sha256(data).hexdigest() == PRESET_SHA256[fig]


# One sweep per scenario: (scenario, fixed parameters, fixed t, variable, start, stop).
# The case3-omega grid crosses the series / closed-form switch at kp t = 0.1.
GRID_SWEEPS = [
    ("case1-theta", {"r": 1.3, "theta": 0.4, "phi": 2.0}, 2.3, "r", 0.1, 7.0),
    ("case1-phi", {"r": 1.3, "theta": 0.4, "phi": 2.0}, 2.3, "theta", -3.0, 7.0),
    ("case1-r", {"r": 1.3, "theta": 0.4, "phi": 2.0}, None, "t", 0.0, 70.0),
    ("case2-omega0", {"omega0": 0.3, "lambda": 2.0}, 3.1, "lambda", -5.0, 5.0),
    ("case2-lambda", {"omega0": 0.3, "lambda": 2.0}, None, "t", 0.0, 20.0),
    ("case3-omega", {"omega0": 0.3, "lambda": 1.0}, 0.05, "Delta", -5.0, 5.0),
    ("case3-lambda", {"omega0": 0.3, "lambda": 2.0, "omega": 1.0}, 3.1, "omega", -5.0, 5.0),
    ("case3-omega0", {"omega0": 0.3, "lambda": 2.0, "omega": 1.0}, None, "t", 0.0, 20.0),
    ("generic", {"rvec": (0.3, 0.2, 1.0), "vvec": (0.5, -0.1, 0.2)}, None, "t", 0.0, 20.0),
]


def _grid_argv(scenario, fixed, t, variable, start, stop, points):
    argv = ["sweep", scenario, "--j", "1.5", "--variable", variable,
            "--start", str(start), "--stop", str(stop), "--points", str(points)]
    for name, value in fixed.items():
        if name == variable:   # the grid sets it
            continue
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        argv.append(f"--{name}={text}")
    if t is not None:
        argv.append(f"--t={t}")
    return argv


@pytest.mark.parametrize("scenario, fixed, t, variable, start, stop", GRID_SWEEPS,
                         ids=[case[0] for case in GRID_SWEEPS])
def test_grid_equals_scalar_closed_forms(scenario, fixed, t, variable, start, stop, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = _grid_argv(scenario, fixed, t, variable, start, stop, 401) + ["--out", str(out)]
    assert run(argv, capsys)[0] == 0
    for line in data_lines(out)[1:]:
        value = float(line.split(",")[0])
        params, t_row = dict(fixed), t
        if variable == "t":
            t_row = value
        elif variable == "Delta":
            params["omega"] = params["omega0"] - value
        else:
            params[variable] = value
        point = evaluate_point(scenario, params, 1.5, t_row)
        assert line == ",".join(map(_fmt, (value, point.total, point.quadratic, point.oscillatory)))


# Validated sweeps beyond the 10-row GRID_SWEEPS ones: 600 or more rows,
# j = 1/2 and 3, t grids from 0 with rows that need several time doublings,
# the --fd-step override, and every driven scenario.
VALIDATED_ARGV = {
    "case2-omega0-700-rows": ["sweep", "case2-omega0", "--omega0=0.7", "--lambda=1.3", "--variable=t",
                              "--start=0", "--stop=80", "--points=700"],
    "case1-theta-half": ["sweep", "case1-theta", "--r=2.5", "--theta=0.9", "--phi=0.3", "--j=0.5",
                         "--variable=t", "--start=0", "--stop=30", "--points=300"],
    "generic-j3": ["sweep", "generic", "--rvec=0.9,-0.6,1.4", "--vvec=0.3,0.8,-0.5", "--j=3",
                   "--variable=t", "--start=0", "--stop=25", "--points=650"],
    "case2-lambda-overrides": ["sweep", "case2-lambda", "--omega0=1.1", "--t=7.5",
                               "--variable=lambda", "--start=-3", "--stop=3", "--points=257",
                               "--fd-step=5e-4"],
    "case1-phi-series-order": ["sweep", "case1-phi", "--r=1.7", "--phi=0.5", "--t=4",
                               "--variable=theta", "--start=-3", "--stop=3", "--points=120"],
    "case1-r-j3": ["sweep", "case1-r", "--theta=1.2", "--phi=2.5", "--j=3", "--t=6",
                   "--variable=r", "--start=0.1", "--stop=9", "--points=100", "--fd-step=1e-3"],
    "case3-omega-delta-j3": ["sweep", "case3-omega", "--omega0=0.4", "--lambda=1.2", "--t=1.5", "--j=3",
                             "--variable=Delta", "--start=-4", "--stop=4", "--points=301"],
    "case3-omega-t-600": ["sweep", "case3-omega", "--omega0=2.0", "--lambda=1.5", "--omega=0.5",
                          "--variable=t", "--start=0", "--stop=40", "--points=600"],
    "case3-lambda-half": ["sweep", "case3-lambda", "--omega0=1.3", "--lambda=0.8", "--omega=0.9", "--j=0.5",
                          "--variable=t", "--start=0", "--stop=30", "--points=600"],
    "case3-lambda-delta": ["sweep", "case3-lambda", "--omega0=1", "--lambda=0.7", "--t=2.2", "--j=1.5",
                           "--variable=Delta", "--start=-3", "--stop=3", "--points=150"],
    "case3-omega0-lambda": ["sweep", "case3-omega0", "--omega0=0.6", "--omega=1.4", "--j=2",
                            "--t=3.3", "--variable=lambda", "--start=-2", "--stop=2", "--points=200"],
}

# SHA-256 of the --validate data section (closed forms and both oracle
# residual columns) of each preset, of a 10-row GRID_SWEEPS sweep per
# scenario and of each VALIDATED_ARGV sweep.
VALIDATED_SHA256 = {
    "fig1a": "6664c31bf8c700e8ca803d674d0b31f5ea6ae2189317e9640f79d12927a22d06",
    "fig1b": "cbff83ff4e3b204fe9a1192cb827e38d0641dd2beeab779efc4e3af871599a86",
    "fig1c": "d233c04a348212b2a1261a5b1245bb206031b3f4a8777000433794566988caea",
    "fig1d": "24768b291a1c7b3206aafffa538b5438be6d5c36d9b66eec348a517afd3c8c0b",
    "fig2a": "ab88154be9ef09a83e0a4095a8de069f49a3a64a859083af3004804da1387203",
    "fig2b": "617816a8900bb98e119aa26ecaa5978d3d7e25e87b9985e948fe1e6ae50243c5",
    "case1-theta": "b52222bf86df9186d3b513115e0a54a024739fe86afbed43c6fa51fcf102d329",
    "case1-phi": "d153c4bdb2da18c722a5dde69034652920a91b2796e8b4394fbdec325781f79e",
    "case1-r": "1b42668fc2a26f4c43bdc0e69f24a12c6d4ec3048a83f72063d820e48245ddf9",
    "case2-omega0": "4f78c605fac0a4b94fee815c2972a5e1ba3839ab1c86c8ce19e8dd5ba5c7be05",
    "case2-lambda": "b5de1e8628fc68574fc3bd90d2eb539a0b938542cff410da2eea1323b9788b8e",
    "case3-omega": "a76898fea7bc5e9ce95617d7d134d4a052da12d4c81a21a1f27d77f5936b76b7",
    "case3-lambda": "bf46473a69340c5e2c147bd8158454e21122e1cc40ad3fc29498a278f3129d09",
    "case3-omega0": "d771ee34aded7cf07a5e635e0f13a5062bb0b03d35e024af10397e7054556cf5",
    "generic": "c47862c935972a3aaf8ae91986e641ebab29f73dbb7c55e1e533bb1253d525cf",
    "case2-omega0-700-rows": "997d6eef664b223b95cb40493fd0f6804bdbf49b0bb016f336803fce9be7c1b0",
    "case1-theta-half": "69cde04aaafbf6562dc85b961406b28c9d087cf19c5a3869a8341b263b70d2b9",
    "generic-j3": "56fe6b6cdf3903186fc31ec9044dc6860c3afd14763f0bc54dcd220f61a6fbc3",
    "case2-lambda-overrides": "5b3f808b662aaca8bd0bb9be17bf111529b80f9c306a1fb9c276499699277e2d",
    "case1-phi-series-order": "bf3b6901e4cb118619187751f3a44e2cbb63b35a0bf264a460b89f4bdb4c709f",
    "case1-r-j3": "0cb7105cb07844bb37064a196a36deae3e983184405a603c30ed72d70968e39c",
    "case3-omega-delta-j3": "ac5f77a6bcb4ec99b363da093a2df676016f0cecd17bf9898384e09102895b42",
    "case3-omega-t-600": "12526ddef782c606457a8684242976e3c24fc30c18d0980bfba47b0bc15f600b",
    "case3-lambda-half": "e4dd54bc86913b98a28880c3d8836369d81fa28b87475707fdeebc3de2c2b300",
    "case3-lambda-delta": "c14221b70765892158a47ce9fb4672bc5b316f2b742c99272a09aea03a588367",
    "case3-omega0-lambda": "aaf2c4c509425907d543561fbff9aa306ac990e9e8e8825f79f27cc83df6adfd",
}


@pytest.mark.parametrize("name", sorted(VALIDATED_SHA256))
def test_validated_data_section_is_pinned(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    if name in FIGURE_IDS:
        argv = ["figure", name]
    elif name in VALIDATED_ARGV:
        argv = VALIDATED_ARGV[name]
    else:
        (case,) = [case for case in GRID_SWEEPS if case[0] == name]
        argv = _grid_argv(*case, points=10)
    assert run(argv + ["--validate", "--out", str(out)], capsys)[0] == 0
    data = "".join(line + "\n" for line in data_lines(out)).encode()
    assert hashlib.sha256(data).hexdigest() == VALIDATED_SHA256[name]


@pytest.mark.parametrize("estimated", ["lambda", "omega0"])
def test_fixed_frame_validates_as_the_static_field_on_the_detuned_field(estimated, tmp_path, capsys):
    # a drive frame fixed in theta cancels in the generator, so case3 validates as case2 on
    # (lambda, 0, omega0 - omega); the detuning 1.75 - 0.5 = 1.25 is exact
    grid = ["--lambda", "0.6", "--j", "2", "--variable", "t", "--start", "0", "--stop", "12", "--points", "40",
            "--validate"]
    driven, static = tmp_path / "driven.csv", tmp_path / "static.csv"
    assert run(["sweep", f"case3-{estimated}", "--omega0", "1.75", "--omega", "0.5", *grid, "--out", str(driven)],
               capsys)[0] == 0
    assert run(["sweep", f"case2-{estimated}", "--omega0", "1.25", *grid, "--out", str(static)], capsys)[0] == 0
    assert data_lines(driven) == data_lines(static)


def test_time_ordered_check_takes_a_lab_field_whose_squares_overflow(tmp_path, capsys):
    # |field|^2 = 1e320 overflows; the Magnus factors' norm does not
    out = tmp_path / "huge.csv"
    code, _, err = run(["sweep", "case3-omega", "--omega0", "1e160", "--lambda", "1", "--omega", "0",
                        "--variable", "t", "--start", "1e-300", "--stop", "2e-300", "--points", "2",
                        "--validate", "--steps", "50", "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    with open(out) as handle:
        assert [line.rstrip("\n") for line in handle if line.startswith("# trotter_check")] == [
            "# trotter_check t=1e-300 steps=50 residual=0"]
    _, rows = parse_csv(out)
    assert np.all(np.isfinite(rows)) and np.max(rows[:, 4:]) < 1e-6


def test_long_driven_row_passes_at_its_derived_steps(tmp_path, capsys):
    # t Omega = 683: 4000 steps read 1.04e-5 here and exited 3 on a correct row
    out = tmp_path / "long.csv"
    code, _, err = run(["sweep", "case3-lambda", "--omega0", "10", "--lambda", "10", "--omega", "20", "--j", "1",
                        "--variable", "t", "--start", "20", "--stop", "30", "--points", "3", "--validate",
                        "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    with open(out) as handle:
        (check,) = [line for line in handle if line.startswith("# trotter_check")]
    assert check.startswith("# trotter_check t=20 steps=67691 residual=")
    assert float(check.rsplit("=", 1)[1]) < cli._TROTTER_MARGIN * cli.RESIDUAL_LIMIT


def test_constant_lab_field_takes_one_step(tmp_path, capsys):
    # at omega = 0 the lab field is constant and one step is its exact exponential: the
    # count once followed |field| = 1e160 at t = 5e-151 to 2^18 steps for a residual of 1.7e-11.
    # |field|^2 overflows, so the closed generator takes nested hypot (it read |field| t = nan at t = 0)
    out = tmp_path / "constant.csv"
    code, _, err = run(["sweep", "case3-lambda", "--omega0", "1e160", "--lambda", "1", "--omega", "0",
                        "--variable", "t", "--start", "0", "--stop", "1e-150", "--points", "3", "--validate",
                        "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    with open(out) as handle:
        (check,) = [line for line in handle if line.startswith("# trotter_check")]
    assert check.startswith("# trotter_check t=5e-151 steps=1 residual=")
    assert float(check.rsplit("=", 1)[1]) <= 1e-15
    _, rows = parse_csv(out)
    assert np.all(np.isfinite(rows)) and np.max(rows[:, 4:]) < 1e-14


def test_row_above_the_step_budget_runs_at_the_budget(tmp_path, capsys):
    # t Omega = 3414 asks for about 5.1e5 steps; the check takes 2^18 and says so
    out = tmp_path / "budget.csv"
    code, _, err = run(["sweep", "case3-lambda", "--omega0", "10", "--lambda", "10", "--omega", "20", "--j", "1",
                        "--variable", "t", "--start", "100", "--stop", "110", "--points", "3", "--validate",
                        "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    with open(out) as handle:
        (check,) = [line for line in handle if line.startswith("# trotter_check")]
    assert check.startswith(f"# trotter_check t=100 steps={cli._TROTTER_BUDGET} residual=")
    assert cli._TROTTER_BUDGET == 262144
    assert float(check.rsplit("=", 1)[1]) < cli.RESIDUAL_LIMIT


@pytest.mark.parametrize("scenario, fields", [
    ("case2-omega0", ["--omega0", "1e308", "--lambda", "1"]),
    ("case3-omega0", ["--omega0", "1", "--lambda", "1", "--omega", "1e308"]),
])
def test_series_scale_stays_finite_near_the_largest_double(scenario, fields, tmp_path, capsys):
    # a largest absolute row sum of h past 2^1023 made the scale 2^1024 = inf and every series
    # row NaN, so --validate exited 3 on finite rows; the scale now stops at 2^1023
    out = tmp_path / "huge.csv"
    code, _, err = run(["sweep", scenario, *fields, "--variable", "t", "--start", "0", "--stop", "1e-300",
                        "--points", "3", "--validate", "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert np.all(rows[:, header.index("residual_series")] == 0.0)


def test_time_ordered_check_at_its_derived_steps_sees_a_detuning_mutant(monkeypatch, capsys):
    # a rotating-frame field 1e-3 off the detuning: the closed form and both oracles read the
    # scenario's own field, so only the time-ordered check, at its 90 derived steps, can fail
    def mutant(p):
        return np.stack(np.broadcast_arrays(p["lambda"], 0.0, p["omega0"] - p["omega"] + 1e-3), axis=-1)

    monkeypatch.setattr(cli, "_driven_field", mutant)
    code, _, err = run(["sweep", "case3-lambda", "--omega0", "1", "--lambda", "1", "--t", "1", "--variable",
                        "Delta", "--start", "-1", "--stop", "1", "--points", "21", "--validate"], capsys)
    assert code == 3
    assert err.startswith("validation failed: trotter residual ") and "at row 0 (Delta=-1)" in err


@pytest.mark.parametrize("argv, named", [
    # the closed generator names its grid row under --validate: t^3 overflows from t = 5e119 on
    (["sweep", "case2-lambda", "--omega0", "1", "--lambda", "1", "--variable", "t", "--start", "0",
      "--stop", "1e120", "--points", "3", "--validate"],
     "(at t=5e+119, |field| t=7.071067811865475e+119) at row 1 (t=4.9999999999999999e+119)"),
    # so does a part that is not finite: 4 j^2 t^2 |v|^2 overflows from t = 0.5 on
    (["sweep", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1e155", "--variable", "t", "--start", "0", "--stop", "1",
      "--points", "3"], "su2qfi: parameter error: total MQFI is not finite at row 1 (t=0.5)\n"),
    # the time-ordered check runs on the row with the smallest positive t, where the lab phase omega t overflows
    (["sweep", "case3-lambda", "--omega0", "1e308", "--lambda", "1", "--omega", "1e308", "--variable", "t",
      "--start", "0", "--stop", "10", "--points", "3", "--validate", "--steps", "50"],
     "su2qfi: parameter error: time-ordered check is not finite at row 1 (t=5)\n"),
    # so it does at its derived steps: t Omega overflows, and the count stops at the budget
    (["sweep", "case3-lambda", "--omega0", "1e308", "--lambda", "1", "--omega", "1e308", "--variable", "t",
      "--start", "0", "--stop", "10", "--points", "3", "--validate"],
     "su2qfi: parameter error: time-ordered check is not finite at row 1 (t=5)\n"),
])
def test_degenerate_mid_grid_row_exits_2(argv, named, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert not out.exists()
    assert named in err


@pytest.mark.parametrize("argv, zero_row", [
    (["sweep", "case2-omega0", "--lambda", "0", "--t", "1",
      "--variable", "omega0", "--start", "-1", "--stop", "1", "--points", "5"], 2),
    (["sweep", "case3-lambda", "--omega0", "1", "--lambda", "0", "--t", "1",
      "--variable", "Delta", "--start", "-1", "--stop", "1", "--points", "5"], 2),
    (["sweep", "case2-lambda", "--omega0", "0", "--t", "1", "--variable", "lambda", "--start", "-1", "--stop", "1",
      "--points", "3"], 1),
])
@pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["plain", "validate"])
def test_zero_field_mid_grid_row_answers(argv, zero_row, validate, tmp_path, capsys):
    # a vector-form scenario's zero field is one more row: all quadratic, 4 j^2 t^2 |v|^2 with |v| = 1
    out = tmp_path / "grid.csv"
    code, _, err = run(argv + validate + ["--out", str(out)], capsys)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    assert rows.shape == (int(argv[-1]), len(header))
    assert list(rows[zero_row, 1:4]) == [4.0, 4.0, 0.0]


@pytest.mark.parametrize("grid, zero_rows", [
    (["--omega", "1", "--variable", "lambda"], [2]),
    (["--lambda", "0", "--variable", "Delta"], [0, 1, 2, 3, 4]),
], ids=["lambda", "Delta"])
def test_uncoupled_drive_frequency_sweep_validates(grid, zero_rows, tmp_path, capsys):
    # lam = 0 rows, kp = 0 (delta = 0) among them, answer exact zeros and pass both oracles
    out = tmp_path / "grid.csv"
    code, _, err = run(["sweep", "case3-omega", "--omega0", "1", "--t", "1.5", "--j", "1.5", *grid, "--start", "-1",
                        "--stop", "1", "--points", "5", "--validate", "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    coupled = np.setdiff1d(np.arange(len(rows)), zero_rows)
    assert np.all(rows[zero_rows, 1:4] == 0.0) and np.all(rows[coupled, 1] > 0.0)
    assert np.max(rows[:, 4:]) < 1e-6


@pytest.mark.parametrize("scenario", ["case1-theta", "case1-phi", "case1-r"])
def test_case1_sweep_through_zero_and_negative_amplitudes(scenario, tmp_path, capsys):
    # r = 0 is the zero field and r < 0 the field |r| along -n: every row answers, equals the
    # vector form of the scenario's own field and velocity and passes both oracles
    out = tmp_path / "grid.csv"
    code, _, err = run(["sweep", scenario, "--theta", "0.9", "--phi", "2.1", "--j", "1.5", "--t", "1.3",
                        "--variable", "r", "--start", "-2", "--stop", "2", "--points", "9", "--validate",
                        "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    _, rows = parse_csv(out)
    for r, total, quadratic, oscillatory, *_ in rows:
        spec, params = SCENARIOS[scenario], {"r": r, "theta": 0.9, "phi": 2.1}
        vector = mqfi_closed_form(1.5, split_velocity(spec.field(params), spec.velocity(params)), 1.3)
        for got, want in zip((total, quadratic, oscillatory), (vector.total, vector.quadratic, vector.oscillatory)):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * max(1.0, total)), (r, got, want)
    zero_row = [9 * 1.3**2, 9 * 1.3**2, 0.0] if scenario == "case1-r" else [0.0, 0.0, 0.0]   # 4 j^2 t^2 for r
    assert rows[4, 0] == 0.0 and list(rows[4, 1:4]) == zero_row


@pytest.mark.parametrize("argv", [
    ["case3-omega", "--omega0", "1", "--lambda", "0", "--omega", "1", "--t", "1"],
    # t^3 overflows; the uncoupled point never forms it (it exited 2 on "t^3 or (kp t)^3")
    ["case3-omega", "--omega0", "0", "--lambda", "0", "--omega", "0", "--t", "1e300"],
], ids=["resonance", "t-cubed-overflows"])
def test_optimal_state_answers_an_uncoupled_drive_with_zeros(argv, capsys):
    # at lam = 0, U = exp(-i omega0 t jz) does not depend on omega: a zero generator, on resonance too
    code, out, err = run(["optimal-state", *argv], capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["degenerate"] and record["qfi"] == 0.0
    code, out, err = run(["mqfi", *argv, "--json"], capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert (record["total"], record["quadratic"], record["oscillatory"]) == (0.0, 0.0, 0.0)


def test_point_commands_name_no_grid_row(capsys):
    # a single point is no grid: neither command names a row
    assert run(["optimal-state", "case2-lambda", "--omega0", "1", "--lambda", "1", "--t", "1e120"], capsys) == (
        2, "", "su2qfi: parameter error: t^3 or (|field| t)^3 is not finite in double precision "
               "(at t=1e+120, |field| t=1.414213562373095e+120)\n")
    assert run(["mqfi", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1e155", "--t", "1"], capsys) == (
        2, "", "su2qfi: parameter error: total MQFI is not finite\n")


@pytest.mark.parametrize("argv", [
    ["case2-lambda", "--omega0", "0", "--lambda", "0"],
    ["case3-lambda", "--omega0", "1", "--lambda", "0", "--omega", "1"],
    ["case3-omega0", "--omega0", "1", "--lambda", "0", "--omega", "1"],
    ["case1-r", "--r", "0"],
    ["case1-theta", "--r", "-1"],
], ids=["case2-lambda", "case3-lambda", "case3-omega0", "case1-r", "case1-theta"])
def test_optimal_state_answers_a_zero_field(argv, capsys):
    # a zero field answers in both commands wherever no drive frequency is estimated,
    # and so does case1's negative amplitude, the field |r| along -n
    code, out, err = run(["optimal-state"] + argv + ["--t", "1"], capsys)
    assert (code, err) == (0, "")
    record = json.loads(out)
    code_mqfi, out_mqfi, _ = run(["mqfi"] + argv + ["--t", "1", "--json"], capsys)
    assert code_mqfi == 0 and not record["degenerate"]
    assert record["qfi"] == pytest.approx(json.loads(out_mqfi)["total"], rel=1e-12, abs=0.0)


# --- optimal state ----------------------------------------------------------------

def test_optimal_state_balanced_for_z_generator(capsys):
    code, out, _ = run(
        ["optimal-state", "generic", "--rvec", "0,0,1", "--vvec", "0,0,1", "--t", "1", "--j", "0.5"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    amps = np.array([[re, im] for re, im in record["amplitudes"]])
    mags = np.hypot(amps[:, 0], amps[:, 1])
    np.testing.assert_allclose(mags, [0.7071067811865476] * 2, atol=1e-10)
    assert record["qfi"] == pytest.approx((record["lambda_max"] - record["lambda_min"]) ** 2, rel=1e-9)
    assert not record["degenerate"]


def test_optimal_state_extremal_components_high_spin(capsys):
    code, out, _ = run(
        ["optimal-state", "generic", "--rvec", "0,0,2", "--vvec", "0,0,1", "--t", "1", "--j", "5"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    mags = [abs(complex(re, im)) for re, im in record["amplitudes"]]
    assert mags[0] == pytest.approx(0.7071067811865476, abs=1e-10)
    assert mags[-1] == pytest.approx(0.7071067811865476, abs=1e-10)
    assert max(mags[1:-1]) < 1e-12


def test_optimal_state_degenerate_flagged_with_clean_exit(capsys):
    # zero evolution time gives a vanishing generator: flagged, qfi 0, exit 0
    code, out, _ = run(
        ["optimal-state", "generic", "--rvec", "1,0,0", "--vvec", "0,1,0", "--t", "0", "--j", "1"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["degenerate"]
    assert record["qfi"] == 0.0


def test_optimal_state_of_an_overflowing_drive_is_a_named_parameter_error(capsys):
    # (kp t)^3 overflows; dividing by it used to print "qfi": 4.5e-06 where the MQFI is 3.2
    code, out, err = run(["optimal-state", "case3-omega", "--omega0", "1e103", "--lambda", "1e103",
                          "--omega", "5e102", "--t", "1"], capsys)
    assert (code, out) == (2, "")
    assert err == ("su2qfi: parameter error: t^3 or (kp t)^3 is not finite in double precision "
                   "(at t=1.0, kp t=1.1180339887498948e+103)\n")


def test_optimal_state_of_a_huge_field_angle_is_exact(capsys):
    # the spherical generator has |field| = r exactly; the vector form printed 5.1e+125
    code, out, _ = run(["optimal-state", "case1-theta", "--r", "1e80", "--theta", "1", "--phi", "0.5",
                        "--t", "1"], capsys)
    assert code == 0
    assert json.loads(out)["qfi"] == pytest.approx(10.854863934560447, rel=1e-12, abs=0.0)


def test_optimal_state_matches_scenario_value(capsys):
    code, out, _ = run(
        ["optimal-state", "case2-omega0", "--omega0", "1", "--lambda", "1", "--t", "1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    expected = static_omega0_mqfi(1.0, 1.0, 1.0, 1.0)
    assert record["qfi"] == pytest.approx(expected.total, rel=1e-9)


def test_validated_sweep_memory_does_not_grow_with_the_grid(tmp_path, capsys):
    # The oracles run over chunks of rows, so a 5000-row validated sweep
    # peaks below the 3.7 MiB that the per-row loop reached; one stack over
    # the whole grid would need about six times that.
    argv = ["sweep", "case2-omega0", "--omega0=0.7", "--lambda=1.3", "--variable=t", "--start=0",
            "--stop=20", "--validate"]
    assert run(argv + ["--points=20", "--out", str(tmp_path / "warm.csv")], capsys)[0] == 0
    tracemalloc.start()
    try:
        code = main(argv + ["--points=5000", "--out", str(tmp_path / "grid.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


def test_plain_sweep_memory_is_its_columns(tmp_path, capsys):
    # The CSV is written in blocks of rows: a 100k-row sweep peaks at its four
    # columns and one block (about 6 MB), where formatting every row before
    # the first write took about 32 MB.
    argv = ["sweep", "case2-omega0", "--omega0=0.7", "--lambda=1.3", "--variable=t", "--start=0", "--stop=20"]
    assert run(argv + ["--points=20", "--out", str(tmp_path / "warm.csv")], capsys)[0] == 0
    tracemalloc.start()
    try:
        code = main(argv + ["--points=100000", "--out", str(tmp_path / "grid.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12e6
