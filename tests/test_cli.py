"""Tests for the command-line surface: exit codes, traces, diagnostics."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from banachscale.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- sequence commands ----

def test_bruno_check_geometric_two(capsys):
    code, out, _ = run(capsys, "bruno", "check", "--family", "geometric",
                       "--q", "2", "--depth", "40")
    assert code == 0
    assert "verdict bruno" in out
    partial = float(out.split()[2])
    # oracle: sum_n n log 2 / 2^(n+1) = log 2
    assert partial == pytest.approx(math.log(2.0), abs=1e-6)


def test_bruno_check_divergent_family_exits_two(capsys):
    code, out, _ = run(capsys, "bruno", "check", "--family", "exp_power",
                       "--alpha", "2.5")
    assert code == 2
    assert "not_bruno" in out


def test_bruno_transform_geometric_three(capsys):
    code, out, _ = run(capsys, "bruno", "transform", "--family", "geometric",
                       "--q", "3", "--depth", "60")
    assert code == 0
    value = float(out.splitlines()[0].split()[-1])
    assert value == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_tame_exit_codes(capsys):
    code, out, _ = run(capsys, "tame", "--a", "exp_power:1.2",
                       "--b", "exp_power:-1.5", "--scale-b", "0.1")
    assert code == 0
    code, out, _ = run(capsys, "tame", "--a", "exp_power:1.2",
                       "--b", "exp_power:-1.5")
    assert code == 2
    assert "first violation at n = 0" in out


def test_tabulated_sequences_default_to_their_own_table(capsys):
    code, out, _ = run(capsys, "bruno", "check", "--family", "tabulated",
                       "--values", "1,2,4")
    assert code == 2
    assert "verdict inconclusive" in out
    partial = float(out.split()[2])
    # log 2 / 4 + log 4 / 8 over indices 0..2
    assert partial == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)
    code, out, _ = run(capsys, "tame", "--a", "tabulated:1,2",
                       "--b", "geometric:0.5")
    assert code == 2
    assert "on window 1: False" in out
    code, out, _ = run(capsys, "bruno", "transform", "--family",
                       "tabulated", "--values", "1,2,4", "--n", "1")
    assert code == 2
    # explicit spans past the table are still input errors
    code, _, err = run(capsys, "bruno", "check", "--family", "tabulated",
                       "--values", "1,2,4", "--depth", "60")
    assert code == 1
    assert "tabulated sequence has 3 entries, index 3" in err
    code, _, err = run(capsys, "tame", "--a", "tabulated:1,2",
                       "--b", "geometric:0.5", "--window", "60")
    assert code == 1
    assert "tabulated sequence has 2 entries, index 2" in err


def test_model_bounded_run(capsys, tmp_path):
    csv_path = tmp_path / "model.csv"
    code, out, _ = run(capsys, "model", "--a", "exp_power:1.2",
                       "--b", "exp_power:-1.5", "--scale-b", "0.1",
                       "--x0", "0.03", "--csv", str(csv_path))
    assert code == 0
    assert "bounded by b: True" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == "n,s_n,|r_n|,|delta_n|,|u_n|,b_n,sigma_n,checks_passed"


def test_model_seed_above_envelope_is_uncertified(capsys):
    # x0 = 0.1 sits above b_0 = 0.1/e, so the envelope hypothesis
    # fails at row 0 and the run reports uncertified
    code, out, _ = run(capsys, "model", "--a", "exp_power:1.2",
                       "--b", "exp_power:-1.5", "--scale-b", "0.1",
                       "--x0", "0.1")
    assert code == 2
    assert "bounded by b: False" in out


def test_model_tabulated_defaults_to_its_own_table(capsys):
    # x_0..x_steps read a_0..a_{steps-1} and b_0..b_steps, so three
    # values of a allow 3 steps and three values of b allow 2
    code, out, _ = run(capsys, "model", "--a", "tabulated:1,2,3",
                       "--b", "geometric:0.5", "--x0", "0.01")
    assert code == 0
    x = 0.01
    for n in range(3):
        x = ((n + 1.0) * x * x + 0.5 ** n * x) / 2.0
    assert out.startswith("steps 3 final x ")
    assert float(out.split()[4]) == pytest.approx(x, rel=1e-12)
    code, out, _ = run(capsys, "model", "--a", "geometric:2",
                       "--b", "tabulated:0.5,0.1,0.01", "--x0", "0.01")
    assert code == 0
    assert out.startswith("steps 2 ")
    # an explicit --steps past the table is still an input error
    code, _, err = run(capsys, "model", "--a", "tabulated:1,2,3",
                       "--b", "geometric:0.5", "--x0", "0.01",
                       "--steps", "4")
    assert code == 1
    assert "tabulated sequence has 3 entries, index 3" in err


def test_rho_refuses_tabulated_taming_input(capsys):
    # taming a a'^2 needs a closed-form tail bound and a table has none,
    # so any span is a refusal (exit 2), raised before any table index
    base = ["--b", "exp_power:-1.5", "--k", "4", "--l", "1"]
    for seqs in (["--a", "tabulated:2,4,8", "--aprime", "constant:1"],
                 ["--a", "geometric:2", "--aprime", "tabulated:1,2"]):
        for span in ([], ["--window", "1", "--depth", "2"]):
            code, out, err = run(capsys, "rho", *seqs, *base, *span)
            assert code == 2
            assert "no closed-form tail bound" in out
            assert err == ""
    # a certified divergent a stays an input error
    code, _, err = run(capsys, "rho", "--a", "exp_power:2.5",
                       "--aprime", "constant:1", *base)
    assert code == 1
    assert "a is certified non-summable" in err


def test_rho_tuner(capsys):
    code, out, _ = run(capsys, "rho", "--a", "constant:1",
                       "--aprime", "constant:1", "--b", "exp_power:-1.5",
                       "--k", "4", "--l", "1")
    assert code == 0
    assert "pair (*) holds: True" in out


def test_rho_refuses_negative_exponents_and_spans(capsys):
    # k = -1 makes the pair's a_n sigma_n^-k = sigma_n < 1: not tame
    base = ["--a", "constant:1.0", "--aprime", "constant:2.0",
            "--b", "exp_power:-1.7"]
    for k, l in (("-1", "2"), ("4", "-1")):
        code, out, err = run(capsys, "rho", *base, "--k", k, "--l", l)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "k and l must be nonnegative"
    for flag in ("--window", "--depth"):
        code, out, err = run(capsys, "rho", *base, "--k", "4", "--l", "1",
                             flag, "-1")
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "a span of -1 terms is negative"


# ---- iteration commands ----

def test_newton_square_root(capsys):
    code, out, _ = run(capsys, "newton", "--target", "2.0", "--x0", "1.5")
    assert code == 0
    error_line = [ln for ln in out.splitlines() if "sqrt" in ln][0]
    assert float(error_line.split()[-1]) < 1e-12
    # 17 significant digits in the printed root
    assert "1.4142135623730949" in out


def test_newton_rejects_bad_ball(capsys):
    code, _, err = run(capsys, "newton", "--x0", "0.5")
    assert code == 1
    assert "x0" in json.loads(err)["error"]


def test_newton_overflowing_target_is_uncertified(capsys):
    # x_1 ~ 3e307, so x_1^2 overflows: a diverged trace, not an error
    code, out, err = run(capsys, "newton", "--target", "1e308")
    assert code == 2
    assert err == ""
    assert "certified False status diverged" in out


@pytest.mark.parametrize("base", [("newton",), ("nashmoser",),
                                  ("lie", "--demo", "morse")],
                         ids=lambda base: base[0])
def test_negative_steps_is_input_error(capsys, base):
    code, out, err = run(capsys, *base, "--steps", "-1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"command": base[0],
                               "error": "a span of -1 terms is negative"}


def test_nashmoser_certified(capsys):
    code, out, _ = run(capsys, "nashmoser")
    assert code == 0
    resid_line = [ln for ln in out.splitlines() if "residual" in ln][0]
    assert float(resid_line.split()[-1]) <= 1e-10
    assert "certified True" in out


# ---- demos and the exit-code contract ----

@pytest.mark.parametrize("demo", ["morse", "mather", "circle"])
def test_lie_demos_certify(capsys, demo):
    code, out, _ = run(capsys, "lie", "--demo", demo)
    assert code == 0
    assert "status converged" in out


@pytest.mark.parametrize("demo", ["morse", "mather", "circle"])
def test_lie_demos_certify_at_cap_16(capsys, demo):
    # a tailed conjugacy image drops a cap below the base point's
    code, out, _ = run(capsys, "lie", "--demo", demo, "--cap", "16")
    assert code == 0
    assert "status converged" in out


def test_lie_morse_certifies_where_exp_log_t_rounds_up(capsys):
    # the schedule's first radius is t itself, not exp(log t) > t
    code, out, _ = run(capsys, "lie", "--demo", "morse", "--t", "0.1")
    assert code == 0
    assert "status converged" in out
    assert "verdict certified" in out


def test_lie_circle_certifies_where_the_geometric_start_rounds_up(capsys):
    # 0.008 + (0.102 - 0.008) rounds above 0.102; the strip is the start
    code, out, _ = run(capsys, "lie", "--demo", "circle", "--strip", "0.102",
                       "--strip-end", "0.008")
    assert code == 0
    assert "status converged" in out


def test_lie_circle_resonant_frequency_converges(capsys):
    # 4 * 0.75 is an integer, but no step divides by e^(2 pi i k omega) - 1
    code, out, err = run(capsys, "lie", "--demo", "circle",
                         "--omega", "0.75")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "demo circle status converged",
        "residual 3.1932509488478484e-20",
        "lambda_correction -2.1220659984777512e-07"]


@pytest.mark.parametrize("demo,steps,last", [
    ("morse", 121, 120), ("mather", 119, 118), ("circle", 54, 53)])
def test_lie_radius_that_stops_falling_ends_the_run_uncertified(
        capsys, demo, steps, last):
    code, out, err = run(capsys, "lie", "--demo", demo,
                         "--steps", str(steps))
    assert code == 2 and err == ""
    assert "status converged" in out
    assert (f"failure step {last}: the radius stops falling in float at "
            in out)
    code, out, _ = run(capsys, "lie", "--demo", demo,
                       "--steps", str(last))
    assert code == 0 and "failure" not in out


@pytest.mark.parametrize("demo,flag", [
    ("circle", "--t"), ("mather", "--eps"),
    ("morse", "--omega"), ("morse", "--strip"), ("morse", "--strip-end"),
    ("mather", "--omega"), ("mather", "--strip"), ("mather", "--strip-end"),
])
def test_lie_refuses_a_flag_its_demo_does_not_read(capsys, demo, flag):
    code, out, err = run(capsys, "lie", "--demo", demo, flag, "0.3",
                         "--steps", "1", "--cap", "16")
    assert code == 1 and out == ""
    diagnostic = json.loads(err)
    assert diagnostic["command"] == "lie"
    assert diagnostic["error"] == f"{flag} does not apply to the {demo} demo"


def test_malformed_config_is_machine_readable(capsys):
    code, _, err = run(capsys, "tame", "--a", "bogus:1", "--b", "constant:1")
    assert code == 1
    diagnostic = json.loads(err)
    assert set(diagnostic) == {"command", "error"}


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "bruno", "check", "--family", "geometric")[0] == 1
    assert run(capsys, "nonexistent")[0] == 1


def test_json_traces_are_byte_identical(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "lie", "--demo", "morse", "--json", str(first))[0] == 0
    assert run(capsys, "lie", "--demo", "morse", "--json", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_verify_is_not_a_command(capsys):
    # the test suite is run by pytest, not by the package
    code, _, err = run(capsys, "verify")
    assert code == 1
    assert "invalid choice: 'verify'" in err


# ---- non-finite numbers are input errors ----

_RHO = ["rho", "--a", "geometric:2", "--aprime", "constant:1",
        "--b", "exp_power:-1.5", "--k", "4", "--l", "1"]
# every float option, each after a command line that is valid without it
_FLOAT_FLAGS = [
    (["bruno", "check", "--family", "geometric"], "--q"),
    (["bruno", "check", "--family", "exp_power"], "--alpha"),
    (["tame", "--a", "constant:1", "--b", "constant:0.5"], "--scale-a"),
    (["tame", "--a", "constant:1", "--b", "constant:0.5"], "--scale-b"),
    (["model", "--a", "constant:1", "--x0", "0.01"], "--scale-a"),
    (["model", "--a", "constant:1", "--b", "constant:0.5", "--x0", "0.01"],
     "--scale-b"),
    (["model", "--a", "constant:1"], "--x0"),
    (_RHO, "--K"),
    (_RHO, "--alpha"),
    (["newton"], "--target"),
    (["newton"], "--x0"),
    (["nashmoser"], "--coeff"),
    (["lie", "--demo", "morse"], "--eps"),
    (["lie", "--demo", "morse"], "--t"),
    (["lie", "--demo", "circle"], "--omega"),
    (["lie", "--demo", "circle"], "--strip"),
    (["lie", "--demo", "circle"], "--strip-end"),
]
_NON_FINITE = ["nan", "inf", "-inf"]


def _assert_input_error(code, err, command):
    assert code == 1
    assert "Traceback" not in err
    diagnostic = json.loads(err)
    assert set(diagnostic) == {"command", "error"}
    assert diagnostic["command"] == command
    assert "not a finite number" in diagnostic["error"]


def test_float_flag_list_covers_the_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {(name, action.option_strings[0])
                for name, p in sub.choices.items() for action in p._actions
                if action.type not in (None, int)}
    assert declared == {(base[0], flag) for base, flag in _FLOAT_FLAGS}


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("base,flag", _FLOAT_FLAGS,
                         ids=[f"{b[0]}{f}" for b, f in _FLOAT_FLAGS])
def test_non_finite_float_option_exits_one(capsys, base, flag, value):
    code, out, err = run(capsys, *base, f"{flag}={value}")
    assert out == ""
    _assert_input_error(code, err, base[0])


@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("spec", ["geometric:{}", "exp_power:{}",
                                  "constant:{}", "tabulated:2,{},1"])
def test_non_finite_sequence_argument_exits_one(capsys, spec, value):
    code, out, err = run(capsys, "tame", "--a", spec.format(value),
                         "--b", "constant:0.5")
    assert out == ""
    _assert_input_error(code, err, "tame")


# ---- argv fuzz: the exit-code contract holds on any input ----

_FUZZ_FLAGS = {
    "bruno": ["check", "transform", "--family", "geometric", "exp_power",
              "tabulated", "--q", "--alpha", "--values", "--depth", "--n"],
    "tame": ["--a", "--b", "--scale-a", "--scale-b", "--window"],
    "model": ["--a", "--b", "--scale-a", "--scale-b", "--x0", "--steps"],
    "rho": ["--a", "--aprime", "--b", "--k", "--l", "--K", "--alpha",
            "--window", "--depth"],
    "newton": ["--target", "--x0", "--steps"],
    "nashmoser": ["--coeff", "--steps", "--cap"],
    "lie": ["--demo", "morse", "mather", "circle", "--eps", "--t", "--steps",
            "--omega", "--strip", "--strip-end", "--cap"],
}
# counts stay small: a huge --depth or --cap is slow, not a crash
_FUZZ_VALUES = ["0", "1", "2", "3", "7", "40", "-1", "-3", "0.5", "1.5",
                "1e-3", "0.015", "2.5", "1e308", "-1e308", "5e-324", "nan",
                "-inf", "1,2,4", "0.5,0,2", "geometric:0.5", "geometric:2",
                "exp_power:-1.5", "exp_power:1.2", "exp_power:0",
                "constant:1", "constant:0", "constant:-1", "tabulated:1,2,4",
                "tabulated:0.5", "tabulated:", "tabulated:1,,2",
                "geometric:", "geometric:x", "foo:1", ":", "", "-", "--"]
# garbage without a leading "-", so it never abbreviates --csv/--json
_GARBAGE = st.text(alphabet="abx019.,:e+_ ", max_size=8)


# a valid command line per command: later tokens override its flags, so
# garbage also reaches the engines, not only the parser
_FUZZ_BASES = {
    "bruno": ["check", "--family", "geometric", "--q", "2"],
    "tame": ["--a", "exp_power:1.2", "--b", "exp_power:-1.5"],
    "model": ["--a", "exp_power:1.2", "--b", "exp_power:-1.5",
              "--scale-b", "0.1", "--x0", "0.03"],
    "rho": ["--a", "geometric:2", "--aprime", "constant:1",
            "--b", "exp_power:-1.5", "--k", "4", "--l", "1"],
    "newton": ["--target", "2"],
    "nashmoser": ["--coeff", "0.01", "--steps", "3", "--cap", "16"],
    "lie": ["--demo", "morse", "--steps", "2", "--cap", "16"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flag = st.sampled_from(_FUZZ_FLAGS[command])
    value = st.one_of(st.sampled_from(_FUZZ_VALUES),
                      st.integers(-3, 40).map(str), st.floats().map(repr))
    if draw(st.booleans()):     # a valid line with some flags overridden
        pairs = draw(st.lists(st.tuples(flag, value), min_size=1,
                              max_size=3))
        return [command, *_FUZZ_BASES[command], *(t for p in pairs for t in p)]
    return [command, *draw(st.lists(st.one_of(flag, value, _GARBAGE),
                                    max_size=10))]


@settings(max_examples=600, deadline=None)
@given(_argv())
@example(["tame", *_FUZZ_BASES["tame"], "--window", "-1"])
@example(["model", *_FUZZ_BASES["model"], "--steps", "-1"])
@example(["newton", "--target", "1e308"])
@example(["lie", *_FUZZ_BASES["lie"], "--t", "5e-324"])
def test_cli_exit_code_contract_holds_on_fuzzed_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "banachscale", "newton", "--target", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, "newton", "--target", "2")
    assert code == 0 and proc.stdout == out


def test_parser_is_built_once_and_reusable(capsys):
    assert build_parser() is build_parser()
    argv = [*_RHO[:-4], "--k", "3", "--l", "2"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "banachscale", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # a usage error leaves nothing behind in the shared parser
    assert run(capsys, "rho", "--k", "x")[0] == 1
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, proc.stdout, "")
