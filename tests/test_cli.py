"""Tests for the command-line surface: exit codes, traces, diagnostics."""

import argparse
import json
import math

import pytest

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


def test_lie_circle_rational_frequency_is_input_error(capsys):
    code, _, err = run(capsys, "lie", "--demo", "circle",
                       "--omega", "0.75")
    assert code == 1
    diagnostic = json.loads(err)
    assert diagnostic["command"] == "lie"
    assert "k = 4" in diagnostic["error"]


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


def test_verify_scoped_run(capsys, tmp_path):
    code, *_ = run(capsys, "verify", "--expression", "test_exponents_k_and_l")
    assert code == 0
    assert run(capsys, "verify", "--tests", str(tmp_path / "missing"))[0] == 1


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
