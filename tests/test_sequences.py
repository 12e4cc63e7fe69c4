"""Tests for the positive-sequence calculus.

Expected values are either closed forms computed independently in the
test (geometric and e^(+-alpha^n) families have elementary weighted log
sums) or direct high-precision summations frozen here.
"""

import math

import numpy as np
import pytest

from banachscale.sequences import (
    PositiveSequence,
    SequenceDomainError,
    bruno_check,
    bruno_transform,
    lemma_rho,
    log_one_minus_exp,
    model_iteration,
    strictness_check,
    tame_check,
    taming_epsilon_log,
)

PS = PositiveSequence


def _random_summable_increasing(rng):
    """Random family with a >= 1, nondecreasing, certified summable."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return PS.geometric(float(rng.uniform(1.0, 4.0)))
    if kind == 1:
        return PS.exp_power(1, float(rng.uniform(1.05, 1.9)))
    if kind == 2:
        return (PS.geometric(float(rng.uniform(1.0, 2.5)))
                * PS.exp_power(1, float(rng.uniform(1.05, 1.8))))
    base = PS.exp_power(1, float(rng.uniform(1.05, 1.8)))
    return (base ** float(rng.uniform(0.5, 2.0))).scaled(
        float(rng.uniform(1.0, 3.0)))


# ---- bruno_check ----

def test_check_geometric_partial_sum_matches_direct_summation():
    # oracle: sum_{k<=40} k log(2) / 2^(k+1) summed directly
    k = np.arange(41, dtype=float)
    oracle = float(np.sum(k * math.log(2.0) / 2.0 ** (k + 1)))
    cert = bruno_check(PS.geometric(2.0), depth=40)
    assert cert.verdict == "bruno"
    assert abs(cert.partial_sum - oracle) < 1e-15
    # the full sum is log 2; the capped sum must sit just below it
    assert abs(cert.partial_sum - math.log(2.0)) < 1e-10
    assert cert.total_bound >= math.log(2.0) - 1e-15


def test_check_exp_power_threshold():
    # e^(alpha^n) summable iff alpha < 2; at alpha = 2 every term is 1/2
    assert bruno_check(PS.exp_power(1, 1.5)).verdict == "bruno"
    assert bruno_check(PS.exp_power(-1, 1.5)).verdict == "bruno"
    cert = bruno_check(PS.exp_power(1, 2.0), depth=30)
    assert cert.verdict == "not_bruno"
    assert abs(cert.partial_sum - 31 * 0.5) < 1e-12
    assert bruno_check(PS.exp_power(1, 2.5)).verdict == "not_bruno"
    assert bruno_check((PS.exp_power(1, 2.0) ** 1.5).scaled(2.0)).verdict \
        == "not_bruno"


def test_check_closure_product_power_inverse():
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        a = _random_summable_increasing(rng)
        b = _random_summable_increasing(rng)
        assert bruno_check(a * b, depth=50).verdict == "bruno"
        assert bruno_check(a ** float(rng.uniform(0.2, 3.0))).verdict == "bruno"
        inv = bruno_check(a.reciprocal(), depth=50)
        direct = bruno_check(a, depth=50)
        # |log| is symmetric under inversion
        assert inv.verdict == direct.verdict == "bruno"
        assert abs(inv.partial_sum - direct.partial_sum) < 1e-12


def test_check_tabulated_inconclusive_and_positivity_error():
    cert = bruno_check(PS.tabulated([1.0, 2.0, 4.0]), depth=2)
    assert cert.verdict == "inconclusive"
    with pytest.raises(SequenceDomainError):
        PS.tabulated([1.0, 0.0, 4.0])
    with pytest.raises(SequenceDomainError):
        PS.geometric(-2.0)


# ---- bruno_transform ----

def test_transform_geometric_closed_form():
    # a_n = q^n gives a^pi_0 = 1/q since sum k/2^(k+1) = 1
    res = bruno_transform(PS.geometric(3.0), n=0, depth=60)
    assert res.rigorous
    assert abs(res.value - 1.0 / 3.0) < 1e-10
    lo, hi = res.enclosure
    assert lo <= 1.0 / 3.0 <= hi
    # a^pi_n = q^(-(n+1))
    for n in (1, 5, 10):
        rn = bruno_transform(PS.geometric(3.0), n=n, depth=60)
        assert abs(rn.log_value - (-(n + 1) * math.log(3.0))) < 1e-9


def test_transform_recursion_randomized():
    # a^pi_{n+1} = a_n (a^pi_n)^2, checked in log space within the
    # enclosure widths plus machine-precision slack
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = _random_summable_increasing(rng)
        depth = 60
        results = [bruno_transform(a, n, depth) for n in range(42)]
        for n in range(41):
            lhs = results[n + 1].log_value
            rhs = a.log(n) + 2.0 * results[n].log_value
            slack = (results[n + 1].log_width + 2.0 * results[n].log_width
                     + 1e-9 * (1.0 + abs(lhs) + abs(rhs)))
            assert abs(lhs - rhs) <= slack


def test_transform_preconditions():
    with pytest.raises(SequenceDomainError):
        bruno_transform(PS.geometric(0.5))          # decreasing
    with pytest.raises(SequenceDomainError):
        bruno_transform(PS.exp_power(-1, 1.5))      # below 1
    res = bruno_transform(PS.tabulated([1.0, 2.0, 4.0, 8.0]), n=0, depth=3)
    assert not res.rigorous
    assert res.enclosure[0] == 0.0


# ---- tame pairs ----

def test_tame_example_window_200():
    a = PS.exp_power(1, 1.2)
    b = PS.exp_power(-1, 1.5).scaled(0.1)
    rep = tame_check(a, b, window=200)
    assert rep.tame
    assert rep.first_violation is None
    # binding margin is at n = 0: eps <= e^(0.5 * 1.5^0 - 1.2^0) = e^-0.5
    assert 0.1 <= math.exp(-0.5)


def test_tame_equality_boundary_pair():
    # a = 1 with b_n = eps^(2^n): (*) holds with equality
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 2.0) ** (-math.log(0.3))
    rep = tame_check(a, b, window=50)
    assert rep.tame
    assert all(rep.star_holds)


def test_tame_violation_everywhere():
    rep = tame_check(PS.exp_power(1, 2.0), PS.exp_power(-1, 2.0), window=30)
    assert not rep.tame
    assert rep.first_violation == 0
    assert not any(rep.star_holds)


# ---- taming ----

def test_taming_epsilon_geometric_closed_form():
    # a_n = 2^n: a^pi_n = 2^(-(n+1)) exactly, so the window infimum of
    # (a^pi_n)^2 over n <= 60 is 2^(-122)
    a = PS.geometric(2.0)
    log_eps = taming_epsilon_log(a, depth=60)
    assert abs(log_eps - (-122.0 * math.log(2.0))) < 1e-6
    assert math.exp(log_eps) == pytest.approx(2.0 ** -122, rel=1e-9)


def test_taming_epsilon_trivial_sequence():
    log_eps = taming_epsilon_log(PS.constant(1.0), depth=40)
    assert math.exp(log_eps) == pytest.approx(1.0)


def test_taming_epsilon_guarantee_randomized():
    # (a, eps * b) passes tame_check for any strict b on the same window
    rng = np.random.default_rng(123)
    for _ in range(20):
        a = _random_summable_increasing(rng)
        log_eps = taming_epsilon_log(a, depth=40)
        p = -math.log(float(rng.uniform(0.05, 0.95)))
        b = (PS.exp_power(-1, 2.0) ** p).scaled(log_factor=log_eps)
        assert strictness_check(PS.exp_power(-1, 2.0) ** p, window=40)
        rep = tame_check(a, b, window=40)
        assert rep.tame, f"violation at {rep.first_violation}"


def test_taming_epsilon_rejects_non_summable():
    with pytest.raises(SequenceDomainError):
        taming_epsilon_log(PS.exp_power(1, 2.0))


# ---- model iteration ----

def test_model_pure_quadratic_closed_values():
    trace = model_iteration(PS.constant(1.0), None, x0=0.5, steps=3)
    xs = [s.value_norm for s in trace.steps]
    assert xs[0] == 0.5
    assert xs[1] == pytest.approx(0.125, rel=1e-15)
    assert xs[2] == pytest.approx(0.0078125, rel=1e-15)
    assert xs[3] == pytest.approx(3.0517578125e-05, rel=1e-15)


def test_model_envelope_randomized_tame_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        alpha = float(rng.uniform(1.05, 1.45))
        beta = float(rng.uniform(alpha + 0.05, 1.95))
        a = PS.exp_power(1, alpha)
        n = np.arange(101, dtype=float)
        margin = np.min(-alpha ** n + (2.0 - beta) * beta ** n) - 0.5
        b = PS.exp_power(-1, beta).scaled(log_factor=margin)
        assert tame_check(a, b, window=100).tame
        x0 = b.value(0) * float(rng.uniform(0.1, 1.0))
        trace = model_iteration(a, b, x0=x0, steps=100)
        assert trace.certified
        assert all(s.checks_passed for s in trace.steps)


def test_model_divergence_flagged():
    trace = model_iteration(PS.constant(4.0), None, x0=10.0, steps=30)
    assert trace.status == "diverged"


# ---- lemma_rho ----

def test_lemma_rho_trivial_pair_window_40():
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 2.0) ** math.log(2.0)   # b_n = (1/2)^(2^n)
    rho, sigma, rep = lemma_rho(a, a, b, k=0, l=0, K=0.5, alpha=1.5,
                                window=40)
    assert rep.passed
    assert rep.first_failure is None
    # sigma identity and lower bound sampled where the asymptotics matter
    for n in (20, 30):
        log_rho = rho.log(n)
        assert sigma.value(n) == pytest.approx(-math.expm1(log_rho / 2.0 ** n),
                                               rel=1e-12)
        assert sigma.value(n) >= 1.5 ** n / 2.0 ** n


def test_lemma_rho_sigma_asymptotics_for_summable_b():
    # when b is itself summable, sigma_n -> 0 and
    # sigma_n ~ (alpha^n - log c_n - log b_n) / 2^n
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 1.5)
    rho, sigma, rep = lemma_rho(a, a, b, k=0, l=0, K=0.5, alpha=1.5,
                                window=40)
    assert rep.passed
    for n in (20, 30):
        # first-order expansion of 1 - rho^(1/2^n), K term removed
        x = -(rho.log(n) - math.log(rep.K)) / 2.0 ** n
        assert sigma.value(n) == pytest.approx(x, rel=0.05)
        assert sigma.value(n) >= 1.5 ** n / 2.0 ** n
        assert sigma.value(n) < 1e-2


def test_lemma_rho_produces_decreasing_summable_rho():
    a = PS.geometric(1.5)
    ap = PS.constant(2.0)
    b = PS.exp_power(-1, 1.5)
    rho, _, rep = lemma_rho(a, ap, b, k=1, l=1, alpha=1.5, window=40)
    assert rep.passed
    assert rho.monotonicity(40) == "decreasing"
    assert bruno_check(rho.reciprocal(), depth=50).verdict == "bruno"


def test_lemma_rho_autotune_reports_K():
    a = PS.exp_power(1, 1.3)
    ap = PS.geometric(2.0)
    b = PS.exp_power(-1, 1.5)
    rho, sigma, rep = lemma_rho(a, ap, b, k=2, l=1, alpha=1.5, window=40)
    assert rep.passed
    assert 0.0 < rep.K <= 0.5
    assert rep.halvings >= 0


def test_lemma_rho_rejects_bad_inputs():
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 1.5)
    with pytest.raises(SequenceDomainError):
        lemma_rho(a, a, b, 0, 0, alpha=2.5)
    with pytest.raises(SequenceDomainError):
        lemma_rho(a, a, PS.geometric(2.0), 0, 0)   # b not below 1
    with pytest.raises(SequenceDomainError):
        lemma_rho(PS.exp_power(1, 2.0), a, b, 0, 0)  # a not summable


# ---- serialization ----

def test_sequence_json_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = _random_summable_increasing(rng)
        back = PS.from_json(a.to_json())
        for n in (0, 3, 17):
            assert back.log(n) == a.log(n)
    t = PS.tabulated([0.5, 0.25, 0.125])
    back = PS.from_json(t.to_json())
    assert back.log(2) == t.log(2)


def test_log_one_minus_exp_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    x = -np.logspace(-12, 2, 57)
    with mpmath.workdps(50):
        want = [float(mpmath.log1p(-mpmath.exp(mpmath.mpf(v)))) for v in x]
    assert np.allclose(log_one_minus_exp(x), want, rtol=1e-13, atol=0.0)
