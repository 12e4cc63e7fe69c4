"""Tests for radius schedules and the iteration engines."""

import math

import numpy as np
import pytest

from banachscale.iterate import (
    IterationError,
    RadiusSchedule,
    nash_moser,
    newton,
    quadratic_model,
)
from banachscale.local_ops import multiplication_operator
from banachscale.sequences import PositiveSequence, SequenceDomainError
from banachscale.series import TruncatedSeries
from test_sequences import reference_log


def poly(coeffs, *, cap=32, ref=1.0, tail=0.0):
    s = TruncatedSeries(1, cap, ref, "taylor", tail=tail)
    for i, c in enumerate(coeffs):
        s.coeffs[i] = c
    return s


# ---- radius schedules ----

def test_geometric_schedule_basics():
    sched = RadiusSchedule.geometric(0.5, 1.5, 0.5)
    assert sched.radius(0) == 1.5
    assert sched.limit == 0.5
    radii = [sched.radius(n) for n in range(41)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert all(r > 0.5 for r in radii)


def test_geometric_decrement_is_exact_power():
    # with s0 - s_inf = q/(1-q) the decrements are exactly q^(n+1) and
    # the midpoint sits q^(n+1)/2 below s_n, both exact in binary floats
    sched = RadiusSchedule.geometric(0.5, 1.5, 0.5)
    assert sched.radius(0) - sched.limit == 0.5 / (1.0 - 0.5)
    for n in range(30):
        assert sched.decrement(n) == 0.5 ** (n + 1)
        assert sched.radius(n) - sched.midpoint(n) == 0.5 ** (n + 2)


def test_proof_normalization_requires_room():
    # s0 - s_inf = q/(1-q) leaves s_inf = 0 at s0 = 1, q = 1/2
    q, s0 = 0.5, 1.0
    with pytest.raises(IterationError, match="0 < s_inf"):
        RadiusSchedule.geometric(q, s0, s0 - q / (1.0 - q))


def test_geometric_schedule_rejects_bad_params():
    with pytest.raises(IterationError):
        RadiusSchedule.geometric(1.0, 1.0, 0.5)
    with pytest.raises(IterationError):
        RadiusSchedule.geometric(0.5, 1.0, 1.0)
    with pytest.raises(IterationError):
        RadiusSchedule.geometric(0.5, 1.0, -0.1)


def test_rho_driven_schedule_matches_product():
    sched = RadiusSchedule.rho_driven(PositiveSequence.constant(0.25), 1.0)
    # s_{n+1} = rho^(1/2^n) s_n
    assert sched.radius(1) == pytest.approx(0.25, rel=1e-15)
    assert sched.radius(2) == pytest.approx(0.125, rel=1e-15)
    assert sched.radius(3) == pytest.approx(0.125 * 0.25 ** 0.25, rel=1e-15)
    # limit = s0 * 0.25^(sum 2^-n) = 1/16, certified via the tail bound
    assert sched.limit == pytest.approx(1.0 / 16.0, rel=1e-9)
    radii = [sched.radius(n) for n in range(20)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_rho_driven_schedule_starts_exactly_at_s0():
    # exp(log s0) rounds above s0 for some t, e.g. 0.1, 0.104 and 0.11;
    # so does a geometric s_inf + (s0 - s_inf), e.g. at (0.102, 0.008)
    rho = PositiveSequence.constant(0.25)
    assert RadiusSchedule.geometric(0.5, 0.102, 0.008).radius(0) == 0.102
    for i in range(100, 1001):
        t = i / 1000
        assert RadiusSchedule.rho_driven(rho, t).radius(0) == t
        for j in range(100, i, 9):
            sched = RadiusSchedule.geometric(0.5, t, j / 1000)
            assert sched.radius(0) == t


def test_rho_driven_rejects_non_summable_and_rho_above_one():
    bad = PositiveSequence.exp_power(-1, 2.5)
    with pytest.raises(IterationError, match="non-summable"):
        RadiusSchedule.rho_driven(bad, 1.0)
    table = PositiveSequence.tabulated([1.5] + [0.5] * 40)
    with pytest.raises(IterationError, match="rho_0 >= 1"):
        RadiusSchedule.rho_driven(table, 1.0)


def _reference_schedule(rho, s0):
    """Radii s_0..s_70 and the limit of a rho-driven schedule, each summed
    index by index from log s0, with rho checked below 1 at n = 0..60 one
    index at a time: a failure is (exception name, message)."""
    def outcome(fn):
        try:
            return fn().hex()
        except (SequenceDomainError, OverflowError, IterationError) as exc:
            return type(exc).__name__, str(exc)

    def log_radius(n):
        log_s = math.log(s0)
        for m in range(n):
            log_s += reference_log(rho, m) * math.pow(2.0, -m)
        return log_s

    def check():
        for n in range(61):
            try:
                lr = reference_log(rho, n)
            except SequenceDomainError:
                break
            if lr >= 0.0:
                raise IterationError(f"rho_{n} >= 1; radii must fall")
        if rho.divergence_witness():
            raise IterationError(
                "rho is certified non-summable; the limit radius is 0")
        return 0.0

    def limit():
        try:
            log_s = log_radius(61)
        except SequenceDomainError:
            return 0.0
        tail = rho.weighted_log_tail(0, 60)
        return 0.0 if tail is None else math.exp(log_s - 2.0 * tail)

    built = outcome(check)
    if built != 0.0.hex():
        return built
    return ([outcome(lambda n=n: s0 if n == 0 else math.exp(log_radius(n)))
             for n in range(71)], outcome(limit))


def _schedule_outcome(rho, s0):
    def outcome(fn):
        try:
            return fn().hex()
        except (SequenceDomainError, OverflowError, IterationError) as exc:
            return type(exc).__name__, str(exc)
    try:
        sched = RadiusSchedule.rho_driven(rho, s0)
    except (SequenceDomainError, OverflowError, IterationError) as exc:
        return type(exc).__name__, str(exc)
    return ([outcome(lambda n=n: sched.radius(n)) for n in range(71)],
            outcome(lambda: sched.limit))


_TABLE = np.random.default_rng(4).uniform(0.05, 0.95, 80)
_RHOS = {
    "geometric": PositiveSequence.geometric(0.8).scaled(0.5),
    "exp_power": PositiveSequence.exp_power(-1, 1.5),
    "product": (PositiveSequence.exp_power(-1, 1.3)
                * PositiveSequence.geometric(0.9)),
    "scaled": PositiveSequence.exp_power(-1, 1.5).scaled(
        log_factor=-7.25),
    "power": PositiveSequence.exp_power(-1, 1.2) ** 2.5,
    "lemma_rho-like": (PositiveSequence.exp_power(-1, 1.5) ** 2.0
                       * PositiveSequence.exp_power(-1, 1.5)).scaled(
                           log_factor=-40.0),
    "tabulated": PositiveSequence.tabulated(_TABLE),
    "short table": PositiveSequence.tabulated(_TABLE[:30]),
    "rho_17 >= 1": PositiveSequence.tabulated(
        np.r_[_TABLE[:17], 1.0, _TABLE[18:]]),
    "rho_0 >= 1 before an overflow": PositiveSequence.exp_power(
        -1, 1e6).scaled(math.e ** 2),
    "overflow at n = 52": PositiveSequence.exp_power(-1, 1e6),
    "table ends before the overflow": (PositiveSequence.exp_power(-1, 1e6)
                                       * PositiveSequence.tabulated(
                                           _TABLE[:40])),
    "gap refuses n = 30": PositiveSequence.tabulated(
        np.r_[_TABLE[:30], 2.0, _TABLE[31:]]).gap(),
    "non-summable": PositiveSequence.exp_power(-1, 2.5),
}


@pytest.mark.parametrize("name", list(_RHOS))
@pytest.mark.parametrize("s0", [1.0, 0.8, 0.37])
def test_kept_log_radii_match_the_per_index_sum(name, s0):
    rho = _RHOS[name]
    got = _schedule_outcome(rho, s0)
    assert got == _reference_schedule(rho, s0)
    if name in ("short table", "table ends before the overflow",
                "gap refuses n = 30"):
        radii, limit = got
        assert limit == 0.0.hex()
        assert any(isinstance(r, tuple) for r in radii)
    elif name in ("rho_17 >= 1", "rho_0 >= 1 before an overflow",
                  "overflow at n = 52", "non-summable"):
        assert isinstance(got[0], str)     # construction refused
    else:
        radii, limit = got
        assert all(isinstance(r, str) for r in radii + [limit])


def test_schedule_json_round_trip_fields():
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.4)
    d = sched.to_json_dict()
    assert d == {"kind": "geometric", "q": 0.5, "s0": 1.0, "s_inf": 0.4}
    rd = RadiusSchedule.rho_driven(PositiveSequence.constant(0.3), 2.0)
    d2 = rd.to_json_dict()
    assert d2["kind"] == "rho_driven" and d2["s0"] == 2.0


# ---- classical Newton ----

def test_newton_square_root_of_two():
    trace = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 2.0,
                   m=1.0 / 2.6, M=2.0, steps=10)
    assert trace.certified
    assert trace.status == "converged"
    # classical double-precision orbit from 1.5
    assert trace.steps[1].value_norm == pytest.approx(1.4142156862745099,
                                                      abs=5e-16)
    assert trace.steps[2].value_norm == pytest.approx(1.4142135623746899,
                                                      abs=5e-16)
    assert len(trace.steps) <= 5
    assert abs(trace.metadata["final"] - math.sqrt(2.0)) < 1e-12
    C = trace.metadata["C"]
    for rec in trace.steps:
        if rec.extra.get("ratio") is not None:
            assert rec.extra["ratio"] <= C


def test_newton_ratio_just_above_c_is_refused():
    # the run does not depend on m, so C = m M / 2 can be set 5e-10 below
    # the largest ratio it observes; the exact check refuses that step
    def run(m):
        return newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 2.0,
                      m=m, M=2.0, steps=10)
    ratios = [rec.extra["ratio"] for rec in run(1.0 / 2.6).steps
              if rec.extra.get("ratio") is not None]
    worst = max(ratios)
    assert run(worst).certified
    trace = run(worst - 5e-10)
    assert trace.metadata["C"] == worst - 5e-10
    assert not trace.certified
    n = 1 + ratios.index(worst)
    assert not trace.steps[n].checks_passed
    assert trace.failures == [f"quadratic ratio exceeds C at n={n}"]


def test_newton_linear_is_one_step():
    trace = newton(lambda x: x, lambda x: 1.0, 0.0, 0.3, m=1.0, M=1.0,
                   steps=5)
    assert trace.metadata["final"] == 0.3
    assert trace.status == "converged"
    assert len(trace.steps) == 2          # the second step measures delta = 0


def test_newton_singular_inverse_raises_with_step():
    with pytest.raises(IterationError, match="step 0"):
        newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 0.0, 1.0,
               m=1.0, M=2.0, steps=3)


def test_newton_overflow_gives_a_diverged_trace():
    # from 1.5 toward sqrt(1e308) the first iterate is ~3e307; squaring
    # it overflows, and the run ends uncertified instead of raising
    trace = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 1e308,
                   m=1.0, M=2.0, steps=40)
    assert not trace.certified
    assert trace.status == "diverged"
    assert len(trace.steps) == 2
    assert trace.steps[0].increment_norm == pytest.approx(1e308 / 3.0)
    assert math.isinf(trace.steps[1].increment_norm)
    assert not trace.steps[1].checks_passed
    assert "increment is not finite at n=1" in trace.failures


def test_newton_quadratic_map_ratios():
    m = 1.0 / (1.0 - 2.0 * 0.25)
    trace = newton(lambda x: x + x * x, lambda x: 1.0 / (1.0 + 2.0 * x),
                   0.0, 0.1, m=m, M=2.0, steps=10)
    assert trace.certified
    C = 0.5 * m * 2.0
    for rec in trace.steps:
        if rec.extra.get("ratio") is not None:
            assert rec.extra["ratio"] <= C
    root = trace.metadata["final"]
    assert root + root * root == pytest.approx(0.1, abs=1e-14)


def test_newton_randomized_cubics_respect_ratio_bound():
    rng = np.random.default_rng(7)
    r = 0.2
    for _ in range(30):
        c2, c3 = rng.uniform(-0.4, 0.4, size=2)
        target = rng.uniform(-0.05, 0.05)

        def f(x, c2=c2, c3=c3):
            return x + c2 * x * x + c3 * x ** 3

        def dfinv(x, c2=c2, c3=c3):
            return 1.0 / (1.0 + 2.0 * c2 * x + 3.0 * c3 * x * x)

        # rigorous bounds on |x| <= r
        m = 1.0 / (1.0 - 2.0 * abs(c2) * r - 3.0 * abs(c3) * r * r)
        M = 2.0 * abs(c2) + 6.0 * abs(c3) * r
        if M == 0.0:
            M = 1e-6
        trace = newton(f, dfinv, 0.0, f(target), m=m, M=M, steps=12)
        C = 0.5 * m * M
        for rec in trace.steps:
            assert rec.value_norm <= r
            if rec.extra.get("ratio") is not None:
                assert rec.extra["ratio"] <= C


# ---- Nash-Moser on falling radii ----

def nm_problem(cap=64):
    def f(u):
        return u + u.multiply(u)

    def j(u):
        one = TruncatedSeries.monomial(0, 1.0, cap=u.cap,
                                       ref_radius=u.ref_radius)
        return multiplication_operator((one + u.scale(2.0)).reciprocal())

    return f, j


def nm_oracle(y, iters=100):
    """Fixed point of u = y - u^2 by direct iteration."""
    u = TruncatedSeries.zero(1, y.cap, y.ref_radius)
    for _ in range(iters):
        u = y - u.multiply(u)
    return u


def test_quadratic_model_constants():
    sched = RadiusSchedule.geometric(0.5, 1.5, 0.5)
    M, alpha, model = quadratic_model((1, 0, 1, 0), sched, 1.0, 1.0)
    assert alpha == 2
    # D = 1/2, so (2/D)^2 = 16 and the s_inf prefactor is 1/0.5
    assert M == pytest.approx(4.0 * 16.0 / 0.5, rel=1e-12)
    assert model.value(0) == pytest.approx(M, rel=1e-12)
    assert model.value(1) == pytest.approx(M * 4.0, rel=1e-12)
    M0, alpha0, model0 = quadratic_model((0, 0, 0, 0), sched, 2.0, 1.0)
    assert alpha0 == 0 and M0 == pytest.approx(8.0)
    assert model0.value(7) == pytest.approx(8.0)


def test_nash_moser_demo_certified_run():
    f, j = nm_problem()
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.01], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                       j_const=2.0, d2f_const=1.0)
    assert trace.certified
    assert trace.status == "converged"
    assert trace.metadata["steps_used"] <= 6
    assert trace.metadata["residual_at_limit"] <= 1e-10
    assert trace.metadata["alpha"] == 0
    assert 0.124 < trace.metadata["bruno_gate"] <= 0.125

    # independent oracle: the fixed point of u = y - u^2
    oracle = nm_oracle(y)
    x = TruncatedSeries.from_json_dict(trace.metadata["x_final"])
    assert np.max(np.abs(x.coeffs - oracle.coeffs)) < 1e-12


def test_nash_moser_trace_satisfies_quadratic_model():
    f, j = nm_problem()
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.01], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                       j_const=2.0, d2f_const=1.0)
    deltas = [rec.increment_norm for rec in trace.steps]
    consts = [rec.sigma for rec in trace.steps]
    # stepwise quadratic estimate, recomputed from the trace
    for i in range(1, len(deltas)):
        assert deltas[i] <= consts[i] * deltas[i - 1] ** 2 * (1 + 1e-9)
    # closed-form envelope (prod a_k^(1/2^k) * d1)^(2^n)
    log_env = math.log(deltas[0])
    for i in range(1, len(deltas)):
        log_env += math.log(consts[i]) / 2.0 ** i
        env = math.exp(2.0 ** i * log_env)
        assert deltas[i] <= env * (1 + 1e-9)
        assert trace.steps[i].extra["envelope"] == pytest.approx(env,
                                                                 rel=1e-12)


def test_nash_moser_ratio_just_above_a_n_is_refused():
    # with exponents 0 the model is a_n = M = 4 j_const d2f_const, and the
    # iterates do not depend on it: set M 5e-10 (relative) below the
    # largest ratio |x_(n+1) - x_n| / |x_n - x_(n-1)|^2 the run observes
    f, j = nm_problem()
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.01], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)

    def run(j_const):
        return nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                          j_const=j_const, d2f_const=1.0)
    d = [rec.increment_norm for rec in run(2.0).steps]
    ratios = [d[i] / d[i - 1] ** 2 for i in range(1, len(d))]
    worst = max(ratios)
    trace = run(0.25 * worst * (1.0 - 5e-10))
    assert trace.metadata["bruno_gate"] > d[0]      # the entry gate holds
    n = 1 + ratios.index(worst)
    assert [rec.checks_passed for rec in trace.steps] \
        == [i != n for i in range(len(d))]
    assert trace.failures == [f"quadratic estimate violated at n={n}"]
    assert not trace.certified


def test_nash_moser_zero_target_stays_zero():
    f, j = nm_problem(cap=16)
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = TruncatedSeries.zero(1, 16, 1.0)
    x0 = TruncatedSeries.zero(1, 16, 1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                       j_const=2.0, d2f_const=1.0)
    assert trace.certified
    assert trace.status == "converged"
    assert trace.metadata["residual_at_limit"] == 0.0
    x = TruncatedSeries.from_json_dict(trace.metadata["x_final"])
    assert x.is_zero


def test_nash_moser_oversized_data_is_uncertified():
    f, j = nm_problem()
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.2], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                       j_const=2.0, d2f_const=1.0)
    assert not trace.certified
    assert trace.status == "uncertified"
    assert any("Bruno gate" in msg for msg in trace.failures)
    assert len(trace.steps) > 1           # the run itself continues


def test_nash_moser_requires_geometric_schedule():
    f, j = nm_problem(cap=16)
    sched = RadiusSchedule.rho_driven(PositiveSequence.constant(0.25), 1.0)
    y = TruncatedSeries.zero(1, 16, 1.0)
    with pytest.raises(IterationError, match="geometric"):
        nash_moser(f, j, (0, 0, 0, 0), sched, y, y, steps=4,
                   j_const=2.0, d2f_const=1.0)


def test_nash_moser_rejects_undersized_radius():
    f, j = nm_problem(cap=16)
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    x0 = TruncatedSeries.zero(1, 16, 0.8)
    y = TruncatedSeries.zero(1, 16, 1.0)
    with pytest.raises(IterationError, match="radius"):
        nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=4,
                   j_const=2.0, d2f_const=1.0)


def test_nash_moser_locality_violation_names_step():
    f, _ = nm_problem()

    def j_bad(u):
        h = TruncatedSeries.monomial(0, 1.0, cap=u.cap, ref_radius=0.3)
        return multiplication_operator(h)

    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.01], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    with pytest.raises(IterationError, match="step 0"):
        nash_moser(f, j_bad, (0, 0, 0, 0), sched, x0, y, steps=4,
                   j_const=2.0, d2f_const=1.0)


def test_nash_moser_trace_is_deterministic():
    f, j = nm_problem()
    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = poly([0.0, 0.01], cap=64)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    run = lambda: nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                             j_const=2.0, d2f_const=1.0).to_json()
    assert run() == run()
