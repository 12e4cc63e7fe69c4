"""Acceptance gate: one test per shipped guarantee.

Each guarantee gets exactly one test, so `pytest -v tests/test_acceptance.py`
prints one pass/fail line per criterion.  Tolerances are asserted at the
advertised values; wall-clock budgets are measured inside the test body.
Expected values come from closed forms or an independent reimplementation,
never from replaying the module under test.
"""

import math
import time

import numpy as np
import pytest

from banachscale.demos import (
    GOLDEN_C,
    GOLDEN_MEAN,
    circle,
    mather,
    mather_problem,
    morse,
    morse_problem,
)
from banachscale.iterate import (
    RadiusSchedule,
    nash_moser,
    newton,
    quadratic_model,
)
from banachscale.lie import (
    LieState,
    involutive_quasi_inverse,
    lie_step,
    rho_schedule,
)
from banachscale.local_ops import (
    LocalOperator,
    WeightFunction,
    certify_vector_field,
    exp as exp_field,
    multiplication_operator,
    product_of_exponentials,
)
from banachscale.sequences import (
    PositiveSequence,
    bruno_transform,
    model_iteration,
    tame_check,
    taming_epsilon_log,
)
from banachscale.series import TruncatedSeries

STRICT_B = PositiveSequence.exp_power(-1, 1.5)


def _budget(t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"runtime {elapsed:.2f}s over the {limit:g}s budget"


def _poly(rng, cap, deg, *, ref=1.0, scale=1.0, tail=0.0):
    s = TruncatedSeries(1, cap, ref, "taylor", tail=tail)
    d = min(deg, cap)
    s.coeffs[: d + 1] = scale * (rng.standard_normal(d + 1)
                                 + 1j * rng.standard_normal(d + 1))
    return s


def _grid(rng, dim, cap, ref=1.0):
    shape = (cap + 1,) * dim
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return TruncatedSeries(dim, cap, ref, "taylor", c)


def _even_part(m):
    coeffs = m.coeffs.copy()
    coeffs[1::2] = 0.0
    return TruncatedSeries(1, m.cap, m.ref_radius, "taylor", coeffs, m.tail)


def _even_projector(cap):
    def action(g, t, s):
        g = g if g.ref_radius <= s else g.restrict(s)
        coeffs = g.coeffs.copy()
        coeffs[1::2] = 0.0
        return TruncatedSeries(1, g.cap, g.ref_radius, "taylor", coeffs,
                               g.tail)

    return LocalOperator(action, WeightFunction(), 1.0, kind="generic",
                         name="even part")


def _random_growth_family(rng, *, max_alpha=1.15):
    """A random admissible family: >= 1, nondecreasing, summable weighted
    log-tail in closed form.  max_alpha keeps values representable out to
    index 41 (exp_power overflows fast)."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        a = PositiveSequence.geometric(float(rng.uniform(1.0, 5.0)))
    elif kind == 1:
        a = PositiveSequence.exp_power(1, float(rng.uniform(1.02, max_alpha)))
    else:
        a = PositiveSequence.geometric(float(rng.uniform(1.1, 2.5))) \
            ** float(rng.uniform(1.0, 2.0))
    if rng.random() < 0.5:
        a = a.scaled(log_factor=float(rng.uniform(0.0, 1.0)))
    return a


# 1. The transform solves z_{n+1} = a_n z_n^2: consecutive enclosures must
#    be consistent under the recursion, and the geometric case has the
#    closed form a^pi_0 = 1/q, checked against a from-scratch product.

def test_criterion_01_bruno_transform_recursion_and_geometric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        a = _random_growth_family(rng)
        res = [bruno_transform(a, n) for n in range(42)]
        assert all(r.rigorous for r in res)
        for n in range(41):
            lo, hi = res[n].enclosure
            lo1, hi1 = res[n + 1].enclosure
            an = a.value(n)
            qlo, qhi = an * lo * lo, an * hi * hi
            assert qlo <= hi1 and lo1 <= qhi
            width = (hi1 - lo1) + (qhi - qlo)
            assert abs(res[n + 1].value - an * res[n].value ** 2) <= width

    # independent oracle for a_n = 3^n: truncated product with the
    # closed-form tail sum_{k>K} k log(3)/2^(k+1) = (K+2)/2^(K+1) log(3)
    K = 120
    log_prod = -sum(k * math.log(3.0) * 0.5 ** (k + 1) for k in range(K + 1))
    tail = (K + 2) * 0.5 ** (K + 1) * math.log(3.0)
    assert tail < 1e-30
    oracle = math.exp(log_prod)
    assert abs(oracle - 1.0 / 3.0) <= 1e-12
    got = bruno_transform(PositiveSequence.geometric(3.0))
    assert abs(got.value - 1.0 / 3.0) <= 1e-10
    assert got.enclosure[0] <= oracle <= got.enclosure[1]
    _budget(t0, 1.0)


# 2. Tame pairs with x_0 <= b_0 keep the mixed iteration under b at every
#    step; the pairs are built from the window taming constant, which is
#    what makes them tame in the first place.

def test_criterion_02_tame_model_iteration_stays_under_envelope():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    steps = 40
    for _ in range(100):
        a = _random_growth_family(rng, max_alpha=1.06)
        beta = float(rng.uniform(1.1, 1.9))
        b = PositiveSequence.exp_power(-1, beta).scaled(
            log_factor=taming_epsilon_log(a, steps + 2))
        assert tame_check(a, b, window=steps + 1).tame
        x0 = float(rng.uniform(0.0, 1.0)) * b.value(0)
        trace = model_iteration(a, b, x0, steps=steps)
        assert trace.certified
        assert all(rec.checks_passed for rec in trace.steps)
        assert all(rec.value_norm <= rec.bound * (1 + 1e-12)
                   for rec in trace.steps)
    _budget(t0, 1.0)


# 3. The schedule constructor finds (rho, sigma, K) for the quadratic
#    demo's constants within the halving budget and all conditions hold
#    across the 40-index window.

def test_criterion_03_schedule_constructor_for_quadratic_demo_constants():
    t0 = time.perf_counter()
    sched = rho_schedule(morse_problem(), STRICT_B, 1.0)
    rep = sched.report
    assert rep.halvings <= 64
    assert rep.window == 40
    assert set(rep.conditions) == {
        "model-pair", "model-below-b", "linear-branch", "exp-smallness",
        "transversal-increment", "n-range"}
    for flags in rep.conditions.values():
        assert len(flags) >= 40
        assert all(flags)
    assert 0.0 < sched.rho.value(0) < 1.0
    assert 0.0 < sched.sigma.value(0) < 1.0
    assert rep.threshold > 0.0
    _budget(t0, 1.0)


# 4. The three norm estimates (derivative loss of domain, division by a
#    coordinate, high-pass cutoff decay with the exact (s/t)^(d+K)
#    constant) hold on >= 1000 random draws each, dimensions up to 3.

def test_criterion_04_norm_inequalities_hold_on_random_draws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)

    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        cap = 6 if dim < 3 else 4
        f = _grid(rng, dim, int(rng.integers(1, cap + 1)))
        t = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.01, 0.99)) * t
        axis = int(rng.integers(0, dim))
        lhs = f.derivative(axis).majorant_norm(s)
        assert lhs <= f.majorant_norm(t) / (t - s) * (1 + 1e-12)

    for _ in range(1000):
        dim = int(rng.integers(1, 4))
        f = _grid(rng, dim, 4)
        axis = int(rng.integers(0, dim))
        face = [slice(None)] * dim
        face[axis] = 0
        f.coeffs[tuple(face)] = 0.0
        f.tail = float(rng.uniform(0.0, 0.5))
        g = f.divide_by_coordinate(axis)
        t = float(rng.uniform(0.05, 1.0))
        assert g.majorant_norm(t) \
            <= f.majorant_norm(t) / t * (1 + 1e-12)

    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 4))
        cap = 6 if dim < 3 else 4
        f = _grid(rng, dim, cap)
        n_min = int(rng.integers(1, cap))
        cut = f.cutoff(n_min, None)
        if cut.is_zero:
            continue
        t = float(rng.uniform(0.3, 1.0))
        s = float(rng.uniform(0.05, 0.95)) * t
        lhs = cut.hilbert_norm(s)
        rhs = (s / t) ** (dim + n_min) * f.hilbert_norm(t)
        assert lhs <= rhs * (1 + 1e-12)
        checked += 1
    _budget(t0, 10.0)


# 5. Exponentials of fields: constant fields shift, the certified output
#    norm obeys |g|_t / (1 - |u|_t/(t-s)) recomputed from raw norms, and
#    chains stay within sigma/(1-sigma) of the inclusion.

def test_criterion_05_exponential_calculus_shift_and_borel_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)

    for _ in range(200):
        g = _poly(rng, 40, int(rng.integers(1, 13)))
        c = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.1, 0.1))
        shiftfield = TruncatedSeries(1, 4, 1.0, "taylor")
        shiftfield.coeffs[0] = c
        app = exp_field(certify_vector_field(shiftfield), 1.0, 0.6, g)
        assert app.remainder == 0.0
        np.testing.assert_allclose(app.series.coeffs, g.shift(c).coeffs,
                                   rtol=0, atol=1e-12)

    for _ in range(300):
        t = float(rng.uniform(0.4, 1.2))
        s = float(rng.uniform(0.2, 0.9)) * t
        cap = int(rng.integers(6, 28))
        a = _poly(rng, cap, int(rng.integers(0, 4)), ref=t)
        a = a.scale(float(rng.uniform(0.05, 0.95)) * (t - s)
                    / a.majorant_norm(t))
        g = _poly(rng, cap, int(rng.integers(1, cap + 1)), ref=t,
                  tail=float(rng.uniform(0, 1.0) * (rng.random() < 0.5)))
        app = exp_field(certify_vector_field(a), t, s, g)
        x = a.majorant_norm(t) / (t - s)
        assert x < 1.0
        assert app.certified_norm() \
            <= g.majorant_norm(t) / (1.0 - x) * (1 + 2e-9)

    for _ in range(50):
        count = int(rng.integers(2, 5))
        rs = [1.0]
        for _ in range(count):
            rs.append(rs[-1] * float(rng.uniform(0.55, 0.85)))
        us = []
        sigma_indep = 0.0
        for i in range(count):
            a = _poly(rng, 8, int(rng.integers(0, 2)), ref=rs[i])
            gap = rs[i] - rs[i + 1]
            a = a.scale(float(rng.uniform(0.02, 0.2)) * gap
                        / a.majorant_norm(rs[i]))
            us.append(certify_vector_field(a))
            sigma_indep += a.majorant_norm(rs[i]) / gap
        prod = product_of_exponentials(us, rs)
        assert prod.sigma < 1.0
        assert prod.sigma == pytest.approx(sigma_indep, rel=1e-12)
        assert prod.bound == pytest.approx(
            prod.sigma / (1.0 - prod.sigma), rel=1e-12)
        g = _poly(rng, 24, 4)
        out, rem = prod.apply(g)
        measured = (out - g.restrict(rs[-1])).majorant_norm(rs[-1]) \
            + rem
        assert measured <= prod.bound * g.majorant_norm(1.0) \
            * (1 + 1e-9)
    _budget(t0, 10.0)


# 6. Newton: sqrt(2) from 1.5 lands within 1e-12 by step five, and the
#    recorded contraction ratios respect mM/2 on randomized cubics with
#    hand-derived ball bounds.

def test_criterion_06_newton_square_root_and_quadratic_ratios():
    t0 = time.perf_counter()
    trace = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 2.0,
                   m=1.0 / 2.6, M=2.0, steps=10)
    assert trace.certified and trace.status == "converged"
    hits = [n for n, rec in enumerate(trace.steps)
            if abs(rec.value_norm - math.sqrt(2.0)) < 1e-12]
    assert hits and hits[0] <= 5
    assert abs(trace.metadata["final"] - math.sqrt(2.0)) < 1e-12

    rng = np.random.default_rng(606)
    r = 0.2
    for _ in range(40):
        c2, c3 = (float(v) for v in rng.uniform(-0.4, 0.4, size=2))
        target = float(rng.uniform(-0.05, 0.05))

        def f(x, c2=c2, c3=c3):
            return x + c2 * x * x + c3 * x ** 3

        def dfinv(x, c2=c2, c3=c3):
            return 1.0 / (1.0 + 2.0 * c2 * x + 3.0 * c3 * x * x)

        m = 1.0 / (1.0 - 2.0 * abs(c2) * r - 3.0 * abs(c3) * r * r)
        M = max(2.0 * abs(c2) + 6.0 * abs(c3) * r, 1e-6)
        tr = newton(f, dfinv, 0.0, f(target), m=m, M=M, steps=12)
        for rec in tr.steps:
            assert abs(rec.value_norm) <= r
            if rec.extra.get("ratio") is not None:
                assert rec.extra["ratio"] <= 0.5 * m * M + 1e-9
    _budget(t0, 1.0)


# 7. Nash-Moser: the exact-inverse quadratic demo converges below 1e-10
#    at the limit radius, increments contract quadratically with the
#    constant recomputed from the declared exponents, and oversized data
#    trips the summability gate instead of certifying.

def test_criterion_07_nash_moser_demo_and_entry_gate():
    t0 = time.perf_counter()

    def f(u):
        return u + u.multiply(u)

    def j(u):
        one = TruncatedSeries.monomial(0, 1.0, cap=u.cap,
                                       ref_radius=u.ref_radius)
        return multiplication_operator((one + u.scale(2.0)).reciprocal())

    sched = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    x0 = TruncatedSeries.zero(1, 64, 1.0)
    y = TruncatedSeries.monomial(1, 0.01, cap=64, ref_radius=1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), sched, x0, y, steps=8,
                       j_const=2.0, d2f_const=1.0)
    assert trace.certified and trace.status == "converged"
    assert trace.metadata["residual_at_limit"] <= 1e-10
    M, alpha, _ = quadratic_model((0, 0, 0, 0), sched, 2.0, 1.0)
    assert alpha == 0
    deltas = [rec.increment_norm for rec in trace.steps]
    for i in range(1, len(deltas)):
        assert deltas[i] <= M * 0.5 ** (-alpha * (i - 1)) \
            * deltas[i - 1] ** 2 * (1 + 1e-9)

    big = TruncatedSeries.monomial(1, 0.2, cap=64, ref_radius=1.0)
    gate = nash_moser(f, j, (0, 0, 0, 0), sched, x0, big, steps=8,
                      j_const=2.0, d2f_const=1.0)
    assert not gate.certified
    assert any("Bruno gate" in msg for msg in gate.failures)
    _budget(t0, 5.0)


# 8. Quadratic demo: full certificate, vanishing orders exactly 2 + 2^n,
#    and the assembled conjugacy returns the seed to the base point
#    within 1e-8 at the limit radius.

def test_criterion_08_quadratic_demo_fully_certified():
    t0 = time.perf_counter()
    rep = morse()                              # |r0| = 1e-3 at t = 1
    cert = rep.certificate
    assert cert.verdict == "certified"
    assert all(cert.n1) and all(cert.n2) and all(cert.master)
    assert all(cert.value_below) and all(cert.increment_below)
    assert rep.details["orders"] == [2 + 2 ** n for n in range(6)]
    assert rep.details["normalization_defect"] <= 1e-8
    _budget(t0, 30.0)


# 9. Finite-order demo: the order-7 perturbation of z^3 is conjugated
#    back with residual <= 1e-8 and the per-step membership in the
#    shrinking ideals holds at the coefficient level.

def test_criterion_09_finite_order_demo_residual_and_membership():
    t0 = time.perf_counter()
    rep = mather()                             # z^3 + 1e-4 z^7 seed
    assert rep.converged
    assert rep.residual <= 1e-8
    assert rep.certificate.verdict == "certified"
    assert rep.details["membership_thresholds"] == [5, 7, 11, 19, 35]

    f = TruncatedSeries.monomial(3, 1.0, cap=64, ref_radius=1.0)
    r0 = TruncatedSeries.monomial(7, 1e-4, cap=64, ref_radius=0.8)
    problem = mather_problem(f)
    schedule = rho_schedule(problem, STRICT_B, 0.8)
    state = LieState(0, 0.8, f.restrict(0.8), r0)
    floor = 1e-12 * float(np.max(np.abs(r0.coeffs)))
    for _ in range(4):
        state, _ = lie_step(state, problem, schedule.radii)
        threshold = min(3 + 2 ** (state.n + 1), 65)
        assert np.all(np.abs(state.r.coeffs[:threshold]) <= floor)
    _budget(t0, 30.0)


# 10. Circle demo: golden-mean rotation, single harmonic of size 1e-3,
#     remainder below 1e-8 within 8 steps on the shrinking strips, and
#     the arithmetic bound dist(k omega, Z) >= C/k rechecked directly
#     for every mode the bands can touch.

def test_criterion_10_circle_demo_remainder_and_small_divisors():
    t0 = time.perf_counter()
    rep = circle()
    assert rep.converged
    assert rep.residual <= 1e-8
    assert len(rep.trace.steps) == 9           # seed row + 8 steps
    radii = [rec.radius for rec in rep.trace.steps]
    assert radii[0] == 0.5
    assert all(b < a for a, b in zip(radii, radii[1:]))
    assert radii[-1] > 0.2

    C = rep.details["C"]
    assert C == GOLDEN_C
    for k in range(1, 129):
        dist = abs(k * GOLDEN_MEAN - round(k * GOLDEN_MEAN))
        # equality at k = 1 is exact in reals; allow its float rounding
        assert dist >= C / k * (1 - 1e-9)
    _budget(t0, 60.0)


# 11. The quasi-inverse combinator satisfies its defining identity
#     coefficientwise on randomized polynomial data.

def test_criterion_11_involutive_identity_coefficientwise():
    t0 = time.perf_counter()
    cap = 32
    rng = np.random.default_rng(1111)
    x = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)
    pi = _even_projector(cap)
    total = 0
    for _ in range(5):
        c = float(rng.uniform(0.3, 0.9))

        def L(m, c=c):
            return multiplication_operator(_even_part(m).scale(c))

        inv = involutive_quasi_inverse(L, pi, x, samples=20, max_degree=8,
                                       seed=int(rng.integers(0, 10 ** 6)))
        assert inv.defect <= 1e-12
        total += inv.samples
    assert total == 100
    _budget(t0, 5.0)


# 12. Determinism: rerunning a certified demo reproduces the trace byte
#     for byte.

def test_criterion_12_repeated_runs_are_byte_identical():
    for build in (morse, mather, circle):
        first = build().trace.to_json()
        second = build().trace.to_json()
        assert first == second
    one = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 2.0,
                 m=1.0 / 2.6, M=2.0, steps=10).to_json()
    two = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x), 1.5, 2.0,
                 m=1.0 / 2.6, M=2.0, steps=10).to_json()
    assert one == two
