"""Tests for weighted local operators and the Borel calculus."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from banachscale import local_ops
from banachscale.local_ops import (
    EXP,
    EXP_NEG,
    PHI,
    PSI,
    ArrayStep,
    LocalOperator,
    OperatorError,
    WeightFunction,
    borel_apply,
    certify_vector_field,
    exp,
    multiplication_operator,
    product_of_exponentials,
)
from banachscale.series import SeriesError, TruncatedSeries, align


def poly(coeffs, *, cap=32, ref=1.0, tail=0.0):
    s = TruncatedSeries(1, cap, ref, "taylor", tail=tail)
    for i, c in enumerate(coeffs):
        s.coeffs[i] = c
    return s


def rand_poly(rng, *, cap=32, deg=8, ref=1.0, scale=1.0, tail=0.0):
    s = TruncatedSeries(1, cap, ref, "taylor", tail=tail)
    d = min(deg, cap)
    s.coeffs[: d + 1] = scale * (rng.standard_normal(d + 1)
                                 + 1j * rng.standard_normal(d + 1))
    return s


def norm_at_own_ref(f):
    return f.majorant_norm(f.ref_radius)


def zero_field():
    return certify_vector_field(poly([0.0], cap=8))


# ---- weight functions ----

def test_weight_value_formula():
    t, s = 1.5, 0.6
    assert WeightFunction(k=2).value(t, s) == pytest.approx(0.9 ** 2,
                                                            rel=1e-15)
    assert WeightFunction(k=1).value(t, s) == t - s
    assert WeightFunction(k=0).value(t, s) == 1.0


def test_weight_rejects_bad_parameters():
    with pytest.raises(OperatorError):
        WeightFunction(k=-1)
    with pytest.raises(OperatorError):
        WeightFunction().value(0.5, 0.7)


# ---- certified vector fields ----

def test_unit_vector_field_has_norm_one():
    a = poly([1.0], cap=8)
    u = certify_vector_field(a)
    assert u.norm_bound == 1.0
    assert u.kind == "derivation" and u.weight == WeightFunction(k=1)
    assert u.order_raise == 0


def test_square_vector_field_norm_matches_radius_squared():
    a = TruncatedSeries.monomial(2, 1.0, cap=8, ref_radius=0.7)
    u = certify_vector_field(a)
    assert u.norm_bound == pytest.approx(0.49, rel=1e-15)
    assert u.order_raise == 1
    assert u.cert_radius == 0.7


def test_zero_vector_field_is_zero_operator():
    u = certify_vector_field(poly([0.0], cap=8))
    assert u.is_zero
    out = u(poly([0.0, 1.0, 2.0], cap=8), 1.0, 0.5)
    assert norm_at_own_ref(out) == 0.0


def test_vector_field_action_differentiates_and_multiplies():
    # u = z^2 d/dz on f = z^3: 3 z^4
    a = TruncatedSeries.monomial(2, 1.0, cap=16)
    f = TruncatedSeries.monomial(3, 1.0, cap=16)
    out = certify_vector_field(a)(f, 1.0, 0.5)
    assert out.coefficient(4) == pytest.approx(3.0)
    assert out.tail == 0.0


def test_vector_field_rejects_fourier_and_bad_window():
    with pytest.raises(OperatorError):
        certify_vector_field(TruncatedSeries.fourier_mode(1, cap=4))
    u = certify_vector_field(poly([1.0], cap=8, ref=0.8))
    with pytest.raises(OperatorError):
        u(poly([1.0], cap=8), 0.9, 0.5)      # beyond coefficient radius
    with pytest.raises(OperatorError):
        u(poly([1.0], cap=8), 0.5, 0.7)


def test_vector_field_certificate_soundness_random():
    # lambda(t,s) |u f|_s <= norm_bound |f|_t on 1000 random draws
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        cap = int(rng.integers(4, 24))
        a = rand_poly(rng, cap=cap, deg=int(rng.integers(0, cap)),
                      scale=rng.uniform(0.1, 3.0),
                      tail=float(rng.uniform(0.0, 0.5) * (rng.random() < 0.3)))
        f = rand_poly(rng, cap=cap, deg=int(rng.integers(1, cap)),
                      scale=rng.uniform(0.1, 3.0),
                      tail=float(rng.uniform(0.0, 1.0) * (rng.random() < 0.5)))
        u = certify_vector_field(a)
        t = rng.uniform(0.2, 1.0)
        s = rng.uniform(0.05, 0.999) * t
        out = u(f, t, s)
        lhs = (t - s) * norm_at_own_ref(out)
        rhs = u.norm_bound * f.majorant_norm(t)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    assert worst <= 1.0 + 1e-9, worst


def test_multiplication_certificate_soundness_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        h = rand_poly(rng, cap=16, deg=6, scale=rng.uniform(0.2, 2.0),
                      tail=float(rng.uniform(0, 0.4) * (rng.random() < 0.4)))
        f = rand_poly(rng, cap=16, deg=10, scale=1.0,
                      tail=float(rng.uniform(0, 0.8) * (rng.random() < 0.4)))
        u = multiplication_operator(h)
        t = rng.uniform(0.3, 1.0)
        s = rng.uniform(0.1, 1.0) * t
        out = u(f, t, s)
        assert (norm_at_own_ref(out)
                <= u.norm_bound * f.majorant_norm(t) * (1 + 1e-9))


def test_multiplication_operator_on_fourier_series():
    h = TruncatedSeries.fourier_mode(1, 0.5, cap=8, strip=1.0)
    g = TruncatedSeries.fourier_mode(-2, 2.0, cap=8, strip=1.0)
    u = multiplication_operator(h)
    out = u(g, 1.0, 0.5)
    assert out.coefficient(-1) == pytest.approx(1.0)
    # modes k and -k meet in mode 0: a band raises no order
    assert u.order_raise == 0 and out.order() == 1 < g.order() == 2
    assert (norm_at_own_ref(out)
            <= u.norm_bound * g.majorant_norm(1.0) * (1 + 1e-12))


def test_operator_horizontality_on_three_point_chain():
    # restricting the output equals acting toward the lower radius,
    # coefficient-exact, tailed and tail-free alike
    rng = np.random.default_rng(3)
    a = rand_poly(rng, cap=12, deg=4, scale=0.8)
    for tail in (0.0, 0.6):
        f = rand_poly(rng, cap=12, deg=9, tail=tail)
        for op in (certify_vector_field(a), multiplication_operator(a)):
            hi = op(f, 1.0, 0.7)
            lo = op(f, 1.0, 0.4)
            assert np.array_equal(hi.restrict(0.4).coeffs, lo.coeffs)


def test_two_field_chain_norm_random():
    # b after a through the midpoint: ((t-s)/2)^2 |b a f|_s <= N(a) N(b) |f|_t
    rng = np.random.default_rng(19)
    w = WeightFunction(k=1)
    for _ in range(200):
        a = rand_poly(rng, cap=12, deg=3, scale=rng.uniform(0.2, 1.5))
        b = rand_poly(rng, cap=12, deg=4, scale=rng.uniform(0.2, 1.5))
        f = rand_poly(rng, cap=12, deg=8,
                      tail=float(rng.uniform(0, 0.5) * (rng.random() < 0.4)))
        ua, ub = certify_vector_field(a), certify_vector_field(b)
        t = rng.uniform(0.3, 1.0)
        s = rng.uniform(0.1, 0.95) * t
        m = (s + t) / 2
        out = ub(ua(f, t, m), m, s)
        lhs = (w.value(t, s) ** 2 / 4.0) * norm_at_own_ref(out)
        rhs = ua.norm_bound * ub.norm_bound * f.majorant_norm(t)
        assert lhs <= rhs * (1 + 1e-9)


def test_power_inequality_up_to_five_sub_steps():
    # u applied n times through n equal sub-steps of (t, s):
    # |u^n f|_s * (lambda^n / n^n) <= norm_bound^n |f|_t, the iterate
    # estimate behind borel_apply's x = |u|/lambda
    rng = np.random.default_rng(23)
    a = poly([0.3, 0.2, 0.1], cap=24)
    u = certify_vector_field(a)
    w = u.weight
    for n in range(2, 6):
        for _ in range(40):
            f = rand_poly(rng, cap=24, deg=int(rng.integers(2, 20)),
                          tail=float(rng.uniform(0, 0.5)
                                     * (rng.random() < 0.3)))
            t = rng.uniform(0.4, 1.0)
            s = rng.uniform(0.15, 0.9) * t
            radii = [t - i * (t - s) / n for i in range(n)] + [s]
            out = f
            for hi, lo in zip(radii, radii[1:]):
                out = u(out, hi, lo)
            bare = (w.value(t, s) ** n / float(n) ** n) * norm_at_own_ref(out)
            rhs = u.norm_bound ** n * f.majorant_norm(t)
            assert bare <= rhs * (1 + 1e-9)


# ---- Borel calculus ----

def test_borel_symbol_tables_match_closed_forms():
    for sym, closed in [
        (EXP, lambda z: 1.0 / (1.0 - z)),
        (EXP_NEG, lambda z: 1.0 / (1.0 + z)),
        (PHI, lambda z: -z * z / (1.0 + z) ** 2),
        (PSI, lambda z: -z / (1.0 + z)),
    ]:
        z = 0.31
        total = sum(sym.coeff(n) * z ** n for n in range(200))
        assert total == pytest.approx(closed(z), abs=1e-13), sym.name
        x = 0.44
        maj = sum(abs(sym.coeff(n)) * x ** n for n in range(400))
        assert maj == pytest.approx(sym.majorant(x), rel=1e-12), sym.name


def test_borel_sums_match_exponential_closed_forms():
    # B(f)(u) at scalar u: sum a_n u^n / n!
    u = 0.7
    for sym, closed in [
        (EXP, math.exp(u)),
        (EXP_NEG, math.exp(-u)),
        (PHI, (1.0 + u) * math.exp(-u) - 1.0),
        (PSI, math.exp(-u) - 1.0),
    ]:
        total = sum(sym.coeff(n) * u ** n / math.factorial(n)
                    for n in range(60))
        assert total == pytest.approx(closed, abs=1e-14), sym.name


def test_exp_of_zero_operator_is_restriction():
    g = poly([0.5, 1.0, -2.0], cap=16, tail=0.125)
    app = exp(zero_field(), 1.0, 0.5, g)
    assert np.array_equal(app.series.coeffs, g.coeffs)
    assert app.series.ref_radius == 0.5
    assert app.remainder == 0.0 and app.terms >= 1


def test_exp_of_constant_field_matches_shift():
    # e^(c d/dz) g = g(. + c), coefficients within 1e-12
    rng = np.random.default_rng(5)
    g = rand_poly(rng, cap=40, deg=12, scale=1.0)
    c = 0.15
    u = certify_vector_field(poly([c], cap=4))
    app = exp(u, 1.0, 0.6, g)
    expected = g.shift(c)
    assert app.remainder == 0.0     # nilpotent on a polynomial
    np.testing.assert_allclose(app.series.coeffs, expected.coeffs,
                               rtol=0, atol=1e-12)


def test_exp_shift_with_complex_displacement():
    g = poly([1.0, 2.0, 0.0, -1.5], cap=20)
    c = 0.1 - 0.05j
    a = TruncatedSeries(1, 4, 1.0)
    a.coeffs[0] = c
    u = certify_vector_field(a)
    app = exp(u, 1.0, 0.5, g)
    np.testing.assert_allclose(app.series.coeffs, g.shift(c).coeffs,
                               rtol=0, atol=1e-12)


def test_exp_flow_oracle_for_quadratic_field():
    # u = z^2 d/dz generates the flow of dz/dt = z^2, so
    # e^u z = z/(1-z): coefficients are all 1
    t, s = 0.45, 0.2
    a = TruncatedSeries.monomial(2, 1.0, cap=64, ref_radius=t)
    u = certify_vector_field(a)
    assert u.norm_bound < t - s
    g = TruncatedSeries.monomial(1, 1.0, cap=64, ref_radius=t)
    app = exp(u, t, s, g)
    for j in range(1, 30):
        assert app.series.coefficient(j) == pytest.approx(1.0, rel=1e-12), j
    assert app.certified_norm() <= app.bound * (1 + 1e-9)


def test_exp_matches_numerically_integrated_flow():
    # e^u f = f o Phi_1 for the time-1 flow Phi of dz/dt = a(z),
    # degree <= 3 coefficients, checked to 1e-8 at interior points
    a_coeffs = [0.02, 0.04, 0.03, 0.01]
    t, s = 1.0, 0.4
    a = poly(a_coeffs, cap=48)
    u = certify_vector_field(a)
    f = poly([0.3, 1.0, 0.5, 0.0, 0.25], cap=48)
    app = exp(u, t, s, f)

    def rhs(_, z):
        return np.polyval(a_coeffs[::-1], z)

    for z0 in (0.05, 0.15, 0.3):
        sol = solve_ivp(rhs, (0.0, 1.0), [z0], rtol=1e-12, atol=1e-14)
        direct = np.polyval(f.coeffs[::-1], sol.y[0, -1])
        via_series = np.polyval(app.series.coeffs[::-1], z0)
        assert abs(via_series - direct) <= 1e-8 + app.remainder


def test_exp_certified_norm_respects_theorem_bound_random():
    # |e^u g|_s <= |g|_t / (1 - |u|/(t-s)) on 500 random draws
    rng = np.random.default_rng(29)
    for _ in range(500):
        t = rng.uniform(0.4, 1.2)
        s = rng.uniform(0.2, 0.9) * t
        cap = int(rng.integers(6, 28))
        a = rand_poly(rng, cap=cap, deg=int(rng.integers(0, 4)), ref=t,
                      scale=1.0,
                      tail=float(rng.uniform(0, 0.1) * (rng.random() < 0.2)))
        n = a.majorant_norm(t)
        if n == 0.0:
            continue
        a = a.scale(rng.uniform(0.05, 0.95) * (t - s) / n)
        g = rand_poly(rng, cap=cap, deg=int(rng.integers(1, cap)), ref=t,
                      tail=float(rng.uniform(0, 1.0) * (rng.random() < 0.5)))
        app = exp(certify_vector_field(a), t, s, g)
        assert app.x < 1.0
        assert app.certified_norm() <= app.bound * (1 + 2e-9)


def test_borel_domain_boundary():
    t, s = 1.0, 0.5
    g = poly([1.0, 1.0], cap=16)
    ok = certify_vector_field(poly([0.99 * (t - s)], cap=4))
    exp(ok, t, s, g)
    bad = certify_vector_field(poly([1.01 * (t - s)], cap=4))
    with pytest.raises(OperatorError, match="outside the Borel disc"):
        exp(bad, t, s, g)


def test_borel_rejects_radius_beyond_certificates():
    g = poly([1.0], cap=8, ref=0.8)
    u = certify_vector_field(poly([0.01], cap=4, ref=2.0))
    with pytest.raises(OperatorError):
        exp(u, 1.0, 0.5, g)          # beyond g's radius
    u2 = certify_vector_field(poly([0.01], cap=4, ref=0.6))
    with pytest.raises(OperatorError):
        exp(u2, 0.7, 0.5, poly([1.0], cap=8))
    # the radius is compared exactly: one ulp beyond is refused
    u3 = certify_vector_field(poly([0.01], cap=4))
    exp(u3, 1.0, 0.5, poly([1.0], cap=8))
    with pytest.raises(OperatorError, match="beyond certified radius 1.0"):
        exp(u3, math.nextafter(1.0, 2.0), 0.5, poly([1.0], cap=8))


def test_a_term_just_over_its_budget_is_not_computed():
    # u declares |u| = 1/4 but multiplies by e/4 (1 + 5e-10), so its first
    # term overshoots the share |a_1| x |g|_t = e/4 by 5e-10 (relative):
    # the series keeps no term and the remainder covers all of it
    over = 0.25 * math.e * (1.0 + 5e-10)
    u = LocalOperator(lambda f, t, s: f.scale(over), WeightFunction(k=0),
                      0.25, kind="multiplication")
    app = borel_apply(EXP, u, 1.0, 0.5, poly([1.0], cap=8))
    assert app.x == 0.25 * math.e
    assert app.terms == 0
    assert app.series.coefficient(0) == 1.0
    assert app.remainder == pytest.approx(app.bound - 1.0, rel=1e-15)


def test_borel_raises_a_malformed_application_instead_of_stopping():
    # a Taylor multiplier cannot act on a Fourier mode; the tail-free
    # first iterate must surface that, not return terms 0 and a remainder
    u = multiplication_operator(TruncatedSeries.monomial(1, 1e-3, cap=8))
    g = TruncatedSeries.fourier_mode(1, 1.0, cap=8)
    with pytest.raises(SeriesError, match="mixed dimensions or bases"):
        borel_apply(EXP, u, 1.0, 0.5, g)


def test_borel_generic_route_exponentiates_multiplication():
    # e^(h .) g = e^h g for constant h; generic kind pays the e-inflated
    # disc condition e|h| < 1
    h = poly([0.2], cap=24)
    g = poly([1.0, -0.5, 0.25], cap=24)
    app = exp(multiplication_operator(h), 1.0, 0.5, g)
    assert app.x == pytest.approx(math.e * 0.2, rel=1e-12)
    scale = math.exp(0.2)
    for j in range(3):
        assert app.series.coefficient(j) == pytest.approx(
            scale * g.coefficient(j), rel=1e-12)


def test_borel_remainder_folds_only_for_order_raising_fields():
    t, s = 0.45, 0.2
    g = TruncatedSeries.monomial(1, 1.0, cap=10, ref_radius=t)
    raiser = certify_vector_field(
        TruncatedSeries.monomial(2, 1.0, cap=10, ref_radius=t))
    app = exp(raiser, t, s, g)
    assert app.folded and app.remainder == 0.0 and app.series.tail > 0.0
    shifter = certify_vector_field(poly([0.2], cap=4, ref=t))
    g_tailed = poly([0.0, 1.0], cap=10, ref=t, tail=0.5)
    app2 = exp(shifter, t, s, g_tailed)
    assert not app2.folded and app2.remainder > 0.0


def test_psi_application_equals_exp_neg_minus_identity():
    t, s = 0.45, 0.2
    a = TruncatedSeries.monomial(2, 0.8, cap=32, ref_radius=t)
    u = certify_vector_field(a)
    g = poly([0.0, 1.0, 0.5], cap=32, ref=t)
    psi_app = borel_apply(PSI, u, t, s, g)
    en_app = borel_apply(EXP_NEG, u, t, s, g)
    expected = en_app.series - g.restrict(s)
    np.testing.assert_allclose(psi_app.series.coeffs, expected.coeffs,
                               rtol=0, atol=1e-12)
    # a folded remainder sits in the tail and is not reported twice
    for app in (psi_app, en_app):
        assert app.folded and app.remainder == 0.0


def test_phi_application_matches_flow_closed_form():
    # For u = c z^2 d/dz acting on z, B(phi)(u) z = (1+u)e^(-u) z - z
    # evaluates along the flow z/(1+cz) to -c^2 z^3/(1+cz)^2, whose
    # Taylor coefficients are (-1)^j (j-2) c^(j-1) for j >= 3.
    t, s = 0.5, 0.2
    c = 0.6
    a = TruncatedSeries.monomial(2, c, cap=40, ref_radius=t)
    u = certify_vector_field(a)
    g = TruncatedSeries.monomial(1, 1.0, cap=40, ref_radius=t)
    phi_app = borel_apply(PHI, u, t, s, g)
    for j in range(0, 3):
        assert abs(phi_app.series.coefficient(j)) < 1e-13
    for j in range(3, 13):
        expected = (-1.0) ** j * (j - 2) * c ** (j - 1)
        assert phi_app.series.coefficient(j) == pytest.approx(
            expected, rel=1e-10), j


def test_exp_pair_cancels_within_reported_bound():
    # e^u across (t, m) and then e^(-u) across (m, s) cancel formally;
    # what survives is bounded by the two Borel remainders (the forward
    # one carried by |e^(-u)| <= 1/(1-x)), the tail claims and roundoff
    rng = np.random.default_rng(31)
    t, s = 0.5, 0.25
    a = TruncatedSeries.monomial(2, 0.3, cap=48, ref_radius=t)
    u = certify_vector_field(a)
    g = rand_poly(rng, cap=48, deg=6, ref=t, scale=0.5)
    m = 0.5 * (s + t)
    fwd = exp(u, t, m, g)
    back = borel_apply(EXP_NEG, u, m, s, fwd.series)
    lhs, rhs = align(back.series, g.restrict(s))
    delta = lhs - rhs
    r = delta.ref_radius
    measured = delta._poly_majorant(r)
    tails = delta.majorant_norm(r) - measured
    bound = (fwd.remainder / (1.0 - back.x) + back.remainder + tails
             + 1e-10 * (fwd.input_norm + 1.0))
    assert measured <= bound
    assert measured < 1e-6


def test_product_of_exponentials_all_zero():
    prod = product_of_exponentials([zero_field(), zero_field()],
                                   [1.0, 0.7, 0.4])
    assert prod.sigma == 0.0 and prod.bound == 0.0
    g = poly([1.0, 2.0], cap=8)
    out, rem = prod.apply(g)
    assert np.array_equal(out.coeffs, g.coeffs)
    assert out.ref_radius == 0.4 and rem == 0.0


def test_product_of_two_shifts_is_total_shift():
    c0, c1 = 0.12, 0.1
    g = poly([1.0, -1.0, 0.5, 2.0], cap=24)
    us = [certify_vector_field(poly([c0], cap=4)),
          certify_vector_field(poly([c1], cap=4))]
    prod = product_of_exponentials(us, [1.0, 0.7, 0.45])
    assert prod.sigma == pytest.approx(c0 / 0.3 + c1 / 0.25, rel=1e-12)
    out, rem = prod.apply(g)
    expected = g.shift(c0 + c1)
    np.testing.assert_allclose(out.coeffs, expected.coeffs, rtol=0,
                               atol=1e-12)
    assert rem <= 1e-12


def test_product_of_exponentials_identifies_failing_step():
    us = [certify_vector_field(poly([0.01], cap=4)),
          certify_vector_field(poly([5.0], cap=4))]
    with pytest.raises(OperatorError, match="step 1"):
        product_of_exponentials(us, [1.0, 0.7, 0.4])
    with pytest.raises(OperatorError):
        product_of_exponentials(us, [1.0, 0.7])     # radius count
    with pytest.raises(OperatorError):
        product_of_exponentials(us[:1], [0.7, 0.7])


def test_product_distance_bound_observed():
    # |g - iota| <= sigma/(1-sigma) measured on the shift chain
    c0, c1 = 0.05, 0.04
    g = poly([1.0, 1.0, 1.0], cap=24)
    us = [certify_vector_field(poly([c0], cap=4)),
          certify_vector_field(poly([c1], cap=4))]
    prod = product_of_exponentials(us, [1.0, 0.7, 0.45])
    out, rem = prod.apply(g)
    base = g.restrict(0.45)
    diff = out - base
    measured = diff.majorant_norm(0.45) + rem
    allowed = prod.bound * g.majorant_norm(1.0)
    assert measured <= allowed * (1 + 1e-9)
    assert prod.bound == pytest.approx(prod.sigma / (1 - prod.sigma))


# ---- repeated application ----

def _shift_chain():
    us = [certify_vector_field(poly([0.12, 0.05], cap=6)),
          certify_vector_field(poly([0.1, -0.03], cap=6))]
    return us, [1.0, 0.7, 0.45]


def _bytes(out, rem):
    return out.to_json() + rem.hex()


def test_product_apply_repeats_give_identical_bytes():
    us, rs = _shift_chain()
    prod = product_of_exponentials(us, rs)
    g = poly([1.0, -1.0, 0.5, 2.0], cap=24)
    first = _bytes(*prod.apply(g))
    assert _bytes(*prod.apply(g.copy())) == first
    assert _bytes(*product_of_exponentials(us, rs).apply(g)) == first


def test_product_apply_result_is_the_callers_to_mutate():
    us, rs = _shift_chain()
    prod = product_of_exponentials(us, rs)
    g = poly([1.0, -1.0, 0.5, 2.0], cap=24)
    out, rem = prod.apply(g)
    want = _bytes(out, rem)
    for _ in range(2):
        out.coeffs[:] = 7.0
        out.tail = 1.0
        assert _bytes(*prod.apply(g)) == want
        out, _ = prod.apply(g)
    g.coeffs[0] = 3.0
    assert _bytes(*prod.apply(g)) \
        == _bytes(*product_of_exponentials(us, rs).apply(g))


# ---- cost of a Borel application ----

@pytest.mark.parametrize("tail", [0.0, 1e-3])
def test_borel_apply_builds_o1_validated_series(monkeypatch, tail):
    # every term makes its series through the private constructor; the
    # validating, copying public one runs a bounded number of times
    rng = np.random.default_rng(11)
    g = rand_poly(rng, cap=64, deg=20, tail=tail)
    u = certify_vector_field(poly([0.05, 0.1], cap=64))
    calls = []
    init = TruncatedSeries.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedSeries, "__init__", counting)
    app = borel_apply(EXP, u, 1.0, 0.5, g)
    assert app.terms >= 15
    assert len(calls) <= 2


def _reference_borel_series(symbol, u, t, s, g):
    """borel_apply's series before in-place accumulation and before the
    rounding stop of series with no exact ending: each accepted term
    went in as acc + (u^k g).scale(a_k / k!), up to a zero iterate.
    Valid for inputs whose remainder is not folded (a tail-free g at
    its own radius)."""
    lam = u.weight.value(t, s)
    x = (1.0 if u.kind == "derivation" else math.e) * u.norm_bound / lam
    input_norm = g.majorant_norm(g.ref_radius)
    acc = TruncatedSeries(g.dim, g.cap, g.ref_radius, g.basis)
    if symbol.coeff(0) != 0.0:
        acc = acc + g.scale(symbol.coeff(0))
    w, kfact = g, 1.0
    for k in range(1, g.cap + 2):
        ref_next = w.ref_radius if w.tail == 0.0 \
            else max(s, s + 0.75 * (w.ref_radius - s))
        if w.tail > 0.0 and not (ref_next < w.ref_radius):
            break
        w = u.action(w, w.ref_radius, ref_next)
        kfact *= k
        if w.is_zero:
            break
        ck = symbol.coeff(k)
        contrib = abs(ck) / kfact * w.majorant_norm(s)
        if contrib > abs(ck) * x ** k * input_norm * (1.0 + 1e-9) + 1e-300:
            break
        if ck != 0.0:
            acc2, wk = align(acc, w)
            acc = acc2 + wk.scale(ck / kfact)
        if w.tail > 0.0 and contrib <= 1e-18 * (input_norm + 1e-300) \
                and k >= 2:
            break
    return acc.restrict(s) if acc.ref_radius > s else acc


def _bits(f):
    return ([v.hex() for v in f.coeffs.view(float)]
            + [f.tail.hex(), f.ref_radius.hex(), str(f.cap)])


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
@pytest.mark.parametrize("seed", range(6))
def test_in_place_accumulation_keeps_every_bit(symbol, seed):
    # signed zeros and subnormals in g, fields with and without a
    # constant term (tail-free iterates, then tailed descents)
    rng = np.random.default_rng(seed)
    g = rand_poly(rng, cap=24, deg=10, scale=0.5)
    pick = rng.integers(0, 2, size=11).astype(bool)
    g.coeffs[:11][pick] = rng.choice([0.0, -0.0, -5e-324], pick.sum()) \
        + 1j * rng.choice([0.0, -0.0, 1e-300], pick.sum())
    field = [0.04 * seed, 0.1, -0.05] if seed % 2 else [0.0, 0.1, 0.02]
    u = certify_vector_field(poly(field, cap=24))
    app = borel_apply(symbol, u, 1.0, 0.5, g)
    assert app.terms >= 5 and not app.folded
    assert _bits(app.series) == _bits(
        _reference_borel_series(symbol, u, 1.0, 0.5, g))


# ---- Borel series with no exact ending ----

def _fourier_input(rng, cap, ref=1.0):
    """Decaying modes |k| <= cap/2, so early iterates stay tail-free."""
    g = TruncatedSeries(1, cap, ref, "fourier")
    half = cap // 2
    k = np.arange(-half, half + 1)
    g.coeffs[cap - half: cap + half + 1] = np.exp(-1.5 * np.abs(k)) * (
        rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size))
    return g


def _band_multiplier(rng, cap, top, x, ref=1.0):
    """Modes 1 <= |k| <= top, scaled so that the generic x = e N(m)."""
    m = TruncatedSeries(1, cap, ref, "fourier")
    for k in range(1, top + 1):
        for j in (k, -k):
            m.set_coefficient(j, complex(*rng.standard_normal(2)))
    return m.scale(x / (math.e * m.majorant_norm(ref)))


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
@pytest.mark.parametrize("cap", [16, 64, 128])
@pytest.mark.parametrize("seed,top,x", [(0, 1, 1.4e-3), (1, 2, 2e-2),
                                        (2, 4, 0.2)])
def test_rounding_stop_stays_inside_the_remainder(symbol, cap, seed, top, x):
    # against the same loop without the stop: what the stop leaves out
    # is covered by the reported remainder and is below rounding
    rng = np.random.default_rng(seed)
    g = _fourier_input(rng, cap)
    u = multiplication_operator(_band_multiplier(rng, cap, top, x))
    t, s = 1.0, 0.5
    app = borel_apply(symbol, u, t, s, g)
    ref = _reference_borel_series(symbol, u, t, s, g)
    assert app.x == pytest.approx(x, rel=1e-12) and not app.folded
    got = app.series
    assert (got.cap, got.ref_radius) == (ref.cap, ref.ref_radius) == (cap, s)
    diff = TruncatedSeries(1, cap, s, "fourier", ref.coeffs - got.coeffs,
                           max(0.0, ref.tail - got.tail))
    assert diff.majorant_norm(s) <= app.remainder
    assert np.abs(diff.coeffs).max() <= 2.0 ** -52 * np.abs(ref.coeffs).max()
    if x < 0.1 and cap >= 64:
        assert app.terms <= 20          # the unstopped loop runs ~90


def test_underflow_to_zero_is_not_an_exact_ending():
    m = TruncatedSeries.fourier_mode(1, 1e-200, cap=8)
    g = TruncatedSeries.fourier_mode(1, 1e-200, cap=8)
    app = borel_apply(EXP, multiplication_operator(m), 1.0, 0.5, g)
    assert m.multiply(g).is_zero        # 1e-400 underflows
    assert app.terms == 0 and not app.folded
    assert app.remainder >= 8.0 * math.ulp(1.0) * app.input_norm > 0.0


@pytest.mark.parametrize("zero_side", ["g", "u"])
def test_zero_input_or_operator_ends_a_fourier_series_exactly(zero_side):
    m = TruncatedSeries.fourier_mode(1, 0.1, cap=8)
    g = TruncatedSeries.fourier_mode(2, 0.5, cap=8)
    if zero_side == "g":
        g = TruncatedSeries(1, 8, 1.0, "fourier")
    else:
        m = TruncatedSeries(1, 8, 1.0, "fourier")
    app = borel_apply(EXP, multiplication_operator(m), 1.0, 0.5, g)
    assert app.remainder == 0.0 and app.terms == 1


def test_constant_shift_of_a_polynomial_stays_exact():
    # derivations keep their exact ending: nilpotent on a degree-12
    # polynomial, so no rounding stop and no remainder
    g = rand_poly(np.random.default_rng(3), cap=40, deg=12)
    u = certify_vector_field(poly([0.003], cap=4))
    app = exp(u, 1.0, 0.6, g)
    assert app.remainder == 0.0 and app.terms == 13
    np.testing.assert_allclose(app.series.coeffs, g.shift(0.003).coeffs,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("symbol", [EXP, PHI])
@pytest.mark.parametrize("cap,x", [(16, 1e-9), (128, 1.4e-3), (64, 0.2),
                                   (128, 0.4)])
def test_rounding_stop_is_the_first_term_below_rounding(symbol, cap, x):
    # the stop fires after the first k >= 2 with
    # (k+1) x^(k+1) / (1-x)^2 |g|_t <= 2^-53 |acc_k|_s, and not before;
    # a one-mode band keeps every iterate inside the cap, tail-free
    rng = np.random.default_rng(7)
    g = _fourier_input(rng, cap)
    u = multiplication_operator(_band_multiplier(rng, cap, 1, x))
    t, s = 1.0, 0.5
    app = borel_apply(symbol, u, t, s, g)
    k = app.terms

    def below(j):
        acc = borel_apply(symbol, u, t, s, g, max_terms=j).series
        return (j + 1) * app.x ** (j + 1) * app.input_norm \
            <= 2.0 ** -53 * (1.0 - app.x) ** 2 * acc.majorant_norm(s)
    assert 2 <= k < cap + 1 and below(k)
    assert k == 2 or not below(k - 1)


@pytest.mark.parametrize("raise_by,terms", [(1, 16), (2, 8)])
def test_taylor_order_raise_still_ends_by_degree(raise_by, terms):
    # z^r h multiplies its way out of the cap: no rounding stop, and the
    # remainder folds into the tail as before
    m = TruncatedSeries.monomial(raise_by, 1e-4, cap=16)
    app = exp(multiplication_operator(m), 1.0, 0.5, poly([1.0, 0.5], cap=16))
    assert app.terms == terms and app.folded and app.remainder == 0.0


# ---- the array step: tail-free iterates as bare coefficient arrays ----

def _object_borel_apply(symbol, u, t, s, g):
    """borel_apply through the operator's series action alone, term by
    term, with every stop, the remainder and the fold written out apart
    from the array step."""
    lam = u.weight.value(t, s) if s < t else 1.0
    x = (1.0 if u.kind == "derivation" else math.e) * u.norm_bound / lam
    gt = g if g.ref_radius <= t else g.restrict(t)
    input_norm = gt.majorant_norm(gt.ref_radius)
    acc = TruncatedSeries(gt.dim, gt.cap, gt.ref_radius, gt.basis)
    if symbol.coeff(0) != 0.0:
        acc = acc + gt.scale(symbol.coeff(0))
    w, partial, kfact, terms, exact = gt, abs(symbol.coeff(0)), 1.0, 0, False
    endless = u.kind != "derivation" and u.order_raise < 1
    for k in range(1, gt.cap + 2):
        ref_next = w.ref_radius if w.tail == 0.0 \
            else s + 0.75 * (w.ref_radius - s)
        if w.tail > 0.0 and not (ref_next < w.ref_radius):
            break
        try:
            w = u.action(w, w.ref_radius, ref_next)
        except (OperatorError, SeriesError):
            if w.tail == 0.0:
                raise
            break
        kfact *= k
        if w.is_zero:
            exact = not endless or gt.is_zero or u.is_zero
            terms = k if exact else terms
            break
        ck = symbol.coeff(k)
        contrib = abs(ck) / kfact * w.majorant_norm(s)
        if contrib > abs(ck) * x ** k * input_norm:
            break
        if ck != 0.0:
            acc, wk = align(acc, w)
            acc = acc + wk.scale(ck / kfact)
        partial += abs(ck) * x ** k
        terms = k
        if w.tail > 0.0 and contrib <= 1e-18 * (input_norm + 1e-300) \
                and k >= 2:
            break
        if endless and k >= 2 and (k + 1) * x ** (k + 1) * input_norm \
                <= 2.0 ** -53 * (1.0 - x) ** 2 * acc.majorant_norm(s):
            break
    eps = np.finfo(float).eps
    remainder = 0.0 if exact else max(
        0.0, symbol.majorant(x) * (1.0 + 4.0 * eps)
        - partial * (1.0 - 4.0 * eps)) * input_norm
    result = acc if acc.ref_radius <= s else acc.restrict(s)
    folded = remainder > 0.0 and u.order_raise >= 1 \
        and gt.order() + (terms + 1) * u.order_raise > result.cap
    if folded:
        result = result.copy()
        result.tail += remainder
    return (_bits(result), (0.0 if folded else remainder).hex(), folded,
            x.hex(), lam.hex(), input_norm.hex(), terms)


def _app_bits(app):
    return (_bits(app.series), app.remainder.hex(), app.folded, app.x.hex(),
            app.lam.hex(), app.input_norm.hex(), app.terms)


def _counted(u):
    """u with its array step wrapped: (operator, the tail of each step)."""
    tails, step = [], u.array_step

    def apply(c, r):
        out = step.apply(c, r)
        tails.append(out[1])
        return out
    counted = LocalOperator(u.action, u.weight, u.norm_bound, u.kind,
                            u.name, u.order_raise, u.cert_radius)
    counted.array_step = ArrayStep(step.basis, step.cap, apply)
    return counted, tails


def _field_case(rng, cap):
    # caps 0 and 1 keep a through the cap and g of degree cap: the
    # field step's ramp cap..1 is then empty or [1]
    a = poly((rng.uniform(-1.0, 1.0, 3) * [0.05, 0.08, 0.04])[:cap + 1],
             cap=cap)
    g = rand_poly(rng, cap=cap, deg=cap // 3 or cap)
    g.coeffs[: cap // 3 + 1] *= 0.6 ** np.arange(cap // 3 + 1)
    return certify_vector_field(a), g


def _multiplier_case(rng, cap):
    # at cap 0 the only mode is the mean, so the multiplier is a constant
    m = _band_multiplier(rng, cap, min(cap, 2), 0.2) if cap \
        else TruncatedSeries.fourier_mode(0, 0.2 / math.e, cap=0)
    return multiplication_operator(m), _fourier_input(rng, cap)


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
@pytest.mark.parametrize("cap", [0, 1, 16, 64, 128])
@pytest.mark.parametrize("case", [_field_case, _multiplier_case])
def test_array_step_matches_the_series_action_bit_for_bit(symbol, cap,
                                                          case):
    rng = np.random.default_rng(cap)
    u, g = case(rng, cap)
    counted, tails = _counted(u)
    app = borel_apply(symbol, counted, 1.0, 0.5, g)
    assert tails and app.terms >= min(cap + 1, 2)
    assert _app_bits(app) == _app_bits(borel_apply(symbol, u, 1.0, 0.5, g)) \
        == _object_borel_apply(symbol, u, 1.0, 0.5, g)


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
def test_an_overflow_whose_weighted_sum_underflows_leaves_no_tail(symbol):
    # a = 1e-150 z^2 lifts g's top term 1e-150 z^16 to degree 17 at
    # about 1e-299, and its weight (2^-6)^17 takes it below the least
    # subnormal: the overflow is nonzero, its majorant 0.0, on both forms
    cap, r = 16, 2.0 ** -6
    a = poly([0.0, 0.0, 1e-150], cap=cap)
    u = certify_vector_field(a)
    g = poly([*0.5 ** np.arange(cap), 1e-150], cap=cap, ref=r)
    full = np.convolve(a.coeffs, g.derivative().coeffs)
    assert np.count_nonzero(full[cap + 1:])
    kept, tail = u.array_step.apply(g.coeffs, r)
    image = u.action(g, r, r)
    assert tail == 0.0 and image.tail == 0.0
    assert kept.tobytes() == image.coeffs.tobytes()
    counted, tails = _counted(u)
    app = borel_apply(symbol, counted, r, r / 2, g)
    assert tails[0] == 0.0
    assert _app_bits(app) == _object_borel_apply(symbol, u, r, r / 2, g)


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
def test_an_infinite_overflow_raises_as_the_series_action_does(symbol):
    # g' = 16e308 z^15 is inf, and inf times the complex ramp is inf + nan
    # i: the overflow carries inf and NaN, its tail is NaN, and both
    # forms refuse it with the same SeriesError
    cap = 16
    u = certify_vector_field(poly([0.0, 0.0, 0.1], cap=cap))
    g = poly([0.5, 0.25, *[0.0] * (cap - 2), 1e308], cap=cap)
    counted, tails = _counted(u)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SeriesError) as array_form:
            borel_apply(symbol, counted, 1.0, 0.5, g)
        with pytest.raises(SeriesError) as series_form:
            _object_borel_apply(symbol, u, 1.0, 0.5, g)
    assert len(tails) == 1 and math.isnan(tails[0])
    assert str(array_form.value) == str(series_form.value) \
        == "tail must be nonnegative, got nan"


def test_the_field_step_correlates_as_np_convolve_does():
    # the step calls np.convolve's routine on f' reversed and contiguous;
    # np.convolve passes it the reversed view, which the routine copies
    rng = np.random.default_rng(33)
    for n in range(1, 200):
        a, v = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
        for x in (a, v):        # signed zeros in either part
            x.real[rng.random(n) < 0.2] = -0.0
            x.imag[rng.random(n) < 0.2] = 0.0
            x[rng.random(n) < 0.1] = complex(-0.0, -0.0)
        want = np.convolve(a, v)
        got = local_ops._correlate(a, np.ascontiguousarray(v[::-1]), 2)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
@pytest.mark.parametrize("basis", ["taylor", "fourier"])
def test_an_iterate_that_picks_up_a_tail_leaves_the_array_form(symbol,
                                                               basis):
    # g reaches degree cap - 2 and each application raises the top
    # degree by one: two tail-free array steps, a third whose product
    # overflows the cap, then radius descent on series
    cap = 16
    if basis == "taylor":
        u = certify_vector_field(poly([0.0, 0.0, 0.1], cap=cap))
        g = poly(0.5 ** np.arange(cap - 1), cap=cap)
    else:
        u = multiplication_operator(
            TruncatedSeries.fourier_mode(1, 0.05, cap=cap))
        g = TruncatedSeries(1, cap, 1.0, "fourier")
        g.coeffs[2:-2] = 0.5 ** np.abs(np.arange(-cap + 2, cap - 1))
    counted, tails = _counted(u)
    app = borel_apply(symbol, counted, 1.0, 0.5, g)
    assert tails[:2] == [0.0, 0.0] and len(tails) == 3 and tails[2] > 0.0
    assert app.terms > len(tails)
    assert _app_bits(app) == _object_borel_apply(symbol, u, 1.0, 0.5, g)


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
def test_inputs_without_an_array_form_take_the_series_path(symbol):
    rng = np.random.default_rng(5)
    field, g = _field_case(rng, 64)
    tailed = g.copy()
    tailed.tail = 1e-6
    narrow = certify_vector_field(poly([0.01, 0.05, 0.02], cap=16))
    cases = [(field, tailed), (narrow, g),
             (certify_vector_field(poly([0.01, 0.05], cap=64, tail=1e-9)),
              g)]
    for u, h in cases:
        if u.array_step is not None:
            u, tails = _counted(u)
        app = borel_apply(symbol, u, 1.0, 0.5, h)
        assert u.array_step is None or not tails
        assert _app_bits(app) == _object_borel_apply(symbol, u, 1.0, 0.5, h)


@pytest.mark.parametrize("symbol", [EXP, EXP_NEG, PHI, PSI])
@pytest.mark.parametrize("basis", ["taylor", "fourier"])
def test_a_zero_input_or_operator_ends_the_array_form_exactly(symbol,
                                                              basis):
    rng = np.random.default_rng(9)
    u, g = (_field_case if basis == "taylor" else _multiplier_case)(rng, 32)
    zero_g = TruncatedSeries(1, 32, 1.0, basis)
    zero_h = TruncatedSeries(1, 32, 1.0, basis)
    zero_u = (certify_vector_field(zero_h) if basis == "taylor"
              else multiplication_operator(zero_h))
    for op, h in ((u, zero_g), (zero_u, g)):
        counted, tails = _counted(op)
        app = borel_apply(symbol, counted, 1.0, 0.5, h)
        assert tails == [0.0] and app.remainder == 0.0 and app.terms == 1
        assert _app_bits(app) == _object_borel_apply(symbol, op, 1.0, 0.5, h)


def test_a_taylor_multiplier_on_a_fourier_series_still_raises():
    u = multiplication_operator(poly([0.1, 0.05], cap=16))
    g = TruncatedSeries.fourier_mode(1, 0.5, cap=16)
    assert u.array_step.basis == "taylor"
    for apply in (borel_apply, _object_borel_apply):
        with pytest.raises(SeriesError, match="mixed dimensions or bases"):
            apply(EXP, u, 1.0, 0.5, g)
