"""Truncated-series arithmetic: norms, calculus, tail soundness."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import banachscale
from banachscale import series as series_module
from banachscale.series import SeriesError, TruncatedSeries, align

TS = TruncatedSeries


def _rand_poly(rng, dim=1, cap=8, ref=1.0, scale=1.0, min_order=0):
    shape = (2 * cap + 1,) if dim == 0 else (cap + 1,) * dim
    c = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    s = TS(dim if dim else 1, cap, ref, "taylor" if dim else "fourier", c)
    if min_order > 0:
        s = s.cutoff(min_order, cap + 1)
    return s


def _horner_shift(coeffs, c):
    # repeated synthetic division by (z - c); remainders are the
    # re-expansion coefficients of f(z + c)
    a = list(coeffs)
    g = []
    for _ in range(len(coeffs)):
        if len(a) == 1:
            g.append(a[0])
            a = []
            break
        b = [0j] * (len(a) - 1)
        b[-1] = a[-1]
        for j in range(len(a) - 2, 0, -1):
            b[j - 1] = a[j] + c * b[j]
        g.append(a[0] + c * b[0])
        a = b
    while len(g) < len(coeffs):
        g.append(0j)
    return g


# ---- majorant norm ----

def test_majorant_single_monomial():
    f = TS.monomial(2, 1.0, cap=8)
    assert f.majorant_norm(0.5) == pytest.approx(0.25, abs=1e-15)


def test_majorant_polynomial_at_one():
    f = TS.monomial(0, 1.0, cap=4) + TS.monomial(1, 1.0, cap=4) \
        + TS.monomial(2, 1.0, cap=4)
    assert f.majorant_norm(1.0) == pytest.approx(3.0, abs=1e-15)


def test_majorant_pure_tail_rescaling():
    f = TS(1, 2, 1.0, tail=0.1)
    assert f.majorant_norm(0.5) == pytest.approx(0.1 * 0.5 ** 3,
                                                       abs=1e-18)


def test_majorant_rejects_extrapolation():
    f = TS.monomial(1, 1.0, ref_radius=0.5)
    with pytest.raises(SeriesError):
        f.majorant_norm(0.6)


def test_majorant_monotone_in_radius():
    rng = np.random.default_rng(7)
    for _ in range(50):
        f = _rand_poly(rng, dim=rng.integers(1, 3), cap=6)
        f.tail = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.2, 1.0))
        s = float(rng.uniform(0.01, t))
        assert f.majorant_norm(s) <= f.majorant_norm(t) + 1e-14


# ---- hilbert norm ----

def test_hilbert_single_power():
    for n_deg in (0, 1, 3, 7):
        f = TS.monomial(n_deg, 1.0, cap=8)
        for t in (0.3, 1.0):
            expect = math.sqrt(math.pi / (1 + n_deg)) * t ** (1 + n_deg)
            assert f.hilbert_norm(t) == pytest.approx(expect, rel=1e-14)


def test_hilbert_zero_and_bivariate():
    assert TS.zero(2, 4).hilbert_norm(0.7) == 0.0
    f = TS.monomial((1, 1), 1.0, cap=4)
    assert f.hilbert_norm(1.0) == pytest.approx(math.pi / 2, rel=1e-14)


def test_hilbert_rejects_tail_and_fourier():
    f = TS(1, 4, 1.0, tail=0.1)
    with pytest.raises(SeriesError):
        f.hilbert_norm(0.5)
    g = TS.fourier_mode(1, 1.0, cap=4)
    with pytest.raises(SeriesError):
        g.hilbert_norm(0.5)
    with pytest.raises(SeriesError):
        g.derivative()


# ---- multiply ----

def test_multiply_exact_polynomials():
    one_plus = TS.monomial(0, 1.0, cap=4) + TS.monomial(1, 1.0, cap=4)
    one_minus = TS.monomial(0, 1.0, cap=4) - TS.monomial(1, 1.0, cap=4)
    prod = one_plus.multiply(one_minus)
    assert prod.coefficient(0) == pytest.approx(1.0)
    assert prod.coefficient(1) == pytest.approx(0.0)
    assert prod.coefficient(2) == pytest.approx(-1.0)
    assert prod.tail == 0.0
    # spot check of submultiplicativity at t = 1
    assert one_plus.multiply(one_plus).majorant_norm(1.0) \
        <= one_plus.majorant_norm(1.0) ** 2 + 1e-14


def test_multiply_overflow_rule():
    cap = 4
    ref = 0.8
    f = TS.monomial(cap, 1.0, cap=cap, ref_radius=ref)
    g = TS.monomial(1, 1.0, cap=cap, ref_radius=ref)
    prod = f.multiply(g)
    assert not np.any(prod.coeffs)
    assert prod.tail == pytest.approx(ref ** (cap + 1), rel=1e-15)


def test_multiply_submultiplicative_at_ref():
    rng = np.random.default_rng(11)
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        f = _rand_poly(rng, dim=dim, cap=5)
        g = _rand_poly(rng, dim=dim, cap=5)
        f.tail = float(rng.uniform(0, 0.5))
        g.tail = float(rng.uniform(0, 0.5))
        lhs = f.multiply(g).majorant_norm(1.0)
        rhs = f.majorant_norm(1.0) * g.majorant_norm(1.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_multiply_submultiplicative_below_ref_tail_free():
    rng = np.random.default_rng(13)
    for _ in range(100):
        f = _rand_poly(rng, cap=6)
        g = _rand_poly(rng, cap=6)
        t = float(rng.uniform(0.1, 1.0))
        lhs = f.multiply(g).majorant_norm(t)
        rhs = f.majorant_norm(t) * g.majorant_norm(t)
        assert lhs <= rhs * (1 + 1e-12)


def test_multiply_rejects_mismatch():
    f = TS.monomial(1, 1.0, ref_radius=1.0)
    g = TS.monomial(1, 1.0, ref_radius=0.5)
    with pytest.raises(SeriesError):
        f.multiply(g)
    h = TS.fourier_mode(1, 1.0, cap=f.cap)
    with pytest.raises(SeriesError):
        f.multiply(h)


# ---- tail soundness audit: cap D vs cap 2D ----

def test_tail_soundness_product_chain():
    # the D-level certified norm must dominate the exact norm of the same
    # computation done with twice the cap (where nothing overflows)
    rng = np.random.default_rng(17)
    D = 6
    for _ in range(40):
        dim = int(rng.integers(1, 3))
        lo = _rand_poly(rng, dim=dim, cap=D)
        lo = lo.cutoff(0, 5)             # degree <= 4 so the triple
        hi = TS(dim, 2 * D, 1.0)         # product is exact at cap 2D
        for idx in np.ndindex(*lo.coeffs.shape):
            hi.coeffs[idx] = lo.coeffs[idx]
        res_lo = lo.multiply(lo).multiply(lo)
        res_hi = hi.multiply(hi).multiply(hi)
        assert res_hi.tail == 0.0
        for t in (1.0, 0.5):
            assert res_lo.majorant_norm(t) \
                >= res_hi.majorant_norm(t) * (1 - 1e-12)


def test_tail_soundness_reciprocal():
    rng = np.random.default_rng(19)
    for _ in range(20):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[0] = 1.0
        coeffs[1:] = 0.05 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        f_lo = TS(1, 8, 1.0, "taylor", coeffs)
        pad = np.zeros(17, dtype=complex)
        pad[:9] = coeffs
        f_hi = TS(1, 16, 1.0, "taylor", pad)
        r_lo = f_lo.reciprocal()
        r_hi = f_hi.reciprocal()
        for t in (1.0, 0.5):
            exact_part = r_hi._poly_majorant(t)
            assert r_lo.majorant_norm(t) >= exact_part * (1 - 1e-12)


# ---- derivative ----

def test_derivative_example_z4():
    f = TS.monomial(4, 1.0, cap=8)
    fp = f.derivative()
    assert fp.coefficient(3) == pytest.approx(4.0)
    assert fp.majorant_norm(0.5) == pytest.approx(0.5, abs=1e-15)
    assert f.majorant_norm(1.0) / (1.0 - 0.5) == pytest.approx(2.0)


def test_derivative_constant_is_zero():
    f = TS.monomial(0, 3.0, cap=4)
    assert f.derivative().is_zero


def test_derivative_monomial_worst_case_inequality():
    # underlying tail rule: sup_s n s^(n-1) (t - s) = t^n ((n-1)/n)^(n-1) <= t^n
    for n_deg in (2, 5, 11):
        t = 0.9
        grid = np.linspace(1e-6, t - 1e-6, 5000)
        vals = n_deg * grid ** (n_deg - 1) * (t - grid)
        closed = t ** n_deg * ((n_deg - 1) / n_deg) ** (n_deg - 1)
        assert vals.max() == pytest.approx(closed, rel=1e-5)
        assert vals.max() <= t ** n_deg


def test_cauchy_nagumo_majorant_inequality():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 3))
        f = _rand_poly(rng, dim=dim, cap=int(rng.integers(1, 9)))
        t = float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(0.01, 1.0)) * t
        if s >= t:
            continue
        axis = int(rng.integers(0, dim))
        lhs = f.derivative(axis).majorant_norm(s)
        rhs = f.majorant_norm(t) / (t - s)
        assert lhs <= rhs * (1 + 1e-12)
        checked += 1
    assert checked >= 990


def test_derivative_tail_propagation():
    f = TS(1, 8, 1.0, tail=0.3)
    f.coeffs[2] = 1.0
    g = f.derivative()
    at = 1.0 * 8 / 9
    assert g.ref_radius == pytest.approx(at)
    assert g.cap == 7
    assert g.tail == pytest.approx(0.3 / (1.0 - at), rel=1e-12)
    h = f.derivative(at=0.5)
    assert h.tail == pytest.approx(0.6, rel=1e-12)


def test_derivative_multivariate_axis():
    f = TS.monomial((1, 2), 2.0, cap=5)
    g0 = f.derivative(0)
    g1 = f.derivative(1)
    assert g0.coefficient((0, 2)) == pytest.approx(2.0)
    assert g1.coefficient((1, 1)) == pytest.approx(4.0)


# ---- divide_by_coordinate ----

def test_divide_exact_and_equality():
    f = TS.monomial(2, 1.0, cap=6) + TS.monomial(3, 1.0, cap=6)
    g = f.divide_by_coordinate()
    assert g.coefficient(1) == pytest.approx(1.0)
    assert g.coefficient(2) == pytest.approx(1.0)
    for t in (0.3, 0.8):
        assert g.majorant_norm(t) \
            == pytest.approx(f.majorant_norm(t) / t, rel=1e-14)


def test_divide_zero_and_residue():
    assert TS.zero(1, 4).divide_by_coordinate().is_zero
    f = TS.monomial(2, 1.0, cap=6, ref_radius=0.5)
    f.coeffs[0] = 1e-16
    g = f.divide_by_coordinate(tol=1e-12)
    assert g.coefficient(1) == pytest.approx(1.0)
    assert g.tail == pytest.approx(1e-16 / 0.5, rel=1e-12)


def test_divide_rejects_constant_term():
    f = TS.monomial(0, 1.0, cap=4)
    with pytest.raises(SeriesError):
        f.divide_by_coordinate()
    f = TS.monomial(2, 1.0, cap=4)
    f.coeffs[0] = 1e-16         # exact by default: any nonzero is refused
    with pytest.raises(SeriesError, match="face coefficient 1e-16 > tol 0"):
        f.divide_by_coordinate()


def test_division_estimate_randomized():
    rng = np.random.default_rng(29)
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        f = _rand_poly(rng, dim=dim, cap=6)
        axis = int(rng.integers(0, dim))
        face = [slice(None)] * dim
        face[axis] = 0
        f.coeffs[tuple(face)] = 0.0
        f.tail = float(rng.uniform(0, 0.5))
        g = f.divide_by_coordinate(axis)
        t = float(rng.uniform(0.05, 1.0))
        assert g.majorant_norm(t) \
            <= f.majorant_norm(t) / t * (1 + 1e-12)


# ---- cutoff / order ----

def test_cutoff_window():
    f = sum((TS.monomial(k, 1.0, cap=4) for k in range(4)),
            start=TS.zero(1, 4))
    g = f.cutoff(1, 3)
    assert [g.coefficient(k).real for k in range(5)] == [0, 1, 1, 0, 0]
    assert g.tail == 0.0


def test_cutoff_tail_handling():
    f = TS(1, 4, 1.0, tail=0.2)
    f.coeffs[3] = 1.0
    assert f.cutoff(2, None).tail == 0.2     # high pass keeps the unknown part
    assert f.cutoff(2, 4).tail == 0.0        # finite window is exact


def test_cutoff_hilbert_ratio_single_power():
    s, t = 0.35, 0.9
    for n_deg in (1, 4, 9):
        f = TS.monomial(n_deg, 1.0, cap=10)
        ratio = f.hilbert_norm(s) / f.hilbert_norm(t)
        assert ratio == pytest.approx((s / t) ** (1 + n_deg), rel=1e-12)


def test_cutoff_hilbert_estimate_randomized():
    rng = np.random.default_rng(31)
    for dim in (1, 2, 3):
        cap = 6 if dim < 3 else 4
        for _ in range(40):
            f = _rand_poly(rng, dim=dim, cap=cap)
            n_min = int(rng.integers(1, cap))
            cut = f.cutoff(n_min, None)
            if cut.is_zero:
                continue
            t = float(rng.uniform(0.3, 1.0))
            s = float(rng.uniform(0.05, 0.95)) * t
            lhs = cut.hilbert_norm(s)
            rhs = (s / t) ** (dim + n_min) * f.hilbert_norm(t)
            assert lhs <= rhs * (1 + 1e-12)


def test_cutoff_hilbert_estimate_bivariate_example():
    rng = np.random.default_rng(37)
    for _ in range(20):
        f = _rand_poly(rng, dim=2, cap=6, min_order=3)
        if f.is_zero:
            continue
        ratio = f.hilbert_norm(0.4) / f.hilbert_norm(0.8)
        assert ratio <= 0.5 ** 5 * (1 + 1e-12)


def test_order_rules():
    f = TS.monomial(3, 1.0, cap=8) + TS.monomial(5, 1.0, cap=8)
    assert f.order() == 3
    assert TS.zero(1, 8).order() == 9
    g = TS.monomial(2, 1.0, cap=8)
    g.coeffs[1] = 1e-15
    assert g.order(tol=1e-12) == 2
    g.coeffs[0] = 1e-16         # exact by default: any nonzero counts
    assert g.order() == 0


# ---- shift ----

def test_shift_examples():
    f = TS.monomial(2, 1.0, cap=4, ref_radius=2.0)
    g = f.shift(1.0)
    assert [g.coefficient(k).real for k in range(3)] == \
        pytest.approx([1.0, 2.0, 1.0])
    assert g.ref_radius == pytest.approx(1.0)
    h = TS.monomial(1, 1.0, cap=4, ref_radius=2.0).shift(1j)
    assert h.coefficient(0) == pytest.approx(1j)
    assert h.coefficient(1) == pytest.approx(1.0)


def test_shift_matches_horner_oracle():
    rng = np.random.default_rng(41)
    for _ in range(50):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[:6] = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = TS(1, 8, 2.0, "taylor", coeffs)
        c = complex(rng.normal(), rng.normal()) * 0.3
        g = f.shift(c)
        oracle = _horner_shift(list(coeffs), c)
        for k in range(9):
            assert g.coefficient(k) == pytest.approx(oracle[k], abs=1e-13)


def test_shift_rejects_bad_input():
    f = TS.monomial(1, 1.0, cap=4, ref_radius=1.0)
    with pytest.raises(SeriesError):
        f.shift(1.0)
    g = TS(1, 4, 1.0, tail=0.1)
    with pytest.raises(SeriesError):
        g.shift(0.1)


# ---- restrict ----

def test_restrict_consistency():
    f = TS(1, 6, 1.0, tail=0.4)
    f.coeffs[2] = 2.0
    g = f.restrict(0.6)
    for t in (0.1, 0.6):
        assert g.majorant_norm(t) \
            == pytest.approx(f.majorant_norm(t), rel=1e-12)
    with pytest.raises(SeriesError):
        f.restrict(1.5)


# ---- reciprocal ----

def test_reciprocal_geometric_series():
    f = TS.monomial(0, 1.0, cap=16) - TS.monomial(1, 0.5, cap=16)
    g = f.reciprocal()
    for k in (0, 1, 5, 10):
        assert g.coefficient(k) == pytest.approx(0.5 ** k, rel=1e-12)
    # analytic remainder is included
    assert g.tail >= 0.5 ** 17 / (1 - 0.5)
    # ... and is exact here: the overflow of u P is 0.5^17 z^17
    assert g.tail == 0.5 ** 17 / (1 - 0.5)
    prod = f.multiply(g)
    prod.coeffs[0] -= 1.0
    assert prod.majorant_norm(1.0) < 1e-4


def _indices(dim, degree):
    """Every multi-index of total degree <= degree, by degree."""
    return sorted((I for I in itertools.product(range(degree + 1), repeat=dim)
                   if sum(I) <= degree), key=sum)


def _unit_input(rng, dim, cap, top, r, theta):
    """Coefficients of c (1 - u) at cap `top`: u has a sparse random
    support (up to ten indices of degree 1..cap and four above it)
    scaled to |u|_r = theta, and c is a random complex constant."""
    low = [I for I in _indices(dim, cap) if any(I)]
    high = [I for I in _indices(dim, top) if sum(I) > cap]
    support = [low[i] for i in rng.choice(len(low), min(len(low), 10),
                                          replace=False)]
    support += [high[i] for i in rng.choice(len(high), min(len(high), 4),
                                            replace=False)]
    u = {I: complex(*rng.normal(size=2)) for I in support}
    scale = theta / sum(abs(v) * r ** sum(I) for I, v in u.items())
    c = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
    coeffs = np.zeros((top + 1,) * dim, dtype=complex)
    coeffs[(0,) * dim] = c
    for I, v in u.items():
        coeffs[I] = -c * v * scale
    return coeffs


def _mp_reciprocal(mpmath, coeffs, dim, degree):
    """Coefficients of 1/F through total degree `degree`, at 50 digits,
    for the polynomial F with exactly these (float) coefficients."""
    nonzero = {tuple(int(i) for i in I): mpmath.mpc(complex(coeffs[I]))
               for I in zip(*np.nonzero(coeffs))}
    inv0 = 1 / nonzero.pop((0,) * dim)
    g = {}
    for K in _indices(dim, degree):
        acc = mpmath.mpc(0 if any(K) else 1)
        for I, v in nonzero.items():
            J = tuple(k - i for k, i in zip(K, I))
            if min(J) >= 0:
                acc -= v * g[J]
        g[K] = acc * inv0
    return g


# (dim, cap, degrees of F above the cap, ref radius, |u|_r, oracle degree)
_RECIPROCAL_CASES = [
    (1, 16, 0, 1.0, 0.5, 120), (1, 16, 3, 1.0, 0.7, 160),
    (1, 64, 0, 0.8, 0.6, 300), (1, 64, 3, 1.0, 0.4, 300),
    (2, 8, 0, 1.0, 0.5, 48), (2, 8, 3, 0.9, 0.6, 56),
    (3, 5, 0, 1.0, 0.5, 24), (3, 5, 3, 1.0, 0.4, 24),
]


@pytest.mark.parametrize("dim,cap,extra,r,theta,degree", _RECIPROCAL_CASES)
def test_reciprocal_matches_a_50_digit_oracle(dim, cap, extra, r, theta,
                                              degree):
    # F is a concrete polynomial; with extra > 0 the input is F folded to
    # the cap by with_cap, so it carries a tail that F realizes
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(100 * dim + cap + extra)
    F = _unit_input(rng, dim, cap, cap + extra, r, theta)
    f = TS(dim, cap + extra, r, "taylor", F).with_cap(cap)
    assert (f.tail > 0) == (extra > 0)
    g = f.reciprocal()
    assert (g.dim, g.cap, g.ref_radius) == (dim, cap, r)
    with mpmath.workdps(50):
        # kept coefficients: f (1/f) = 1 through the cap, to rounding
        n = (cap + 1) ** dim + 8
        gamma = n * 2.0 ** -53 / (1 - n * 2.0 ** -53)
        support = [(I, complex(f.coeffs[I])) for I in _indices(dim, cap)
                   if f.coeffs[I] != 0]
        for K in _indices(dim, cap):
            exact, bound = mpmath.mpc(0 if any(K) else -1), 0.0
            for I, a in support:
                J = tuple(k - i for k, i in zip(K, I))
                if min(J) >= 0:
                    exact += mpmath.mpc(a) * mpmath.mpc(complex(g.coeffs[J]))
                    bound += abs(a) * abs(g.coeffs[J])
            assert abs(exact) <= gamma * bound, K
        # tail: at least the majorant of the exact high part of 1/F at
        # every t <= r, up to the rounding of the tail's own arithmetic
        exact = _mp_reciprocal(mpmath, F, dim, degree)
        layers = [mpmath.mpf(0)] * (degree + 1)
        for K, v in exact.items():
            layers[sum(K)] += abs(v) * mpmath.mpf(r) ** sum(K)
        high = sum(layers[cap + 1:])
        assert layers[degree] < 1e-2 * high     # the oracle runs far enough
        for t in (r, 0.75 * r, 0.5 * r):
            scale = mpmath.mpf(t / r)
            high_t = sum(layer * scale ** d
                         for d, layer in enumerate(layers) if d > cap)
            claim = g.tail * (t / r) ** (cap + 1)
            assert claim >= float(high_t) * (1 - 1e-12), t


def test_reciprocal_rejects_noninvertible():
    with pytest.raises(SeriesError):
        TS.zero(1, 4).reciprocal()
    f = TS.monomial(0, 1.0, cap=4) + TS.monomial(1, 2.0, cap=4)
    with pytest.raises(SeriesError):
        f.reciprocal()      # theta = 2 at ref radius 1


# ---- fourier basis ----

def test_fourier_mode_norm_and_product():
    f = TS.fourier_mode(3, 1.0, cap=8, strip=0.5)
    assert f.majorant_norm(0.5) == pytest.approx(math.exp(1.5))
    g = TS.fourier_mode(2, 1.0, cap=8, strip=0.5)
    prod = f.multiply(g)
    assert prod.coefficient(5) == pytest.approx(1.0)
    assert prod.tail == 0.0


def test_fourier_overflow_and_soundness():
    f = TS.fourier_mode(3, 1.0, cap=4, strip=0.5)
    prod = f.multiply(f)
    assert not np.any(prod.coeffs)
    assert prod.tail == pytest.approx(math.exp(6 * 0.5), rel=1e-14)
    # the certified norm dominates the true norm e^(6t) of e^(i 6 x)
    for t in (0.1, 0.3, 0.5):
        assert prod.majorant_norm(t) >= math.exp(6 * t) * (1 - 1e-12)


def test_fourier_cutoff_and_restrict():
    f = TS.fourier_mode(2, 1.0, cap=4, strip=1.0) \
        + TS.fourier_mode(-1, 1.0, cap=4, strip=1.0)
    low = f.cutoff(0, 2)
    assert low.coefficient(-1) == pytest.approx(1.0)
    assert low.coefficient(2) == 0.0
    g = TS(1, 4, 1.0, "fourier", tail=1.0).restrict(0.5)
    assert g.tail == pytest.approx(math.exp(-5 * 0.5))


# ---- structure ----

def test_degree_cap_enforced_on_construction():
    c = np.ones((5, 5), dtype=complex)
    f = TS(2, 4, 1.0, "taylor", c)
    assert f.coefficient((4, 4)) == 0.0
    assert f.coefficient((2, 2)) == 1.0


def test_operations_do_not_mutate_inputs():
    rng = np.random.default_rng(47)
    f = _rand_poly(rng, dim=1, cap=5)
    g = _rand_poly(rng, dim=1, cap=5)
    fc, gc = f.coeffs.copy(), g.coeffs.copy()
    f.multiply(g)
    f.derivative()
    f.cutoff(1, 3)
    (f + g).scale(2.0)
    assert np.array_equal(f.coeffs, fc)
    assert np.array_equal(g.coeffs, gc)


def test_json_round_trip():
    rng = np.random.default_rng(53)
    f = _rand_poly(rng, dim=2, cap=4)
    f.tail = 0.25
    g = TS.from_json_dict(json.loads(f.to_json()))
    assert np.allclose(g.coeffs, f.coeffs)
    assert g.tail == f.tail and g.ref_radius == f.ref_radius
    h = TS.fourier_mode(-3, 1.0 + 2.0j, cap=5, strip=0.7)
    k = TS.from_json_dict(json.loads(h.to_json()))
    assert k.coefficient(-3) == pytest.approx(1.0 + 2.0j)
    assert k.basis == "fourier"


def test_coefficient_index_out_of_range_raises():
    f = TS.fourier_mode(4, 7.0, cap=4)
    for bad in (-5, 5, (1, 0)):
        with pytest.raises(SeriesError):
            f.coefficient(bad)
    g = TS.monomial(3, 2.0, cap=3)
    for bad in (-1, 4, 5, (1, 0)):
        with pytest.raises(SeriesError):
            g.coefficient(bad)
    h = TS.zero(1, 4, basis="fourier")
    with pytest.raises(SeriesError):
        h.set_coefficient(-6, 1.0)
    assert not np.any(h.coeffs)
    b = TS.zero(2, 4)
    assert b.coefficient((4, 4)) == 0.0      # inside the cube, degree > cap
    with pytest.raises(SeriesError):
        b.set_coefficient((3, 2), 1.0)
    with pytest.raises(SeriesError):
        b.coefficient((5, 0))
    with pytest.raises(SeriesError):
        TS.monomial((-1, 2), cap=4)


# ---- re-truncation and alignment ----

_BASES = [("taylor", 1), ("taylor", 2), ("taylor", 3), ("fourier", 1)]


def _series(rng, basis, dim, cap, tail=0.0, ref=0.8):
    shape = (2 * cap + 1,) if basis == "fourier" else (cap + 1,) * dim
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return TS(dim, cap, ref, basis, c, tail)


def _stored(f):
    """(index, degree) of every coefficient slot of f."""
    if f.basis == "fourier":
        return [(k, abs(k)) for k in range(-f.cap, f.cap + 1)]
    return [(i, sum(i)) for i in np.ndindex(*f.coeffs.shape)
            if sum(i) <= f.cap]


@pytest.mark.parametrize("basis,dim", _BASES)
def test_with_cap_widening_keeps_every_index(basis, dim):
    f = _series(np.random.default_rng(61 + dim), basis, dim, 3)
    g = f.with_cap(5)
    assert (g.cap, g.tail, g.ref_radius) == (5, 0.0, f.ref_radius)
    for index, deg in _stored(g):
        want = f.coefficient(index) if deg <= 3 else 0.0
        assert g.coefficient(index) == want


@pytest.mark.parametrize("basis,dim", _BASES)
def test_with_cap_widening_a_tailed_series_raises(basis, dim):
    f = _series(np.random.default_rng(67), basis, dim, 3, tail=1e-3)
    with pytest.raises(SeriesError):
        f.with_cap(4)


@pytest.mark.parametrize("basis,dim", _BASES)
@pytest.mark.parametrize("tail", [0.0, 0.05])
def test_with_cap_narrowing_folds_into_the_tail(basis, dim, tail):
    f = _series(np.random.default_rng(71 + dim), basis, dim, 5, tail=tail)
    r = f.ref_radius
    for new_cap in range(5):
        g = f.with_cap(new_cap)
        assert g.cap == new_cap and g.ref_radius == r
        for index, deg in _stored(g):
            assert g.coefficient(index) == f.coefficient(index)
        assert g.majorant_norm(r) == pytest.approx(
            f.majorant_norm(r), rel=1e-13)
        # the folded mass decays at least as fast as the dropped terms
        for t in np.linspace(0.05, r, 9):
            assert g.majorant_norm(t) \
                >= f.majorant_norm(t) * (1.0 - 1e-13)
        back = TS.from_json_dict(json.loads(g.to_json()))
        assert (back.cap, back.tail, back.basis) == (g.cap, g.tail, g.basis)
        assert np.array_equal(back.coeffs, g.coeffs)


def test_align_takes_the_smaller_radius_then_a_common_cap():
    f = TS.monomial(5, 1.0, cap=6, ref_radius=1.0)
    g = TS(1, 4, 0.5, tail=0.1)
    a, b = align(f, g)
    assert (a.ref_radius, b.ref_radius, a.cap, b.cap) == (0.5, 0.5, 4, 4)
    assert a.tail == pytest.approx(0.5 ** 5)     # z^5 folded at radius 0.5
    assert b.tail == g.tail
    h = TS.monomial(1, 1.0, cap=2)               # tail-free: widened
    a, b = align(h, f)
    assert (a.cap, a.tail, a.coefficient(1)) == (6, 0.0, 1.0)
    assert b is f
    a, b = align(f, f)
    assert a is f and b is f


# ---- product kernel ----

_U = 2.0 ** -53


def _gamma(n):
    return n * _U / (1.0 - n * _U)


def _pair_loop(f, g):
    """Reference product by an explicit loop over the live I, each adding
    a_I b_J into I + J for every J at once: the full cap-2cap product and,
    per entry, sum |a_I| |b_J| over its pairs."""
    dim, cap = f.dim, f.cap
    full = np.zeros((2 * cap + 1,) * dim, dtype=complex)
    mag = np.zeros(full.shape)
    for index in np.ndindex(*f.coeffs.shape):
        if sum(index) > cap:
            continue
        block = tuple(slice(i, i + cap + 1) for i in index)
        full[block] += f.coeffs[index] * g.coeffs
        mag[block] += abs(f.coeffs[index]) * np.abs(g.coeffs)
    return full, mag


@pytest.mark.parametrize("dim,cap", [(2, 0), (2, 1), (2, 5), (2, 16),
                                     (3, 0), (3, 1), (3, 4), (3, 8),
                                     (3, 16)])
@pytest.mark.parametrize("tail", [0.0, 0.02])
def test_multiply_matches_pair_loop(dim, cap, tail):
    rng = np.random.default_rng(1000 * dim + cap)
    f = _series(rng, "taylor", dim, cap, tail)
    g = _series(rng, "taylor", dim, cap, tail / 2)
    prod = f.multiply(g)
    full, mag = _pair_loop(f, g)
    deg = np.indices(full.shape).sum(axis=0)
    keep = deg <= cap
    corner = (slice(0, cap + 1),) * dim
    n = (cap + 1) ** dim + 2
    err = np.abs(prod.coeffs - np.where(keep, full, 0.0)[corner])
    assert np.all(err <= 2.0 * _gamma(n) * mag[corner])
    r = f.ref_radius
    weights = np.power(r, deg[~keep], dtype=float)
    overflow = float(np.sum(np.abs(full[~keep]) * weights))
    cross = (f._poly_majorant(r) * g.tail + g._poly_majorant(r) * f.tail
             + f.tail * g.tail)
    tol = (2.0 * _gamma(n) * float(np.sum(mag[~keep] * weights))
           + 2.0 * _gamma(full.size) * (overflow + cross))
    assert prod.tail == pytest.approx(cross + overflow, rel=0, abs=tol)
    if cap > 0:
        assert overflow > 0.0


@pytest.mark.parametrize("basis", ["taylor", "fourier"])
@pytest.mark.parametrize("cap", [0, 3, 64])
def test_univariate_multiply_is_np_convolve(basis, cap):
    rng = np.random.default_rng(7 + cap)
    dim = 1 if basis == "taylor" else 0
    f = _rand_poly(rng, dim=dim, cap=cap, ref=0.7)
    g = _rand_poly(rng, dim=dim, cap=cap, ref=0.7)
    prod = f.multiply(g)
    full = np.convolve(f.coeffs, g.coeffs)
    position = np.arange(full.size)
    if basis == "taylor":
        deg = position
        weights = np.power(0.7, deg, dtype=float)
    else:
        deg = np.abs(position - 2 * cap)    # mode k sits at k + 2 cap
        weights = np.exp(deg * 0.7)
    over = deg > cap
    assert np.array_equal(prod.coeffs, full[~over])
    assert prod.tail == float(np.sum(np.abs(full[over]) * weights[over]))


def test_package_import_leaves_scipy_unloaded():
    src = str(Path(banachscale.__file__).resolve().parents[1])
    code = ("import sys, banachscale, banachscale.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_nan_tail_is_rejected_and_inf_stays_legal():
    with pytest.raises(SeriesError, match="nonnegative"):
        TS(1, 2, 1.0, tail=float("nan"))
    assert TS(1, 2, 1.0, tail=math.inf).majorant_norm(1.0) == math.inf
    # finite coefficients whose majorant overflows: a tail-free product
    # keeps a clean tail, and inf * 0 in a cross term raises
    big = TS(1, 2, 1.0, coeffs=[1e308, 1e308, 0])
    prod = big.multiply(TS(1, 2, 1.0, coeffs=[1e308, 0, 0]))
    assert prod.tail == 0.0
    assert prod.majorant_norm(1.0) == math.inf
    with pytest.raises(SeriesError, match="nonnegative"):
        TS(1, 2, 1.0, coeffs=[1e308, 1e308, 0], tail=1.0).multiply(
            TS(1, 2, 1.0, coeffs=[1.0, 0, 0]))


@pytest.mark.parametrize("value", [math.nan, complex(0.0, math.nan),
                                   complex(math.nan, 1.0)])
def test_nan_coefficients_are_refused_where_series_enter(value):
    with pytest.raises(SeriesError, match="NaN"):
        TS(1, 2, 1.0, coeffs=[value, 0, 0])
    with pytest.raises(SeriesError, match="NaN"):
        TS(1, 2, 1.0, "fourier", coeffs=[0, 0, 0, value, 0])
    with pytest.raises(SeriesError, match="NaN"):
        TS(2, 2, 1.0, coeffs=[[0, 0, 0], [0, 0, 0], [0, 0, value]])
    s = TS(1, 2, 1.0, coeffs=[1.0, 2.0, 0])
    with pytest.raises(SeriesError, match="NaN"):
        s.set_coefficient(1, value)
    assert s.coefficient(1) == 2.0
    d = TS(1, 2, 1.0).to_json_dict()
    c = complex(value)
    d["coeffs"] = [[1, c.real, c.imag]]
    with pytest.raises(SeriesError, match="NaN"):
        TS.from_json_dict(d)


def test_inf_coefficients_stay_legal():
    s = TS(1, 2, 1.0, coeffs=[math.inf, 0, 0])
    s.set_coefficient(2, complex(0.0, -math.inf))
    assert s.majorant_norm(1.0) == math.inf
    back = TS.from_json_dict(json.loads(s.to_json()))
    assert back.coefficient(2) == complex(0, -math.inf)


# ---- the weighted-sum kernel against its first formulation ----
# Weights were recomputed per call and summed by np.sum; the cached
# weights, the skipped zero-tail cross terms and the in-place shift must
# reproduce these formulas bit for bit.

def _oracle_degrees(basis, dim, cap):
    if basis == "fourier":
        return np.abs(np.arange(-cap, cap + 1))
    return np.asarray(np.indices((cap + 1,) * dim).sum(axis=0))


def _oracle_sum(basis, coeffs, deg, t):
    if basis == "fourier":
        return float(np.sum(np.abs(coeffs) * np.exp(deg * t)))
    return float(np.sum(np.abs(coeffs) * np.power(t, deg, dtype=float)))


def _oracle_window(basis, dim, cap, outer):
    if basis == "fourier":
        return (slice(outer - cap, outer + cap + 1),)
    return (slice(0, cap + 1),) * dim


def _oracle_poly(f, t):
    return _oracle_sum(f.basis, f.coeffs,
                       _oracle_degrees(f.basis, f.dim, f.cap), t)


def _oracle_shifted_down(f, axis):
    pad = [(0, 0)] * f.dim
    pad[axis] = (0, 1)
    return np.pad(np.take(f.coeffs, np.arange(1, f.cap + 1), axis=axis), pad)


def _hexes(coeffs, tail):
    flat = np.ascontiguousarray(coeffs).view(float).ravel()
    return [float(v).hex() for v in flat] + [float(tail).hex()]


@st.composite
def _kernel_series(draw):
    basis, dim = draw(st.sampled_from(_BASES))
    cap = draw(st.integers(0, 7 if dim < 3 else 4))
    ref = draw(st.floats(0.05, 2.0))
    tail = draw(st.floats(1e-12, 10.0)) if draw(st.booleans()) else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    return _series(rng, basis, dim, cap, tail, ref).scale(scale)


@settings(max_examples=200, deadline=None)
@given(_kernel_series(), st.floats(1e-3, 1.0))
def test_majorant_norm_matches_the_oracle(f, frac):
    t = f.ref_radius * frac
    decay = (math.exp((f.cap + 1) * (t - f.ref_radius))
             if f.basis == "fourier" else (t / f.ref_radius) ** (f.cap + 1))
    want = _oracle_poly(f, t) + f.tail * decay
    assert f.majorant_norm(t).hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(_kernel_series(), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_multiply_matches_the_oracle(f, g_tailed, seed):
    rng = np.random.default_rng(seed)
    g = _series(rng, f.basis, f.dim, f.cap, 0.3 if g_tailed else 0.0,
                f.ref_radius)
    r, cap, basis = f.ref_radius, f.cap, f.basis
    full = np.convolve(f.coeffs, g.coeffs) if f.dim == 1 \
        else series_module._full_product(f.dim, cap, f.coeffs, g.coeffs)
    deg = _oracle_degrees(basis, f.dim, 2 * cap)
    drop = deg > cap
    overflow = _oracle_sum(basis, full[drop], deg[drop], r)
    kept = np.where(drop, 0.0, full)[_oracle_window(basis, f.dim, cap,
                                                    2 * cap)]
    cross = (_oracle_poly(f, r) * g.tail + _oracle_poly(g, r) * f.tail
             + f.tail * g.tail)
    prod = f.multiply(g)
    assert _hexes(prod.coeffs, prod.tail) == _hexes(kept, cross + overflow)


@settings(max_examples=200, deadline=None)
@given(_kernel_series(), st.integers(0, 6))
def test_narrowing_with_cap_matches_the_oracle(f, new_cap):
    if f.cap == 0:
        return
    new_cap = min(new_cap, f.cap - 1)
    deg = _oracle_degrees(f.basis, f.dim, f.cap)
    drop = deg > new_cap
    extra = _oracle_sum(f.basis, f.coeffs[drop], deg[drop], f.ref_radius)
    kept = np.where(drop, 0.0, f.coeffs)[
        _oracle_window(f.basis, f.dim, new_cap, f.cap)]
    g = f.with_cap(new_cap)
    assert _hexes(g.coeffs, g.tail) == _hexes(kept, f.tail + extra)


@settings(max_examples=200, deadline=None)
@given(_kernel_series(), st.integers(0, 2))
def test_divide_by_coordinate_matches_the_oracle(f, axis):
    if f.basis != "taylor" or (f.tail > 0.0 and f.cap == 0):
        return
    axis = min(axis, f.dim - 1)
    # a sub-tolerance face, so the residue term is exercised
    face = [slice(None)] * f.dim
    face[axis] = 0
    f.coeffs[tuple(face)] *= 1e-13 / max(1.0, np.abs(f.coeffs).max())
    residue = _oracle_sum("taylor", np.take(f.coeffs, 0, axis=axis),
                          _oracle_degrees("taylor", f.dim - 1, f.cap),
                          f.ref_radius)
    coeffs = _oracle_shifted_down(f, axis)
    tail = (f.tail + residue) / f.ref_radius
    if f.tail > 0.0:
        coeffs = coeffs[_oracle_window("taylor", f.dim, f.cap - 1, f.cap)]
    g = f.divide_by_coordinate(axis, tol=1e-12)
    assert _hexes(g.coeffs, g.tail) == _hexes(coeffs, tail)


@settings(max_examples=200, deadline=None)
@given(_kernel_series(), st.integers(0, 2))
def test_derivative_matches_the_oracle(f, axis):
    if f.basis != "taylor" or (f.tail > 0.0 and f.cap == 0):
        return
    axis = min(axis, f.dim - 1)
    shape = [1] * f.dim
    shape[axis] = f.cap + 1
    coeffs = _oracle_shifted_down(f, axis) * np.arange(
        1, f.cap + 2).reshape(shape)
    tail = 0.0
    if f.tail > 0.0:
        at = f.ref_radius * f.cap / (f.cap + 1)
        coeffs = coeffs[_oracle_window("taylor", f.dim, f.cap - 1, f.cap)]
        tail = f.tail / (f.ref_radius - at)
    g = f.derivative(axis)
    assert _hexes(g.coeffs, g.tail) == _hexes(coeffs, tail)


# ---- ownership: no result shares an array with an input ----
# Operations hand the arrays they allocate to the private `_owning`
# constructor, which neither copies nor re-checks the shape.

def _divisible(f):
    h = f.copy()
    h.coeffs[0] = 0.0       # the z_0 = 0 face (taylor only)
    return h


_OWNING_OPS = {
    "add": lambda f, g: f + g,
    "sub": lambda f, g: f - g,
    "scale": lambda f, g: f.scale(-0.5 + 2.0j),
    "multiply": lambda f, g: f.multiply(g),
    "derivative": lambda f, g: f.derivative(),
    "tailed_derivative": lambda f, g: f.restrict(0.7).derivative(
        at=0.6) if f.tail else f.derivative(),
    "restrict": lambda f, g: f.restrict(0.5),
    "restrict_same": lambda f, g: f.restrict(f.ref_radius),
    "narrow": lambda f, g: f.with_cap(f.cap - 2),
    "widen": lambda f, g: g.with_cap(g.cap + 2),
    "same_cap": lambda f, g: f.with_cap(f.cap),
    "divide": lambda f, g: _divisible(f).divide_by_coordinate(),
    "copy": lambda f, g: f.copy(),
}


def _ownership_inputs(basis, dim, tailed, seed):
    rng = np.random.default_rng(seed)
    f = _series(rng, basis, dim, 4, tail=0.01 if tailed else 0.0)
    g = _series(rng, basis, dim, 4)         # widening needs tail 0
    return f, g


@pytest.mark.parametrize("tailed", [False, True])
@pytest.mark.parametrize("op", sorted(_OWNING_OPS))
@pytest.mark.parametrize("basis,dim", _BASES)
def test_results_share_no_array_with_inputs(basis, dim, op, tailed):
    if basis == "fourier" and op in ("divide", "derivative",
                                     "tailed_derivative"):
        return
    f, g = _ownership_inputs(basis, dim, tailed, 83 + dim)
    if op == "divide":
        f = _divisible(f)
    before = [(s.coeffs.copy(), s.tail) for s in (f, g)]
    out = _OWNING_OPS[op](f, g)
    kept = out.coeffs.copy()
    out.coeffs[...] = 7.0 + 7.0j         # mutate the result ...
    out.tail = 7.0
    for s, (coeffs, tail) in zip((f, g), before):
        assert np.array_equal(s.coeffs, coeffs) and s.tail == tail
    out.coeffs[...] = kept
    for s in (f, g):                     # ... then the inputs
        s.coeffs[...] = 9.0
    assert np.array_equal(out.coeffs, kept)


@pytest.mark.parametrize("tailed", [False, True])
@pytest.mark.parametrize("op", sorted(_OWNING_OPS))
@pytest.mark.parametrize("dim", [2, 3])
def test_results_keep_a_zero_corner(dim, op, tailed):
    f, g = _ownership_inputs("taylor", dim, tailed, 89 + dim)
    out = _OWNING_OPS[op](f, g)
    deg = np.indices(out.coeffs.shape).sum(axis=0)
    corner = out.coeffs[deg > out.cap]
    assert corner.size > 0
    assert [float(v).hex() for v in corner.view(float)] == \
        ["0x0.0p+0"] * (2 * corner.size)      # +0, not -0 or NaN


@pytest.mark.parametrize("basis,dim", _BASES)
def test_a_nan_tail_from_an_operation_still_raises(basis, dim):
    f = _series(np.random.default_rng(97), basis, dim, 3, tail=math.inf)
    zero = TS(dim, 3, f.ref_radius, basis)
    with pytest.raises(SeriesError, match="nonnegative"):
        f.multiply(zero)                  # |0| * inf in a cross term
    with pytest.raises(SeriesError, match="nonnegative"):
        f.scale(0.0)                      # inf * 0


_ZEROISH = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0),
            complex(-0.0, -0.0), math.nan, complex(0.0, math.nan),
            complex(math.nan, -0.0), 5e-324, complex(0.0, -5e-324)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_ZEROISH), min_size=9, max_size=9),
       st.sampled_from([("taylor", 8), ("fourier", 4)]), st.booleans())
def test_is_zero_agrees_with_np_any(entries, basis_cap, tailed):
    basis, cap = basis_cap
    coeffs = np.array(entries, dtype=complex)
    s = TS(1, cap, 1.0, basis, tail=1.0 if tailed else 0.0)
    s.coeffs[...] = coeffs
    assert s.is_zero == (not tailed and not np.any(coeffs))


@pytest.mark.parametrize("dim", [2, 3])
def test_multivariate_product_does_not_keep_its_full_cube(dim):
    f, g = _ownership_inputs("taylor", dim, False, 101)
    assert f.multiply(g).coeffs.base is None
