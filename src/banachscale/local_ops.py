"""Weight functions, local operators, and the Borel calculus.

A weight lambda(t, s) = (t-s)^k measures how much an operator costs as
it maps from radius t down to radius s: k = 1 for vector fields, k = 0
for multiplications and projectors.  A
`LocalOperator` bundles an action on truncated series with a certified
bound: for all 0 < s < t up to cert_radius,

    |u(f)|_s  <=  norm_bound * |f|_t / lambda(t, s).

Calling u(f, t, s) is the one application rule: it refuses a window
outside 0 < s <= t <= min(f's ref radius, cert_radius), hands the action
f read at t (`TruncatedSeries.at`) and reads the action's result at s,
so an action only computes and nothing else calls it.

Certification is analytic per operator class; random sampling only ever
falsifies.  For vector fields a(z) d/dz the bound is the majorant norm
of a (for a = 1 this gives |d/dz| = 1), and the class satisfies the
factorial iterate estimate

    |u^n(f)|_s  <=  n! (norm_bound / (t-s))^n |f|_t,

inherited from the flow/Cauchy-integral argument.  A generic operator
has only its one-step bound: chained through n equal sub-steps of
(t, s) it gives n^n (norm_bound / (t-s))^n, and n^n <= e^n n! is where
its factor e comes from.  The Borel map B f(u) = sum a_n u^n / n!
therefore converges for |u| < R (t-s) with |B f(u) g|_s <= |f|(x) |g|_t
at x = |u|/(t-s); generic (non-derivation) operators pay the chain
factor and use x = e |u|/lambda.  borel_apply computes the series term
by term, accepting a term only while its measured contribution stays
inside its theoretical share |a_k| x^k |g|_t (so the result's
certificate never exceeds the theorem bound), and covers everything
uncomputed by the majorant remainder (|f|(x) - computed partial) |g|_t,
folded into the result's tail exactly when the skipped terms are
certifiably high-degree and reported separately otherwise.
The loop keeps a tail-free iterate as a bare coefficient array while
the operator carries an `ArrayStep` for its basis and cap:
`certify_vector_field` and `multiplication_operator` attach one when
their series (a or h) is univariate and tail-free.  The step is the
action at one fixed radius without the intermediate series: a
multiplier's is `series.truncated_product`, and a vector field's is one
fused pass, its derivative built reversed into a buffer of the operator
and handed to the routine np.convolve calls, cut by the same helper
`truncated_product` uses.  The loop looks the majorant weights at s up
once per call.  The first iterate with a tail becomes a
`TruncatedSeries`, and radius descent runs on series from there.  Both
forms give every bit the series action gives, and the budget test, the
stops and the accumulation are shared.
Only a derivation or an operator with order_raise >= 1 can end a Borel
series exactly.  Any other series (a Fourier multiplier) stops once
its symbol bound on the uncomputed terms falls below the result's
rounding; a zero iterate there is underflow unless g or u is zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

try:    # the routine np.convolve calls, on its second operand reversed
    from numpy._core.multiarray import correlate as _correlate
except ImportError:     # numpy < 2
    from numpy.core.multiarray import correlate as _correlate

from .series import (SeriesError, TruncatedSeries, _kept_and_tail,
                     _weighted_sum, _weights, align, truncated_product)

__all__ = ["WeightFunction", "LocalOperator", "ArrayStep", "OperatorError",
           "certify_vector_field", "multiplication_operator", "BorelSymbol",
           "EXP", "EXP_NEG", "PHI", "PSI", "BorelApplication", "borel_apply",
           "exp", "product_of_exponentials", "ExponentialProduct"]

_EPS = sys.float_info.epsilon


class OperatorError(ValueError):
    """Domain violation or incompatible operator data."""


@dataclass(frozen=True)
class WeightFunction:
    """lambda(t, s) = (t-s)^k, the cost of mapping radius t down to s."""

    k: int = 1

    def __post_init__(self):
        if self.k < 0:
            raise OperatorError("weight needs k >= 0")

    def value(self, t: float, s: float) -> float:
        if not (0.0 < s <= t):
            raise OperatorError(f"weight needs 0 < s <= t, got ({t}, {s})")
        return (t - s) ** self.k


class ArrayStep(NamedTuple):
    """An operator's action on a bare coefficient array at one radius.

    apply(c, r) takes the coefficients c of a tail-free univariate
    series in `basis` at cap `cap` and returns the coefficients and the
    tail of the series the operator's action gives on it from radius r
    to r, bit for bit, for any r up to the operator's cert_radius.  The
    coefficients may be a view of a larger array, and a step may reuse
    a buffer of its operator between calls, so one operator's steps do
    not run concurrently.
    """

    basis: str
    cap: int
    apply: Callable[[np.ndarray, float], tuple[np.ndarray, float]]


class LocalOperator:
    """Action on truncated series plus a certified weighted norm bound.

    kind is one of 'derivation', 'multiplication', 'projector',
    'generic'; only derivations get the factorial Borel route.
    order_raise is a certified lower bound on how much one application
    raises the vanishing order of its argument (counted on exactly zero
    coefficients, no tolerance).  cert_radius caps the radii t at which
    the norm_bound certificate applies.  action(ft, t, s) gets f read at
    t, and the call reads its result at s (see the module).  array_step
    is None, or the same action on bare tail-free coefficient arrays
    (`ArrayStep`), which `certify_vector_field` and
    `multiplication_operator` attach.
    """

    def __init__(self, action: Callable, weight: WeightFunction,
                 norm_bound: float, kind: str = "generic", name: str = "",
                 order_raise: int = 0, cert_radius: float = math.inf):
        if not (norm_bound >= 0):
            raise OperatorError("norm_bound must be nonnegative")
        self.action = action
        self.weight = weight
        self.norm_bound = float(norm_bound)
        self.kind = kind
        self.name = name or kind
        self.order_raise = int(order_raise)
        self.cert_radius = float(cert_radius)
        self.array_step: ArrayStep | None = None

    def __call__(self, f: TruncatedSeries, t: float, s: float
                 ) -> TruncatedSeries:
        """u(f) from radius t to s by the one application rule."""
        _check_window(t, s, (f.ref_radius, self.cert_radius))
        return self.action(f.at(t), t, s).at(s)

    @property
    def is_zero(self) -> bool:
        return self.norm_bound == 0.0

    def __repr__(self) -> str:
        return f"LocalOperator({self.name}, bound={self.norm_bound:g})"


def _check_window(t: float, s: float, caps: Sequence[float]) -> None:
    if not (0.0 < s <= t):
        raise OperatorError(f"need 0 < s <= t, got ({t}, {s})")
    for r in caps:
        if t > r:
            raise OperatorError(f"radius {t} beyond certified radius {r}")


def _with_array_step(op: LocalOperator, h: TruncatedSeries,
                     apply: Callable) -> LocalOperator:
    """op with `apply`, the array form of an action built on the series
    h, as its array step for h's basis and cap when h is univariate and
    tail-free; op unchanged otherwise."""
    if h.dim == 1 and h.tail == 0.0:
        op.array_step = ArrayStep(h.basis, h.cap, apply)
    return op


def certify_vector_field(a: TruncatedSeries, name: str = "vector_field"
                         ) -> LocalOperator:
    """The derivation f -> a f' with weight (t - s).

    Certificate: |a f'|_s <= |a|_s |f'|_s <= N(a) |f|_t / (t - s), where
    N(a) is the majorant norm of a at its own reference radius.  Tailed
    arguments differentiate at the worst-case interior point
    max(s, r D/(D+1)), the choice whose propagated tail stays inside the
    N(a) |f|_t / (t - s) budget at every target radius.

    The array step on a tail-free f of a's cap makes one pass: f'
    reversed into the operator's buffer, np.convolve's own correlate
    routine on a and that buffer, and the cut of `truncated_product`.
    Its correlate gets the operands np.convolve would hand it in the
    series action, so its dot products and every bit agree; trimming
    zeros, a Toeplitz matmul or an FFT would regroup the sums.
    """
    if a.basis != "taylor" or a.dim != 1:
        raise OperatorError("vector fields are univariate taylor series")
    bound = a.majorant_norm(a.ref_radius)
    raise_by = max(0, a.order() - 1)

    def action(ft: TruncatedSeries, t: float, s: float) -> TruncatedSeries:
        if ft.tail == 0.0:
            fp = ft.derivative()
        elif s < t:
            r = ft.ref_radius
            at = max(s, r * ft.cap / (ft.cap + 1))
            at = min(at, r * (1.0 - 1e-12))
            fp = ft.derivative(at=at)
        else:
            raise OperatorError("a tailed argument needs s < t")
        am, fp = align(a, fp)
        return am.multiply(fp)

    # action from r to r on a tail-free f of a's cap: align only restricts
    # a, which keeps its coefficients.  f' is built reversed in `rev`:
    # +0.0 (its top entry), then c_cap cap, ..., c_1 1.  np.convolve(a, f')
    # would pass correlate f'[::-1] and copy it to this same contiguous
    # array, so the sums and bits are its own.
    cap = a.cap
    ramp = np.arange(cap, 0, -1).astype(complex)   # cap..1
    rev = np.zeros(cap + 1, dtype=complex)

    def array_action(c: np.ndarray, r: float) -> tuple[np.ndarray, float]:
        np.multiply(c[:0:-1], ramp, out=rev[1:])
        return _kept_and_tail("taylor", 1, cap, r,
                              _correlate(a.coeffs, rev, 2))

    return _with_array_step(
        LocalOperator(action, WeightFunction(k=1), bound, kind="derivation",
                      name=name, order_raise=raise_by,
                      cert_radius=a.ref_radius), a, array_action)


def multiplication_operator(h: TruncatedSeries, name: str = "multiplication"
                            ) -> LocalOperator:
    """f -> h f, weight 1: |h f|_s <= N(h) |f|_t.

    A Taylor h raises the order by h's own; a Fourier h raises none,
    since its modes k and -k multiply into mode 0.
    """
    bound = h.majorant_norm(h.ref_radius)

    def action(ft: TruncatedSeries, t: float, s: float) -> TruncatedSeries:
        hm, ft = align(h, ft)
        return hm.multiply(ft)

    def array_action(c: np.ndarray, r: float) -> tuple[np.ndarray, float]:
        return truncated_product(h.basis, 1, h.cap, r, h.coeffs, c)

    return _with_array_step(
        LocalOperator(action, WeightFunction(k=0), bound,
                      kind="multiplication", name=name,
                      order_raise=h.order() if h.basis == "taylor" else 0,
                      cert_radius=h.ref_radius), h, array_action)


# ---- Borel calculus ----

@dataclass(frozen=True)
class BorelSymbol:
    """Scalar power series f = sum a_n z^n with radius R and the closed
    form of its coefficient majorant |f|(x) = sum |a_n| x^n."""

    name: str
    radius: float
    coeff: Callable[[int], float]
    majorant: Callable[[float], float]


# each symbol has |a_n| <= n for n >= 1, so sum_{j>k} |a_j| x^j is at
# most (k+1) x^(k+1) / (1-x)^2: borel_apply's rounding stop relies on it
# B(1/(1-z)) = e^u
EXP = BorelSymbol("exp", 1.0, lambda n: 1.0, lambda x: 1.0 / (1.0 - x))
# B(1/(1+z)) = e^(-u)
EXP_NEG = BorelSymbol("exp_neg", 1.0, lambda n: (-1.0) ** n,
                      lambda x: 1.0 / (1.0 - x))
# B(-z^2/(1+z)^2) = (1+u) e^(-u) - 1
PHI = BorelSymbol("phi", 1.0,
                  lambda n: (-1.0) ** (n - 1) * (n - 1) if n >= 2 else 0.0,
                  lambda x: x * x / (1.0 - x) ** 2)
# B(-z/(1+z)) = e^(-u) - 1
PSI = BorelSymbol("psi", 1.0, lambda n: (-1.0) ** n if n >= 1 else 0.0,
                  lambda x: x / (1.0 - x))


@dataclass
class BorelApplication:
    """One computed B f(u) g with its certificates."""

    series: TruncatedSeries
    remainder: float        # |f|-majorant bound on everything uncomputed
    folded: bool            # the bound sits in series.tail; remainder is 0
    x: float                # |u|/lambda(t, s); e-inflated for non-derivations
    lam: float
    input_norm: float       # majorant norm of g at t
    bound: float            # |f|(x) * |g|_t, the theorem bound at s
    terms: int              # terms computed into the series beyond a_0 g

    def certified_norm(self) -> float:
        """Sound upper bound for the true result's majorant norm at s."""
        return self.series.majorant_norm(self.series.ref_radius) \
            + self.remainder


def borel_apply(symbol: BorelSymbol, u: LocalOperator, t: float, s: float,
                g: TruncatedSeries) -> BorelApplication:
    """Compute B f(u) g = sum_n a_n u^n(g) / n! with certified remainder.

    pre: norm_bound(u) < R * lambda(t, s) (derivations; other kinds need
    the e-inflated margin) and t within both certified radii.  Iterates
    are formed exactly at radius t while tail-free, as bare coefficient
    arrays when u has an array step for g's basis and cap (see the
    module); the first iterate with a tail becomes a series, and once
    tails force radius drops, the loop descends toward s by quarter
    steps.  A term
    enters the output only while its measured contribution stays inside
    its theoretical share |a_k| x^k |g|_t (both tests compare exactly),
    so the certified output norm never exceeds the theorem bound (up to
    float honesty); everything uncomputed is covered by the remainder
    (|f|(x) - partial) |g|_t.
    Only a tailed iterate's radius descent may end the series that way:
    an application that fails on a tail-free iterate raises its error.
    A series with no exact ending also stops after term k >= 2 once
    (k+1) x^(k+1) / (1-x)^2 |g|_t <= 2^-53 |acc|_s (see the module).
    """
    _check_window(t, s, (u.cert_radius, g.ref_radius))
    if s == t and u.norm_bound > 0.0:
        raise OperatorError("a nonzero operator needs s < t")
    lam = u.weight.value(t, s) if s < t else 1.0
    inflate = 1.0 if u.kind == "derivation" else math.e
    x = inflate * u.norm_bound / lam if lam > 0 else math.inf
    if not (x < symbol.radius):
        raise OperatorError(
            f"outside the Borel disc: |u|/lambda = {x:g} >= {symbol.radius:g}")
    gt = g.at(t)
    input_norm = gt.majorant_norm(gt.ref_radius)
    bound = symbol.majorant(x) * input_norm

    acc = TruncatedSeries(gt.dim, gt.cap, gt.ref_radius, gt.basis)
    a0 = symbol.coeff(0)
    if a0 != 0.0:
        acc = acc + gt.scale(a0)
    # a tail-free iterate that u's array step fits stays a bare array at
    # gt's radius r (see the module)
    step, r, basis, cap = u.array_step, gt.ref_radius, gt.basis, gt.cap
    bare = gt.tail == 0.0 and gt.dim == 1 and step is not None \
        and (step.basis, step.cap) == (basis, cap)
    w = gt.coeffs if bare else gt
    ws = _weights(basis, 1, cap, s) if bare else None   # majorant at s
    partial = abs(a0)
    kfact = 1.0
    terms = 0
    exact = False
    endless = u.kind != "derivation" and u.order_raise < 1
    for k in range(1, gt.cap + 2):
        if bare:
            w, tail = step.apply(w, r)
            if tail != 0.0:     # _owning refuses a NaN tail, as action does
                w = TruncatedSeries._owning(1, cap, r, basis, w, tail)
                bare = False
        else:
            ref_next = w.ref_radius if w.tail == 0.0 \
                else s + 0.75 * (w.ref_radius - s)
            if w.tail > 0.0 and not (ref_next < w.ref_radius):
                break
            try:
                w = u(w, w.ref_radius, ref_next)
            except (OperatorError, SeriesError):
                if w.tail == 0.0:
                    raise   # a malformed application, not radius descent
                break
        kfact *= k
        if (not np.count_nonzero(w)) if bare else w.is_zero:
            # u^k g = 0 ends the series, unless it is underflow (endless)
            exact = not endless or gt.is_zero or u.is_zero
            terms = k if exact else terms
            break
        ck = symbol.coeff(k)
        part = abs(ck) * x ** k
        share = part * input_norm
        contrib = abs(ck) / kfact * (_weighted_sum(w, ws) if bare
                                     else w.majorant_norm(s))
        if contrib > share:
            break           # tail bookkeeping left the theoretical budget
        if ck != 0.0:
            if bare:        # acc too is tail-free at r with this cap
                acc.coeffs += w * (ck / kfact)
            else:
                # caps can zigzag: tailed derivatives lower them,
                # tail-free iterates jump back; fold whichever side
                # cannot widen
                acc, wk = align(acc, w)     # acc is this loop's own series
                acc.coeffs += wk.coeffs * (ck / kfact)  # = acc + wk.scale()
                acc.tail += wk.tail * abs(ck / kfact)   # bit for bit
        partial += part
        terms = k
        if not bare and w.tail > 0.0 \
                and contrib <= 1e-18 * (input_norm + 1e-300) and k >= 2:
            break           # inexact and numerically stagnant
        if endless and k >= 2 and (k + 1) * x ** (k + 1) * input_norm \
                <= 2.0 ** -53 * (1.0 - x) ** 2 * (
                    _weighted_sum(acc.coeffs, ws) if bare
                    else acc.majorant_norm(s)):
            break           # sum_{j>k} j x^j |g|_t is below acc's rounding
    if exact:
        remainder = 0.0
    else:
        remainder = max(0.0, symbol.majorant(x) * (1.0 + 4.0 * _EPS)
                        - partial * (1.0 - 4.0 * _EPS)) * input_norm
    result = acc.at(s)
    folded = False
    if remainder > 0.0 and u.order_raise >= 1 \
            and gt.order() + (terms + 1) * u.order_raise > result.cap:
        result = result.copy()
        result.tail += remainder
        folded = True
    return BorelApplication(result, 0.0 if folded else remainder, folded,
                            x, lam, input_norm, bound, terms)


def exp(u: LocalOperator, t: float, s: float, g: TruncatedSeries
        ) -> BorelApplication:
    """e^u g via the Borel map; pre: norm_bound(u) < lambda(t, s)."""
    return borel_apply(EXP, u, t, s, g)


@dataclass
class ExponentialProduct:
    """e^(u_N) ... e^(u_0) chained along a decreasing radius list.

    image is (g(x_0), remainder bound) for the x_0 a `run_lie` run
    started from, carried through its steps; None for other products.
    """

    operators: list
    radii: list
    sigma: float
    bound: float            # sigma / (1 - sigma) when sigma < 1 else inf
    image: tuple | None = field(default=None, repr=False, compare=False)

    def apply(self, g: TruncatedSeries) -> tuple[TruncatedSeries, float]:
        """Returns (result at the final radius, unfolded remainder bound),
        running the whole Borel chain on g."""
        w = g
        rem = 0.0
        for n, u in enumerate(self.operators):
            t, s = self.radii[n], self.radii[n + 1]
            app = exp(u, t, s, w)
            rem = rem / (1.0 - app.x) + app.remainder
            w = app.series
        return w, rem


def product_of_exponentials(us: Sequence[LocalOperator],
                            radii: Sequence[float]) -> ExponentialProduct:
    """Certify a chain of exponentials along t_0 > t_1 > ... > t_N.

    pre: |u_n| <= lambda(t_n, t_{n+1}) for each n.  With
    sigma = sum |u_n| / lambda(t_n, t_{n+1}) < 1 the product g satisfies
    the distance bound |g - iota| <= sigma/(1 - sigma), since
    prod 1/(1 - x_n) <= 1/(1 - sum x_n).
    """
    if len(radii) != len(us) + 1:
        raise OperatorError("need exactly one more radius than operators")
    rs = [float(r) for r in radii]
    if any(rs[i + 1] >= rs[i] for i in range(len(rs) - 1)):
        raise OperatorError("radii must strictly decrease")
    xs = []
    for n, u in enumerate(us):
        lam = u.weight.value(rs[n], rs[n + 1])
        xn = u.norm_bound / lam
        if xn > 1.0:
            raise OperatorError(
                f"step {n} violates the domain condition: |u| = "
                f"{u.norm_bound:g} > lambda = {lam:g}")
        xs.append(xn)
    sigma = float(sum(xs))
    bound = sigma / (1.0 - sigma) if sigma < 1.0 else math.inf
    return ExponentialProduct(list(us), rs, sigma, bound)
