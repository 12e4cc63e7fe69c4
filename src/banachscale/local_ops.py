"""Weight functions, local operators, and the Borel calculus.

A weight lambda(t, s) = (t-s)^k measures how much an operator costs as
it maps from radius t down to radius s: k = 1 for vector fields, k = 0
for multiplications and projectors.  A
`LocalOperator` bundles an action on truncated series with a certified
bound: for all 0 < s < t up to cert_radius,

    |u(f)|_s  <=  norm_bound * |f|_t / lambda(t, s).

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
Only a derivation or an operator with order_raise >= 1 can end a Borel
series exactly.  Any other series (a Fourier multiplier) stops once
its symbol bound on the uncomputed terms falls below the result's
rounding; a zero iterate there is underflow unless g or u is zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .series import SeriesError, TruncatedSeries, align

__all__ = ["WeightFunction", "LocalOperator", "OperatorError",
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


class LocalOperator:
    """Action on truncated series plus a certified weighted norm bound.

    kind is one of 'derivation', 'multiplication', 'projector',
    'generic'; only derivations get the factorial Borel route.
    order_raise is a certified lower bound on how much one application
    raises the vanishing order of its argument (counted on exactly zero
    coefficients, no tolerance).  cert_radius caps the radii t at which
    the norm_bound certificate applies.
    """

    def __init__(self, action: Callable, weight: WeightFunction,
                 norm_bound: float, kind: str = "generic", name: str = "",
                 order_raise: int = 0, cert_radius: float = math.inf):
        if norm_bound < 0:
            raise OperatorError("norm_bound must be nonnegative")
        self.action = action
        self.weight = weight
        self.norm_bound = float(norm_bound)
        self.kind = kind
        self.name = name or kind
        self.order_raise = int(order_raise)
        self.cert_radius = float(cert_radius)

    def __call__(self, f: TruncatedSeries, t: float, s: float
                 ) -> TruncatedSeries:
        return self.action(f, t, s)

    @property
    def is_zero(self) -> bool:
        return self.norm_bound == 0.0

    def __repr__(self) -> str:
        return f"LocalOperator({self.name}, bound={self.norm_bound:g})"


def _clamp(f: TruncatedSeries, t: float) -> TruncatedSeries:
    """f itself when certified at most up to t, else f restricted to t."""
    return f if f.ref_radius <= t else f.restrict(t)


def _check_window(t: float, s: float, caps: Sequence[float]) -> None:
    if not (0.0 < s <= t):
        raise OperatorError(f"need 0 < s <= t, got ({t}, {s})")
    for r in caps:
        if t > r * (1.0 + 4.0 * _EPS):
            raise OperatorError(f"radius {t} beyond certified radius {r}")


def certify_vector_field(a: TruncatedSeries, name: str = "vector_field"
                         ) -> LocalOperator:
    """The derivation f -> a f' with weight (t - s).

    Certificate: |a f'|_s <= |a|_s |f'|_s <= N(a) |f|_t / (t - s), where
    N(a) is the majorant norm of a at its own reference radius.  Tailed
    arguments differentiate at the worst-case interior point
    max(s, r D/(D+1)), the choice whose propagated tail stays inside the
    N(a) |f|_t / (t - s) budget at every target radius.
    """
    if a.basis != "taylor" or a.dim != 1:
        raise OperatorError("vector fields are univariate taylor series")
    bound = a.majorant_norm(a.ref_radius)
    raise_by = max(0, a.order() - 1)

    def action(f: TruncatedSeries, t: float, s: float) -> TruncatedSeries:
        _check_window(t, s, (f.ref_radius, a.ref_radius))
        ft = _clamp(f, t)
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
        prod = am.multiply(fp)
        return _clamp(prod, s)

    return LocalOperator(action, WeightFunction(k=1), bound,
                         kind="derivation", name=name, order_raise=raise_by,
                         cert_radius=a.ref_radius)


def multiplication_operator(h: TruncatedSeries, name: str = "multiplication"
                            ) -> LocalOperator:
    """f -> h f, weight 1: |h f|_s <= N(h) |f|_t.

    A Taylor h raises the order by h's own; a Fourier h raises none,
    since its modes k and -k multiply into mode 0.
    """
    bound = h.majorant_norm(h.ref_radius)

    def action(f: TruncatedSeries, t: float, s: float) -> TruncatedSeries:
        _check_window(t, s, (f.ref_radius, h.ref_radius))
        ft = _clamp(f, t)
        hm, ft = align(h, ft)
        prod = hm.multiply(ft)
        return _clamp(prod, s)

    return LocalOperator(action, WeightFunction(k=0), bound,
                         kind="multiplication", name=name,
                         order_raise=h.order() if h.basis == "taylor" else 0,
                         cert_radius=h.ref_radius)


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
                g: TruncatedSeries, max_terms: int | None = None
                ) -> BorelApplication:
    """Compute B f(u) g = sum_n a_n u^n(g) / n! with certified remainder.

    pre: norm_bound(u) < R * lambda(t, s) (derivations; other kinds need
    the e-inflated margin) and t within both certified radii.  Iterates
    are formed exactly at radius t while tail-free; once tails force
    radius drops, the loop descends toward s by quarter steps.  A term
    enters the output only while its measured contribution stays inside
    its theoretical share |a_k| x^k |g|_t, so the certified output norm
    never exceeds the theorem bound (up to float honesty); everything
    uncomputed is covered by the remainder (|f|(x) - partial) |g|_t.
    A series with no exact ending also stops after term k >= 2 once
    (k+1) x^(k+1) / (1-x)^2 |g|_t <= 2^-53 |acc|_s (see the module).
    """
    if not (0.0 < s <= t):
        raise OperatorError(f"need 0 < s <= t, got ({t}, {s})")
    if s == t and u.norm_bound > 0.0:
        raise OperatorError("a nonzero operator needs s < t")
    _check_window(t, s, (u.cert_radius, g.ref_radius))
    lam = u.weight.value(t, s) if s < t else 1.0
    inflate = 1.0 if u.kind == "derivation" else math.e
    x = inflate * u.norm_bound / lam if lam > 0 else math.inf
    if not (x < symbol.radius):
        raise OperatorError(
            f"outside the Borel disc: |u|/lambda = {x:g} >= {symbol.radius:g}")
    gt = _clamp(g, t)
    input_norm = gt.majorant_norm(gt.ref_radius)
    bound = symbol.majorant(x) * input_norm

    if max_terms is None:
        max_terms = gt.cap + 1
    acc = TruncatedSeries(gt.dim, gt.cap, gt.ref_radius, gt.basis)
    a0 = symbol.coeff(0)
    if a0 != 0.0:
        acc = acc + gt.scale(a0)
    w = gt
    partial = abs(a0)
    kfact = 1.0
    terms = 0
    exact = False
    g_order = gt.order()
    endless = u.kind != "derivation" and u.order_raise < 1
    for k in range(1, max_terms + 1):
        ref_next = w.ref_radius if w.tail == 0.0 \
            else max(s, s + 0.75 * (w.ref_radius - s))
        if w.tail > 0.0 and not (ref_next < w.ref_radius):
            break
        try:
            w = u.action(w, w.ref_radius, ref_next)
        except (OperatorError, SeriesError):
            break
        kfact *= k
        if w.is_zero:
            # u^k g = 0 ends the series, unless it is underflow (endless)
            exact = not endless or gt.is_zero or u.is_zero
            terms = k if exact else terms
            break
        ck = symbol.coeff(k)
        share = abs(ck) * x ** k * input_norm
        contrib = abs(ck) / kfact * w.majorant_norm(s)
        if contrib > share * (1.0 + 1e-9) + 1e-300:
            break           # tail bookkeeping left the theoretical budget
        if ck != 0.0:
            # caps can zigzag: tailed derivatives lower them, tail-free
            # iterates jump back; fold whichever side cannot widen
            acc, wk = align(acc, w)     # acc is this loop's own series
            acc.coeffs += wk.coeffs * (ck / kfact)  # = acc + wk.scale(..)
            acc.tail += wk.tail * abs(ck / kfact)   # bit for bit, in place
        partial += abs(ck) * x ** k
        terms = k
        if w.tail > 0.0 and contrib <= 1e-18 * (input_norm + 1e-300) \
                and k >= 2:
            break           # inexact and numerically stagnant
        if endless and k >= 2 and (k + 1) * x ** (k + 1) * input_norm \
                <= 2.0 ** -53 * (1.0 - x) ** 2 * acc.majorant_norm(s):
            break           # sum_{j>k} j x^j |g|_t is below acc's rounding
    if exact:
        remainder = 0.0
    else:
        remainder = max(0.0, symbol.majorant(x) * (1.0 + 4.0 * _EPS)
                        - partial * (1.0 - 4.0 * _EPS)) * input_norm
    result = _clamp(acc, s)
    folded = False
    if remainder > 0.0 and u.order_raise >= 1 \
            and g_order + (terms + 1) * u.order_raise > result.cap:
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
