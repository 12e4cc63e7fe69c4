"""Certified iteration engines: Newton on scalars, Nash-Moser on
truncated series.

Two engines share the trace plumbing:

* `newton` is the classical quadratically convergent loop on scalars
  with declared bounds m >= |j| and M >= |D^2 f|, certifying the ratio
  |x_{n+1} - x_n| / |x_n - x_{n-1}|^2 <= C = m M / 2.
* `nash_moser` runs the same loop on a falling radius schedule: the
  residual is restricted to the midpoint radius s_{n+1/2}, the declared
  quasi-inverse j (with Df o j = iota exactly) is applied there, and the
  update lands at s_{n+1}.  Quadraticity costs q^(-alpha n) with
  alpha = 2k + l from the declared locality exponents; the iteration is
  certified when the first increment is below the Bruno constant a^pi_0
  of the model sequence a_n = M q^(-alpha n).

Engines never raise on a failed certificate: the trace records the
violated inequality and loses its `certified` flag.  Exceptions are
reserved for malformed inputs and for steps that cannot be executed at
all (singular derivative inverse, locality violation).

In the trace columns, b_n holds the certified envelope for the increment
and sigma_n the quadratic constant: C for `newton`, a_n for `nash_moser`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .local_ops import LocalOperator, OperatorError
from .sequences import (PositiveSequence, SequenceDomainError,
                        bruno_transform, log_rows)
from .series import SeriesError, TruncatedSeries
from .trace import IterationTrace, StepRecord

__all__ = [
    "IterationError",
    "RadiusSchedule",
    "quadratic_model",
    "newton",
    "nash_moser",
]


class IterationError(ValueError):
    """Raised for malformed engine inputs or non-executable steps."""


# ---- radius schedules ----

class RadiusSchedule:
    """Falling radius sequence with a positive limit.

    geometric(q, s0, s_inf): s_n = s_inf + (s0 - s_inf) q^n.  Anchoring
    the limit keeps it positive by construction; the decrements are then
    s_n - s_{n+1} = (s0 - s_inf)(1 - q) q^n, and when s0 - s_inf = q/(1-q)
    they equal q^(n+1), the form the quadratic estimates are usually
    stated in.

    rho_driven(rho, s0): s_{n+1} = rho_n^(1/2^n) s_n with rho_n in (0,1).
    log s_inf = log s0 + sum_n log rho_n / 2^n, so the limit is positive
    exactly when the weighted log sum is finite; that is certified with
    the summability machinery when rho has a closed-form tail bound.
    Construction walks rho once over n = 0..60 (`log_rows`) to check
    rho_n < 1, stopping at a table's end, and keeps the partial sums
    log s_n as one sequential cumsum, read-only, since a tuned schedule
    may be shared (`demos` keeps them).  `radius(n)` and `limit` read them,
    and past them continue with one more walk of rho and one more
    sequential cumsum, so every radius has the bits of the plain running
    sum log s0 + log rho_0 + log rho_1 / 2 + ... in n order.
    """

    def __init__(self, kind: str, **params):
        if kind == "geometric":
            q, s0, s_inf = params["q"], params["s0"], params["s_inf"]
            if not (0.0 < q < 1.0):
                raise IterationError("geometric ratio must lie in (0, 1)")
            if not (0.0 < s_inf < s0):
                raise IterationError("need 0 < s_inf < s0")
        elif kind == "rho_driven":
            rho, s0 = params["rho"], params["s0"]
            if not (s0 > 0):
                raise IterationError("s0 must be positive")
            (log_rho,), error = log_rows([rho], 0, 61)
            bad = np.flatnonzero(log_rho >= 0.0)
            if bad.size:
                raise IterationError(f"rho_{bad[0]} >= 1; radii must fall")
            if not isinstance(error, (SequenceDomainError, type(None))):
                raise error     # a table's end only ends the check
            if rho.divergence_witness():
                raise IterationError(
                    "rho is certified non-summable; the limit radius is 0")
            # log s_n for n = 0..len(log_rho), summed in n order
            self._log_radii = np.cumsum(np.concatenate((
                [math.log(s0)],
                log_rho * np.ldexp(1.0, -np.arange(len(log_rho))))))
            self._log_radii.flags.writeable = False     # may be shared
        else:
            raise IterationError(f"unknown schedule kind {kind!r}")
        self.kind = kind
        self.params = params

    @staticmethod
    def geometric(q: float, s0: float, s_inf: float) -> "RadiusSchedule":
        return RadiusSchedule("geometric", q=float(q), s0=float(s0),
                              s_inf=float(s_inf))

    @staticmethod
    def rho_driven(rho: PositiveSequence, s0: float) -> "RadiusSchedule":
        return RadiusSchedule("rho_driven", rho=rho, s0=float(s0))

    def radius(self, n: int) -> float:
        if n < 0:
            raise IterationError("index must be nonnegative")
        p = self.params
        if n == 0:
            return p["s0"]      # either formula can round above s0
        if self.kind == "geometric":
            return p["s_inf"] + (p["s0"] - p["s_inf"]) * p["q"] ** n
        return math.exp(self._log_radius(n))

    def _log_radius(self, n: int) -> float:
        """rho_driven: log s_n = log s0 + sum_(m<n) log rho_m / 2^m, read
        from the sums kept at construction and continued past them."""
        known = self._log_radii
        if n < len(known):
            return float(known[n])
        m = np.arange(len(known) - 1, n)
        terms = self.params["rho"].log_values(n - 1, start=m[0]) \
            * np.ldexp(1.0, -m)
        return float(np.cumsum(np.concatenate((known[-1:], terms)))[-1])

    def midpoint(self, n: int) -> float:
        return 0.5 * (self.radius(n) + self.radius(n + 1))

    def decrement(self, n: int) -> float:
        return self.radius(n) - self.radius(n + 1)

    @property
    def limit(self) -> float:
        """The limit radius (geometric: exact; rho_driven: certified
        lower bound when the family has a closed-form tail)."""
        if self.kind == "geometric":
            return self.params["s_inf"]
        depth = 60
        try:
            log_s = self._log_radius(depth + 1)
        except SequenceDomainError:
            return 0.0
        tail = self.params["rho"].weighted_log_tail(0, depth)
        if tail is None:
            return 0.0
        return math.exp(log_s - 2.0 * tail)

    def to_json_dict(self) -> dict:
        if self.kind == "geometric":
            p = self.params
            return {"kind": "geometric", "q": p["q"], "s0": p["s0"],
                    "s_inf": p["s_inf"]}
        p = self.params
        return {"kind": "rho_driven", "rho": p["rho"].to_json_dict(),
                "s0": p["s0"]}

    def __repr__(self) -> str:
        return f"RadiusSchedule({self.to_json_dict()})"


# ---- classical Newton ----

def newton(f: Callable, df_inverse: Callable, x0, y, m: float, M: float,
           steps: int = 40) -> IterationTrace:
    """Newton iteration x_{n+1} = x_n - j(x_n)(f(x_n) - y).

    Works on scalars: `df_inverse(x)` returns the multiplier j(x), and
    increments are measured by abs (`nash_moser` is the series engine).
    With declared bounds m >= |j| and M >= |D^2 f| on the working ball
    the loop certifies the quadratic estimate |x_{n+1} - x_n| <=
    C |x_n - x_{n-1}|^2 for C = m M / 2 together with the entry
    condition |x_1 - x_0| < 1/C.  Both compare the computed floats
    exactly: a ratio one ulp over C fails.

    A singular derivative inverse (ZeroDivisionError, SeriesError or
    OperatorError from `f` or `df_inverse`) aborts the run with an
    `IterationError` naming the step.
    """
    if not (m > 0 and M > 0):
        raise IterationError("bounds m, M must be positive")
    C = 0.5 * m * M
    trace = IterationTrace(engine="newton")
    trace.metadata = {"m": m, "M": M, "C": C, "steps": steps}
    x = x0
    d_prev = None
    d_first = None
    for n in range(steps):
        try:
            resid = f(x) - y
            delta = df_inverse(x) * resid
        except (ZeroDivisionError, SeriesError, OperatorError) as exc:
            raise IterationError(
                f"derivative inverse failed at step {n}: {exc}") from exc
        x_next = x - delta
        d = abs(delta)
        if d_first is None:
            d_first = d
        # below the float noise floor the quadratic ratio is meaningless
        # (d_prev^2 underflows relative to rounding), so the run stops
        # and the terminal row carries no ratio; an increment that
        # overflowed stops it as diverged
        diverged = not math.isfinite(d)
        stopping = diverged or d <= 1e-14 * max(1.0, abs(x_next))
        ratio = None
        ok = not diverged
        if not stopping and d_prev is not None and d_prev > 0.0:
            ratio = d / (d_prev * d_prev)
            ok = ratio <= C
        bound = None if d_prev is None else C * d_prev * d_prev
        trace.add(StepRecord(n=n, value_norm=abs(x_next), increment_norm=d,
                             bound=bound, sigma=C, checks_passed=ok,
                             extra={"ratio": ratio}))
        if diverged:
            trace.fail(f"increment is not finite at n={n}")
        elif not ok:
            trace.fail(f"quadratic ratio exceeds C at n={n}")
        x = x_next
        if stopping:
            trace.status = "diverged" if diverged else "converged"
            break
        d_prev = d
    trace.metadata["d_first"] = d_first
    entry_ok = d_first is not None and d_first < 1.0 / C
    if not entry_ok:
        trace.fail(f"entry condition |x_1 - x_0| < 1/C fails "
                   f"({d_first} >= {1.0 / C})")
    trace.certified = trace.all_checks_passed
    trace.metadata["final"] = x
    return trace


# ---- Nash-Moser on a falling radius schedule ----

def quadratic_model(exponents: tuple, schedule: RadiusSchedule,
                    j_const: float, d2f_const: float):
    """Model sequence a_n = M q^(-alpha n) for the radius-losing Newton
    step, from the declared locality exponents (a, b, k, l).

    Each step applies j across (s_{n+1/2}, s_{n+1}) to a quadratic
    remainder measured across (s_n, s_{n+1/2}); chaining the two weight
    estimates spends (s_n - s_{n+1/2})^(2k+l) and a radius prefactor
    s_{n+1/2}^(a+2b).  With geometric decrements D q^n the n-dependence
    collects into q^(-alpha n), alpha = 2k + l, and the constant

        M = 4 C C' (2/D)^(2k+l) / s_inf^(a+2b)

    bounds the prefactors uniformly (C = j_const, C' = d2f_const).  The
    coarser exponent 2a + l sometimes quoted for this estimate is
    reported alongside, but the certified model uses alpha = 2k + l.

    Returns (M, alpha, model) with the model clamped below at 1 so its
    Bruno transform is defined (a larger model only shrinks the gate).
    """
    a, b, k, l = exponents
    if min(a, b, k, l) < 0:
        raise IterationError("locality exponents must be nonnegative")
    if schedule.kind != "geometric":
        raise IterationError("the quadratic model needs a geometric schedule")
    q = schedule.params["q"]
    D = schedule.decrement(0)
    alpha = 2 * k + l
    M = (4.0 * j_const * d2f_const * (2.0 / D) ** (2 * k + l)
         / schedule.limit ** (a + 2 * b))
    model = PositiveSequence.geometric(q ** (-alpha)).scaled(max(M, 1.0))
    return M, alpha, model


def nash_moser(f: Callable[[TruncatedSeries], TruncatedSeries],
               j: Callable[[TruncatedSeries], LocalOperator],
               exponents: tuple, schedule: RadiusSchedule,
               x0: TruncatedSeries, y: TruncatedSeries,
               steps: int = 40, *, j_const: float,
               d2f_const: float) -> IterationTrace:
    """Newton iteration with radius loss: x_{n+1} = iota(x_n + j(x_n)(y - f(x_n))).

    The residual y - f(x_n) is formed at s_n, and j(x_n) (a LocalOperator
    with Df o j = iota exactly) reads it at the midpoint s_{n+1/2} and
    carries it to s_{n+1} where the update lands.  The declared locality
    exponents (a, b, k, l) and certificate constants j_const, d2f_const
    build the model a_n = M q^(-alpha n) (see `quadratic_model`); the
    run is certified when

    * the first increment is below the Bruno constant a^pi_0 of the
      model (lower enclosure end, so the gate itself is rigorous), and
    * every measured increment obeys |x_{n+1} - x_n| <= a_n |x_n - x_{n-1}|^2.

    Both comparisons are exact: no margin is added to either side.
    An oversized first increment sets status "uncertified" but the run
    continues.  Divergence is declared after 3 consecutive increment
    growths.  The final residual |f(x_N) - y| at the limit radius is
    reported in the metadata.
    """
    if schedule.kind != "geometric":
        raise IterationError("nash_moser needs a geometric schedule")
    s0 = schedule.radius(0)
    if x0.ref_radius < s0 or y.ref_radius < s0:
        raise IterationError(
            f"x0 and y must be given at radius >= s0 = {s0}")
    M, alpha, model = quadratic_model(exponents, schedule, j_const, d2f_const)
    gate = bruno_transform(model, 0, 60)
    gate_lo = gate.enclosure[0]
    q = schedule.params["q"]

    trace = IterationTrace(engine="nash_moser")
    trace.metadata = {
        "exponents": {"a": exponents[0], "b": exponents[1],
                      "k": exponents[2], "l": exponents[3]},
        "schedule": schedule.to_json_dict(),
        "j_const": j_const, "d2f_const": d2f_const,
        "M": M, "alpha": alpha,
        "alpha_coarse": 2 * exponents[0] + exponents[3],
        "bruno_gate": gate_lo,
    }

    x = x0.at(s0)
    d_prev = None
    log_env = None      # running log of the closed-form envelope
    growths = 0
    gate_ok = None
    for n in range(steps):
        s_n, s_half = schedule.radius(n), schedule.midpoint(n)
        s_next = schedule.radius(n + 1)
        try:
            resid = y.restrict(s_n) - f(x)
            w = j(x)(resid, s_half, s_next)
        except (SeriesError, OperatorError) as exc:
            raise IterationError(f"step {n}: {exc}") from exc
        x = x.restrict(s_next) + w
        d = w.majorant_norm(s_next)
        a_n = M * q ** (-alpha * n)
        if gate_ok is None:
            gate_ok = d < gate_lo
            if not gate_ok:
                trace.fail(f"first increment {d} is not below the "
                           f"Bruno gate {gate_lo}")
        ok = True
        bound = None
        env = None
        if d_prev is not None:
            bound = a_n * d_prev ** 2
            ok = d <= bound
            if log_env is not None:
                log_env += math.log(a_n) * math.pow(2.0, -n)
                scaled = math.pow(2.0, n) * log_env
                env = math.exp(scaled) if scaled < 700.0 else math.inf
        elif d > 0:
            log_env = math.log(d)
        trace.add(StepRecord(n=n, radius=s_next,
                             value_norm=x.majorant_norm(x.ref_radius),
                             increment_norm=d, bound=bound, sigma=a_n,
                             checks_passed=ok,
                             extra={"s_half": s_half, "envelope": env}))
        if not ok:
            trace.fail(f"quadratic estimate violated at n={n}")
        if d_prev is not None and d > d_prev:
            growths += 1
            if growths >= 3:
                trace.status = "diverged"
                trace.fail(f"increment grew 3 steps in a row at n={n}")
                break
        else:
            growths = 0
        d_prev = d
        if d <= 1e-16 * (1.0 + x.majorant_norm(x.ref_radius)):
            trace.status = "converged"
            break

    s_inf = schedule.limit
    x_lim = x.restrict(s_inf)
    resid_lim = y.restrict(s_inf) - f(x_lim)
    trace.metadata["residual_at_limit"] = resid_lim.majorant_norm(s_inf)
    trace.metadata["limit_radius"] = s_inf
    trace.metadata["steps_used"] = len(trace.steps)
    trace.metadata["x_final"] = x.to_json_dict()
    trace.certified = bool(gate_ok) and trace.all_checks_passed
    if not gate_ok:
        trace.status = "uncertified"
    elif trace.status == "ran" and trace.certified:
        trace.status = "converged"
    return trace
