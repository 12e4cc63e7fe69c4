"""Worked conjugation problems on three base points.

Each builder returns an `ActionProblem` wired for `run_lie`, and each
demo function runs it end to end and packs the outcome into a
`DemoReport`: the trace, the final residual, and problem-specific
details (vanishing orders, membership thresholds, the frequency
correction).

* `morse` normalizes f = z^2 + r by the full division (r / 2z) d/dz;
  the cutoff defect is zero, so remainder orders double each step.
* `mather` normalizes f = z^k + o(z^k) by windowed division: the step
  field cancels the remainder band [k + 2^(n+1), k + 2^(n+2)) exactly
  and the engine's cutoff branch carries the rest.
* `circle` normalizes a perturbed rotation on shrinking strips: each
  step divides the band [r]_(1..2^n) by the current mean, and the means
  add up to a frequency correction with a closed form.

`morse` and `mather` share one certified run: tuned schedule, entry
check, `run_lie`, `certify`.  `circle` runs on geometric strips, uncertified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .iterate import RadiusSchedule
from .lie import (ActionProblem, LieCertificate, LieError, LocalityExponents,
                  certify, rho_schedule, run_lie)
from .local_ops import (LocalOperator, WeightFunction, certify_vector_field,
                        multiplication_operator)
from .sequences import PositiveSequence
from .series import SeriesError, TruncatedSeries, align
from .trace import IterationTrace

GOLDEN_MEAN = (1.0 + math.sqrt(5.0)) / 2.0

#: Classical Diophantine constants for the golden mean: the continued
#: fraction [1; 1, 1, ...] gives dist(k w, Z) >= C / k with C = 1/(1+w),
#: with equality approached along the Fibonacci denominators.
GOLDEN_C = 1.0 / (1.0 + GOLDEN_MEAN)

_STRICT_B = PositiveSequence.exp_power(-1, 1.5)
_FLOOR = 1e-12      # mather's membership floor, relative to the seed


@dataclass(frozen=True)
class DemoReport:
    """Outcome of one worked problem.

    residual is the final remainder norm plus the truncation ledger
    (the trace's versality defect); details carries problem-specific
    observations; certificate is present when the run used a tuned
    schedule and was replayed against the convergence inequalities.
    """

    name: str
    trace: IterationTrace
    residual: float
    details: dict = field(default_factory=dict)
    certificate: LieCertificate | None = None

    @property
    def converged(self) -> bool:
        return self.trace.status == "converged"


def _certified_run(problem: ActionProblem, r0: TruncatedSeries, t: float,
                   steps: int):
    """Tune the schedule at t, refuse an r0 above its entry threshold,
    run, and certify.  Returns (trace, conjugacy, certificate, details)
    with the details both certified demos report.  The trace takes the
    certificate's verdicts: a row passes when its five inequalities hold,
    and its failures name the first refusal.  The schedule, b and |j|
    are closed-form, so `certify` checks every row."""
    schedule = rho_schedule(problem, _STRICT_B, t)
    if r0.ref_radius < t:
        raise LieError("r0 must be certified at the starting radius")
    norm0 = r0.majorant_norm(t)
    threshold = schedule.report.threshold
    if norm0 > threshold:
        raise LieError(
            f"initial remainder norm {norm0:g} exceeds the schedule entry "
            f"threshold {threshold:g}; shrink the perturbation or the radius")
    trace, conjugacy = run_lie(problem, schedule, r0, steps)
    cert = certify(trace, problem, schedule)
    flags = (cert.n1, cert.n2, cert.master, cert.value_below,
             cert.increment_below)
    for n, rec in enumerate(trace.steps):
        rec.checks_passed = all(f[n] for f in flags)
    trace.certified = cert.verdict == "certified"
    if cert.first_failure is not None:
        name, n = cert.first_failure
        trace.fail(f"{name} fails at row {n}")
    details = {"threshold": threshold, "r0_norm": norm0,
               "conjugacy_defect": trace.metadata["conjugacy_coeff_defect"],
               "verdict": cert.verdict}
    return trace, conjugacy, cert, details


def _observed_orders(r0: TruncatedSeries, trace: IterationTrace) -> list[int]:
    orders = [] if r0.is_zero else [r0.order()]
    for rec in trace.steps[1:]:
        if rec.extra and "r_order" in rec.extra:
            orders.append(rec.extra["r_order"])
    return orders


# ---- quadratic base point ----

def morse_problem(cap: int = 64, j_const: float = 10.0) -> ActionProblem:
    """Quadratic base point z^2 with step field (r / 2z) d/dz.

    Division by the derivative is exact on order >= 3, so the cutoff
    defect vanishes and every delta is zero: no projector, no kappa.
    """
    f = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)

    def qi(n, tau, r):
        a = r.divide_by_coordinate(0).scale(0.5)
        return certify_vector_field(a, name="half r over z")

    def m_member(n, g):
        return g.is_zero or g.order() >= 3

    return ActionProblem(
        f, qi, m_member,
        j_norms=PositiveSequence.constant(j_const),
        exponents=LocalityExponents(alpha=0, beta=0, gamma=1, nu=0, xi=0),
        name="morse")


def morse(eps: float = 1e-3, t: float = 1.0, steps: int = 5, *,
          r0: TruncatedSeries | None = None, cap: int = 64) -> DemoReport:
    """Normalize z^2 + eps z^3 (or a caller-supplied r0) at radius t.

    The run uses the tuned contraction schedule; the report carries the
    replayed certificate and the observed vanishing orders, which double
    as 2 (o_n - 1) from o_0 = 3: the sequence 3, 4, 6, 10, 18, ...
    """
    problem = morse_problem(cap=cap)
    if r0 is None:
        r0 = TruncatedSeries.monomial(3, eps, cap=cap, ref_radius=t)
    trace, conjugacy, cert, details = _certified_run(problem, r0, t, steps)
    details["orders"] = _observed_orders(r0, trace)
    details["normalization_defect"] = _normalization_defect(
        conjugacy, problem.f, t, trace.metadata["limit_radius"])
    return DemoReport("morse", trace, trace.metadata["versality_defect"],
                      details, cert)


def _normalization_defect(conjugacy, f: TruncatedSeries, t: float,
                          s_inf: float) -> float:
    """Norm of g(f + r0) - f at the limit radius, conjugacy remainder
    included; this is the distance of the conjugated seed to the base
    point, as opposed to the coefficientwise replay defect.  g(f + r0)
    is the image `run_lie` carried."""
    tau = f if f.ref_radius == t else f.restrict(t)
    gx, g_rem = conjugacy.image
    gx, base = align(gx, tau)
    return (gx - base).majorant_norm(s_inf) + g_rem


# ---- finitely determined base point ----

def _stage_window(k: int, cap: int, n: int) -> tuple[int, int]:
    """Stage n's band [k + 2^(n+1), k + 2^(n+2)), clipped to cap + 1."""
    return min(k + 2 ** (n + 1), cap + 1), min(k + 2 ** (n + 2), cap + 1)


def mather_problem(f: TruncatedSeries, *,
                   j_const: float = 10.0) -> ActionProblem:
    """Base point f = c z^k + o(z^k) with windowed division by f'.

    The step field at stage n is ([r]_lo^hi) / f' d/dz with the stage
    window [lo, hi) = [k + 2^(n+1), k + 2^(n+2)) taken on the
    numerator, so u(f) reproduces the banded coefficients of r exactly
    through the cap and the engine's cutoff branch keeps only [r]_hi
    plus division roundoff.  M at stage n is the order >= lo ideal;
    membership is measured above a noise floor of 1e-12 times the
    largest coefficient of the first series it sees (the seed), because
    division dust is ulp-sized relative to the coefficients that were
    cancelled, not to the ones that remain.
    """
    if f.basis != "taylor" or f.dim != 1:
        raise LieError("the base point must be a univariate taylor series")
    k = f.order()
    cap = f.cap
    if k < 2 or k > cap:
        raise LieError("the base point must vanish to finite order >= 2")
    fp = f.derivative(0)
    lead = fp.coefficient(k - 1)
    if fp.is_zero or fp.order() != k - 1 or lead == 0:
        raise LieError(
            "f' has vanishing leading coefficient; the unit direction "
            "is not invertible")

    # Coefficients of z^(k-1) / f' = 1 / (lead * unit).  They do not
    # depend on the radius, so halve it until the Neumann condition
    # theta < 1 holds and the reciprocal is computable.
    unit_c = np.zeros(cap + 1, dtype=complex)
    unit_c[:cap + 2 - k] = fp.coeffs[k - 1:] / lead
    radius = f.ref_radius
    rec = None
    for _ in range(80):
        unit = TruncatedSeries(1, cap, radius, "taylor", unit_c.copy())
        try:
            rec = unit.reciprocal()
            break
        except SeriesError:
            radius *= 0.5
    if rec is None:
        raise LieError("f' / z^(k-1) is not invertible near the origin")
    rec_c = rec.coeffs / lead

    scale = {}

    def floor_for(g):
        if "value" not in scale:
            scale["value"] = float(np.max(np.abs(g.coeffs)))
        return _FLOOR * scale["value"]

    def qi(n, tau, r):
        lo, hi = _stage_window(k, cap, n)
        wb = np.zeros(cap + 1, dtype=complex)
        wb[lo:hi] = r.coeffs[lo:hi]
        full = np.convolve(wb[k - 1:], rec_c)[:cap + 1]
        a = TruncatedSeries(1, cap, r.ref_radius, "taylor", full)
        return certify_vector_field(a, name=f"window [{lo},{hi}) over f'")

    def m_member(n, g):
        lo = _stage_window(k, cap, n)[0]
        return g.is_zero or g.order(tol=floor_for(g)) >= lo

    return ActionProblem(
        f, qi, m_member,
        j_norms=PositiveSequence.constant(j_const),
        exponents=LocalityExponents(alpha=0, beta=k - 1, gamma=1, nu=0, xi=0),
        kappa_norms=PositiveSequence.constant(1.0),
        name="mather")


def mather(f: TruncatedSeries | None = None,
           r0: TruncatedSeries | None = None, *, t: float = 0.8,
           steps: int = 4, cap: int = 64) -> DemoReport:
    """Normalize z^3 + 1e-4 z^7 (or caller-supplied f, r0) at radius t.

    The report's details carry the per-stage membership thresholds the
    run enforced: row n of the trace is certified to vanish to order
    at least min(k + 2^(n+1), cap + 1).
    """
    if f is None:
        f = TruncatedSeries.monomial(3, 1.0, cap=cap, ref_radius=1.0)
    if r0 is None:
        r0 = TruncatedSeries.monomial(7, 1e-4, cap=f.cap, ref_radius=1.0)
    problem = mather_problem(f)
    k = f.order()
    trace, _, cert, details = _certified_run(problem, r0, t, steps)
    details["k"] = k
    details["membership_thresholds"] = [
        _stage_window(k, f.cap, n)[0] for n in range(len(trace.steps))]
    return DemoReport("mather", trace, trace.metadata["versality_defect"],
                      details, cert)


# ---- circle rotations ----

def _diophantine_C(omega: float) -> float:
    """The C of the bound dist(k omega, Z) >= C / k: GOLDEN_C, sharp at
    k = 1, for the golden mean and 0.2 for every other omega.  `circle`
    reports it in its details; the step never reads it."""
    return GOLDEN_C if omega == GOLDEN_MEAN else 0.2


def circle_problem(omega: float = GOLDEN_MEAN, *,
                   cap: int = 64) -> ActionProblem:
    """Perturbed rotation: tau = 2 pi omega as a constant fourier
    series, step multiplier m = [r]_(1 <= |k| <= 2^n) / mean(tau), and
    the mean as projector.

    A step refuses a mean below pi omega, half its start, so the
    declared |j| = 1 / (pi omega) bounds the step map r -> m with a
    factor 2 to spare for rounding.  The step divides by the scalar
    mean only, never by e^(2 pi i k omega) - 1, so a rational omega
    runs like any other.
    """
    if not (omega > 0.0):
        raise LieError("omega must be positive")
    f = TruncatedSeries.fourier_mode(0, 2.0 * math.pi * omega, cap=cap,
                                     strip=1.0)

    def qi(n, tau, r):
        mean = tau.coefficient(0)
        if abs(mean) < math.pi * omega:
            raise LieError(
                f"the rotation number fell to |mean| = {abs(mean):g}, "
                f"below pi omega = {math.pi * omega:g}")
        top = min(2 ** n, cap)
        m = r.cutoff(1, top + 1)
        # Python's complex division, entry by entry: numpy's multiplies
        # by a reciprocal and rounds differently
        m.coeffs[:] = [c / mean for c in m.coeffs.tolist()]
        return multiplication_operator(m, name=f"band [1,{top}] over mean")

    # the zero mode: the transversal of constant fields, norm 1 everywhere
    pi = LocalOperator(
        lambda g, t, s: g.cutoff(0, 1).restrict(min(s, g.ref_radius)),
        WeightFunction(k=0), 1.0, kind="projector", name="mean")
    return ActionProblem(
        f, qi, lambda n, g: True,
        j_norms=PositiveSequence.constant(1.0 / (math.pi * omega)),
        exponents=LocalityExponents(alpha=0, beta=0, gamma=0, nu=0, xi=0),
        projector=pi, name="circle")


def circle(omega: float = GOLDEN_MEAN, eps: float = 1e-3, steps: int = 8, *,
           strip: float = 0.5, strip_end: float = 0.2,
           f: TruncatedSeries | None = None, cap: int = 64) -> DemoReport:
    """Conjugate the rotation by 2 pi omega perturbed by f (default
    2 eps cos x) across strips shrinking geometrically from `strip`
    to `strip_end`.

    f must have zero mean: its mean is not a perturbation but a shift
    of the rotation number, and the run measures that shift itself as
    the accumulated frequency correction, (sqrt(a^2 - b^2) - a) / 2
    with a = 2 pi omega, b = 2 eps for the default f.  The one-step
    envelope in the details is 2 (|f|_strip / sigma)^2 with
    sigma = sqrt(2 pi omega)/e, sharp for a single-mode perturbation.
    """
    if f is None:
        f = (TruncatedSeries.fourier_mode(1, eps, cap=cap, strip=strip)
             + TruncatedSeries.fourier_mode(-1, eps, cap=cap, strip=strip))
    elif f.basis != "fourier":
        raise LieError("the perturbation must be a fourier series")
    if abs(f.coefficient(0)) > 0.0:
        raise LieError(
            "the perturbation must have zero mean; a mean is a rotation "
            "number shift, fold it into omega")
    radii = RadiusSchedule.geometric(0.5, strip, strip_end)
    trace, conjugacy = run_lie(circle_problem(omega, cap=cap), radii, f,
                               steps)
    # the frequency correction: the mean of the conjugated element (the
    # image run_lie carried) minus the unperturbed 2 pi omega
    shift = conjugacy.image[0].coefficient(0) - 2.0 * math.pi * omega
    sigma = math.sqrt(2.0 * math.pi * omega) / math.e
    details = {
        "omega": omega,
        "C": _diophantine_C(omega),
        "lambda_correction": float(shift.real),
        "one_step_envelope": 2.0 * (f.majorant_norm(strip) / sigma) ** 2,
        "conjugacy_defect": trace.metadata["conjugacy_coeff_defect"],
    }
    return DemoReport("circle", trace, trace.metadata["versality_defect"],
                      details)
