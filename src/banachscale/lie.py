"""Certified conjugation of perturbed elements under a group action.

The engine normalizes x_0 = f + r_0 by alternating two moves: project
the current remainder onto a transversal (the delta update) and push
the rest into the group direction through e^(-u) (the r update).  Radii
fall along a certified schedule; each step spends the decrement
s_n - s_{n+1} in quarters so that the field application, the projector
and the step's Borel series all fit inside its window: phi(u) tau and
e^(-u) kappa, psi(u) delta when there is a projector, and e^(-u) on the
carried image of the conjugacy.

`rho_schedule` tunes the contraction sequence rho so the five smallness
conditions backing the quadratic convergence proof hold on a finite
window; `certify` replays a finished trace against those inequalities,
on the schedule the trace ran, and returns verdicts, never exceptions.
A problem states its transversal only through the projector pi: T is
the image of pi and |pi| its norm bound.  `involutive_quasi_inverse`
builds the step map j from a single linear section L and validates its
defining algebraic identity on randomized inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .iterate import RadiusSchedule
from .local_ops import (EXP_NEG, PHI, PSI, LocalOperator, OperatorError,
                        borel_apply, product_of_exponentials)
from .sequences import (PositiveSequence, SequenceDomainError, exp_or_inf,
                        lemma_rho, log_rows)
from .series import SeriesError, TruncatedSeries, align
from .trace import IterationTrace, StepRecord

_LOG2 = math.log(2.0)
_LOG4E = math.log(4.0) + 1.0
_WINDOW = 40        # rho_schedule checks its conditions at n = 0..39
_QI_TOL = 1e-12     # involutive_quasi_inverse's relative sample defect


class LieError(ValueError):
    """Raised when the conjugation engine leaves its certified domain."""


class _RadiusHorizon(LieError):
    """The next radius rounds to the current one; `run_lie` stops."""


# ---- small series helpers ----

def _add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    a, b = align(a, b)
    return a + b


def _sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    a, b = align(a, b)
    return a - b


def _max_coeff_diff(a: TruncatedSeries, b: TruncatedSeries) -> float:
    a, b = align(a, b)
    return float(np.max(np.abs(a.coeffs - b.coeffs)))


def _negated(u: LocalOperator) -> LocalOperator:
    return LocalOperator(lambda g, t, s: u(g, t, s).scale(-1.0), u.weight,
                         u.norm_bound, u.kind, f"-{u.name}", u.order_raise,
                         u.cert_radius)


def _project(pi: LocalOperator | None, w: TruncatedSeries, t: float,
             s: float) -> TruncatedSeries:
    """pi(w) from radius t to s; the zero series when pi is None."""
    if pi is None:
        return TruncatedSeries(w.dim, w.cap, s, w.basis)
    return pi(w, t, s)


# ---- problem description ----

@dataclass(frozen=True)
class LocalityExponents:
    """Total weight degrees declared for pi, j and kappa.

    alpha belongs to the projector, beta and gamma to the two slots of
    the quasi-inverse (its dependence on tau and its action on r), nu
    and xi to the cutoff part.  The quadratic branch of the master
    estimate then carries k = 2 (alpha + beta + gamma + 1) weight
    factors and the linear branch l = nu + xi + 1; the extra +1 in each
    is the derivation weight of the step field itself.
    """

    alpha: int = 0
    beta: int = 0
    gamma: int = 0
    nu: int = 0
    xi: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "nu", "xi"):
            if getattr(self, name) < 0:
                raise LieError(f"{name} must be nonnegative")

    @property
    def k(self) -> int:
        return 2 * (self.alpha + self.beta + self.gamma + 1)

    @property
    def l(self) -> int:
        return self.nu + self.xi + 1

    def to_json_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
                "nu": self.nu, "xi": self.xi, "k": self.k, "l": self.l}


@dataclass
class ActionProblem:
    """One conjugation problem: base point, step operators, norms.

    quasi_inverse(n, tau, r) returns the step field u_n = j(tau_n)(r_n)
    as a certified derivation valid at the current radius.  projector
    is the operator pi onto the transversal, the same at every step;
    None means the transversal is {0}, so every delta vanishes and the
    whole remainder goes through the cutoff branch.  T is the image of
    pi, so `lie_step` refuses a delta_(n+1) that pi does not fix exactly,
    and |pi| is pi's `norm_bound`.  `lie_step` also refuses an r_(n+1)
    outside M, tested by the exact predicate m_member.  The declared
    norm sequences |j|, |kappa| feed the scheduler and the certificates.
    """

    f: TruncatedSeries
    quasi_inverse: Callable[[int, TruncatedSeries, TruncatedSeries],
                            LocalOperator]
    m_member: Callable[[int, TruncatedSeries], bool]
    j_norms: PositiveSequence
    exponents: LocalityExponents
    projector: LocalOperator | None = None
    kappa_norms: PositiveSequence | None = None
    name: str = "action"


@dataclass
class LieState:
    """State after n steps: radius, split x_n = tau_n + r_n, and the
    last increment delta_n and field u_{n-1} that produced it.

    image is the conjugacy so far applied to the start,
    e^(-u_{n-1}) ... e^(-u_0) x_0, computed by its own chain of Borel
    series, and image_rem the unfolded remainder bound of that chain.
    `run_lie` starts it at the caller's x_0; None stands for x_n itself,
    so a lone step replays e^(-u_n) on tau_n + r_n.

    slack is the truncation ledger: the summed norm of everything the
    Borel applications could not represent below the cap.  It is kept
    outside the series (flat, never rescaled, so always an upper bound)
    so the iterated series stay tail-free and coefficient operations at
    collapsed radii cannot inflate rounding dust.  Per-step norms
    describe the computed series exactly; the ledger is reported per
    row and enters the final defect.
    """

    n: int
    s: float
    tau: TruncatedSeries
    r: TruncatedSeries
    delta: TruncatedSeries | None = None
    u: LocalOperator | None = None
    slack: float = 0.0
    image: TruncatedSeries | None = None
    image_rem: float = 0.0

    @property
    def x(self) -> TruncatedSeries:
        return _add(self.tau, self.r)

    @property
    def r_norm(self) -> float:
        return self.r.majorant_norm(self.s)

    @property
    def delta_norm(self) -> float:
        return 0.0 if self.delta is None else self.delta.majorant_norm(self.s)

    @property
    def u_norm(self) -> float:
        return 0.0 if self.u is None else self.u.norm_bound


# ---- one step ----

def lie_step(state: LieState, problem: ActionProblem,
             radii: RadiusSchedule) -> tuple[LieState, dict]:
    """One conjugation step from radius s_n to s_{n+1}.

    u_n = j(tau_n)(r_n) is built at s_n; its application to tau_n spends
    the first quarter of the decrement and the projector the second, so
    delta_{n+1} = pi(r_n - u_n(tau_n)) sits at the midpoint.  The new
    remainder r_{n+1} = phi(u_n) tau_n + psi(u_n) delta_{n+1}
    + e^(-u_n) kappa_n lands at s_{n+1}, where kappa_n is the
    complementary part (iota - pi)(r_n - u_n(tau_n)) and
    phi(z) = e^(-z)(1 + z) - 1, psi(z) = e^(-z) - 1.  Uncomputed Borel
    remainders are folded into the tail of r_{n+1} so its recorded norm
    stays an upper bound.  Any domain violation (a schedule that ends
    too) raises LieError naming the failing sub-expression, and so do
    a rising radius, an r_{n+1} outside M and a delta_{n+1} off T.

    The last Borel series carries the conjugacy: it applies e^(-u_n)
    to the state's image g_{n-1} ... g_0 (x_0) (to x_n when there is
    none), and the next state keeps the result with the remainder
    recursion of `ExponentialProduct.apply`.  consistency_defect is the
    largest coefficient gap between tau_{n+1} + r_{n+1} and that image,
    the versality identity checked at every step.
    """
    def guard(label, fn, *args):
        try:
            return fn(*args)
        except (OperatorError, SeriesError, SequenceDomainError) as exc:
            raise LieError(f"step {n}, {label}: {exc}") from None

    n, s = state.n, state.s
    s1 = guard("s_{n+1}", radii.radius, n + 1)
    if not (0.0 < s1 < s):
        if s1 == s:
            raise _RadiusHorizon(
                f"step {n}: the radius stops falling in float at {s:g}")
        raise LieError(f"step {n}: radii must fall, got {s:g} -> {s1:g}")
    dec = s - s1
    p1 = s - 0.25 * dec
    p2 = s - 0.5 * dec
    tau, r = state.tau, state.r

    u_op = guard("j(tau_n) r_n", problem.quasi_inverse, n, tau, r)
    w_u = guard("u_n(tau_n)", u_op, tau, s, p1)
    w = guard("r_n - u_n(tau_n)", _sub, r, w_u)
    pi = problem.projector
    delta_raw = guard("pi(r_n - u_n(tau_n))", _project, pi, w, p1, p2)
    kappa_val = guard("(iota - pi)(r_n - u_n(tau_n))", _sub, w, delta_raw)

    phi_app = guard("phi(u_n) tau_n", borel_apply, PHI, u_op, s, s1, tau)
    psi_app = None
    if pi is not None:
        psi_app = guard("psi(u_n) delta_{n+1}",
                        borel_apply, PSI, u_op, p2, s1, delta_raw)
    kap_app = guard("exp(-u_n) kappa_n", borel_apply, EXP_NEG, u_op, p2, s1,
                    kappa_val)

    r_next = phi_app.series
    slack = state.slack
    slack += phi_app.remainder
    for app in (psi_app, kap_app):
        if app is None:
            continue
        r_next = guard("r_{n+1} assembly", _add, r_next, app.series)
        slack += app.remainder
    # Move whatever landed in the tail (folded remainders, cap overflow)
    # into the flat ledger: a tail at a collapsed radius would otherwise
    # blow up every later coefficient operation that divides by it.
    if r_next.tail > 0.0:
        r_next = r_next.copy()
        slack += r_next.tail
        r_next.tail = 0.0
    delta = delta_raw.restrict(s1)
    tau_next = guard("tau_{n+1}", _add, tau, delta)

    # x_{n+1} = e^(-u_n) ... e^(-u_0) x_0 must hold coefficientwise
    image = state.x if state.image is None else state.image
    direct = guard("exp(-u_n) g_{n-1} ... g_0 x_0", borel_apply, EXP_NEG,
                   u_op, s, s1, image)
    image_rem = state.image_rem / (1.0 - direct.x) + direct.remainder

    if not (r_next.is_zero or problem.m_member(n + 1, r_next)):
        raise LieError(f"step {n}: r_{{n+1}} left M")
    # T is the image of pi: delta_{n+1} must be fixed by pi, exactly
    fixed = guard("pi(delta_{n+1})", _project, pi, delta, s1, s1)
    if not np.array_equal(fixed.coeffs, delta.coeffs):
        raise LieError(f"step {n}: delta_{{n+1}} left T")

    nxt = LieState(n + 1, s1, tau_next, r_next, delta, u_op, slack,
                   direct.series, image_rem)
    diag = {
        "consistency_defect": _max_coeff_diff(nxt.x, direct.series),
        "s_quarter": p1,
        "s_half": p2,
        "phi_terms": phi_app.terms,
        "exp_terms": kap_app.terms,
        "truncation_slack": slack,
    }
    if r_next.basis == "taylor":
        # vanishing order, measured above relative rounding dust
        mx = float(np.max(np.abs(r_next.coeffs)))
        diag["r_order"] = r_next.order(1e-13 * mx)
    return nxt, diag


# ---- the contraction schedule ----

@dataclass(frozen=True)
class LieScheduleReport:
    """Outcome of the K search: per-condition verdicts on the window and
    the entry threshold epsilon * t^m implied by the tuned constants."""

    window: int
    K: float
    halvings: int
    alpha: float
    conditions: dict
    epsilon: float
    m: int
    threshold: float

    @property
    def passed(self) -> bool:
        return all(all(v) for v in self.conditions.values())


class LieSchedule(NamedTuple):
    rho: PositiveSequence
    sigma: PositiveSequence
    radii: RadiusSchedule
    b: PositiveSequence
    report: LieScheduleReport


def _derived_logs(problem: ActionProblem, tau0: float, log_j: np.ndarray,
                  log_kap: np.ndarray | None) -> dict:
    """Log values of the four derived constant sequences at the indices
    of the given log |j_n| and log |kappa_n| (None without kappa):

        a'_n   = |pi_n| (1 + |j_n|) (2 + |tau_0|) (1 + |tau_0|)
        a''_n  = 4 e^2 (1 + |tau_0|)^2 |j_n|^2
        a'''_n = 4 e (1 + |tau_0|) |j_n| a'_n
        a''''_n = 4 |kappa_n|

    |pi_n| is the projector's constant norm_bound.  Absent operators
    contribute -inf (their products vanish).
    """
    neg_inf = np.full(len(log_j), -math.inf)
    pi = problem.projector
    log_pi = neg_inf if pi is None else np.full(len(log_j),
                                                math.log(pi.norm_bound))
    log_kap = neg_inf if log_kap is None else log_kap
    log_ap = (log_pi + np.logaddexp(0.0, log_j)
              + math.log(2.0 + tau0) + math.log1p(tau0))
    log_app = math.log(4.0) + 2.0 + 2.0 * math.log1p(tau0) + 2.0 * log_j
    log_appp = math.log(4.0) + 1.0 + math.log1p(tau0) + log_j + log_ap
    log_a4 = math.log(4.0) + log_kap
    return {"j": log_j, "ap": log_ap, "app": log_app, "appp": log_appp,
            "a4": log_a4}


def rho_schedule(problem: ActionProblem, b: PositiveSequence,
                 t: float) -> LieSchedule:
    """Tune rho_n = K b_n c_n e^(-alpha^n) until the five smallness
    conditions hold on the window, then emit the radius schedule
    s_{n+1} = rho_n^(1/2^n) s_n from s_0 = t.

    Condition 1 is the tame model pair (2 (a'' + a''') sigma^-k,
    2 rho a'''' sigma^-l), which is `lemma_rho`'s own pair of
    conclusions; condition 2 controls the linear branch
    (a'''' sigma^-l rho_n <= rho_{n+1}^(1/2)); condition 3 the
    exponentials (4 e |j_n| sigma_n^-1 rho_n^(1/2) <= rho_{n+1}^(1/4));
    condition 4 the transversal increments (a'_n sigma_n^(-k/2)
    rho_n^(1/2) <= rho_{n+1}^(1/4)); condition 5 keeps
    rho_n^(1/4) < 1/2^n.  Conditions 2-5 join the one K search, the one
    in `lemma_rho`, evaluated on the log values of each candidate rho
    and of sigma = rho.gap(); a refusal of `lemma_rho` (no passing K,
    naming the binding condition, or an input it cannot tame) becomes a
    LieError with its message.
    A small |j| only makes the problem easier: where it pulls the
    product `lemma_rho` tames below 1, its |j|^2 factor is lifted.
    Absent kappa makes conditions 1 and 2 vacuous in their kappa factor
    and an absent projector makes condition 4 vacuous.  The report
    carries the entry threshold as epsilon * t^m with m = k + l.  rho,
    sigma and the radii are closed-form wherever b is.
    """
    if not (t > 0.0):
        raise LieError("the starting radius t must be positive")
    if problem.f.ref_radius < t:
        raise LieError("f is not certified at the starting radius")
    walks = {}      # log |j|, log |kappa| on the window, one walk each
    for label, seq in (("j", problem.j_norms),
                       ("kappa", problem.kappa_norms)):
        if seq is None:
            continue
        try:
            walks[label] = seq.log_values(_WINDOW + 1)
        except SequenceDomainError as exc:
            raise LieError(f"|{label}| norm sequence: {exc}") from None
        if seq.divergence_witness():
            raise LieError(
                f"|{label}| is certified non-summable; no schedule exists")

    exps = problem.exponents
    k, l = exps.k, exps.l
    tau0 = problem.f.majorant_norm(t)
    logs = _derived_logs(problem, tau0, walks["j"], walks.get("kappa"))
    # lemma_rho needs closed-form inputs for its tail certificates, so
    # dominate 2 (a'' + a''') by a scaled power of |j|: the pair check
    # only gets harder and the taming epsilon only smaller.
    ratio = np.exp(logs["appp"] - logs["app"])
    rmax = 0.0 if problem.projector is None else float(np.max(ratio))
    a_lem = (problem.j_norms ** 2.0).scaled(
        log_factor=math.log(2.0 * (1.0 + rmax)) + math.log(4.0) + 2.0
        + 2.0 * math.log1p(tau0))
    if problem.kappa_norms is not None:
        ap_lem = problem.kappa_norms.scaled(factor=8.0)
    else:
        ap_lem = PositiveSequence.constant(1.0)
    # lemma_rho tames a_lem a'_lem^2 and needs it >= 1 at the indices
    # 0..2 _WINDOW it reads; a few ulps over -low make the lifted logs
    # round to >= 0.  A table (no closed-form tail) is left to the
    # taming's own refusal.
    tamed = a_lem * ap_lem ** 2.0
    if tamed.weighted_log_tail(0, _WINDOW) is not None:
        low = float(np.min(tamed.log_values(2 * _WINDOW)))
        if low < 0.0:
            big = float(np.max(np.abs(a_lem.log_values(2 * _WINDOW))))
            a_lem = a_lem.scaled(log_factor=-low + 4.0 * math.ulp(big - low))

    la4, lap, lj = (logs[key][:_WINDOW] for key in ("a4", "ap", "j"))

    def lie_conditions(rho: PositiveSequence) -> dict:
        lr = rho.log_values(_WINDOW)
        ls = rho.gap().log_values(_WINDOW - 1)      # log sigma_n
        now, nxt = lr[:-1], lr[1:]
        flags = {
            "linear-branch": la4 - l * ls + now <= 0.5 * nxt,
            "exp-smallness": _LOG4E + lj - ls + 0.5 * now <= 0.25 * nxt,
            "transversal-increment": (lap - 0.5 * k * ls + 0.5 * now
                                      <= 0.25 * nxt),
            "n-range": 0.25 * now < -np.arange(_WINDOW) * _LOG2,
        }
        return {name: tuple(v.tolist()) for name, v in flags.items()}

    try:
        rho, sigma, rep = lemma_rho(a_lem, ap_lem, b, k, l, window=_WINDOW,
                                    depth=_WINDOW, conditions=lie_conditions)
    except SequenceDomainError as exc:
        raise LieError(str(exc)) from None
    conditions = {"model-pair": rep.pair_star,
                  "model-below-b": rep.below_b, **lie_conditions(rho)}
    radii = RadiusSchedule.rho_driven(rho, t)
    sig0 = sigma.value(0)
    gates = [sig0 / (4.0 * math.e * math.exp(logs["j"][0])), b.value(0)]
    if problem.projector is not None:
        # N1 seed: |delta_1| <= a'_0 |r_0| must start below 1/4
        gates.append(0.25 * math.exp(-logs["ap"][0]))
    threshold = min(gates)
    m = k + l
    # epsilon = threshold / t^m is +inf where t^m underflows
    tm = t ** m
    report = LieScheduleReport(_WINDOW, rep.K, rep.halvings, rep.alpha,
                               conditions, threshold / tm if tm else math.inf,
                               m, threshold)
    return LieSchedule(rho, sigma, radii, b, report)


# ---- full run and post-hoc certificate ----

def run_lie(problem: ActionProblem, radii: RadiusSchedule,
            r0: TruncatedSeries, steps: int) -> tuple[IterationTrace,
                                                      "object"]:
    """Iterate lie_step on the radii and assemble the conjugacy.

    Returns the trace and the certified product g = e^(-u_{N-1}) ...
    e^(-u_0).  Row n records what the run measured: s_n, |r_n|,
    |delta_n|, |u_{n-1}| and the step's diagnostics; b_n, sigma_n and
    checks_passed keep StepRecord's defaults until a certificate writes
    them (`demos._certified_run` does, from `certify`).  Row n + 1
    checks the versality identity g_n ... g_0 (tau_0 + r_0) = tau_0 +
    sum delta_i + r_(n+1) coefficientwise as its consistency_defect; the
    last row's is the run's conjugacy_coeff_defect (0 without steps).
    The reported defect is |r_N| plus the truncation ledger accumulated
    by the Borel applications.  The product's `image` is (g(x_0),
    remainder bound), carried by the steps from the caller's
    x_0 = tau_0 + r_0 at radius t, tail included, so nothing needs to
    apply g to x_0 again.  A step whose next radius rounds to the current
    one is not run: `failures` names it, and the run stays uncertified.
    """
    t = radii.radius(0)
    if problem.f.ref_radius < t or r0.ref_radius < t:
        raise LieError("f and r_0 must be certified at the starting radius")
    tau, r = problem.f.at(t), r0.at(t)
    x0 = _add(tau, r)
    slack0 = 0.0
    if r.tail > 0.0:
        r = r.copy()
        slack0, r.tail = r.tail, 0.0
    if not (r.is_zero or problem.m_member(0, r)):
        raise LieError("r_0 is not in M")

    trace = IterationTrace("lie", metadata={
        "problem": problem.name,
        "exponents": problem.exponents.to_json_dict(),
        "schedule": radii.to_json_dict(),
        "steps": steps,
        "tau0_norm": tau.majorant_norm(t),
        "r0_norm": r.majorant_norm(t) + slack0,
    })
    state = LieState(0, t, tau, r, slack=slack0, image=x0)
    trace.add(StepRecord(0, radius=t, value_norm=state.r_norm,
                         increment_norm=0.0, aux_norm=0.0))
    fields = []
    defect = worst_defect = 0.0
    for i in range(steps):
        try:
            state, diag = lie_step(state, problem, radii)
        except _RadiusHorizon as exc:
            trace.fail(str(exc))
            break
        fields.append(state.u)
        defect = diag["consistency_defect"]
        worst_defect = max(worst_defect, defect)
        trace.add(StepRecord(state.n, radius=state.s,
                             value_norm=state.r_norm,
                             increment_norm=state.delta_norm,
                             aux_norm=state.u_norm, extra=diag))

    rs = [rec.radius for rec in trace.steps]
    try:
        conjugacy = product_of_exponentials([_negated(u) for u in fields], rs)
    except (OperatorError, SeriesError) as exc:
        raise LieError(f"conjugacy assembly: {exc}") from None
    gx, g_rem = state.image, state.image_rem
    conjugacy.image = (gx, g_rem)

    x0_norm = x0.majorant_norm(t)
    trace.metadata.update({
        "versality_defect": state.r_norm + state.slack,
        "conjugacy_coeff_defect": defect,
        "conjugacy_sigma": conjugacy.sigma,
        "conjugacy_remainder": g_rem,
        "consistency_worst": worst_defect,
        "limit_radius": radii.limit,
    })
    if state.r_norm + state.slack <= 1e-10 * (1.0 + x0_norm):
        trace.status = "converged"
    return trace, conjugacy


@dataclass(frozen=True)
class LieCertificate:
    """Post-hoc verdicts: every tuple is indexed by the trace row."""

    n1: tuple
    n2: tuple
    master: tuple
    value_below: tuple
    increment_below: tuple
    verdict: str
    first_failure: tuple | None
    details: dict
    b: tuple            # b_n and sigma_n of each checked row
    sigma: tuple


def certify(trace: IterationTrace, problem: ActionProblem,
            schedule: LieSchedule) -> LieCertificate:
    """Replay a finished trace, on the rho, sigma and b of the schedule
    it ran and the |tau_0| it recorded, against the inequalities below.

    Checked per row: N1 |delta_j| <= 1/2^(j+1); N2 |r_n| <=
    sigma_n / (4 e |j_n|); the master inequality |r_{n+1}| <=
    (a''_n + a'''_n) sigma_n^-k |r_n|^2 + rho_n a''''_n sigma_n^-l |r_n|;
    and the conclusions |r_n| <= b_n, |delta_n| <= b_n.  Rows past the
    end of a tabulated b, |j| or |kappa| are not checked (sigma =
    rho.gap() ends with b), and leave the run uncertified, as run
    failures do; each sequence is read in one walk, on the checked rows
    only.  The certificate carries each checked row's b_n and sigma_n,
    the operands a certified run writes into its rows.  Each inequality
    compares the recorded norm with its right side exactly.  Failures
    are verdicts, not exceptions.
    """
    rho, sigma, b = schedule.rho, schedule.sigma, schedule.b
    rows = trace.steps
    if not rows:
        raise LieError("empty trace")
    kap = problem.kappa_norms
    # the checked rows end where sigma, |j| or |kappa| ends
    (log_sig, log_j, *log_kap), error = log_rows(
        [sigma, problem.j_norms] + ([] if kap is None else [kap]), 0,
        len(rows))
    if not isinstance(error, (SequenceDomainError, type(None))):
        raise error
    count = len(log_sig)
    k, l = problem.exponents.k, problem.exponents.l
    logs = _derived_logs(problem, trace.metadata["tau0_norm"], log_j,
                         log_kap[0] if log_kap else None)
    quad = np.exp(logs["app"]) + np.exp(logs["appp"])
    a4 = np.exp(logs["a4"])
    jn = np.exp(logs["j"])
    r = [rows[n].value_norm for n in range(count)]
    d = [rows[n].increment_norm for n in range(count)]
    sig, rh, bv = (list(map(exp_or_inf, lv.tolist())) for lv in (
        log_sig, rho.log_values(count - 1), b.log_values(count - 1)))

    n1, n2, master, below_r, below_d = [], [], [], [], []
    for n in range(count):
        n1.append(n == 0 or d[n] <= 0.5 ** (n + 1))
        n2.append(r[n] <= sig[n] / (4.0 * math.e * jn[n]))
        if n == 0:
            master.append(True)
        else:
            rhs = (quad[n - 1] * sig[n - 1] ** (-k) * r[n - 1] ** 2
                   + rh[n - 1] * a4[n - 1] * sig[n - 1] ** (-l) * r[n - 1])
            master.append(r[n] <= rhs)
        below_r.append(r[n] <= bv[n])
        below_d.append(n == 0 or d[n] <= bv[n])

    named = (("N2", n2), ("master", master), ("N1", n1),
             ("value<=b", below_r), ("increment<=b", below_d))
    first = next(((name, n) for n in range(count) for name, flags in named
                  if not flags[n]), None)
    ok = first is None and count == len(rows) and not trace.failures
    return LieCertificate(tuple(n1), tuple(n2), tuple(master),
                          tuple(below_r), tuple(below_d),
                          "certified" if ok else "uncertified", first,
                          {"checked_steps": count, "rows": len(rows)},
                          tuple(bv), tuple(sig))


# ---- quasi-inverse from a linear section ----

@dataclass
class InvolutiveQuasiInverse:
    """j(delta)(r) = L(r - L(r) delta) with its cutoff complement
    kappa0(m) = (iota - pi)(m - L(m)(x)), plus the worst sampled defect
    of the defining identity."""

    j: Callable
    kappa0: Callable
    defect: float
    samples: int


def _random_poly(rng: np.random.Generator, like: TruncatedSeries,
                 degree: int) -> TruncatedSeries:
    coeffs = np.zeros(like.cap + 1, dtype=complex)
    coeffs[:degree + 1] = rng.uniform(-1.0, 1.0, degree + 1)
    return TruncatedSeries(1, like.cap, like.ref_radius, "taylor", coeffs)


def involutive_quasi_inverse(L: Callable[[TruncatedSeries], LocalOperator],
                             pi: LocalOperator | None, x: TruncatedSeries, *,
                             samples: int = 8, max_degree: int = 8,
                             seed: int = 0) -> InvolutiveQuasiInverse:
    """Build the step map j from one linear section L: M -> fields.

    With the action defect D(m) = m - L(m)(x) and kappa0 = (iota - pi) D,
    the returned map satisfies, for delta in the transversal,

        j(delta)(r)(x + delta)
            = r - kappa0(r - L(r) delta) - L(L(r) delta)(delta)  (mod T),

    which is validated on randomized polynomial inputs of degree <=
    max_degree, together with the hypothesis that the fields L(m) map
    the transversal into itself.  A sample fails when its coefficient
    defect exceeds _QI_TOL = 1e-12 times 1 plus the sample's norms, and
    the constructor then refuses with a witness.  All validation
    applications stay at the reference radius of x, so L and pi must
    accept equal input and output radii on polynomial data.
    """
    t = x.ref_radius

    def apply_pi(w: TruncatedSeries) -> TruncatedSeries:
        return _project(pi, w, w.ref_radius, w.ref_radius)

    def kappa0(m: TruncatedSeries) -> TruncatedSeries:
        dm = _sub(m, L(m)(x, t, t))
        return _sub(dm, apply_pi(dm))

    def j(delta: TruncatedSeries):
        def step(r: TruncatedSeries) -> LocalOperator:
            return L(_sub(r, L(r)(delta, delta.ref_radius,
                                  delta.ref_radius)))
        return step

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(samples):
        r = _random_poly(rng, x, max_degree)
        delta = apply_pi(_random_poly(rng, x, max_degree))
        tangent = L(_random_poly(rng, x, max_degree))(delta, t, t)
        scale = 1.0 + tangent.majorant_norm(t)
        if _max_coeff_diff(apply_pi(tangent), tangent) > _QI_TOL * scale:
            raise LieError(
                f"fields do not preserve the transversal (sample {i})")
        m2 = L(r)(delta, t, t)
        lhs = j(delta)(r)(_add(x, delta), t, t)
        rhs = _sub(_sub(r, kappa0(_sub(r, m2))), L(m2)(delta, t, t))
        diff = _sub(lhs, rhs)
        moded = _sub(diff, apply_pi(diff))
        scale = 1.0 + r.majorant_norm(t) + lhs.majorant_norm(t)
        defect = _max_coeff_diff(moded,
                                 TruncatedSeries(moded.dim, moded.cap,
                                                 moded.ref_radius,
                                                 moded.basis))
        if defect > _QI_TOL * scale:
            raise LieError(f"quasi-inverse identity fails on sample {i}: "
                           f"defect {defect:g}")
        worst = max(worst, defect)
    return InvolutiveQuasiInverse(j, kappa0, worst, samples)
