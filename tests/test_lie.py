"""Tests for the conjugation engine: steps, schedule, certificates."""

import dataclasses
import math

import numpy as np
import pytest

from banachscale import sequences
from banachscale.demos import circle_problem, mather_problem, morse_problem
from banachscale.iterate import RadiusSchedule
from banachscale.lie import (
    ActionProblem,
    LieError,
    LieSchedule,
    LieState,
    LocalityExponents,
    certify,
    involutive_quasi_inverse,
    lie_step,
    rho_schedule,
    run_lie,
)
from banachscale.local_ops import (PHI, PSI, LocalOperator, WeightFunction,
                                   borel_apply, certify_vector_field,
                                   multiplication_operator)
from banachscale.sequences import PositiveSequence
from banachscale.series import TruncatedSeries


# ---- helpers ----

def poly(coeffs, *, cap=64, ref=1.0):
    s = TruncatedSeries(1, cap, ref, "taylor")
    for i, c in enumerate(coeffs):
        s.coeffs[i] = c
    return s


def polyder(c):
    return [i * c[i] for i in range(1, len(c))]


def polymul(a, b):
    return list(np.convolve(a, b))


def field_power(a, g, k):
    """(a d/dz)^k g on plain coefficient lists."""
    w = list(g)
    for _ in range(k):
        w = polymul(a, polyder(w))
    return w


def pad(c, n):
    return list(c) + [0.0] * (n - len(c))


STRICT_B = PositiveSequence.exp_power(-1, 1.5)


# ---- locality exponents and problem validation ----

def test_exponents_k_and_l():
    e = LocalityExponents(alpha=0, beta=0, gamma=1, nu=0, xi=0)
    assert e.k == 4 and e.l == 1
    assert LocalityExponents(1, 1, 1, 2, 1).k == 8
    assert LocalityExponents(1, 1, 1, 2, 1).l == 4
    with pytest.raises(LieError):
        LocalityExponents(alpha=-1)


def test_step_refuses_delta_that_pi_does_not_fix():
    # T is the image of pi: a projector that doubles the mean is not
    # idempotent, so the first nonzero delta (step 1) leaves T
    def action(g, t, s):
        out = TruncatedSeries(g.dim, g.cap, min(s, g.ref_radius), "fourier")
        out.set_coefficient(0, 2.0 * g.coefficient(0))
        return out
    double = LocalOperator(action, WeightFunction(k=0), 2.0,
                           kind="projector", name="twice the mean")
    problem = dataclasses.replace(circle_problem(), projector=double)
    f = (TruncatedSeries.fourier_mode(1, 1e-3, cap=64, strip=0.5)
         + TruncatedSeries.fourier_mode(-1, 1e-3, cap=64, strip=0.5))
    with pytest.raises(LieError, match=r"step 1: delta_\{n\+1\} left T"):
        run_lie(problem, RadiusSchedule.geometric(0.5, 0.5, 0.2), f, 8)


def test_validation_rejects_field_leaving_m():
    base = morse_problem()

    def bad_qi(n, tau, r):
        # constant coefficient: u(f) = c f' has order 1, outside M
        return certify_vector_field(poly([0.05]), name="bad")

    problem = ActionProblem(base.f, bad_qi, base.m_member, base.j_norms,
                            base.exponents)
    # |u| = 0.05 keeps every Borel series of the step 1 -> 0.75 inside
    # its disc: the narrowest window, (0.875, 0.75), is 0.125 wide
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    state = LieState(0, 1.0, base.f, poly([0, 0, 0, 1e-3]))
    with pytest.raises(LieError, match=r"step 0: r_\{n\+1\} left M"):
        lie_step(state, problem, radii)


# ---- one step ----

def test_step_zero_remainder_is_fixed_point():
    problem = morse_problem()
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    state = LieState(0, 1.0, problem.f, poly([]))
    nxt, diag = lie_step(state, problem, radii)
    assert nxt.r.is_zero
    assert nxt.delta.is_zero
    assert np.allclose(nxt.tau.coeffs, problem.f.coeffs)
    assert diag["consistency_defect"] == 0.0


def test_step_morse_first_order_jump():
    eps = 1e-3
    problem = morse_problem()
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    r0 = poly([0, 0, 0, eps])
    state = LieState(0, 1.0, problem.f, r0)
    nxt, diag = lie_step(state, problem, radii)
    # delta vanishes (transversal {0}) and tau is preserved
    assert nxt.delta.is_zero
    assert np.allclose(nxt.tau.coeffs, problem.f.coeffs)
    # r_1 = phi(u) z^2 with u = (eps/2) z^2 d/dz; expanding the
    # exponential by hand: r_1 = -(3/4) eps^2 z^4 + eps^3 z^5 + ...
    assert nxt.r.order(tol=0.0) == 4
    assert nxt.r.coeffs[4] == pytest.approx(-0.75 * eps ** 2, rel=1e-12)
    assert nxt.r.coeffs[5] == pytest.approx(eps ** 3, rel=1e-12)
    assert nxt.r.coeffs[6] == pytest.approx(-15.0 / 16.0 * eps ** 4, rel=1e-9)


def test_step_matches_symbolic_exponential():
    eps = 1e-3
    problem = morse_problem()
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    r0 = poly([0, 0, 0, eps, 0.5 * eps])
    state = LieState(0, 1.0, problem.f, r0)
    nxt, diag = lie_step(state, problem, radii)
    # oracle: e^(-u)(tau + r) term by term on plain coefficient lists
    a = [0, 0, 0.5 * eps, 0.25 * eps]          # u coefficient r0 / 2z
    x = [0, 0, 1.0, eps, 0.5 * eps]
    acc = pad(x, 80)
    for k in range(1, 40):
        term = field_power(a, x, k)
        acc = [p + (-1.0) ** k * q / math.factorial(k)
               for p, q in zip(acc, pad(term, 80))]
    got = nxt.tau + nxt.r
    for d in range(got.cap + 1):
        assert abs(got.coeffs[d] - acc[d]) < 1e-15
    assert diag["consistency_defect"] < 1e-15


def test_step_error_names_failing_subexpression():
    problem = morse_problem()
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    state = LieState(0, 1.0, problem.f, poly([0, 0, 0, 5.0]))
    with pytest.raises(LieError, match=r"phi\(u_n\) tau_n"):
        lie_step(state, problem, radii)


def test_step_order_doubling_through_five_steps():
    eps = 1e-3
    problem = morse_problem()
    radii = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    state = LieState(0, 1.0, problem.f, poly([0, 0, 0, eps]))
    for n in range(1, 6):
        state, _ = lie_step(state, problem, radii)
        assert state.r.order(tol=0.0) == 2 + 2 ** n


# ---- borel bounds behind the remainder update ----

def test_phi_certified_norm_is_quadratic():
    rng = np.random.default_rng(11)
    t = 1.0
    for _ in range(20):
        s = rng.uniform(0.3, 0.8)
        target = rng.uniform(0.02, 0.28)
        a = poly(rng.uniform(-1, 1, 5), cap=32)
        a = a.scale(target * (t - s) / a.majorant_norm(t))
        g = poly(rng.uniform(-1, 1, 6), cap=32)
        u = certify_vector_field(a)
        app = borel_apply(PHI, u, t, s, g)
        gn = g.majorant_norm(t)
        assert app.x == pytest.approx(target, rel=1e-12)
        # |phi|(x) = x^2/(1-x)^2 <= 2 x^2 on x <= 1 - 1/sqrt(2)
        assert app.certified_norm() <= 2.0 * app.x ** 2 * gn * (1 + 1e-9)


def test_psi_certified_norm_is_linear():
    rng = np.random.default_rng(12)
    t = 1.0
    for _ in range(20):
        s = rng.uniform(0.3, 0.8)
        target = rng.uniform(0.05, 0.49)
        a = poly(rng.uniform(-1, 1, 5), cap=32)
        a = a.scale(target * (t - s) / a.majorant_norm(t))
        g = poly(rng.uniform(-1, 1, 6), cap=32)
        app = borel_apply(PSI, certify_vector_field(a), t, s, g)
        gn = g.majorant_norm(t)
        assert app.certified_norm() <= 2.0 * app.x * gn * (1 + 1e-9)


# ---- the schedule ----

def test_morse_schedule_passes_all_conditions():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    assert isinstance(sched, LieSchedule)
    rep = sched.report
    assert rep.passed
    assert rep.halvings < 64
    for name in ("model-pair", "model-below-b", "linear-branch",
                 "exp-smallness", "transversal-increment", "n-range"):
        assert all(rep.conditions[name]), name
    assert all(sched.rho.value(n) < 1.0 for n in range(41))
    assert sched.radii.radius(0) == 1.0
    assert sched.radii.limit > 0.0


@pytest.mark.xfail(strict=True,
                   reason="rho_n^(1/4) < 2^-n forces sum |log rho_n|/2^n"
                          " >= 8 log 2, so the limit radius is below"
                          " e^-5.5 t for every admissible schedule")
def test_morse_schedule_limit_radius_two_fifths():
    sched = rho_schedule(morse_problem(), STRICT_B, 1.0)
    assert sched.radii.limit >= 0.4


def test_schedule_reports_entry_threshold():
    sched = rho_schedule(morse_problem(), STRICT_B, 1.0)
    rep = sched.report
    exps = morse_problem().exponents
    assert exps.k == 4 and exps.l == 1 and rep.m == 5
    assert 0.0 < rep.threshold <= STRICT_B.value(0)
    assert rep.epsilon == pytest.approx(rep.threshold)  # t = 1
    # N2 entry gate with |j| = 10
    sig0 = sched.sigma.value(0)
    assert rep.threshold <= sig0 / (4.0 * math.e * 10.0) * (1 + 1e-12)


def test_schedule_scales_with_radius():
    sched = rho_schedule(morse_problem(), STRICT_B, 0.5)
    assert sched.radii.radius(0) == 0.5
    assert sched.report.threshold == pytest.approx(
        sched.report.epsilon * 0.5 ** sched.report.m)


def test_non_bruno_j_norms_refused():
    base = morse_problem()
    bad = ActionProblem(base.f, base.quasi_inverse, base.m_member,
                        j_norms=PositiveSequence.exp_power(1, 2.0),
                        exponents=base.exponents)
    with pytest.raises(LieError, match="non-summable"):
        rho_schedule(bad, STRICT_B, 1.0)


def test_non_strict_b_refused():
    with pytest.raises(LieError, match="strict"):
        rho_schedule(morse_problem(), PositiveSequence.geometric(0.5), 1.0)


@pytest.mark.parametrize("problem,cause", [
    (lambda: dataclasses.replace(
        morse_problem(), j_norms=PositiveSequence.tabulated([10.0] * 80)),
     "taming needs a certified summable sequence, got inconclusive"),
    (lambda: dataclasses.replace(
        morse_problem(),
        j_norms=PositiveSequence.geometric(0.5).scaled(10.0)),
     "transform needs a nondecreasing on the window"),
], ids=["tabulated-j", "decreasing-j"])
def test_schedule_refusal_names_its_cause_after_one_taming(
        monkeypatch, problem, cause):
    # neither refusal depends on K, so no K is retried
    calls = []
    taming = sequences.taming_epsilon_log

    def counted(*args, **kwargs):
        calls.append(args)
        return taming(*args, **kwargs)

    monkeypatch.setattr(sequences, "taming_epsilon_log", counted)
    with pytest.raises(LieError) as refusal:
        rho_schedule(problem(), STRICT_B, 1.0)
    assert str(refusal.value) == cause
    assert len(calls) == 1


@pytest.mark.parametrize("problem,t,halvings,K", [
    (lambda: morse_problem(j_const=1e-3), 1.0, 0, 0.5),
    (lambda: mather_problem(TruncatedSeries.monomial(3, 1.0, cap=64,
                                                     ref_radius=1.0),
                            j_const=1e-3), 0.8, 1, 0.25),
], ids=["morse", "mather"])
def test_schedule_accepts_a_small_j(problem, t, halvings, K):
    # the product lemma_rho tames falls below 1 at this |j|; the schedule
    # lifts it to 1 instead of refusing
    sched = rho_schedule(problem(), STRICT_B, t)
    assert sched.report.passed
    assert (sched.report.halvings, sched.report.K) == (halvings, K)
    assert sched.radii.limit > 0.0


def test_small_j_lift_survives_rounding():
    # a lift of exactly -min log a_lem a'_lem^2 leaves about one |j| in
    # five a rounding step below 1, refused as "a_k >= 1"
    f = TruncatedSeries.monomial(3, 1.0, cap=16, ref_radius=1.0)
    for j in np.geomspace(1e-9, 0.05, 40):
        for problem, t in ((morse_problem(cap=16, j_const=j), 1.0),
                           (mather_problem(f, j_const=j), 0.8)):
            assert rho_schedule(problem, STRICT_B, t).report.passed, j


@pytest.mark.parametrize("j,kappa,halvings,K", [
    (0.1, None, 3, 2.0 ** -4),
    (0.001, None, 16, 2.0 ** -17),
    (0.001, 1.0, 4, 2.0 ** -5),
])
def test_schedule_halves_K_until_every_condition_holds(j, kappa, halvings,
                                                       K):
    problem = dataclasses.replace(circle_problem(),
                                  j_norms=PositiveSequence.constant(j))
    if kappa is not None:
        problem = dataclasses.replace(
            problem, kappa_norms=PositiveSequence.constant(kappa))
    sched = rho_schedule(problem, STRICT_B, 1.0)
    assert (sched.report.halvings, sched.report.K) == (halvings, K)
    assert sched.report.passed


# ---- full runs ----

def test_run_morse_residual_and_versality():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    r0 = poly([0, 0, 0, 1e-3])
    trace, conj = run_lie(problem, sched.radii, r0, steps=8)
    assert len(trace.steps) == 9
    assert trace.status == "converged"
    assert trace.metadata["versality_defect"] <= 1e-8
    assert trace.metadata["conjugacy_coeff_defect"] <= 1e-12
    assert trace.metadata["consistency_worst"] <= 1e-12
    norms = [row.value_norm for row in trace.steps]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert conj.sigma < 1e-2


def test_run_zero_perturbation_gives_identity():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    trace, conj = run_lie(problem, sched.radii, poly([]), steps=4)
    assert trace.metadata["versality_defect"] == 0.0
    assert trace.metadata["conjugacy_coeff_defect"] == 0.0
    assert conj.sigma == 0.0
    gx, rem = conj.apply(problem.f)
    assert np.array_equal(gx.coeffs, problem.f.coeffs)


def test_run_rejects_perturbation_outside_m():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    with pytest.raises(LieError, match="not in M"):
        run_lie(problem, sched.radii, poly([0, 0, 1e-3]), steps=2)


def test_run_trace_is_deterministic(tmp_path):
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    r0 = poly([0, 0, 0, 1e-3])
    t1, _ = run_lie(problem, sched.radii, r0, steps=5)
    t2, _ = run_lie(problem, sched.radii, r0, steps=5)
    assert t1.to_json() == t2.to_json()
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1.to_csv(str(f1))
    t2.to_csv(str(f2))
    assert f1.read_bytes() == f2.read_bytes()


# ---- certificates ----

def test_certify_morse_run_all_pass():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    trace, _ = run_lie(problem, sched.radii, poly([0, 0, 0, 1e-3]), steps=8)
    cert = certify(trace, problem, sched)
    assert cert.verdict == "certified"
    assert cert.first_failure is None
    assert all(cert.n1) and all(cert.n2) and all(cert.master)
    assert all(cert.value_below) and all(cert.increment_below)
    assert cert.details["checked_steps"] == 9


def test_a_tabulated_envelope_ends_the_schedule():
    # b has 43 entries, so rho and its gap sigma end at index 43: row 43
    # of a 43-step run is left unchecked, and a 44th step has no radius
    b = PositiveSequence.tabulated(
        [math.exp(-1e-10 * 1.9 ** n) for n in range(43)])
    problem = morse_problem()
    sched = rho_schedule(problem, b, 1.0)
    r0 = poly([0, 0, 0, 1e-3])
    trace, _ = run_lie(problem, sched.radii, r0, steps=43)
    cert = certify(trace, problem, sched)
    assert cert.details == {"checked_steps": 43, "rows": 44}
    assert cert.verdict == "uncertified" and cert.first_failure is None
    with pytest.raises(LieError, match=r"^step 43, s_\{n\+1\}: tabulated "
                                       r"sequence has 43 entries, index 43$"):
        run_lie(problem, sched.radii, r0, steps=50)


@pytest.mark.parametrize("label, make, t, r0, steps", [
    ("j", morse_problem, 1.0, poly([0, 0, 0, 1e-3]), 5),
    ("kappa", lambda: mather_problem(TruncatedSeries.monomial(
        3, 1.0, cap=64, ref_radius=1.0)), 0.8, poly([0] * 7 + [1e-4]), 4),
], ids=["j", "kappa"])
def test_a_tabulated_norm_is_read_on_the_checked_rows_only(label, make, t,
                                                           r0, steps):
    # a table of the constant's value, of any length: one that covers
    # every row certifies as the constant does, a shorter one checks as
    # many rows as it has entries and leaves the run uncertified
    problem = make()
    sched = rho_schedule(problem, STRICT_B, t)
    trace, _ = run_lie(problem, sched.radii, r0, steps)
    rows = steps + 1
    key = f"{label}_norms"
    full = certify(trace, problem, sched)
    assert full.verdict == "certified"
    value = getattr(problem, key).value(0)
    for length in range(1, rows + 3):
        table = PositiveSequence.tabulated([value] * length)
        cert = certify(trace, dataclasses.replace(problem, **{key: table}),
                       sched)
        if length >= rows:
            assert cert == full
        else:
            assert cert.details == {"checked_steps": length, "rows": rows}
            assert cert.verdict == "uncertified"
            assert cert.first_failure is None
            assert cert.n2 == full.n2[:length]
            assert cert.b == full.b[:length]


def _listed_radii(values):
    """A schedule that reads its radii from a list and logs each index
    it is asked for."""
    radii = RadiusSchedule.geometric(0.5, values[0], 0.1)
    calls = []

    def radius(n):
        calls.append(n)
        return values[n]
    radii.radius = radius
    return radii, calls


_COS = (TruncatedSeries.fourier_mode(1, 1e-3, cap=64, strip=0.5)
        + TruncatedSeries.fourier_mode(-1, 1e-3, cap=64, strip=0.5))


def test_a_radius_that_stops_falling_ends_the_run():
    # step 2 would go 0.3 -> 0.3: the run keeps rows 0..2 and names it;
    # each radius is asked for once, the conjugacy reads the rows
    radii, calls = _listed_radii([0.5, 0.4, 0.3, 0.3, 0.2])
    trace, conjugacy = run_lie(circle_problem(), radii, _COS, 4)
    assert [rec.radius for rec in trace.steps] == [0.5, 0.4, 0.3]
    assert trace.failures == [
        "step 2: the radius stops falling in float at 0.3"]
    assert calls == [0, 1, 2, 3]
    assert conjugacy.radii == [0.5, 0.4, 0.3]


def test_a_radius_that_rises_is_refused():
    radii, _ = _listed_radii([0.5, 0.4, 0.45])
    with pytest.raises(LieError,
                       match=r"^step 1: radii must fall, got 0.4 -> 0.45$"):
        run_lie(circle_problem(), radii, _COS, 2)


def test_certify_refuses_a_run_that_ended_at_the_float_horizon():
    # rho_120^(1/2^120) rounds to 1, so s_121 == s_120: step 120 never
    # runs, every recorded row checks, and the run stays uncertified
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    trace, _ = run_lie(problem, sched.radii, poly([0, 0, 0, 1e-3]), steps=121)
    assert len(trace.steps) == 121
    assert trace.failures == [
        "step 120: the radius stops falling in float at 4.91417e-24"]
    cert = certify(trace, problem, sched)
    assert cert.first_failure is None
    assert cert.details == {"checked_steps": 121, "rows": 121}
    assert cert.verdict == "uncertified"


def test_certify_zero_run_trivial():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    trace, _ = run_lie(problem, sched.radii, poly([]), steps=3)
    cert = certify(trace, problem, sched)
    assert cert.verdict == "certified"


def test_certify_oversized_r0_fails_n2_at_zero():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    trace, _ = run_lie(problem, sched.radii, poly([0, 0, 0, 0.02]), steps=2)
    cert = certify(trace, problem, sched)
    assert cert.verdict == "uncertified"
    assert cert.first_failure == ("N2", 0)
    assert not cert.n2[0]


def _n2_bound(problem, sched, n):
    """sigma_n / (4 e |j_n|), with |j_n| read as `certify` reads it."""
    jn = float(np.exp(problem.j_norms.log_values(n + 1))[n])
    return sched.sigma.value(n) / (4.0 * math.e * jn)


@pytest.mark.parametrize("b, field, bound, name", [
    # b_n = e^(-1.5^n / 10) stays above 2^-(n+1), so only N1 sees this row
    (STRICT_B ** 0.1, "increment_norm", lambda p, s, n: 0.5 ** (n + 1), "N1"),
    (STRICT_B, "increment_norm", lambda p, s, n: s.b.value(n), "increment<=b"),
    (STRICT_B, "value_norm", lambda p, s, n: s.b.value(n), "value<=b"),
    (STRICT_B, "value_norm", _n2_bound, "N2"),
])
def test_certify_refuses_a_row_one_ulp_over_its_bound(b, field, bound, name):
    problem = morse_problem()
    sched = rho_schedule(problem, b, 1.0)
    trace, _ = run_lie(problem, sched.radii, poly([0, 0, 0, 1e-3]), steps=4)
    assert certify(trace, problem, sched).verdict == "certified"
    n, row = 2, trace.steps[2]
    at = bound(problem, sched, n)
    for value, holds in ((at, True), (math.nextafter(at, math.inf), False)):
        trace.steps[n] = dataclasses.replace(row, **{field: value})
        cert = certify(trace, problem, sched)
        flags = {"N1": cert.n1, "N2": cert.n2, "value<=b": cert.value_below,
                 "increment<=b": cert.increment_below}
        assert flags[name][n] == holds
    assert cert.verdict == "uncertified"
    if field == "increment_norm":       # |r_n| feeds N2 and master first
        assert cert.first_failure == (name, n)


def test_randomized_entry_threshold_certifies():
    problem = morse_problem()
    sched = rho_schedule(problem, STRICT_B, 1.0)
    thr = sched.report.threshold
    rng = np.random.default_rng(5)
    for _ in range(4):
        raw = poly([0, 0, 0, *rng.uniform(-1.0, 1.0, 4)])
        r0 = raw.scale(0.9 * thr / raw.majorant_norm(1.0))
        trace, _ = run_lie(problem, sched.radii, r0, steps=6)
        cert = certify(trace, problem, sched)
        assert cert.verdict == "certified"


# ---- quasi-inverse from a linear section ----

def even_projector(cap=32):
    def action(g, t, s):
        g = g if g.ref_radius <= s else g.restrict(s)
        coeffs = g.coeffs.copy()
        coeffs[1::2] = 0.0
        return TruncatedSeries(1, g.cap, g.ref_radius, "taylor", coeffs,
                               g.tail)
    return LocalOperator(action, WeightFunction(), 1.0, kind="generic",
                         name="even part")


def identity_projector():
    """iota as a projector: the whole space is transversal."""
    def action(g, t, s):
        return g.restrict(min(s, g.ref_radius))
    return LocalOperator(action, WeightFunction(k=0), 1.0, kind="projector",
                         name="iota")


def even_part(m):
    coeffs = m.coeffs.copy()
    coeffs[1::2] = 0.0
    return TruncatedSeries(1, m.cap, m.ref_radius, "taylor", coeffs, m.tail)


def test_involutive_identity_on_random_inputs():
    cap = 32
    x = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)

    def L(m):
        return multiplication_operator(even_part(m).scale(0.7), name="L")

    inv = involutive_quasi_inverse(L, even_projector(cap), x, samples=20)
    assert inv.defect <= 1e-12
    assert inv.samples == 20


def test_involutive_exact_inverse_reduces_to_l():
    cap = 32
    one = TruncatedSeries.monomial(0, 1.0, cap=cap, ref_radius=1.0)

    def L(m):
        return multiplication_operator(m, name="L")

    inv = involutive_quasi_inverse(L, None, one, samples=6)
    m = poly([0.3, 0, -0.2, 0.1], cap=cap)
    assert inv.kappa0(m).is_zero
    zero = TruncatedSeries(1, cap, 1.0, "taylor")
    g = poly([1.0, 0.5], cap=cap)
    got = inv.j(zero)(m)(g, 1.0, 1.0)
    want = L(m)(g, 1.0, 1.0)
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-15)


def test_involutive_pi_iota_kills_kappa():
    cap = 32
    x = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)

    def L(m):
        return multiplication_operator(even_part(m).scale(0.7), name="L")

    inv = involutive_quasi_inverse(L, identity_projector(), x, samples=6)
    m = poly([0.3, 0.2, -0.1], cap=cap)
    assert np.max(np.abs(inv.kappa0(m).coeffs)) < 1e-15


def test_involutive_pi_zero_kappa_is_action_defect():
    cap = 32
    x = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)

    def L(m):
        return multiplication_operator(even_part(m).scale(0.7), name="L")

    inv = involutive_quasi_inverse(L, None, x, samples=6)
    m = poly([0.4, -0.3, 0.2, 0.1], cap=cap)
    want = m - L(m)(x, 1.0, 1.0)
    got = inv.kappa0(m)
    assert np.allclose(got.coeffs, want.coeffs, atol=1e-15)


def test_involutive_refuses_with_witness():
    cap = 32
    x = TruncatedSeries.monomial(2, 1.0, cap=cap, ref_radius=1.0)

    def L(m):
        return multiplication_operator(m, name="full multiplication")

    with pytest.raises(LieError, match="preserve the transversal"):
        involutive_quasi_inverse(L, even_projector(cap), x)
