"""Tests for the worked problems: quadratic, finitely determined, circle."""

import dataclasses
import math

import numpy as np
import pytest

from banachscale import demos
from banachscale.cli import main as cli_main
from banachscale.demos import (GOLDEN_C, GOLDEN_MEAN, _certified_run, circle,
                               circle_problem, mather, mather_problem, morse,
                               morse_problem)
from banachscale.lie import (LieError, LieState, LocalityExponents, lie_step,
                             rho_schedule)
from banachscale.local_ops import LocalOperator, WeightFunction
from banachscale.sequences import PositiveSequence
from banachscale.series import SeriesError, TruncatedSeries

STRICT_B = PositiveSequence.exp_power(-1, 1.5)


def monomial(deg, coeff, ref=1.0):
    return TruncatedSeries.monomial(deg, coeff, cap=64, ref_radius=ref)


# ---- quadratic base point ----

def test_morse_default_run_is_certified():
    rep = morse()
    assert rep.converged
    assert rep.residual <= 1e-8
    assert rep.certificate.verdict == "certified"
    assert rep.certificate.first_failure is None
    assert rep.details["conjugacy_defect"] <= 1e-8


def test_certified_rows_carry_the_certificate(capsys):
    rep = morse()
    assert rep.trace.certified and rep.trace.failures == []
    assert all(rec.checks_passed for rec in rep.trace.steps)
    # sigma is rho's gap, closed-form like rho: a run past the schedule's
    # 40-index window is checked on every row
    rep = morse(steps=70)
    assert rep.converged and rep.certificate.verdict == "certified"
    assert rep.certificate.details == {"checked_steps": 71, "rows": 71}
    assert all(rec.checks_passed for rec in rep.trace.steps)
    assert rep.trace.certified and rep.trace.failures == []
    assert mather(steps=50).certificate.details == {"checked_steps": 51,
                                                    "rows": 51}
    capsys.readouterr()
    assert cli_main(["lie", "--demo", "morse", "--steps", "70"]) == 0
    assert "verdict certified" in capsys.readouterr().out


def test_refused_run_exports_its_failing_row():
    # converges, but the master inequality fails at rounding dust
    rep = mather(f=monomial(3, 1.0), r0=monomial(7, 5.25e-5))
    assert rep.converged
    assert rep.certificate.first_failure == ("master", 4)
    assert [rec.checks_passed for rec in rep.trace.steps] == (
        [True] * 4 + [False])
    assert not rep.trace.certified
    assert rep.trace.failures == ["master fails at row 4"]
    assert '"certified": false' in rep.trace.to_json()


def test_morse_orders_double():
    rep = morse()
    orders = rep.details["orders"]
    assert len(orders) >= 5
    # Ord(r_n) >= 2 + 2^n, reached with equality for a cubic seed
    for n, o in enumerate(orders[:5]):
        assert o >= 2 + 2 ** n
    for a, b in zip(orders, orders[1:]):
        assert b == 2 * (a - 1)


def test_morse_zero_perturbation_is_identity():
    rep = morse(eps=0.0)
    assert rep.converged
    assert rep.residual == 0.0
    assert rep.details["conjugacy_defect"] == 0.0
    assert all(rec.value_norm == 0.0 for rec in rep.trace.steps)


def test_morse_mixed_seed_same_guarantees():
    r0 = monomial(3, 1e-3) + monomial(4, 1e-3)
    rep = morse(r0=r0)
    assert rep.converged
    assert rep.residual <= 1e-8
    assert rep.certificate.verdict == "certified"
    for n, o in enumerate(rep.details["orders"][:5]):
        assert o >= 2 + 2 ** n


def test_morse_refuses_oversized_seed():
    with pytest.raises(LieError, match="threshold"):
        morse(eps=1.0)


def test_morse_seed_must_cover_radius():
    with pytest.raises(LieError, match="radius"):
        morse(r0=monomial(3, 1e-3, ref=0.5), t=1.0)


def test_mather_seed_must_cover_radius():
    # refused before the seed is measured, as for morse
    with pytest.raises(LieError, match="r0 must be certified at the "
                                       "starting radius"):
        mather(r0=monomial(7, 1e-4, ref=0.5), t=0.8)


# ---- finitely determined base point ----

def test_mather_default_run_is_certified():
    rep = mather()
    assert rep.converged
    assert rep.residual <= 1e-8
    assert rep.certificate.verdict == "certified"
    assert rep.details["membership_thresholds"] == [5, 7, 11, 19, 35]


def test_mather_membership_is_exact():
    """Coefficients below each stage's threshold stay at the noise
    floor of the seed scale, checked on the raw step states."""
    f = monomial(3, 1.0)
    r0 = monomial(7, 1e-4, ref=0.8)
    problem = mather_problem(f)
    schedule = rho_schedule(problem, STRICT_B, 0.8)
    state = LieState(0, 0.8, f.restrict(0.8), r0)
    floor = 1e-12 * np.max(np.abs(r0.coeffs))
    for n in range(3):
        state, _ = lie_step(state, problem, schedule.radii)
        threshold = min(3 + 2 ** (state.n + 1), 65)
        low = np.abs(state.r.coeffs[:threshold])
        assert np.all(low <= floor)


def test_a_reused_mather_problem_runs_as_a_fresh_one():
    # the membership floor is read from each run's seed, not frozen on the
    # first series the problem saw: after a run on 1e-12 z^7, a floor of
    # 1e-24 refused the dust of a 1e-4 seed ("r_{n+1} left M")
    def outcome(problem, r0):
        try:
            return _certified_run(problem, r0, 0.8, 4)[0].to_json()
        except LieError as exc:
            return repr(exc)

    f = monomial(3, 1.0)
    reused = mather_problem(f)
    outcome(reused, monomial(7, 1e-12))
    rng = np.random.default_rng(0)
    for _ in range(8):
        r0 = monomial(7, rng.uniform(0.5, 1.5) * 1e-4 * rng.choice((-1, 1)))
        assert outcome(reused, r0) == outcome(mather_problem(f), r0)


# ---- the schedule memo ----

def _schedule_value(schedule):
    """Everything a schedule holds, comparable by value."""
    radii = schedule.radii
    return (schedule.rho.to_json(), schedule.sigma.to_json(),
            schedule.b.to_json(), schedule.report, radii.kind,
            radii._log_radii.tobytes(),
            tuple(radii.radius(n).hex() for n in range(80)))


def _schedule_outcome(call):
    try:
        return _schedule_value(call())
    except LieError as exc:
        return repr(exc)


def test_certified_demos_write_the_same_trace_whatever_the_memo_holds():
    f3 = monomial(3, 1.0)
    demos._SCHEDULES.clear()
    cold = {"morse": morse().trace.to_json(),
            "mather": mather().trace.to_json()}
    rng = np.random.default_rng(4)
    for _ in range(3):      # other seeds of the same problems
        morse(r0=monomial(3, rng.uniform(0.5, 1.5) * 1e-3))
        mather(r0=monomial(7, rng.uniform(0.5, 1.5) * 1e-4))
    # other problems: another |j|, another t, another cap and base point
    _certified_run(morse_problem(j_const=5.0), monomial(3, 1e-4), 1.0, 3)
    morse(t=0.9)
    mather(f=f3 + monomial(5, 1.0), r0=monomial(9, 1e-4))
    morse(cap=128)
    assert morse().trace.to_json() == cold["morse"]
    assert mather().trace.to_json() == cold["mather"]
    demos._SCHEDULES.clear()
    assert mather().trace.to_json() == cold["mather"]
    assert morse().trace.to_json() == cold["morse"]


def _pi(norm):
    return LocalOperator(lambda g, t, s: g, WeightFunction(k=0), norm,
                         kind="projector")


@pytest.mark.parametrize("change", [
    {"j_norms": PositiveSequence.constant(9.0)},
    {"kappa_norms": PositiveSequence.constant(1.0)},
    {"exponents": LocalityExponents(alpha=0, beta=1, gamma=1, nu=0, xi=0)},
    {"exponents": LocalityExponents(alpha=0, beta=0, gamma=1, nu=1, xi=0)},
    {"projector": _pi(1.0)},
    {"f": TruncatedSeries.monomial(2, 1.5, cap=64, ref_radius=1.0)},
    {"t": 0.9},
], ids=["j", "kappa", "exponent-k", "exponent-l", "projector", "tau0", "t"])
def test_a_problem_differing_in_one_key_field_gets_its_own_schedule(change):
    base = morse_problem()
    change = dict(change)
    t = change.pop("t", 1.0)
    other = dataclasses.replace(base, **change)
    demos._tuned_schedule(base, 1.0)                  # the memo holds base
    got = _schedule_outcome(lambda: demos._tuned_schedule(other, t))
    want = _schedule_outcome(lambda: rho_schedule(other, STRICT_B, t))
    assert got == want
    assert got != _schedule_value(demos._tuned_schedule(base, 1.0))
    # and a second lookup, now from the memo, still reads the same
    assert _schedule_outcome(lambda: demos._tuned_schedule(other, t)) == want


def test_the_projector_norm_and_the_base_point_value_are_in_the_key():
    with_pi = dataclasses.replace(morse_problem(), projector=_pi(1.0))
    other_pi = dataclasses.replace(with_pi, projector=_pi(2.0))
    demos._tuned_schedule(with_pi, 1.0)
    assert _schedule_value(demos._tuned_schedule(other_pi, 1.0)) \
        == _schedule_value(rho_schedule(other_pi, STRICT_B, 1.0)) \
        != _schedule_value(demos._tuned_schedule(with_pi, 1.0))
    # the cap is not: f = z^2 at caps 64 and 128 has the same |f|_t
    assert demos._tuned_schedule(morse_problem(cap=128), 1.0) \
        is demos._tuned_schedule(morse_problem(), 1.0)
    # lie.rho_schedule itself tunes afresh on every call
    assert rho_schedule(with_pi, STRICT_B, 1.0) \
        is not rho_schedule(with_pi, STRICT_B, 1.0)


def test_a_kept_schedule_is_read_only():
    schedule = demos._tuned_schedule(morse_problem(), 1.0)
    log_radii = schedule.radii._log_radii
    assert not log_radii.flags.writeable
    with pytest.raises(ValueError):
        log_radii[1] = 0.0


@pytest.mark.parametrize("problem, t", [
    (morse_problem(), 0.0),
    (morse_problem(), -1.0),
    (morse_problem(), math.nan),
    (morse_problem(), 1.5),
    (morse_problem(cap=16), 2.0),
    (dataclasses.replace(morse_problem(),
                         j_norms=PositiveSequence.exp_power(1, 2.0)), 1.0),
], ids=["t=0", "t<0", "t=nan", "t above f's radius", "cap 16",
        "non-summable j"])
def test_refusals_keep_their_type_and_message(problem, t):
    with pytest.raises(LieError) as direct:
        rho_schedule(problem, STRICT_B, t)
    for _ in range(2):      # a refusal is not kept
        with pytest.raises(LieError) as run:
            _certified_run(problem, monomial(3, 1e-4), t, 3)
        assert str(run.value) == str(direct.value)


def test_the_memo_keeps_a_fixed_number_of_schedules():
    problem = morse_problem(cap=16)
    for t in np.linspace(0.5, 1.0, 100):
        demos._tuned_schedule(problem, float(t))
    assert len(demos._SCHEDULES) == demos._SCHEDULES_KEPT
    assert next(reversed(demos._SCHEDULES))[-1] == 1.0


def test_mather_zero_perturbation_is_identity():
    rep = mather(r0=TruncatedSeries(1, 64, 1.0, "taylor"))
    assert rep.converged
    assert rep.residual == 0.0


def test_mather_dense_base_point():
    f = monomial(3, 1.0) + monomial(5, 1.0)
    rep = mather(f=f, r0=monomial(9, 1e-4))
    assert rep.converged
    assert rep.residual <= 1e-8
    assert rep.certificate.verdict == "certified"


def _halving_reciprocal(f):
    """The coefficients of z^(k-1) / f' as mather_problem once found
    them: halve the radius from f's own until the reciprocal of the unit
    f' / (lead z^(k-1)) is computable, at most 80 times (None if never)."""
    k, cap = f.order(), f.cap
    fp = f.derivative(0)
    lead = fp.coefficient(k - 1)
    unit_c = np.zeros(cap + 1, dtype=complex)
    unit_c[:cap + 2 - k] = fp.coeffs[k - 1:] / lead
    radius = f.ref_radius
    for _ in range(80):
        try:
            unit = TruncatedSeries(1, cap, radius, "taylor", unit_c)
            return unit.reciprocal().coeffs / lead
        except SeriesError:
            radius *= 0.5
    return None


def _rec_c(problem):
    """The reciprocal coefficients the problem's step fields divide by."""
    qi = problem.quasi_inverse
    return qi.__closure__[qi.__code__.co_freevars.index("rec_c")] \
        .cell_contents


def test_mather_reciprocal_is_the_halving_search_bit_for_bit():
    rng = np.random.default_rng(34)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        cap = int(rng.choice((3, 5, 8, 16, 33, 64)))
        cap = max(cap, k)
        c = rng.normal(size=cap + 1) + 1j * rng.normal(size=cap + 1)
        c[:k] = 0.0
        c *= 10.0 ** rng.uniform(-2.0, 2.0, size=cap + 1)
        f = TruncatedSeries(1, cap, float(rng.choice((0.3, 1.0, 2.5))),
                            "taylor", c)
        want = _halving_reciprocal(f)
        if want is None:
            with pytest.raises(LieError, match="not invertible"):
                mather_problem(f)
            continue
        got = _rec_c(mather_problem(f))
        assert got.tobytes() == want.tobytes()


def test_mather_refuses_a_unit_without_a_finite_reciprocal():
    for a in (1e5, 1e200):      # P = 1/(1 + c z) overflows at cap 64
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(LieError, match="not invertible near the"):
            mather_problem(monomial(3, 1.0) + monomial(4, a))
    f = monomial(3, 1.0)
    f.coeffs[5] = math.inf      # f' = 3 z^2 + (inf + nan i) z^4: S is nan
    with np.errstate(invalid="ignore"), \
            pytest.raises(LieError, match="not invertible near the origin"):
        mather_problem(f)


def test_mather_rejects_vanishing_derivative():
    flat = TruncatedSeries(1, 64, 1.0, "taylor")
    flat.coeffs[0] = 2.0
    with pytest.raises(LieError):
        mather(f=flat)
    with pytest.raises(LieError):
        mather_problem(monomial(1, 1.0))


def test_mather_rejects_shallow_seed():
    with pytest.raises(LieError, match="not in M"):
        mather(r0=monomial(3, 1e-4))


# ---- circle rotations ----

def test_circle_default_run():
    rep = circle()
    assert rep.converged
    assert rep.residual <= 1e-8
    radii = [rec.radius for rec in rep.trace.steps]
    assert radii[0] == 0.5 and radii[-1] > 0.2
    norms = [rec.value_norm for rec in rep.trace.steps]
    for a, b in zip(norms, norms[1:]):
        if a > 0.0:
            assert b <= 0.5 * a
    assert all(rec.checks_passed for rec in rep.trace.steps)


def test_circle_zero_perturbation_is_identity():
    rep = circle(f=TruncatedSeries(1, 64, 0.5, "fourier"))
    assert rep.converged
    assert rep.residual == 0.0
    assert rep.details["lambda_correction"] == 0.0


def test_circle_single_mode_one_step():
    eps = 1e-3
    f = TruncatedSeries.fourier_mode(1, eps, cap=64, strip=0.5)
    rep = circle(f=f, steps=1)
    sigma = math.sqrt(2.0 * math.pi * GOLDEN_MEAN) / math.e
    envelope = 2.0 * (eps * math.exp(0.5) / sigma) ** 2
    assert rep.trace.steps[1].value_norm <= envelope
    assert rep.details["one_step_envelope"] == pytest.approx(envelope)


def test_circle_lambda_correction_is_second_order():
    """The frequency shift for eps * 2 cos x is -eps^2/(2 pi omega) to
    leading order: the mean of -m^2 tau / 2 with m = r / (2 pi omega)."""
    eps = 1e-3
    rep = circle(eps=eps)
    predicted = -eps ** 2 / (2.0 * math.pi * GOLDEN_MEAN)
    assert rep.details["lambda_correction"] == pytest.approx(predicted,
                                                             rel=1e-4)


_RESONANT = (0.75, 0.5, 0.3, 0.1)


def test_circle_resonant_frequencies_match_the_closed_form():
    """The step divides by the mean, never by e^(2 pi i k omega) - 1, so
    a rational omega converges, and lambda is (sqrt(a^2 - b^2) - a) / 2
    with a = 2 pi omega, b = 2 eps, to a few ulps of a."""
    mpmath = pytest.importorskip("mpmath")
    eps = 1e-3
    for omega in _RESONANT:
        rep = circle(omega=omega, eps=eps)
        assert rep.converged, omega
        assert rep.residual <= 1e-18, omega
        a = 2.0 * math.pi * omega
        with mpmath.workdps(50):
            ma, mb = mpmath.mpf(a), 2 * mpmath.mpf(eps)
            exact = (mpmath.sqrt(ma * ma - mb * mb) - ma) / 2
            err = abs(mpmath.mpf(rep.details["lambda_correction"]) - exact)
        assert err <= 4 * np.spacing(a), (omega, float(err))


def test_circle_step_norm_is_bounded_by_the_declared_j():
    # |u_n| <= |j_n| |r_n| on every row: the step divides the band of
    # r_n by a mean of modulus at least pi omega
    for omega in (GOLDEN_MEAN,) + _RESONANT:
        rep = circle(omega=omega)
        j = circle_problem(omega).j_norms
        rows = rep.trace.steps
        for n, (now, nxt) in enumerate(zip(rows, rows[1:])):
            assert nxt.aux_norm <= j.value(n) * now.value_norm, (omega, n)


def test_circle_rejects_nonzero_mean():
    f = TruncatedSeries.fourier_mode(0, 1e-3, cap=64, strip=0.5)
    with pytest.raises(LieError, match="zero mean"):
        circle(f=f)


def test_circle_golden_constants_hold_on_window():
    """dist(k omega, Z) >= C / k for the golden mean across every mode
    the 8-step run can touch, with equality only at k = 1."""
    for k in range(1, 257):
        dist = abs(k * GOLDEN_MEAN - round(k * GOLDEN_MEAN))
        assert dist * k >= GOLDEN_C * (1.0 - 1e-9)


def test_circle_step_refuses_a_mean_below_pi_omega():
    omega = 0.3
    problem = circle_problem(omega)
    assert problem.j_norms.value(7) == 1.0 / (math.pi * omega)
    r = TruncatedSeries.fourier_mode(1, 1e-3, cap=64, strip=0.5)
    for mean in (math.pi * omega, -math.pi * omega, 2.0 * math.pi * omega):
        tau = TruncatedSeries.fourier_mode(0, mean, cap=64, strip=0.5)
        problem.quasi_inverse(0, tau, r)
    below = math.nextafter(math.pi * omega, 0.0)
    tau = TruncatedSeries.fourier_mode(0, below, cap=64, strip=0.5)
    with pytest.raises(LieError, match="below pi omega"):
        problem.quasi_inverse(0, tau, r)


# ---- one Borel chain per run ----

def _capturing_run_lie(monkeypatch):
    """Wrap demos.run_lie, keep its arguments and conjugacy, and count
    the exp, borel_apply and ExponentialProduct.apply calls."""
    import banachscale.demos as demos
    import banachscale.lie as lie
    import banachscale.local_ops as local_ops
    seen = {"args": [], "conjugacy": [], "exp": 0, "borel": 0, "apply": 0}
    real_run_lie, real_exp = demos.run_lie, local_ops.exp
    real_borel = local_ops.borel_apply
    real_apply = local_ops.ExponentialProduct.apply

    def run_lie(*args, **kwargs):
        trace, conjugacy = real_run_lie(*args, **kwargs)
        seen["args"].append(args)
        seen["conjugacy"].append(conjugacy)
        return trace, conjugacy

    def counted_exp(*args):
        seen["exp"] += 1
        return real_exp(*args)

    def counted_borel(*args, **kwargs):
        seen["borel"] += 1
        return real_borel(*args, **kwargs)

    def counted_apply(self, g):
        seen["apply"] += 1
        return real_apply(self, g)
    monkeypatch.setattr(demos, "run_lie", run_lie)
    monkeypatch.setattr(local_ops, "exp", counted_exp)
    monkeypatch.setattr(local_ops, "borel_apply", counted_borel)
    monkeypatch.setattr(lie, "borel_apply", counted_borel)
    monkeypatch.setattr(local_ops.ExponentialProduct, "apply", counted_apply)
    return seen


@pytest.mark.parametrize("demo, per_step", [(morse, 3), (mather, 3),
                                            (circle, 4)],
                         ids=["morse", "mather", "circle"])
def test_demo_runs_no_separate_conjugacy_chain(monkeypatch, demo, per_step):
    # phi, exp(-u) kappa and the carried image per step, plus psi where a
    # projector exists; g(x_0) comes from the steps, never from exp or
    # from applying the product
    seen = _capturing_run_lie(monkeypatch)
    rep = demo()
    (conjugacy,) = seen["conjugacy"]
    steps = len(rep.trace.steps) - 1
    assert steps == len(conjugacy.operators) > 0
    assert seen["exp"] == 0
    assert seen["apply"] == 0
    assert seen["borel"] == per_step * steps


def _start(problem, schedule, r0):
    """The x_0 = tau_0 + r_0 a run starts from, tail included."""
    radii = getattr(schedule, "radii", schedule)
    t = radii.radius(0)
    return problem.f.restrict(t) + r0.restrict(t)


def _fresh_image(seen):
    """The run's conjugacy and a fresh application of its chain to x_0."""
    from banachscale.local_ops import product_of_exponentials
    (conjugacy,) = seen["conjugacy"]
    problem, schedule, r0, _ = seen["args"][0]
    fresh = product_of_exponentials(conjugacy.operators, conjugacy.radii)
    return conjugacy, fresh, fresh.apply(_start(problem, schedule, r0))


def _tailed_morse_seed():
    r0 = monomial(3, 1e-3)
    r0.set_coefficient(4, -5e-4)
    r0.tail = 1e-9
    return r0


@pytest.mark.parametrize("run", [
    lambda: morse(cap=64), lambda: morse(cap=128),
    lambda: mather(cap=64), lambda: mather(cap=128),
    lambda: circle(cap=64), lambda: circle(cap=128),
    lambda: morse(r0=_tailed_morse_seed()),
], ids=["morse64", "morse128", "mather64", "mather128", "circle64",
        "circle128", "morse-tailed"])
def test_carried_image_is_the_conjugacy_chain(monkeypatch, run):
    seen = _capturing_run_lie(monkeypatch)
    rep = run()
    conjugacy, _, (want, want_rem) = _fresh_image(seen)
    assert conjugacy.operators
    gx, g_rem = conjugacy.image
    assert gx.to_json() == want.to_json()
    assert g_rem.hex() == want_rem.hex()
    meta = rep.trace.metadata
    last = rep.trace.steps[-1].extra["consistency_defect"]
    assert last.hex() == meta["conjugacy_coeff_defect"].hex()
    assert meta["consistency_worst"] >= last


def test_morse_tailed_seed_normalization_defect_is_recomputed(monkeypatch):
    # the carried image starts from tau + r_0 with r_0's tail, before that
    # tail moves to the slack ledger
    from banachscale.demos import _normalization_defect
    seen = _capturing_run_lie(monkeypatch)
    rep = morse(r0=_tailed_morse_seed())
    conjugacy, fresh, (want, want_rem) = _fresh_image(seen)
    gx, g_rem = conjugacy.image
    assert gx.to_json() == want.to_json()
    assert g_rem.hex() == want_rem.hex()
    fresh.image = (want, want_rem)
    defect = _normalization_defect(fresh, morse_problem().f, 1.0,
                                   rep.trace.metadata["limit_radius"])
    assert rep.details["normalization_defect"].hex() == defect.hex()


def test_circle_cap_128_stops_its_borel_series_at_rounding(monkeypatch):
    # Fourier iterates never vanish exactly; the parent convolved them to
    # underflow, about 780 multiplication-operator terms per run
    import banachscale.demos as demos
    real = demos.multiplication_operator
    terms = []

    def counted(m, name=""):
        op = real(m, name=name)
        action = op.action

        def counting(f, t, s):
            terms.append(1)
            return action(f, t, s)
        op.action = counting
        return op
    monkeypatch.setattr(demos, "multiplication_operator", counted)
    rep = circle(cap=128)
    assert rep.converged
    assert 0 < len(terms) <= 150
