"""Tests for the worked problems: quadratic, finitely determined, circle."""

import math

import numpy as np
import pytest

from banachscale.cli import main as cli_main
from banachscale.demos import (GOLDEN_C, GOLDEN_MEAN, circle, circle_problem,
                               mather, mather_problem, morse, morse_problem)
from banachscale.lie import LieError, lie_step, LieState, rho_schedule
from banachscale.sequences import PositiveSequence
from banachscale.series import TruncatedSeries

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
