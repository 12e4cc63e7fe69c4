"""Seeded inputs and the fixed operation lists of the three workloads.

`build(workload, seed)` returns the ordered op list of one round.  Every
round of a run repeats the same list, so each run attempts whole rounds
of the same operations.  The seed only chooses input values; the kinds,
counts, caps and depths of the ops are fixed, so the amount of work per
round barely depends on the seed.

Counts are chosen so that, sorted by time, neither the median nor the
90th percentile op sits at the edge between two op kinds of very
different cost (see README.md for the positions).

The program sees only the generated inputs: series, sequences and CLI
argument lists.  The benchmark calls the library through module
attributes (``demos.morse``, not an imported name), so the tracer's
patches of those attributes are seen here too.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from banachscale import cli, demos, iterate, lie, local_ops, sequences
from banachscale.sequences import PositiveSequence
from banachscale.series import TruncatedSeries

import checks

WORKLOADS = ("engines", "products", "schedules")

# The strict envelope b_n = e^(-1.5^n) the shipped demos tune against.
STRICT_B = PositiveSequence.exp_power(-1, 1.5)


class OpFailed(Exception):
    """The program ran but did not converge or could not certify its
    answer (a CLI exit code other than 0); the op counts as failed."""


@dataclass
class Op:
    """One closed-loop operation.

    run() is the timed call and returns the program's output; canon()
    turns that output into the bytes compared across repeated rounds;
    check() compares it with a reference computed apart from the
    program and raises checks.CheckError on a mismatch.
    """

    kind: str
    run: Callable[[], Any]
    canon: Callable[[Any], bytes]
    check: Callable[[Any], None]


def _json_bytes(out) -> bytes:
    return out[1].encode()


def _series_bytes(out: TruncatedSeries) -> bytes:
    return out.to_json().encode()


# ---- engines ----

def _demo_op(kind, call, check):
    def run():
        report = call()
        refused = (report.certificate is not None
                   and report.certificate.verdict != "certified")
        if not report.converged or refused:
            raise OpFailed(f"{kind}: {report.trace.status}, not certified")
        return report, report.trace.to_json()
    return Op(kind, run, _json_bytes, lambda out: check(out, call))


def _morse_op(r0, cap, *, check_orders=False):
    call = ((lambda: demos.morse(cap=cap)) if r0 is None
            else (lambda: demos.morse(r0=r0, cap=cap)))
    if r0 is None:
        r0 = TruncatedSeries.monomial(3, 1e-3, cap=cap, ref_radius=1.0)
    kind = f"morse/{cap}" + ("/default" if check_orders else "")

    def check(out, replay):
        checks.lie_conjugacy(out, replay, r0, k=2, t=1.0)
        if check_orders:
            checks.morse_orders(out[0])
    return _demo_op(kind, call, check)


def _mather_op(r0, cap, *, default=False):
    f = TruncatedSeries.monomial(3, 1.0, cap=cap, ref_radius=1.0)
    if default:
        r0 = TruncatedSeries.monomial(7, 1e-4, cap=cap, ref_radius=1.0)
    call = ((lambda: demos.mather(cap=cap)) if default
            else (lambda: demos.mather(f=f, r0=r0, cap=cap)))
    kind = f"mather/{cap}" + ("/default" if default else "")

    def check(out, replay):
        checks.lie_conjugacy(out, replay, r0, k=3, t=0.8)
    return _demo_op(kind, call, check)


def _circle_op(eps, cap):
    def call():
        return demos.circle(eps=eps, cap=cap)

    def check(out, replay):
        checks.circle_correction(out[0], eps)
    return _demo_op(f"circle/{cap}", call, check)


def _nashmoser_op(coeff, cap=64):
    """The CLI's canned Nash-Moser problem u + u^2 = c z."""
    def f(u):
        return u + u.multiply(u)

    def j(u):
        one = TruncatedSeries.monomial(0, 1.0, cap=u.cap,
                                       ref_radius=u.ref_radius)
        return local_ops.multiplication_operator(
            (one + u.scale(2.0)).reciprocal())

    schedule = iterate.RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = TruncatedSeries.monomial(1, coeff, cap=cap, ref_radius=1.0)
    x0 = TruncatedSeries.zero(1, cap, 1.0)

    def run():
        trace = iterate.nash_moser(f, j, (0, 0, 0, 0), schedule, x0, y,
                                   steps=8, j_const=2.0, d2f_const=1.0)
        if not (trace.certified and trace.status == "converged"):
            raise OpFailed(f"nashmoser c={coeff!r}: {trace.status}")
        return trace, trace.to_json()
    return Op(f"nashmoser/{cap}", run, _json_bytes,
              lambda out: checks.nashmoser(out[0], coeff))


def _morse_seed(rng, cap):
    """Perturbation with random coefficients of orders 3..6, size 1e-3."""
    c = np.zeros(cap + 1, dtype=complex)
    c[3:7] = rng.uniform(-1.0, 1.0, 4) * 1e-3
    return TruncatedSeries(1, cap, 1.0, "taylor", c)


def _mather_seed(rng, cap):
    """Order-8 monomial of size about 1e-4 (see README: order 7 is only
    run at the shipped default coefficient)."""
    c = np.zeros(cap + 1, dtype=complex)
    c[8] = rng.uniform(0.5, 1.5) * 1e-4 * rng.choice((-1.0, 1.0))
    return TruncatedSeries(1, cap, 1.0, "taylor", c)


def _engines(rng) -> list[Op]:
    groups = [
        [_nashmoser_op(float(rng.uniform(0.005, 0.015))) for _ in range(6)],
        [_mather_op(None, 64, default=True)]
        + [_mather_op(_mather_seed(rng, 64), 64) for _ in range(5)],
        [_morse_op(None, 64, check_orders=True)]
        + [_morse_op(_morse_seed(rng, 64), 64) for _ in range(9)],
        [_circle_op(float(rng.uniform(2e-4, 2e-3)), 64) for _ in range(6)],
        [_mather_op(_mather_seed(rng, 128), 128) for _ in range(4)],
        [_morse_op(_morse_seed(rng, 128), 128) for _ in range(5)],
        [_circle_op(float(rng.uniform(2e-4, 2e-3)), 128) for _ in range(5)],
    ]
    return _interleave(groups)


# ---- products ----

def decaying_series(rng, dim: int, cap: int, q: float = 0.1
                    ) -> TruncatedSeries:
    """Unit constant term and complex coefficients of size <= q^|I|, so
    |1 - f/f(0)| <= (1 - q)^-dim - 1 < 1 at radius 1 (dim <= 3)."""
    shape = (cap + 1,) * dim
    deg = np.indices(shape).sum(axis=0)
    c = (rng.uniform(-1.0, 1.0, shape)
         + 1j * rng.uniform(-1.0, 1.0, shape)) / math.sqrt(2.0)
    c *= np.power(q, deg, dtype=float)
    c[(0,) * dim] = 1.0
    c[deg > cap] = 0.0
    return TruncatedSeries(dim, cap, 1.0, "taylor", c)


def _multiply_op(rng, dim, cap):
    a = decaying_series(rng, dim, cap)
    b = decaying_series(rng, dim, cap)
    return Op(f"multiply/d{dim}c{cap}", lambda: a.multiply(b), _series_bytes,
              lambda out: checks.product(a, b, out))


def _reciprocal_op(rng, dim, cap):
    a = decaying_series(rng, dim, cap)
    # look the method up at call time, so a traced round sees the wrapper
    return Op(f"reciprocal/d{dim}c{cap}", lambda: a.reciprocal(),
              _series_bytes, lambda out: checks.reciprocal(a, out))


def _products(rng) -> list[Op]:
    groups = [
        [_multiply_op(rng, 2, 16) for _ in range(12)],
        [_multiply_op(rng, 3, 8) for _ in range(26)],
        [_multiply_op(rng, 2, 32) for _ in range(4)],
        [_reciprocal_op(rng, 2, 16) for _ in range(6)],
        [_reciprocal_op(rng, 3, 8)],
        [_multiply_op(rng, 3, 16)],
    ]
    return _interleave(groups)


# ---- schedules ----

def run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process `banachscale ARGV`: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(kind, argv, check):
    def run():
        code, text = run_cli(argv)
        if code != 0:
            raise OpFailed(f"banachscale {' '.join(argv)} exited {code}")
        return text
    return Op(f"cli/{kind}", run, str.encode, check)


def _bruno_transform_op(rng, i):
    n = int(rng.integers(0, 6))
    if i % 2 == 0:
        q = float(rng.uniform(1.5, 4.0))
        argv = ["bruno", "transform", "--family", "geometric",
                "--q", repr(q), "--n", str(n)]
        family = ("geometric", q)
    else:
        alpha = float(rng.uniform(1.1, 1.8))
        argv = ["bruno", "transform", "--family", "exp_power",
                "--alpha", repr(alpha), "--n", str(n)]
        family = ("exp_power", alpha)
    return _cli_op("bruno-transform", argv,
                   lambda text: checks.bruno_transform_text(text, family, n))


def _bruno_check_op(rng):
    q = float(rng.uniform(1.5, 4.0))
    argv = ["bruno", "check", "--family", "geometric", "--q", repr(q)]
    return _cli_op("bruno-check", argv,
                   lambda text: checks.bruno_check_text(text, q))


def _tame_pair(rng):
    alpha = float(rng.uniform(1.1, 1.3))
    scale = float(rng.uniform(0.05, 0.2))
    return alpha, scale


def _tame_op(rng):
    alpha, scale = _tame_pair(rng)
    argv = ["tame", "--a", f"exp_power:{alpha!r}", "--b", "exp_power:-1.5",
            "--scale-b", repr(scale)]
    return _cli_op("tame", argv,
                   lambda text: checks.tame_text(text, alpha, scale))


def _model_op(rng):
    alpha, scale = _tame_pair(rng)
    x0 = float(rng.uniform(0.1, 0.9)) * scale / math.e
    argv = ["model", "--a", f"exp_power:{alpha!r}", "--b", "exp_power:-1.5",
            "--scale-b", repr(scale), "--x0", repr(x0)]
    return _cli_op("model", argv,
                   lambda text: checks.model_text(text, alpha, scale, x0))


def _lemma_inputs(rng):
    if rng.uniform() < 0.5:
        a = ("geometric", float(rng.uniform(1.5, 4.0)))
    else:
        a = ("exp_power", float(rng.uniform(1.1, 1.5)))
    aprime = float(rng.uniform(1.0, 4.0))
    beta = float(rng.uniform(1.5, 1.9))
    k = int(rng.integers(2, 9))
    l = int(rng.integers(1, 4))
    return a, aprime, beta, k, l


def _sequence(spec):
    family, x = spec
    if family == "geometric":
        return PositiveSequence.geometric(x)
    return PositiveSequence.exp_power(1, x)


def _cli_rho_op(rng):
    a, aprime, beta, k, l = _lemma_inputs(rng)
    a_spec = f"{a[0]}:{a[1]!r}"
    argv = ["rho", "--a", a_spec, "--aprime", f"constant:{aprime!r}",
            "--b", f"exp_power:{-beta!r}", "--k", str(k), "--l", str(l)]
    return _cli_op("rho", argv, checks.rho_text)


def _lemma_rho_op(rng):
    a, aprime, beta, k, l = _lemma_inputs(rng)
    args = (_sequence(a), PositiveSequence.constant(aprime),
            PositiveSequence.exp_power(-1, beta), k, l)

    def canon(out):
        rho, sigma, report = out
        return (rho.to_json() + sigma.to_json() + repr(report)).encode()
    return Op("lemma_rho", lambda: sequences.lemma_rho(*args), canon,
              lambda out: checks.lemma_rho(out, a, aprime, beta, k, l))


def _rho_schedule_op(rng, base):
    j_const = float(rng.uniform(4.0, 20.0))
    t = float(rng.uniform(0.6, 1.0))
    if base == "morse":
        problem = demos.morse_problem(cap=64, j_const=j_const)
    else:
        f = TruncatedSeries.monomial(3, 1.0, cap=64, ref_radius=1.0)
        problem = demos.mather_problem(f, j_const=j_const)

    def canon(out):
        return (out.rho.to_json() + out.sigma.to_json()
                + repr(out.report)).encode()
    return Op(f"rho_schedule/{base}",
              lambda: lie.rho_schedule(problem, STRICT_B, t), canon,
              lambda out: checks.rho_schedule(out, problem, j_const, t))


def _taming_op(rng, depth):
    spec = (("geometric", float(rng.uniform(1.5, 4.0)))
            if rng.uniform() < 0.5
            else ("exp_power", float(rng.uniform(1.1, 1.8))))
    seq = _sequence(spec)
    return Op(f"taming/{depth}",
              lambda: sequences.taming_epsilon_log(seq, depth),
              lambda out: repr(out).encode(),
              lambda out: checks.taming(out, spec, depth))


def _schedules(rng) -> list[Op]:
    groups = [
        [_bruno_transform_op(rng, i) for i in range(3)],
        [_bruno_check_op(rng)],
        [_tame_op(rng) for _ in range(2)],
        [_model_op(rng) for _ in range(2)],
        [_rho_schedule_op(rng, "morse") for _ in range(2)],
        [_rho_schedule_op(rng, "mather") for _ in range(2)],
        [_lemma_rho_op(rng) for _ in range(16)],
        [_cli_rho_op(rng) for _ in range(4)],
        [_taming_op(rng, 240) for _ in range(8)],
    ]
    return _interleave(groups)


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the groups, so that no op kind runs in one
    long stretch of the round."""
    out = []
    width = max(len(g) for g in groups)
    for i in range(width):
        out.extend(g[i] for g in groups if i < len(g))
    return out


def build(workload: str, seed: int) -> list[Op]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {"engines": _engines, "products": _products,
            "schedules": _schedules}[workload](rng)
