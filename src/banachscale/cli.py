"""Command-line surface over the sequence checks and iteration engines.

Every subcommand prints a short human-readable summary (floats with 17
significant digits), optionally writes the run trace as CSV and/or
JSON, and exits with a three-way contract:

* 0: the run completed and its certificate holds;
* 2: the run completed but certification failed;
* 1: the input or configuration was rejected before or during the run.

Malformed configuration produces a machine-readable JSON diagnostic on
stderr.  All engines are deterministic, so identical configurations
produce byte-identical trace files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import demos
from .iterate import RadiusSchedule, nash_moser, newton
from .local_ops import multiplication_operator
from .sequences import (PositiveSequence, SequenceDomainError, bruno_check,
                        bruno_transform, lemma_rho, model_iteration,
                        tame_check)
from .series import TruncatedSeries
from .trace import fmt17


class _NotFinite(Exception):
    """A NaN or inf number; not a ValueError, so argparse passes it up."""


def _finite(text: str) -> float:
    """The type of every float option and sequence argument."""
    if not math.isfinite(value := float(text)):
        raise _NotFinite(f"{text!r} is not a finite number")
    return value


_finite.__name__ = "float"      # argparse's "invalid float value" message
_INPUT_ERRORS = (ValueError, OverflowError, _NotFinite)

OK, UNCERTIFIED, INPUT_ERROR = 0, 2, 1


def _diagnostic(command: str, message: str) -> None:
    print(json.dumps({"error": str(message), "command": command},
                     sort_keys=True), file=sys.stderr)


def parse_sequence(spec: str) -> PositiveSequence:
    """family:args, e.g. geometric:0.5, exp_power:-1.5, constant:2,
    tabulated:1,2,4.  An exp_power argument carries its sign."""
    name, _, arg = spec.partition(":")
    if not arg:
        raise SequenceDomainError(
            f"sequence spec {spec!r} needs family:argument")
    if name == "geometric":
        return PositiveSequence.geometric(_finite(arg))
    if name == "exp_power":
        x = _finite(arg)
        return PositiveSequence.exp_power(1 if x >= 0 else -1, abs(x))
    if name == "constant":
        return PositiveSequence.constant(_finite(arg))
    if name == "tabulated":
        return PositiveSequence.tabulated([_finite(v) for v in arg.split(",")])
    raise SequenceDomainError(f"unknown sequence family {name!r}")


# the flag carrying each `bruno --family` argument, and its usage hint
_FAMILY_FLAGS = {
    "geometric": ("q", "geometric needs --q"),
    "exp_power": ("alpha", "exp_power needs --alpha (signed)"),
    "tabulated": ("values", "tabulated needs --values v1,v2,..."),
}


def _family_from_flags(args) -> PositiveSequence:
    """The `bruno --family` flags as a family:argument spec (a float flag
    prints as its exact repr, so parsing it back is lossless)."""
    flag, hint = _FAMILY_FLAGS[args.family]
    arg = getattr(args, flag)
    if arg is None or arg == "":
        raise SequenceDomainError(hint)
    return parse_sequence(f"{args.family}:{arg}")


_SPAN = 60      # default --depth of `bruno` and --window of `tame`
_STEPS = 100    # default --steps of `model`


def _span(flag: int | None, *seqs: PositiveSequence, start: int = 0,
          default: int = _SPAN) -> int:
    """An explicit --depth/--window/--steps as given; by default `default`,
    shortened so that indices start..start+span stay inside every
    tabulated sequence's own table (an explicit flag past a table still
    fails)."""
    if flag is not None:
        if flag < 0:
            raise SequenceDomainError(f"a span of {flag} terms is negative")
        return flag
    ends = [len(s.params["values"]) - 1 - start for s in seqs
            if s.family == "tabulated"]
    return max(0, min([default, *ends]))


def _scaled(seq: PositiveSequence, factor: float | None) -> PositiveSequence:
    return seq if factor is None else seq.scaled(factor)


def _emit_trace(trace, args) -> None:
    if getattr(args, "csv", None):
        trace.to_csv(args.csv)
    if getattr(args, "json", None):
        trace.to_json(args.json)


# ---- subcommands ----

def _cmd_bruno(args) -> int:
    seq = _family_from_flags(args)
    if args.action == "check":
        cert = bruno_check(seq, depth=_span(args.depth, seq))
        print(f"partial sum {fmt17(cert.partial_sum)}")
        if cert.tail_bound is not None:
            print(f"tail bound {fmt17(cert.tail_bound)} "
                  f"(total {fmt17(cert.total_bound)})")
        print(f"verdict {cert.verdict}")
        return OK if cert.verdict == "bruno" else UNCERTIFIED
    result = bruno_transform(seq, n=args.n,
                             depth=_span(args.depth, seq, start=args.n))
    lo, hi = result.enclosure
    print(f"transform a^pi_{args.n} = {fmt17(result.value)}")
    print(f"enclosure [{fmt17(lo)}, {fmt17(hi)}]")
    print(f"rigorous {result.rigorous}")
    return OK if result.rigorous else UNCERTIFIED


def _cmd_tame(args) -> int:
    a, b = parse_sequence(args.a), parse_sequence(args.b)
    window = _span(args.window, a, b)
    report = tame_check(_scaled(a, args.scale_a), _scaled(b, args.scale_b),
                        window=window)
    star = all(report.star_holds)
    print(f"a >= 1: {report.a_ge_one}")
    print(f"b <= 1: {report.b_le_one}")
    print(f"b -> 0: {report.b_vanishing}")
    print(f"a_n b_n^2 <= b_n+1 on window {report.window}: {star}")
    if report.first_violation is not None:
        print(f"first violation at n = {report.first_violation}")
    ok = star and report.a_ge_one and report.b_le_one and report.b_vanishing
    return OK if ok else UNCERTIFIED


def _cmd_model(args) -> int:
    a = parse_sequence(args.a)
    b = None if args.b is None else parse_sequence(args.b)
    # x_0..x_steps read a_0..a_{steps-1} and b_0..b_steps
    steps = _span(args.steps, a, start=-1, default=_STEPS)
    if b is not None:
        steps = min(steps, _span(args.steps, b, default=_STEPS))
        b = _scaled(b, args.scale_b)
    trace = model_iteration(_scaled(a, args.scale_a), b, args.x0,
                            steps=steps)
    _emit_trace(trace, args)
    last = trace.steps[-1]
    print(f"steps {len(trace.steps) - 1} final x {fmt17(last.value_norm)}")
    print(f"bounded by b: {trace.certified}")
    return OK if trace.certified else UNCERTIFIED


def _cmd_rho(args) -> int:
    a = parse_sequence(args.a)
    aprime = parse_sequence(args.aprime)
    b = parse_sequence(args.b)
    window, depth = _span(args.window), _span(args.depth)
    # lemma_rho tames a a'^2 through the tail bound of its transform, and
    # a table has none whatever the span (a certified divergent input
    # stays an input error, raised by lemma_rho)
    if ((a * aprime ** 2.0).weighted_log_tail(0, depth) is None
            and not (a.divergence_witness() or aprime.divergence_witness())):
        print("a a'^2 has no closed-form tail bound (tabulated data), "
              "so no taming constant is certified")
        return UNCERTIFIED
    rho, sigma, report = lemma_rho(a, aprime, b, args.k, args.l, K=args.K,
                                   alpha=args.alpha, window=window,
                                   depth=depth)
    print(f"K {fmt17(report.K)} after {report.halvings} halvings, "
          f"alpha {fmt17(report.alpha)}")
    print(f"rho_0 {fmt17(rho.value(0))} sigma_0 {fmt17(sigma.value(0))}")
    print(f"pair (*) holds: {all(report.pair_star)}")
    print(f"rho a' sigma^-l < b: {all(report.below_b)}")
    if report.first_failure is not None:
        print(f"first failure at n = {report.first_failure}")
    return OK if report.passed else UNCERTIFIED


def _cmd_newton(args) -> int:
    target = args.target
    if target <= 0:
        raise SequenceDomainError("--target must be positive")
    # square root of target on the ball |x - x0| <= 1: f(x) = x^2,
    # j(x) = 1/(2x), so |j| <= 1/(2(x0-1)) and |D^2 f| = 2 there
    if args.x0 <= 1.0:
        raise SequenceDomainError("--x0 must exceed 1 for the ball bounds")
    m = 1.0 / (2.0 * (args.x0 - 1.0))
    trace = newton(lambda x: x * x, lambda x: 1.0 / (2.0 * x),
                   args.x0, target, m=m, M=2.0, steps=_span(args.steps))
    _emit_trace(trace, args)
    final = trace.metadata["final"]
    true_root = target ** 0.5
    print(f"root {fmt17(final)} after {len(trace.steps)} steps")
    print(f"|x - sqrt(target)| = {fmt17(abs(final - true_root))}")
    print(f"certified {trace.certified} status {trace.status}")
    ok = trace.certified and trace.status == "converged"
    return OK if ok else UNCERTIFIED


def _cmd_nashmoser(args) -> int:
    # canned problem u + u^2 = y with j(u) = multiplication by
    # 1/(1 + 2u), exact right inverse of the derivative
    def f(u):
        return u + u.multiply(u)

    def j(u):
        one = TruncatedSeries.monomial(0, 1.0, cap=u.cap,
                                       ref_radius=u.ref_radius)
        return multiplication_operator((one + u.scale(2.0)).reciprocal())

    schedule = RadiusSchedule.geometric(0.5, 1.0, 0.5)
    y = TruncatedSeries.monomial(1, args.coeff, cap=args.cap, ref_radius=1.0)
    x0 = TruncatedSeries.zero(1, args.cap, 1.0)
    trace = nash_moser(f, j, (0, 0, 0, 0), schedule, x0, y,
                       steps=_span(args.steps), j_const=2.0, d2f_const=1.0)
    _emit_trace(trace, args)
    first = trace.steps[0].increment_norm if trace.steps else None
    print(f"steps used {trace.metadata['steps_used']}")
    print(f"residual at limit {fmt17(trace.metadata['residual_at_limit'])}")
    print(f"bruno gate {fmt17(trace.metadata['bruno_gate'])} "
          f"first increment {fmt17(first)}")
    print(f"certified {trace.certified} status {trace.status}")
    ok = trace.certified and trace.status == "converged"
    return OK if ok else UNCERTIFIED


# the demo flags of `lie` each demo takes (--steps and --cap fit all)
_LIE_FLAGS = {"morse": ("eps", "t"), "mather": ("t",),
              "circle": ("omega", "eps", "strip", "strip_end")}


def _cmd_lie(args) -> int:
    # the demo signatures hold the defaults; pass only what was given,
    # and refuse a flag the chosen demo would not read
    given = {"cap": args.cap}
    if args.steps is not None:
        given["steps"] = _span(args.steps)
    for flag in ("eps", "t", "omega", "strip", "strip_end"):
        if getattr(args, flag) is None:
            continue
        if flag not in _LIE_FLAGS[args.demo]:
            raise SequenceDomainError(
                f"--{flag.replace('_', '-')} does not apply to "
                f"the {args.demo} demo")
        given[flag] = getattr(args, flag)
    report = getattr(demos, args.demo)(**given)
    _emit_trace(report.trace, args)
    print(f"demo {report.name} status {report.trace.status}")
    print(f"residual {fmt17(report.residual)}")
    for key in ("orders", "membership_thresholds", "lambda_correction"):
        if key in report.details:
            val = report.details[key]
            print(f"{key} {fmt17(val) if isinstance(val, float) else val}")
    # why a run is uncertified: a certificate's first refusal, or a
    # radius that stops falling in float (circle has no certificate)
    for failure in report.trace.failures:
        print(f"failure {failure}")
    certified = report.converged and not report.trace.failures
    if report.certificate is not None:
        print(f"verdict {report.certificate.verdict}")
        certified = certified and report.certificate.verdict == "certified"
    return OK if certified else UNCERTIFIED


# ---- parser ----

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `banachscale` parser, built once per process: parsing leaves
    it unchanged, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="banachscale",
        description="certified sequence checks and iteration engines")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_trace_outputs(p):
        p.add_argument("--csv", help="write the run trace as CSV")
        p.add_argument("--json", help="write the run trace as JSON")

    p = sub.add_parser("bruno", help="weighted log-summability checks")
    p.add_argument("action", choices=("check", "transform"))
    p.add_argument("--family", required=True,
                   choices=("geometric", "exp_power", "tabulated"))
    p.add_argument("--q", type=_finite, help="geometric ratio")
    p.add_argument("--alpha", type=_finite, help="signed exp_power exponent")
    p.add_argument("--values", help="comma-separated tabulated values")
    p.add_argument("--depth", type=int,
                   help="last term index (default 60, or a table's end)")
    p.add_argument("--n", type=int, default=0, help="transform start index")
    p.set_defaults(fn=_cmd_bruno)

    p = sub.add_parser("tame", help="check a tame pair (a, b)")
    p.add_argument("--a", required=True, help="family:arg sequence spec")
    p.add_argument("--b", required=True, help="family:arg sequence spec")
    p.add_argument("--scale-a", type=_finite, dest="scale_a")
    p.add_argument("--scale-b", type=_finite, dest="scale_b")
    p.add_argument("--window", type=int,
                   help="pairs checked (default 60, or a table's end)")
    p.set_defaults(fn=_cmd_tame)

    p = sub.add_parser("model", help="run x_{n+1} = (a x^2 + b x)/2")
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--scale-a", type=_finite, dest="scale_a")
    p.add_argument("--scale-b", type=_finite, dest="scale_b")
    p.add_argument("--x0", type=_finite, required=True)
    p.add_argument("--steps", type=int,
                   help="iterations (default 100, or a table's end)")
    add_trace_outputs(p)
    p.set_defaults(fn=_cmd_model)

    p = sub.add_parser("rho", help="tune the contraction sequence rho")
    p.add_argument("--a", required=True)
    p.add_argument("--aprime", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--K", type=_finite)
    p.add_argument("--alpha", type=_finite, default=1.5)
    p.add_argument("--window", type=int, default=40)
    p.add_argument("--depth", type=int, default=60)
    p.set_defaults(fn=_cmd_rho)

    p = sub.add_parser("newton", help="certified square root by Newton")
    p.add_argument("--target", type=_finite, default=2.0)
    p.add_argument("--x0", type=_finite, default=1.5)
    p.add_argument("--steps", type=int, default=40)
    add_trace_outputs(p)
    p.set_defaults(fn=_cmd_newton)

    p = sub.add_parser("nashmoser",
                       help="solve u + u^2 = y on falling radii")
    p.add_argument("--coeff", type=_finite, default=0.01,
                   help="coefficient of the linear target y = c z")
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--cap", type=int, default=64)
    add_trace_outputs(p)
    p.set_defaults(fn=_cmd_nashmoser)

    p = sub.add_parser("lie", help="run a worked conjugation problem")
    p.add_argument("--demo", required=True,
                   choices=("morse", "mather", "circle"))
    p.add_argument("--eps", type=_finite,
                   help="perturbation size (morse and circle 1e-3)")
    p.add_argument("--t", type=_finite,
                   help="starting radius (morse 1.0, mather 0.8)")
    p.add_argument("--steps", type=int)
    p.add_argument("--omega", type=_finite,
                   help="rotation number (circle, golden mean)")
    p.add_argument("--strip", type=_finite,
                   help="starting strip width (circle 0.5)")
    p.add_argument("--strip-end", type=_finite, dest="strip_end",
                   help="limit strip width (circle 0.2)")
    p.add_argument("--cap", type=int, default=64)
    add_trace_outputs(p)
    p.set_defaults(fn=_cmd_lie)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; map to the input-error code
        return INPUT_ERROR if exc.code not in (0, None) else 0
    except _NotFinite as exc:       # the command is the first argument
        _diagnostic((sys.argv[1:] if argv is None else argv)[0], str(exc))
        return INPUT_ERROR
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        _diagnostic(args.command, str(exc))
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
