"""Positive sequences, summability certificates and taming constructions.

A `PositiveSequence` is a symbolic family a_0, a_1, ... of positive reals
evaluated in log space throughout: the quantities of interest routinely
reach e^(+-alpha^n) at n ~ 60, far outside float range, while their
logarithms stay tame.  Logs have one evaluator, `_logs`, a walk of the
family tree over a range of indices that stops at the first index the
family refuses (a table's end, a gap's a_n >= 1, an overflowing
alpha^n) and returns that refusal rather than raising it.  `log(n)`,
`log_values` and `log_rows`, which reads several sequences and stops
where an index-by-index loop would, all read it.  Window quantities take
one `log_values` array and one array of closed-form tail bounds per node
of the tree, so a depth-N taming walks each node once per window and
costs O(N) evaluations.

The central summability notion used everywhere downstream: a positive
monotone sequence is *admissible* when

    sum_k |log a_k| / 2^(k+1)  <  infinity.

(`bruno_check` certifies this with a closed-form tail bound where the
family admits one.)  The associated transform

    a^pi_n = prod_{k>=0} a_{k+n}^(-1/2^(k+1))

satisfies the recursion a^pi_{n+1} = a_n (a^pi_n)^2 and a^pi_0 is the
radius gate for the quadratic iteration z' = a_n z^2: starting below it
forces super-exponential decay, starting above forces blow-up.

A pair (a, b) with a >= 1, b <= 1, b -> 0 is *tame* when

    (*)    a_n b_n^2 <= b_{n+1}   for all n,

which makes b_n an invariant envelope for the mixed model iteration
x' = (a_n x^2 + b_n x) / 2.  `taming_epsilon_log` is the log of the
factor that scales an envelope so that (*) holds against a given
admissible a on a window; `lemma_rho` builds the
doubly-exponentially-decaying schedule rho_n = K b_n c_n e^(-alpha^n)
together with its gap sigma_n = 1 - rho_n^(1/2^n) for the Lie scheduler.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .trace import IterationTrace, StepRecord

__all__ = [
    "PositiveSequence",
    "BrunoCertificate",
    "BrunoTransformResult",
    "TamePairReport",
    "LemmaRhoReport",
    "bruno_check",
    "bruno_transform",
    "tame_check",
    "taming_epsilon_log",
    "model_iteration",
    "lemma_rho",
    "log_rows",
]

LOG2 = math.log(2.0)
_MAX_HALVINGS = 64     # K search of lemma_rho: K = 2^-1 ... 2^-64


class SequenceDomainError(ValueError):
    """Raised when an operation's domain precondition fails."""


# ---- sequence families ----

class PositiveSequence:
    """Symbolic positive sequence with log-space evaluation.

    Families: geometric q^n, exp_power e^(sign*alpha^n), tabulated,
    and the closures product, power, (log-)scaled and `gap`.  `log(n)` is
    the primary accessor; `value(n)` may over/underflow and is for display.
    """

    def __init__(self, family: str, **params):
        self.family = family
        self.params = params
        if family == "geometric":
            q = params["q"]
            if not (q > 0):
                raise SequenceDomainError("geometric ratio must be positive")
        elif family == "exp_power":
            if params["sign"] not in (-1, 1):
                raise SequenceDomainError("sign must be +1 or -1")
            if not (params["alpha"] > 0):
                raise SequenceDomainError("alpha must be positive")
        elif family == "tabulated":
            vals = np.asarray(params["values"], dtype=float)
            if vals.size == 0 or not np.all(vals > 0):
                raise SequenceDomainError("tabulated values must be positive")
            if not np.all(np.isfinite(vals)):
                raise SequenceDomainError("tabulated values must be finite")
            self.params = {"values": vals}
        elif family not in ("product", "power", "scaled", "gap"):
            raise SequenceDomainError(f"unknown family {family!r}")
        for key, v in params.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise SequenceDomainError(f"{key} must be finite, got {v!r}")

    # -- constructors --

    @staticmethod
    def geometric(q: float) -> "PositiveSequence":
        return PositiveSequence("geometric", q=float(q))

    @staticmethod
    def exp_power(sign: int, alpha: float) -> "PositiveSequence":
        return PositiveSequence("exp_power", sign=int(sign), alpha=float(alpha))

    @staticmethod
    def tabulated(values) -> "PositiveSequence":
        return PositiveSequence("tabulated", values=values)

    @staticmethod
    def constant(c: float) -> "PositiveSequence":
        return PositiveSequence.geometric(1.0).scaled(c)

    def __mul__(self, other: "PositiveSequence") -> "PositiveSequence":
        return PositiveSequence("product", factors=(self, other))

    def __pow__(self, p: float) -> "PositiveSequence":
        return PositiveSequence("power", base=self, exponent=float(p))

    def scaled(self, factor: float | None = None, *,
               log_factor: float | None = None) -> "PositiveSequence":
        """Multiply the whole sequence by a positive constant.

        The constant may be given in log space so that taming factors far
        below float range stay exact.
        """
        if (factor is None) == (log_factor is None):
            raise SequenceDomainError("give exactly one of factor, log_factor")
        if factor is not None:
            if not (factor > 0):
                raise SequenceDomainError("scale factor must be positive")
            log_factor = math.log(factor)
        return PositiveSequence("scaled", base=self, log_factor=float(log_factor))

    def gap(self) -> "PositiveSequence":
        """sigma_n = 1 - a_n^(1/2^n); an index with a_n >= 1 is refused."""
        return PositiveSequence("gap", base=self)

    # -- evaluation --

    def log(self, n: int) -> float:
        """log a_n, exact up to float rounding: `log_values` at one index."""
        return self.log_values(n, start=n).item()

    def value(self, n: int) -> float:
        """a_n as a float; may overflow to inf or underflow to 0."""
        return exp_or_inf(self.log(n))

    def log_values(self, window: int, start: int = 0) -> np.ndarray:
        """log a_n for n = start..window from one walk of the family tree
        (`log_rows` on this sequence); the first index refused raises."""
        (logs,), error = log_rows([self], start, window + 1)
        if error is not None:
            raise error
        return logs

    def _logs(self, start: int, stop: int
              ) -> tuple[np.ndarray, Exception | None]:
        """(logs, error): log a_start..log a_(m-1), where m is the first
        index the family refuses, or stop, and the exception for m (a
        table's end, a gap's a_m >= 1, an overflowing alpha^m) or None.
        A product stops at its shortest factor and takes the error of
        its first factor that stops there; a gap checks the indices its
        base returned and passes on the base's error.  Leaves use libm
        (numpy's pow and log may differ by an ulp).  Needs 0 <= start <=
        stop; `log_rows` checks that."""
        f, p = self.family, self.params
        if f == "geometric":
            return np.arange(start, stop) * math.log(p["q"]), None
        if f == "exp_power":
            alpha, powers, error = p["alpha"], [], None
            try:    # keeps each alpha^n computed before an overflow
                powers.extend(map(alpha.__pow__, range(start, stop)))
            except OverflowError:
                error = OverflowError(
                    f"exp_power alpha^n overflows a float at index "
                    f"{start + len(powers)} (alpha {alpha!r})")
            return p["sign"] * np.array(powers), error
        if f == "tabulated":
            vals = p["values"]
            logs = np.array([math.log(v) for v in vals[start:stop]])
            if start + len(logs) == stop:
                return logs, None
            return logs, SequenceDomainError(
                f"tabulated sequence has {len(vals)} entries, "
                f"index {start + len(logs)}")
        if f == "product":
            parts, error = _shortest([s._logs(start, stop)
                                      for s in p["factors"]])
            return sum(parts, 0.0), error
        logs, error = p["base"]._logs(start, stop)
        if f == "power":
            return p["exponent"] * logs, error
        if f == "scaled":
            return p["log_factor"] + logs, error
        gap, refusal = _gap_logs(logs, start)       # f == "gap"
        return gap, error if refusal is None else refusal

    # -- closed-form tail bounds --

    def weighted_log_tail(self, offset: int, depth: int) -> float | None:
        """Upper bound for sum_{k>depth} |log a_{k+offset}| / 2^(k+1).

        Returns None when the family admits no closed form (a tabulated
        leaf or a gap, or an exp_power leaf with alpha >= 2).  Bounds compose
        subadditively through products, powers and scalings, so every
        other symbolic family gets one.  This is one offset of
        `_log_tails`, the walk that window quantities take once.
        """
        tails = self._log_tails(np.array([offset], dtype=float), depth)
        return None if tails is None else float(tails[0])

    def _log_tails(self, offsets: np.ndarray, depth: int) -> np.ndarray | None:
        """weighted_log_tail at each offset, from one walk of the family
        tree.  Each node applies the same IEEE operations, in the same
        order, to every offset; exp_power keeps libm's exp per element."""
        f, p, N = self.family, self.params, depth
        if f == "geometric":
            c = abs(math.log(p["q"]))
            # sum_{k>N} (k+offset)/2^(k+1) = (N+offset+2)/2^(N+1)
            return c * (N + offsets + 2.0) * math.pow(2.0, -(N + 1))
        if f == "exp_power":
            alpha = p["alpha"]
            if alpha >= 2.0:
                return None
            # sum_{k>N} alpha^(k+offset)/2^(k+1)
            #   = alpha^offset * (alpha/2)^(N+1) / (2 - alpha)
            logterm = offsets * math.log(alpha) \
                + (N + 1) * math.log(alpha / 2.0) - math.log(2.0 - alpha)
            return np.array([math.exp(x) for x in logterm.tolist()])
        if f in ("tabulated", "gap"):
            return None
        if f == "product":
            total = 0.0
            for s in p["factors"]:
                t = s._log_tails(offsets, depth)
                if t is None:
                    return None
                total = total + t
            return total
        if f == "power":
            t = p["base"]._log_tails(offsets, depth)
            return None if t is None else abs(p["exponent"]) * t
        if f == "scaled":
            t = p["base"]._log_tails(offsets, depth)
            if t is None:
                return None
            # |log(c a_k)| <= |log c| + |log a_k|
            return t + abs(p["log_factor"]) * math.pow(2.0, -(N + 1))
        raise AssertionError(f)

    def divergence_witness(self) -> bool:
        """True when the family alone certifies a divergent weighted log sum.

        Only an exp_power leaf with alpha >= 2 (possibly rescaled or raised
        to a nonzero power) is a witness; products are not, since factors
        may cancel.
        """
        f = self.family
        if f == "exp_power":
            return self.params["alpha"] >= 2.0
        if f == "power":
            return (self.params["exponent"] != 0.0
                    and self.params["base"].divergence_witness())
        if f == "scaled":
            return self.params["base"].divergence_witness()
        return False

    # -- serialization --

    def to_json_dict(self) -> dict:
        d = {"family": self.family}
        for key, v in self.params.items():
            if key == "base":
                v = v.to_json_dict()
            elif key == "factors":
                v = [s.to_json_dict() for s in v]
            elif key == "values":
                v = [float(x) for x in v]
            d[key] = v
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    def __repr__(self) -> str:
        return f"PositiveSequence({self.to_json()})"


def log_rows(seqs: list, start: int, stop: int
             ) -> tuple[list[np.ndarray], Exception | None]:
    """The log values a loop over n = start..stop-1 reads when it calls
    s.log(n) for each sequence s in turn, from one walk per sequence.

    Returns (logs, error): logs holds log s_start..log s_(m-1) of each s,
    where m is the first index some s refuses, or stop; error is that
    refusal (a table's end, a gap's a_m >= 1, an overflowing alpha^m, a
    negative index), from the first s in order that refuses m, or None.
    """
    if start >= stop:
        return [np.empty(0)] * len(seqs), None
    if start < 0:
        return [np.empty(0)] * len(seqs), SequenceDomainError(
            "index must be nonnegative")
    return _shortest([s._logs(start, stop) for s in seqs])


def _shortest(walks: list) -> tuple[list[np.ndarray], Exception | None]:
    """Cut (logs, error) walks to the shortest; its error is the first
    error, in order, of a walk that ends there (None if all are whole)."""
    logs, errors = zip(*walks)
    if errors.count(None) == len(errors):   # no refusal: all are whole
        return list(logs), None
    sizes = [len(walk) for walk in logs]
    size = min(sizes)
    return [walk[:size] for walk in logs], errors[sizes.index(size)]


def exp_or_inf(x: float) -> float:
    """e^x by libm, inf where that overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# ---- summability certificate ----

@dataclass(frozen=True)
class BrunoCertificate:
    """Outcome of the weighted log-sum check.

    partial_sum covers indices 0..depth; tail_bound, when available,
    dominates everything beyond, so partial_sum + tail_bound is a
    certified upper bound for the full sum.
    """

    verdict: str                 # 'bruno' | 'not_bruno' | 'inconclusive'
    partial_sum: float
    depth: int
    tail_bound: float | None

    @property
    def total_bound(self) -> float | None:
        if self.tail_bound is None:
            return None
        return self.partial_sum + self.tail_bound


def bruno_check(a: PositiveSequence, depth: int = 60) -> BrunoCertificate:
    """Certify convergence of sum |log a_k| / 2^(k+1).

    Verdicts: 'bruno' when a closed-form tail bound exists (finite sum),
    'not_bruno' when the family itself witnesses divergence (an
    e^(+-alpha^n) leaf with alpha >= 2 contributes a term >= c > 0 for
    every k), 'inconclusive' otherwise (e.g. tabulated data).
    """
    logs = a.log_values(depth)
    # cumsum adds in k order, as a scalar loop would
    terms = np.abs(logs) * np.ldexp(1.0, -1 - np.arange(len(logs)))
    partial = float(terms.cumsum()[-1]) if terms.size else 0.0
    # a divergence witness has no closed-form tail either
    tail = a.weighted_log_tail(0, depth)
    verdict = ("not_bruno" if a.divergence_witness() else
               "inconclusive" if tail is None else "bruno")
    return BrunoCertificate(verdict, partial, depth, tail)


# ---- transform ----

@dataclass(frozen=True)
class BrunoTransformResult:
    """Truncated transform value with a log-space enclosure.

    log_value = -sum_{k<=depth} log a_{k+n} / 2^(k+1); when the family
    has a closed-form tail bound T the true log lies in
    [log_value - T, log_value] (terms beyond the truncation are >= 0
    since a >= 1), and `rigorous` is True.
    """

    n: int
    depth: int
    log_value: float
    log_lower: float
    rigorous: bool

    @property
    def value(self) -> float:
        return math.exp(self.log_value)

    @property
    def enclosure(self) -> tuple[float, float]:
        lo = math.exp(self.log_lower) if math.isfinite(self.log_lower) else 0.0
        return (lo, math.exp(self.log_value))


def bruno_transform(a: PositiveSequence, n: int = 0,
                    depth: int = 60) -> BrunoTransformResult:
    """Evaluate a^pi_n = prod_{k>=0} a_{k+n}^(-1/2^(k+1)), truncated.

    Requires a >= 1 and nondecreasing on the evaluated window (otherwise
    the one-sided enclosure logic is wrong and we refuse).
    """
    value, lower = _transform_logs(a, a.log_values(n + depth, start=n), n,
                                   depth)
    if lower is None:
        return BrunoTransformResult(n, depth, value.item(), -math.inf, False)
    return BrunoTransformResult(n, depth, value.item(), lower.item(), True)


def _window_hits(flags: np.ndarray, width: int) -> np.ndarray:
    """Whether each run of width consecutive flags holds a True one."""
    seen = np.concatenate(([0], np.cumsum(flags)))
    return seen[width:] > seen[:seen.size - width]


def _transform_logs(a: PositiveSequence, logs: np.ndarray, start: int,
                    depth: int):
    """(log_value, log_lower) of a^pi_n for each n whose depth + 1 factors
    logs holds, logs[0] being log a_start; log_lower is None without a
    closed-form tail.  The first window with some a_k < 1 or a decrease
    is refused, a_k < 1 first as in a per-window check.

    The checks cost O(len(logs)): window n is bad when a prefix count of
    a_k < 1, or of falls, grows across it.  The weighted sums are one
    reduction that adds each window's terms in k order from 0.0, as one
    scalar loop would, so every bit matches it: numpy reduces the leading
    axis of a C-ordered array row by row.  A single window would reduce
    along its contiguous axis, which numpy sums pairwise, so it takes
    cumsum, which is sequential.  cumsum starts from the first term, not
    from 0.0; that can flip only the sign of a zero sum, and adding the
    pad erases the sign.
    """
    if depth < 0:
        raise SequenceDomainError("depth must be nonnegative")
    n_win = len(logs) - depth
    below_one = _window_hits(logs < 0.0, depth + 1)
    falls = _window_hits(logs[1:] < logs[:-1], depth)
    bad = np.flatnonzero(below_one | falls)
    if bad.size:
        raise SequenceDomainError(
            "transform needs a_k >= 1 on the window" if below_one[bad[0]]
            else "transform needs a nondecreasing on the window")
    # row k holds log a_{start+n+k} for every window n, times 2^-(k+1)
    terms = np.lib.stride_tricks.sliding_window_view(logs, n_win) \
        * np.ldexp(1.0, -1 - np.arange(depth + 1))[:, None]
    log_trunc = -(np.add.reduce(terms, axis=0, initial=0.0) if n_win > 1
                  else np.cumsum(terms[:, 0])[-1:])
    # Pad both endpoints outward by a few ulps: the summation itself is
    # float arithmetic, so without padding "true value inside enclosure"
    # could fail by rounding alone.
    pad = 8.0 * sys.float_info.epsilon * (np.abs(log_trunc) + 1.0)
    tails = a._log_tails(np.arange(start, start + n_win, dtype=float), depth)
    if tails is None:
        return log_trunc + pad, None
    return log_trunc + pad, log_trunc - tails - pad


# ---- tame pairs ----

@dataclass(frozen=True)
class TamePairReport:
    window: int
    star_holds: tuple[bool, ...]   # (*) at n = 0..window-1
    a_ge_one: bool
    b_le_one: bool
    b_vanishing: bool
    first_violation: int | None

    @property
    def tame(self) -> bool:
        return (all(self.star_holds) and self.a_ge_one and self.b_le_one
                and self.b_vanishing)


def _b_vanishing(log_b: np.ndarray) -> bool:
    """Heuristic for b_n -> 0: log b nonincreasing on the window's second
    half and strictly lower at the end than at the midpoint."""
    m = len(log_b) // 2
    second = log_b[m:]
    if len(second) < 2:
        return bool(log_b[-1] < 0)
    return bool(np.all(np.diff(second) <= 0) and log_b[-1] < log_b[m])


def tame_check(a: PositiveSequence, b: PositiveSequence,
               window: int = 60) -> TamePairReport:
    """Check the pair conditions a >= 1, b <= 1, b -> 0 (heuristic) and
    (*) a_n b_n^2 <= b_{n+1} for n < window, all in log space."""
    log_a = a.log_values(window)
    log_b = b.log_values(window)
    star = (log_a[:-1] + 2.0 * log_b[:-1] <= log_b[1:]).tolist()
    return TamePairReport(
        window=window,
        star_holds=tuple(star),
        a_ge_one=bool(np.all(log_a >= 0.0)),
        b_le_one=bool(np.all(log_b <= 0.0)),
        b_vanishing=_b_vanishing(log_b),
        first_violation=star.index(False) if False in star else None,
    )


def strictness_check(b: PositiveSequence, window: int = 60) -> bool:
    """b is strict when b <= 1 and b_n^2 <= b_{n+1} on the window."""
    log_b = b.log_values(window)
    return bool(not np.any(log_b > 0.0)
                and np.all(2.0 * log_b[:-1] <= log_b[1:]))


# ---- taming ----

def taming_epsilon_log(a: PositiveSequence, depth: int = 60) -> float:
    """log of the window infimum of (a^pi_n)^2, using enclosure lower bounds.

    Guarantee (proved by the transform recursion): for every n <= depth,
    eps <= (a^pi_n)^2, hence a_n * eps <= a_n (a^pi_n)^2 = a^pi_{n+1} <= 1,
    so (a, eps*b) satisfies (*) on the window for any strict b.  The
    infimum is over the window only: for unbounded increasing a the full
    infimum over all n is 0 (a^pi_n -> 0), so no positive global taming
    constant exists.
    """
    cert = bruno_check(a, depth)
    if cert.verdict != "bruno":
        raise SequenceDomainError(
            f"taming needs a certified summable sequence, got {cert.verdict}")
    _, log_lower = _transform_logs(a, a.log_values(2 * depth), 0, depth)
    return float(np.min(2.0 * log_lower))


# ---- model iteration ----

def model_iteration(a: PositiveSequence, b: PositiveSequence | None,
                    x0: float, steps: int = 100) -> IterationTrace:
    """Run x_{n+1} = (a_n x_n^2 + b_n x_n) / 2 in log space.

    b may be None for the pure-quadratic model (the envelope bound is
    then not checked).  When (a, b) is tame and x0 <= b_0, the envelope
    x_n <= b_n is recorded per step, comparing log x_n with log b_n
    exactly; a violation marks the trace uncertified but the run
    continues.
    """
    if not (x0 >= 0):
        raise SequenceDomainError("x0 must be nonnegative")
    if steps < 0:
        raise SequenceDomainError("steps must be nonnegative")
    trace = IterationTrace(engine="model")
    trace.metadata = {
        "a": a.to_json_dict(),
        "b": b.to_json_dict() if b is not None else None,
        "x0": x0,
        "steps": steps,
    }
    # the loop below reads b_n, then a_n for n < steps, then b_steps
    seqs = [a] if b is None else [b, a]
    logs, error = log_rows(seqs, 0, steps)
    if error is not None:
        raise error
    log_as = logs[-1].tolist()
    log_bs = None if b is None else logs[0].tolist() + [b.log(steps)]
    log_x = math.log(x0) if x0 > 0 else -math.inf
    bounded = True
    for n in range(steps + 1):
        log_b = log_bs[n] if b is not None else None
        ok = True if log_b is None else (log_x <= log_b)
        bounded = bounded and ok
        b_lin = None
        if log_b is not None:
            b_lin = math.exp(log_b) if log_b < 700.0 else math.inf
        trace.add(StepRecord(
            n=n,
            value_norm=math.exp(log_x) if log_x < 700.0 else math.inf,
            bound=b_lin,
            checks_passed=bool(ok),
            extra={"log_x": log_x, "log_b": log_b},
        ))
        if not ok:
            trace.fail(f"envelope violated at n={n}")
        if n == steps:
            break
        log_a = log_as[n]
        if math.isinf(log_x) and log_x < 0:
            pass  # x = 0 is a fixed point
        else:
            quad = log_a + 2.0 * log_x
            if log_b is None:
                log_x = quad - LOG2
            else:
                log_x = np.logaddexp(quad, log_b + log_x) - LOG2
        if log_x > 700.0:
            trace.status = "diverged"
            trace.fail(f"overflow at n={n + 1}")
    if trace.status != "diverged":
        first = trace.steps[0].extra["log_x"]
        last = trace.steps[-1].extra["log_x"]
        trace.status = "converged" if last < min(-50.0, first) else "bounded"
    trace.certified = trace.all_checks_passed and b is not None
    return trace


# ---- the rho/sigma schedule construction ----

@dataclass(frozen=True)
class LemmaRhoReport:
    window: int
    K: float
    alpha: float
    log_eps: float
    pair_star: tuple[bool, ...]     # conclusion 1: (a sigma^-k, rho a' sigma^-l) obeys (*)
    below_b: tuple[bool, ...]       # conclusion 2: rho_n a'_n sigma_n^-l < b_n
    halvings: int

    @property
    def passed(self) -> bool:
        return all(self.pair_star) and all(self.below_b)

    @property
    def first_failure(self) -> int | None:
        for i, (s, c) in enumerate(zip(self.pair_star, self.below_b)):
            if not (s and c):
                return i
        return None


def _gap_logs(log_a: np.ndarray, start: int
              ) -> tuple[np.ndarray, SequenceDomainError | None]:
    """(logs, refusal): log(1 - a_n^(1/2^n)) for n = start.. from
    log_a = log a_start.., up to the first a_n >= 1, which is refused.
    ldexp keeps log a_n / 2^n exact where 2^n overflows."""
    x = np.ldexp(log_a, -np.arange(start, start + len(log_a)))
    bad = np.flatnonzero(x >= 0.0)
    if not bad.size:
        return log_one_minus_exp(x), None
    return log_one_minus_exp(x[:bad[0]]), SequenceDomainError(
        f"gap needs a_n < 1, index {start + bad[0]}")


def log_one_minus_exp(x: np.ndarray) -> np.ndarray:
    """log(1 - e^x) for x < 0: log1p below -log 2, log(-expm1) above."""
    return np.where(x < -LOG2,
                    np.log1p(-np.exp(np.minimum(x, -LOG2))),  # no log1p(-1)
                    np.log(np.maximum(-np.expm1(x), 1e-300)))


def lemma_rho(a: PositiveSequence, aprime: PositiveSequence,
              b: PositiveSequence, k: int, l: int, *,
              K: float | None = None, alpha: float = 1.5,
              window: int = 40, depth: int = 60,
              conditions: Callable[[PositiveSequence], dict] | None = None):
    """Construct rho_n = K b_n c_n e^(-alpha^n) and sigma = rho.gap().

    c = eps * b where eps tames a * aprime^2 on the window, so the two
    conclusions hold index-by-index: the pair (a_n sigma_n^-k,
    rho_n a'_n sigma_n^-l) satisfies (*), and rho_n a'_n sigma_n^-l < b_n.
    Both are verified in log space on the window.  k and l must be
    nonnegative: sigma_n < 1, so sigma^-k with k < 0 would pull a_n
    sigma_n^-k below a_n, and a >= 1 could fail.  When K is not given
    it is auto-tuned from 1/2 by halving (at most 64 times) until both
    verify and so do the caller's `conditions`, which map a candidate
    rho to {name: per-index verdicts}; the search fails naming the
    first condition the last candidate broke.  A fixed K is returned
    with its two conclusions whatever they say, and takes no
    conditions.  Returns (rho, sigma, report), checked on their floats.
    """
    if not (1.0 < alpha < 2.0):
        raise SequenceDomainError("alpha must lie in (1, 2)")
    if K is not None and not (0.0 < K < 1.0):
        raise SequenceDomainError("K must lie in (0, 1)")
    if K is not None and conditions is not None:
        raise SequenceDomainError("a fixed K takes no conditions")
    if k < 0 or l < 0:
        raise SequenceDomainError("k and l must be nonnegative")
    for name, seq in (("a", a), ("aprime", aprime)):
        cert = bruno_check(seq, depth)
        if cert.verdict == "not_bruno":
            raise SequenceDomainError(f"{name} is certified non-summable")
    if not strictness_check(b, window + 2):
        raise SequenceDomainError("b must be strict (b <= 1, b_n^2 <= b_{n+1})")

    log_eps = taming_epsilon_log(a * (aprime ** 2.0), depth)
    c = b.scaled(log_factor=log_eps)
    unscaled_rho = b * c * PositiveSequence.exp_power(-1, alpha)

    log_a = a.log_values(window + 2)
    log_ap = aprime.log_values(window + 2)
    log_b = b.log_values(window + 2)
    unscaled_logs = unscaled_rho.log_values(window + 1)

    def attempt(K_try: float) -> LemmaRhoReport | None:
        log_rho = math.log(K_try) + unscaled_logs
        log_sigma, refusal = _gap_logs(log_rho, 0)
        if refusal is not None:     # some rho_n >= 1
            return None
        log_y = log_rho + log_ap[:-1] - l * log_sigma   # rho a' sigma^-l
        star = (log_a[:window] - k * log_sigma[:window]
                + 2.0 * log_y[:window] <= log_y[1:window + 1])
        below = log_y[:window] < log_b[:window]
        return LemmaRhoReport(window, K_try, alpha, log_eps,
                              tuple(star.tolist()), tuple(below.tolist()), 0)

    if K is not None:
        report = attempt(K)
        if report is None:
            raise SequenceDomainError("rho fell outside (0, 1) on the window")
    else:
        K_try, report = 0.5, None
        for halving in range(_MAX_HALVINGS):
            cand = attempt(K_try)
            binding = "rho outside (0,1)"
            if cand is not None:
                verdicts = {"pair (*)": cand.pair_star,
                            "rho < b": cand.below_b}
                if cand.passed and conditions is not None:
                    verdicts = conditions(
                        unscaled_rho.scaled(log_factor=math.log(K_try)))
                binding = next((name for name, flags in verdicts.items()
                                if not all(flags)), None)
                if binding is None:
                    report = replace(cand, halvings=halving)
                    break
            K_try *= 0.5
        if report is None:
            raise SequenceDomainError(
                f"no passing K within {_MAX_HALVINGS} halvings; "
                f"binding condition: {binding}")

    rho = unscaled_rho.scaled(log_factor=math.log(report.K))
    return rho, rho.gap(), report
