"""Tests for the positive-sequence calculus.

Expected values are either closed forms computed independently in the
test (geometric and e^(+-alpha^n) families have elementary weighted log
sums) or direct high-precision summations frozen here.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from banachscale.sequences import (
    PositiveSequence,
    SequenceDomainError,
    bruno_check,
    bruno_transform,
    lemma_rho,
    log_one_minus_exp,
    log_rows,
    model_iteration,
    strictness_check,
    tame_check,
    taming_epsilon_log,
)

PS = PositiveSequence


def _random_summable_increasing(rng):
    """Random family with a >= 1, nondecreasing, certified summable."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return PS.geometric(float(rng.uniform(1.0, 4.0)))
    if kind == 1:
        return PS.exp_power(1, float(rng.uniform(1.05, 1.9)))
    if kind == 2:
        return (PS.geometric(float(rng.uniform(1.0, 2.5)))
                * PS.exp_power(1, float(rng.uniform(1.05, 1.8))))
    base = PS.exp_power(1, float(rng.uniform(1.05, 1.8)))
    return (base ** float(rng.uniform(0.5, 2.0))).scaled(
        float(rng.uniform(1.0, 3.0)))


# ---- log_values ----

def reference_log(seq, n):
    """log a_n by a recursion over the family tree at one index, with the
    messages of each refusal: the oracle for the one walk per node that
    `log`, `log_values` and `log_rows` read."""
    if n < 0:
        raise SequenceDomainError("index must be nonnegative")
    f, p = seq.family, seq.params
    if f == "geometric":
        return n * math.log(p["q"])
    if f == "exp_power":
        try:
            return p["sign"] * p["alpha"] ** n
        except OverflowError:
            raise OverflowError(f"exp_power alpha^n overflows a float "
                                f"at index {n} (alpha {p['alpha']!r})") from None
    if f == "tabulated":
        if n >= len(p["values"]):
            raise SequenceDomainError(
                f"tabulated sequence has {len(p['values'])} entries, index {n}")
        return math.log(p["values"][n])
    if f == "product":
        return sum(reference_log(s, n) for s in p["factors"])
    if f == "power":
        return p["exponent"] * reference_log(p["base"], n)
    if f == "scaled":
        return p["log_factor"] + reference_log(p["base"], n)
    assert f == "gap"
    x = math.ldexp(reference_log(p["base"], n), -n)
    if x >= 0.0:
        raise SequenceDomainError(f"gap needs a_n < 1, index {n}")
    return float(log_one_minus_exp(np.array([x]))[0])


def _reference_logs(seq, start, window):
    """reference_log at n = start..window as hex, or the first refusal as
    (exception name, message)."""
    try:
        return [reference_log(seq, n).hex() for n in range(start, window + 1)]
    except (SequenceDomainError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _outcome_of(call):
    """call()'s values as hex (one float or a float64 array), or its
    refusal as (exception name, message)."""
    try:
        got = call()
    except (SequenceDomainError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, float):
        return [got.hex()]
    assert got.dtype == np.float64
    return [v.hex() for v in got.tolist()]


_LEAVES = st.one_of(
    st.floats(0.05, 20.0).map(PS.geometric),
    st.tuples(st.sampled_from([-1, 1]), st.floats(0.3, 1.95)).map(
        lambda t: PS.exp_power(*t)),
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=25).map(
        PS.tabulated),
)


# families kept below 1, whose gaps 1 - a_n^(1/2^n) are defined; gaps
# are below 1 too, and a table may end the base
_BELOW_ONE = st.recursive(
    st.one_of(
        st.tuples(st.floats(0.05, 1.0), st.floats(-40.0, -1e-3)).map(
            lambda t: PS.geometric(t[0]).scaled(log_factor=t[1])),
        st.floats(0.3, 1.95).map(lambda alpha: PS.exp_power(-1, alpha)),
        st.lists(st.floats(1e-3, 0.999), min_size=1, max_size=25).map(
            PS.tabulated)),
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, st.floats(0.1, 3.0)).map(lambda t: t[0] ** t[1]),
        kids.map(PS.gap)),
    max_leaves=4)


def _closures(kids):
    return st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, st.floats(-3.0, 3.0)).map(lambda t: t[0] ** t[1]),
        st.tuples(kids, st.floats(-40.0, 40.0)).map(
            lambda t: t[0].scaled(log_factor=t[1])),
        _BELOW_ONE.map(PS.gap))


_TREES = st.recursive(_LEAVES, _closures, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_TREES, st.integers(-3, 30), st.integers(-5, 40))
def test_log_values_is_log_bit_for_bit(seq, start, window):
    # one walk per node gives what the recursion gives index by index,
    # down to the sign of zero, and the recursion's first refusal
    assert _outcome_of(lambda: seq.log_values(window, start=start)) \
        == _reference_logs(seq, start, window)
    assert _outcome_of(lambda: seq.log(start)) \
        == _reference_logs(seq, start, start)


def test_gap_refuses_a_at_or_above_one_and_scales_exactly():
    # a_0 = 1, so only the indices from 1 on have a gap
    gap = PS.geometric(0.5).gap()
    with pytest.raises(SequenceDomainError, match="gap needs a_n < 1, index 0"):
        gap.log(0)
    with pytest.raises(SequenceDomainError, match="gap needs a_n < 1, index 0"):
        gap.log_values(5)
    assert gap.log_values(5, start=1).tolist() == [reference_log(gap, n)
                                                   for n in range(1, 6)]
    assert gap.weighted_log_tail(0, 10) is None
    assert not gap.divergence_witness()
    assert gap.to_json_dict() == {"family": "gap",
                                  "base": PS.geometric(0.5).to_json_dict()}
    # log a_n / 2^n stays exact where 2^n overflows a float: for
    # a_n = e^(-1.5^n), sigma_1200 = 1 - e^(-0.75^1200) ~ 0.75^1200
    far = PS.exp_power(-1, 1.5).gap()
    assert far.log(1200) == pytest.approx(1200 * math.log(0.75), rel=1e-12)
    assert far.log_values(1201, start=1199)[1] == far.log(1200) \
        == reference_log(far, 1200)


def test_log_values_short_tables_report_the_first_missing_index():
    short, long_ = PS.tabulated([2.0, 3.0]), PS.tabulated([2.0, 3.0, 5.0])
    for seq, msg in ((long_ * short, "has 2 entries, index 2"),
                     (short * long_, "has 2 entries, index 2"),
                     ((long_ ** 2.0).scaled(3.0), "has 3 entries, index 3")):
        with pytest.raises(SequenceDomainError, match=msg):
            seq.log_values(10)
    with pytest.raises(SequenceDomainError, match="has 3 entries, index 7"):
        long_.log_values(9, start=7)
    # e^(1.5^n) overflows past n = 1750; the table's end comes first
    for seq in (PS.exp_power(1, 1.5) * short, short * PS.exp_power(1, 1.5)):
        with pytest.raises(SequenceDomainError, match="has 2 entries, index 2"):
            seq.log_values(2000)
    with pytest.raises(OverflowError) as caught:
        PS.exp_power(1, 1.5).log_values(2000)
    with pytest.raises(OverflowError) as want:
        reference_log(PS.exp_power(1, 1.5), 1751)
    assert str(caught.value) == str(want.value) \
        == "exp_power alpha^n overflows a float at index 1751 (alpha 1.5)"
    with pytest.raises(SequenceDomainError, match="index must be nonnegative"):
        PS.geometric(2.0).log_values(3, start=-1)


# ---- bruno_check ----

def test_check_geometric_partial_sum_matches_direct_summation():
    # oracle: sum_{k<=40} k log(2) / 2^(k+1) summed directly
    k = np.arange(41, dtype=float)
    oracle = float(np.sum(k * math.log(2.0) / 2.0 ** (k + 1)))
    cert = bruno_check(PS.geometric(2.0), depth=40)
    assert cert.verdict == "bruno"
    assert abs(cert.partial_sum - oracle) < 1e-15
    # the full sum is log 2; the capped sum must sit just below it
    assert abs(cert.partial_sum - math.log(2.0)) < 1e-10
    assert cert.total_bound >= math.log(2.0) - 1e-15


def test_check_exp_power_threshold():
    # e^(alpha^n) summable iff alpha < 2; at alpha = 2 every term is 1/2
    assert bruno_check(PS.exp_power(1, 1.5)).verdict == "bruno"
    assert bruno_check(PS.exp_power(-1, 1.5)).verdict == "bruno"
    cert = bruno_check(PS.exp_power(1, 2.0), depth=30)
    assert cert.verdict == "not_bruno"
    assert abs(cert.partial_sum - 31 * 0.5) < 1e-12
    assert bruno_check(PS.exp_power(1, 2.5)).verdict == "not_bruno"
    assert bruno_check((PS.exp_power(1, 2.0) ** 1.5).scaled(2.0)).verdict \
        == "not_bruno"


def test_check_closure_product_power_inverse():
    rng = np.random.default_rng(20260815)
    for _ in range(25):
        a = _random_summable_increasing(rng)
        b = _random_summable_increasing(rng)
        assert bruno_check(a * b, depth=50).verdict == "bruno"
        assert bruno_check(a ** float(rng.uniform(0.2, 3.0))).verdict == "bruno"
        inv = bruno_check(a ** -1.0, depth=50)
        direct = bruno_check(a, depth=50)
        # |log| is symmetric under inversion
        assert inv.verdict == direct.verdict == "bruno"
        assert abs(inv.partial_sum - direct.partial_sum) < 1e-12


def test_check_tabulated_inconclusive_and_positivity_error():
    cert = bruno_check(PS.tabulated([1.0, 2.0, 4.0]), depth=2)
    assert cert.verdict == "inconclusive"
    with pytest.raises(SequenceDomainError):
        PS.tabulated([1.0, 0.0, 4.0])
    with pytest.raises(SequenceDomainError):
        PS.geometric(-2.0)


# ---- bruno_transform ----

def test_transform_geometric_closed_form():
    # a_n = q^n gives a^pi_0 = 1/q since sum k/2^(k+1) = 1
    res = bruno_transform(PS.geometric(3.0), n=0, depth=60)
    assert res.rigorous
    assert abs(res.value - 1.0 / 3.0) < 1e-10
    lo, hi = res.enclosure
    assert lo <= 1.0 / 3.0 <= hi
    # a^pi_n = q^(-(n+1))
    for n in (1, 5, 10):
        rn = bruno_transform(PS.geometric(3.0), n=n, depth=60)
        assert abs(rn.log_value - (-(n + 1) * math.log(3.0))) < 1e-9


def test_transform_recursion_randomized():
    # a^pi_{n+1} = a_n (a^pi_n)^2, checked in log space within the
    # enclosure widths plus machine-precision slack
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = _random_summable_increasing(rng)
        depth = 60
        results = [bruno_transform(a, n, depth) for n in range(42)]
        width = [r.log_value - r.log_lower for r in results]
        for n in range(41):
            lhs = results[n + 1].log_value
            rhs = a.log(n) + 2.0 * results[n].log_value
            slack = (width[n + 1] + 2.0 * width[n]
                     + 1e-9 * (1.0 + abs(lhs) + abs(rhs)))
            assert abs(lhs - rhs) <= slack


def test_transform_preconditions():
    with pytest.raises(SequenceDomainError):
        bruno_transform(PS.geometric(0.5))          # decreasing
    with pytest.raises(SequenceDomainError):
        bruno_transform(PS.exp_power(-1, 1.5))      # below 1
    res = bruno_transform(PS.tabulated([1.0, 2.0, 4.0, 8.0]), n=0, depth=3)
    assert not res.rigorous
    assert res.enclosure[0] == 0.0


def _reference_tail(a, offset, depth):
    """weighted_log_tail as one recursion of scalar float arithmetic per
    offset, kept as the oracle of the walk over all offsets at once."""
    f, p, N = a.family, a.params, depth
    if f == "geometric":
        c = abs(math.log(p["q"]))
        return c * (N + offset + 2.0) * math.pow(2.0, -(N + 1))
    if f == "exp_power":
        alpha = p["alpha"]
        if alpha >= 2.0:
            return None
        logterm = offset * math.log(alpha) \
            + (N + 1) * math.log(alpha / 2.0) - math.log(2.0 - alpha)
        return math.exp(logterm)
    if f in ("tabulated", "gap"):
        return None
    if f == "product":
        total = 0.0
        for s in p["factors"]:
            t = _reference_tail(s, offset, depth)
            if t is None:
                return None
            total += t
        return total
    if f == "power":
        t = _reference_tail(p["base"], offset, depth)
        return None if t is None else abs(p["exponent"]) * t
    if f == "scaled":
        t = _reference_tail(p["base"], offset, depth)
        if t is None:
            return None
        return t + abs(p["log_factor"]) * math.pow(2.0, -(N + 1))
    raise AssertionError(f)


# exp_power with alpha >= 2 has no closed-form tail either
_TAIL_TREES = st.recursive(
    st.one_of(_LEAVES, st.tuples(st.sampled_from([-1, 1]),
                                 st.floats(2.0, 3.0)).map(
        lambda t: PS.exp_power(*t))),
    _closures, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_TAIL_TREES, st.lists(st.integers(0, 300), min_size=1, max_size=8),
       st.integers(0, 240))
def test_log_tails_match_the_per_offset_oracle(seq, offsets, depth):
    # one walk over all offsets gives each offset's scalar recursion bit
    # for bit, and None exactly where it does: a table anywhere in the
    # tree, or exp_power with alpha >= 2
    want = [_reference_tail(seq, n, depth) for n in offsets]
    got = seq._log_tails(np.array(offsets, dtype=float), depth)
    if None in want:
        assert got is None and want == [None] * len(offsets)
        assert seq.weighted_log_tail(offsets[0], depth) is None
        return
    assert [float(v).hex() for v in got] == [w.hex() for w in want]
    single = seq.weighted_log_tail(offsets[0], depth)
    assert type(single) is float and single.hex() == want[0].hex()


def _reference_transform(a, n, depth):
    """(log_value, log_lower) of bruno_transform as one scalar sum per
    window: the O(depth) evaluations per n that the vectorized helper
    replaced, kept as its oracle."""
    logs = [reference_log(a, n + k) for k in range(depth + 1)]
    if min(logs) < 0.0:
        raise SequenceDomainError("transform needs a_k >= 1 on the window")
    if any(logs[i + 1] < logs[i] for i in range(len(logs) - 1)):
        raise SequenceDomainError("transform needs a nondecreasing on the window")
    log_trunc = -sum(lv * math.pow(2.0, -(k + 1)) for k, lv in enumerate(logs))
    pad = 8.0 * sys.float_info.epsilon * (abs(log_trunc) + 1.0)
    tail = _reference_tail(a, n, depth)
    if tail is None:
        return log_trunc + pad, -math.inf
    return log_trunc + pad, log_trunc - tail - pad


def _reference_partial(a, depth):
    partial = 0.0
    for k in range(depth + 1):
        partial += abs(reference_log(a, k)) * math.pow(2.0, -(k + 1))
    return partial


def _reference_taming(a, depth):
    """taming_epsilon_log as bruno_check's scalar partial sum and verdict,
    then one bruno_transform per n (O(depth^2) evaluations)."""
    _reference_partial(a, depth)   # a table that ends by depth fails here
    verdict = ("not_bruno" if a.divergence_witness() else
               "inconclusive" if _reference_tail(a, 0, depth) is None
               else "bruno")
    if verdict != "bruno":
        raise SequenceDomainError(
            f"taming needs a certified summable sequence, got {verdict}")
    best = math.inf
    for n in range(depth + 1):
        best = min(best, 2.0 * _reference_transform(a, n, depth)[1])
    return best


def _outcome(call, *args):
    try:
        return call(*args)
    except (SequenceDomainError, OverflowError) as exc:
        return type(exc), str(exc)


def _hexed(x):
    return x.hex() if isinstance(x, float) else x


def test_transform_and_taming_match_the_per_window_oracle():
    rng = np.random.default_rng(20261018)
    seqs = []
    for _ in range(2):
        g = PS.geometric(float(rng.uniform(1.5, 4.0)))
        e = PS.exp_power(1, float(rng.uniform(1.1, 1.8)))
        ap = PS.constant(float(rng.uniform(1.0, 4.0)))
        seqs += [g, e, g * ap ** 2.0, e * PS.geometric(1.5) ** 2.0]
    # logs of +0.0 throughout, and of -0.0
    flat = [PS.constant(1.0), PS.constant(1.0) ** -1.0]
    # log a = 1 + n log q - alpha^n first falls from index 2 depth - 1 to
    # 2 depth, so only the taming's last window n = depth is refused
    last = [((PS.geometric(1.5) * PS.exp_power(-1, 1.1))
             .scaled(log_factor=1.0), 8),
            ((PS.geometric(2.0) * PS.exp_power(-1, 1.2))
             .scaled(log_factor=1.0), 4)]
    for a, depth in last:
        assert _outcome(bruno_transform, a, depth - 1, depth).rigorous
        assert _outcome(bruno_transform, a, depth, depth) == (
            SequenceDomainError,
            "transform needs a nondecreasing on the window")
    # depths 0 and 1 give the taming one and two windows
    cases = [(a, depth) for depth in (0, 1, 40, 60, 240)
             for a in (seqs[:4] if depth == 240 else seqs + flat)] + last
    for a, depth in cases:
        want = _outcome(_reference_taming, a, depth)
        got = _outcome(taming_epsilon_log, a, depth)
        if (a, depth) in last:
            assert got == want == (
                SequenceDomainError,
                "transform needs a nondecreasing on the window")
            continue
        assert type(want) is type(got) is float
        assert got.hex() == want.hex()
        assert bruno_check(a, depth).partial_sum.hex() \
            == _reference_partial(a, depth).hex()
    for a in seqs + flat:
        for n, depth in ((n, d) for n in range(6) for d in (0, 1, 60)):
            res = bruno_transform(a, n, depth)
            want = _reference_transform(a, n, depth)
            assert (res.log_value.hex(), res.log_lower.hex()) \
                == tuple(v.hex() for v in want)


def test_transform_and_taming_errors_match_the_per_window_oracle():
    cases = [
        PS.tabulated([2.0 ** k for k in range(30)]),   # inconclusive
        PS.tabulated([1.0, 2.0, 4.0]),                 # past the table
        PS.exp_power(1, 2.0),                          # not_bruno
        # decreasing from n = 0, first a_k < 1 at k = 16 > depth: the
        # nondecreasing message wins
        PS.geometric(0.5).scaled(log_factor=15.5 * math.log(2.0)),
        PS.geometric(0.5),                             # both at n = 0
        PS.geometric(2.0).scaled(log_factor=-3.0),     # a_k < 1 first
        PS.geometric(1.5) * PS.exp_power(-1, 1.2),     # a_k < 1 throughout
        # log a = 0, 0.1, -0.61: at depth 1 window 0 passes and window 1
        # holds both faults, so a_k < 1 wins the tie
        PS.geometric(math.e).scaled(log_factor=1.0) * PS.exp_power(-1, 1.9),
    ]
    for a in cases:
        for depth in (1, 10, 12):
            want = _outcome(_reference_taming, a, depth)
            assert isinstance(want, tuple)
            assert _outcome(taming_epsilon_log, a, depth) == want
        for n, depth in ((n, d) for n in range(6) for d in (1, 10)):
            want = _outcome(_reference_transform, a, n, depth)
            got = _outcome(bruno_transform, a, n, depth)
            if isinstance(got, tuple):
                assert got == want
            else:
                assert (_hexed(got.log_value), _hexed(got.log_lower)) \
                    == tuple(map(_hexed, want))
    with pytest.raises(SequenceDomainError, match="depth must be nonnegative"):
        taming_epsilon_log(PS.geometric(2.0), -1)


def _node_count(seq):
    kids = list(seq.params.get("factors", ()))
    if "base" in seq.params:
        kids.append(seq.params["base"])
    return 1 + sum(_node_count(s) for s in kids)


def test_taming_evaluates_each_node_once_per_window(monkeypatch):
    # bruno_check reads indices 0..depth and the transform 0..2 depth, one
    # walk of the tree each: O(depth) evaluations, not O(depth^2); their
    # tail bounds, at offset 0 and at the transform's depth + 1 offsets,
    # are one walk each too
    depth = 240
    a = (PS.geometric(2.0) * PS.exp_power(1, 1.3)) \
        * PS.constant(3.0) ** 2.0
    nodes = _node_count(a)
    calls = {"log": 0, "entries": 0, "tail walks": 0}
    log, logs, tails = PS.log, PS._logs, PS._log_tails

    def counted_tails(self, offsets, depth):
        calls["tail walks"] += 1
        return tails(self, offsets, depth)

    def counted_log(self, n):
        calls["log"] += 1
        return log(self, n)

    def counted_logs(self, start, stop):
        calls["entries"] += max(0, stop - start)
        return logs(self, start, stop)

    monkeypatch.setattr(PS, "log", counted_log)
    monkeypatch.setattr(PS, "_logs", counted_logs)
    monkeypatch.setattr(PS, "_log_tails", counted_tails)
    taming_epsilon_log(a, depth)
    assert calls["log"] <= nodes * (2 * depth + 1)
    assert calls["entries"] <= nodes * ((depth + 1) + (2 * depth + 1))
    assert calls["tail walks"] <= nodes * 2


# ---- tame pairs ----

def test_tame_example_window_200():
    a = PS.exp_power(1, 1.2)
    b = PS.exp_power(-1, 1.5).scaled(0.1)
    rep = tame_check(a, b, window=200)
    assert rep.tame
    assert rep.first_violation is None
    # binding margin is at n = 0: eps <= e^(0.5 * 1.5^0 - 1.2^0) = e^-0.5
    assert 0.1 <= math.exp(-0.5)


def test_tame_equality_boundary_pair():
    # a = 1 with b_n = eps^(2^n): (*) holds with equality
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 2.0) ** (-math.log(0.3))
    rep = tame_check(a, b, window=50)
    assert rep.tame
    assert all(rep.star_holds)


def test_tame_violation_everywhere():
    rep = tame_check(PS.exp_power(1, 2.0), PS.exp_power(-1, 2.0), window=30)
    assert not rep.tame
    assert rep.first_violation == 0
    assert not any(rep.star_holds)


# ---- taming ----

def test_taming_epsilon_geometric_closed_form():
    # a_n = 2^n: a^pi_n = 2^(-(n+1)) exactly, so the window infimum of
    # (a^pi_n)^2 over n <= 60 is 2^(-122)
    a = PS.geometric(2.0)
    log_eps = taming_epsilon_log(a, depth=60)
    assert abs(log_eps - (-122.0 * math.log(2.0))) < 1e-6
    assert math.exp(log_eps) == pytest.approx(2.0 ** -122, rel=1e-9)


def test_taming_epsilon_trivial_sequence():
    log_eps = taming_epsilon_log(PS.constant(1.0), depth=40)
    assert math.exp(log_eps) == pytest.approx(1.0)


def test_taming_epsilon_guarantee_randomized():
    # (a, eps * b) passes tame_check for any strict b on the same window
    rng = np.random.default_rng(123)
    for _ in range(20):
        a = _random_summable_increasing(rng)
        log_eps = taming_epsilon_log(a, depth=40)
        p = -math.log(float(rng.uniform(0.05, 0.95)))
        b = (PS.exp_power(-1, 2.0) ** p).scaled(log_factor=log_eps)
        assert strictness_check(PS.exp_power(-1, 2.0) ** p, window=40)
        rep = tame_check(a, b, window=40)
        assert rep.tame, f"violation at {rep.first_violation}"


def test_taming_epsilon_rejects_non_summable():
    with pytest.raises(SequenceDomainError):
        taming_epsilon_log(PS.exp_power(1, 2.0))


# ---- model iteration ----

def _rows_by_index(seqs, start, stop):
    """log_rows' answer from a loop over n calling reference_log on each s."""
    rows = []
    for n in range(start, stop):
        try:
            rows.append([reference_log(s, n) for s in seqs])
        except (SequenceDomainError, OverflowError) as exc:
            return rows, (type(exc).__name__, str(exc))
    return rows, None


_TAB2, _TAB3 = PS.tabulated([2.0, 3.0]), PS.tabulated([2.0, 3.0, 5.0])
_HUGE = PS.exp_power(1, 1e200)      # alpha^n overflows at n = 2


def _check_rows(seqs, start, stop):
    logs, error = log_rows(seqs, start, stop)
    rows, want_error = _rows_by_index(seqs, start, stop)
    assert [[v.hex() for v in col.tolist()] for col in logs] == \
        [[row[i].hex() for row in rows] for i in range(len(seqs))]
    assert (None if error is None else (type(error).__name__, str(error))) \
        == want_error
    # log_values is log_rows on one sequence
    for seq in seqs:
        assert _outcome_of(lambda: seq.log_values(stop - 1, start)) \
            == _reference_logs(seq, start, stop - 1)


@pytest.mark.parametrize("seqs,count", [
    ([PS.geometric(0.5), PS.exp_power(-1, 1.5) ** 2.0], 61),
    ([PS.exp_power(1, 1.5).scaled(3.0), PS.tabulated([2.0, 3.0, 5.0])], 9),
    ([PS.tabulated([2.0, 3.0]), PS.tabulated([2.0, 3.0, 5.0])], 9),
    ([PS.tabulated([2.0, 3.0, 5.0]), PS.tabulated([2.0, 3.0])], 9),
    ([PS.exp_power(1, 1.5), PS.tabulated([2.0] * 40)], 2000),
    ([PS.exp_power(1, 1e6) * PS.geometric(2.0)], 61),
    ([PS.tabulated([0.5] * 5 + [2.0] * 5).gap(), PS.geometric(3.0)], 10),
    ([PS.exp_power(-1, 1.5).gap()], 0),
])
def test_log_rows_match_a_per_index_loop(seqs, count):
    _check_rows(seqs, 0, count)


_TAB2, _TAB3 = PS.tabulated([2.0, 3.0]), PS.tabulated([2.0, 3.0, 5.0])
_HUGE = PS.exp_power(1, 1e200)      # alpha^n overflows at n = 2


@pytest.mark.parametrize("seqs,start,stop", [
    # factors refusing at different indices, and at one index, each order
    pytest.param([_TAB3 * _HUGE], 0, 5, id="tab3*huge"),
    pytest.param([_HUGE * _TAB3], 0, 5, id="huge*tab3"),
    pytest.param([_TAB2 * _HUGE], 0, 5, id="tab2*huge"),
    pytest.param([_HUGE * _TAB2], 0, 5, id="huge*tab2"),
    pytest.param([(_TAB3 ** 2.0) * (_HUGE.scaled(2.0) * _TAB2)], 1, 5,
                 id="nested"),
    # a gap over a refusing base, and one refusing before its base ends
    pytest.param([PS.tabulated([0.5, 0.25, 0.9]).gap()], 0, 5,
                 id="gap-of-short-table"),
    pytest.param([(_HUGE ** -1.0).gap()], 0, 5, id="gap-of-overflow"),
    pytest.param([PS.tabulated([0.5, 2.0, 0.5]).gap()], 0, 5,
                 id="gap-refuses-first"),
    pytest.param([PS.tabulated([0.5, 0.25]).gap()
                  * PS.tabulated([0.5, 2.0, 0.5]).gap()], 0, 5,
                 id="gap*gap"),
    # an overflowing alpha^n inside a product, from a late start
    pytest.param([(PS.exp_power(-1, 1.5) ** 2.0).scaled(3.0)
                  * PS.exp_power(1, 1e6)], 40, 61, id="overflow-in-product"),
    # start > stop, and a negative start over an empty and a full range
    pytest.param([_TAB3, PS.geometric(2.0)], 5, 3, id="start>stop"),
    pytest.param([_TAB3], 5, 5, id="start=stop"),
    pytest.param([_TAB3], -1, -2, id="negative-empty"),
    pytest.param([_TAB3], -1, -1, id="negative-start=stop"),
    pytest.param([_TAB3, _HUGE], -1, 3, id="negative-nonempty"),
])
def test_log_rows_refusals_match_a_per_index_loop(seqs, start, stop):
    _check_rows(seqs, start, stop)


@pytest.mark.parametrize("build", [
    lambda: PS.geometric(math.inf),
    lambda: PS.exp_power(1, math.inf),
    lambda: PS.geometric(2.0) ** math.nan,
    lambda: PS.geometric(2.0) ** -math.inf,
    lambda: PS.geometric(2.0).scaled(log_factor=math.nan),
    lambda: PS.geometric(2.0).scaled(log_factor=math.inf),
    lambda: PS.geometric(2.0).scaled(log_factor=-math.inf),
    lambda: PS.constant(math.inf),
    lambda: PS.tabulated([2.0, math.inf]),
], ids=["geometric(inf)", "exp_power(inf)", "power(nan)", "power(-inf)",
        "log_factor(nan)", "log_factor(inf)", "log_factor(-inf)",
        "constant(inf)", "tabulated(inf)"])
def test_non_finite_parameters_are_refused(build):
    # each one made bruno_check say 'bruno' on a NaN or inf partial sum
    with pytest.raises(SequenceDomainError, match="must be finite"):
        build()


def _b_table(length):
    return PS.tabulated([0.25 ** (n + 1) for n in range(length)])


@pytest.mark.parametrize("a,b,msg", [
    # a ends first, then b: a_4 is read before b_5
    (PS.tabulated([1.5] * 4), _b_table(5), "has 4 entries, index 4"),
    (PS.tabulated([1.5] * 9), _b_table(4), "has 4 entries, index 4"),
    # both end at n = 5: b_5 is read before a_5
    (PS.tabulated([1.5] * 5), PS.tabulated([0.5] * 5 + [2.0] * 4).gap(),
     "gap needs a_n < 1, index 5"),
    (PS.tabulated([1.5] * 8), _b_table(8), "has 8 entries, index 8"),
    (PS.tabulated([1.5] * 4), None, "has 4 entries, index 4"),
])
def test_model_short_tables_raise_the_first_missing_index(a, b, msg):
    with pytest.raises(SequenceDomainError, match=msg):
        model_iteration(a, b, x0=0.01, steps=8)


def test_model_reads_exactly_steps_entries_of_a_and_one_more_of_b():
    trace = model_iteration(PS.tabulated([1.5] * 8), _b_table(9), x0=0.01,
                            steps=8)
    assert len(trace.steps) == 9 and trace.certified


def test_model_refuses_negative_steps():
    with pytest.raises(SequenceDomainError, match="steps"):
        model_iteration(PS.constant(1.0), None, x0=0.5, steps=-1)



def test_model_pure_quadratic_closed_values():
    trace = model_iteration(PS.constant(1.0), None, x0=0.5, steps=3)
    xs = [s.value_norm for s in trace.steps]
    assert xs[0] == 0.5
    assert xs[1] == pytest.approx(0.125, rel=1e-15)
    assert xs[2] == pytest.approx(0.0078125, rel=1e-15)
    assert xs[3] == pytest.approx(3.0517578125e-05, rel=1e-15)


def test_model_envelope_randomized_tame_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        alpha = float(rng.uniform(1.05, 1.45))
        beta = float(rng.uniform(alpha + 0.05, 1.95))
        a = PS.exp_power(1, alpha)
        n = np.arange(101, dtype=float)
        margin = np.min(-alpha ** n + (2.0 - beta) * beta ** n) - 0.5
        b = PS.exp_power(-1, beta).scaled(log_factor=margin)
        assert tame_check(a, b, window=100).tame
        x0 = b.value(0) * float(rng.uniform(0.1, 1.0))
        trace = model_iteration(a, b, x0=x0, steps=100)
        assert trace.certified
        assert all(s.checks_passed for s in trace.steps)


def test_model_divergence_flagged():
    trace = model_iteration(PS.constant(4.0), None, x0=10.0, steps=30)
    assert trace.status == "diverged"


# ---- lemma_rho ----

def test_lemma_rho_trivial_pair_window_40():
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 2.0) ** math.log(2.0)   # b_n = (1/2)^(2^n)
    rho, sigma, rep = lemma_rho(a, a, b, k=0, l=0, K=0.5, alpha=1.5,
                                window=40)
    assert rep.passed
    assert rep.first_failure is None
    # sigma identity and lower bound sampled where the asymptotics matter
    for n in (20, 30):
        log_rho = rho.log(n)
        assert sigma.value(n) == pytest.approx(-math.expm1(log_rho / 2.0 ** n),
                                               rel=1e-12)
        assert sigma.value(n) >= 1.5 ** n / 2.0 ** n


def test_lemma_rho_sigma_is_the_gap_of_its_rho():
    # sigma_n = 1 - rho_n^(1/2^n) of the returned rho, bit for bit, far
    # past the window; its value agrees with a 50-digit evaluation
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    cases = 0
    while cases < 8:
        a = _random_summable_increasing(rng)
        ap = PS.constant(float(rng.uniform(1.0, 3.0)))
        b = PS.exp_power(-1, float(rng.uniform(1.2, 1.9)))
        k, l = int(rng.integers(0, 5)), int(rng.integers(0, 4))
        try:
            rho, sigma, _ = lemma_rho(a, ap, b, k, l)
        except SequenceDomainError:
            continue
        cases += 1
        want = [log_one_minus_exp(np.array([math.ldexp(rho.log(n), -n)]))[0]
                for n in range(201)]
        assert [sigma.log(n).hex() for n in range(201)] == [
            float(w).hex() for w in want]
        assert sigma.log_values(200).tolist() == [reference_log(sigma, n)
                                                  for n in range(201)]
        with mpmath.workdps(50):
            for n in range(0, 201, 20):
                exact = 1 - mpmath.exp(mpmath.mpf(rho.log(n)) / 2 ** n)
                assert abs(sigma.value(n) / exact - 1) < 1e-13


def test_lemma_rho_sigma_asymptotics_for_summable_b():
    # when b is itself summable, sigma_n -> 0 and
    # sigma_n ~ (alpha^n - log c_n - log b_n) / 2^n
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 1.5)
    rho, sigma, rep = lemma_rho(a, a, b, k=0, l=0, K=0.5, alpha=1.5,
                                window=40)
    assert rep.passed
    for n in (20, 30):
        # first-order expansion of 1 - rho^(1/2^n), K term removed
        x = -(rho.log(n) - math.log(rep.K)) / 2.0 ** n
        assert sigma.value(n) == pytest.approx(x, rel=0.05)
        assert sigma.value(n) >= 1.5 ** n / 2.0 ** n
        assert sigma.value(n) < 1e-2


def test_lemma_rho_produces_decreasing_summable_rho():
    a = PS.geometric(1.5)
    ap = PS.constant(2.0)
    b = PS.exp_power(-1, 1.5)
    rho, _, rep = lemma_rho(a, ap, b, k=1, l=1, alpha=1.5, window=40)
    assert rep.passed
    steps = np.diff(rho.log_values(40))
    assert np.all(steps <= 0) and not np.all(steps >= 0)
    assert bruno_check(rho ** -1.0, depth=50).verdict == "bruno"


def test_lemma_rho_autotune_reports_K():
    a = PS.exp_power(1, 1.3)
    ap = PS.geometric(2.0)
    b = PS.exp_power(-1, 1.5)
    rho, sigma, rep = lemma_rho(a, ap, b, k=2, l=1, alpha=1.5, window=40)
    assert rep.passed
    assert 0.0 < rep.K <= 0.5
    assert rep.halvings >= 0


def test_lemma_rho_rejects_bad_inputs():
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 1.5)
    with pytest.raises(SequenceDomainError):
        lemma_rho(a, a, b, 0, 0, alpha=2.5)
    with pytest.raises(SequenceDomainError):
        lemma_rho(a, a, PS.geometric(2.0), 0, 0)   # b not below 1
    with pytest.raises(SequenceDomainError):
        lemma_rho(PS.exp_power(1, 2.0), a, b, 0, 0)  # a not summable
    with pytest.raises(SequenceDomainError, match="fixed K"):
        lemma_rho(a, a, b, 0, 0, K=0.5, conditions=lambda rho: {})
    # k < 0 would make a_n sigma_n^-k = a_n sigma_n^|k| fall below 1: the
    # pair below is not tame, so no K may certify it
    two = PS.constant(2.0)
    for k, l in ((-1, 2), (2, -1)):
        with pytest.raises(SequenceDomainError,
                           match="k and l must be nonnegative"):
            lemma_rho(a, two, PS.exp_power(-1, 1.7), k, l)


def test_lemma_rho_search_checks_the_callers_conditions():
    # log rho_0 = log K + log eps - 3 here, so asking for
    # log rho_0 <= log eps - 5.5 first holds at K = 2^-4
    a = PS.constant(1.0)
    b = PS.exp_power(-1, 1.5)
    _, _, free = lemma_rho(a, a, b, 0, 0)
    seen = []

    def small_rho0(rho):
        seen.append(rho.log(0))
        return {"rho_0 small": (rho.log(0) <= free.log_eps - 5.5,)}

    rho, _, rep = lemma_rho(a, a, b, 0, 0, conditions=small_rho0)
    assert (free.halvings, free.K) == (0, 0.5)
    assert (rep.halvings, rep.K) == (3, 2.0 ** -4)
    assert rep.passed and len(seen) == 4
    assert seen[-1] == rho.log(0)
    with pytest.raises(SequenceDomainError,
                       match="64 halvings; binding condition: never"):
        lemma_rho(a, a, b, 0, 0,
                  conditions=lambda rho: {"holds": (True,),
                                          "never": (True, False)})


# ---- serialization ----

def test_log_one_minus_exp_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    x = -np.logspace(-12, 2, 57)
    with mpmath.workdps(50):
        want = [float(mpmath.log1p(-mpmath.exp(mpmath.mpf(v)))) for v in x]
    assert np.allclose(log_one_minus_exp(x), want, rtol=1e-13, atol=0.0)
