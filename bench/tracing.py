"""Outside-in layer tracing: spans and counts recorded around the public
functions of each banachscale module, from the benchmark's own files.

`Tracer.patched()` replaces each target with a wrapper for the length
of one traced round and restores the originals afterwards, so untraced
rounds run the program as shipped.  A module-level function is replaced
under every name any banachscale module binds it to (lie imports
borel_apply by name, demos imports rho_schedule, run_lie and certify by
name); a method is replaced on its class.

A span is [name id, start ns, end ns, parent span index].  Spans stay in
memory, one list per traced round, and are written out when the run
ends.  A layer's self time is its spans' duration minus the time
covered by their child spans.  Hot helpers are counted without a span,
so their time stays in the caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns


def _after_multiply(rounds, args, result, rec):
    """Live index pairs (|I| + |J| <= cap) over the pairs the dense
    convolution touches, both from array sizes."""
    s = args[0]
    n, dim = s.cap, s.dim
    touched = s.coeffs.size ** 2
    if s.basis == "fourier":
        live = touched - n * (n + 1)
    else:
        live = math.comb(n + 2 * dim, 2 * dim)
    rounds.extra["series.multiply.live_pairs"] += live
    rounds.extra["series.multiply.touched_pairs"] += touched
    if dim > 1:
        rounds.extra["series.multiply.nd_ns"] += rec[2] - rec[1]


def _after_borel(rounds, args, result, rec):
    rounds.extra["local_ops.borel_apply.terms"] += result.terms
    if not result.folded and result.remainder > 0.0:
        rounds.extra["local_ops.borel_apply.unfolded"] += 1


def _after_rho_schedule(rounds, args, result, rec):
    rounds.extra["lie.rho_schedule.halvings"] += result.report.halvings


# (module, attribute path, layer name, span or count, hook on the result)
TARGETS = (
    ("series", "TruncatedSeries.multiply", "series.multiply", "span",
     _after_multiply),
    ("series", "TruncatedSeries.reciprocal", "series.reciprocal", "span",
     None),
    ("series", "TruncatedSeries.majorant_norm", "series.majorant_norm",
     "count", None),
    ("series", "TruncatedSeries.with_cap", "series.with_cap", "count", None),
    ("local_ops", "borel_apply", "local_ops.borel_apply", "span",
     _after_borel),
    ("local_ops", "ExponentialProduct.apply",
     "local_ops.ExponentialProduct.apply", "span", None),
    ("lie", "run_lie", "lie.run_lie", "span", None),
    ("lie", "lie_step", "lie.lie_step", "span", None),
    ("lie", "certify", "lie.certify", "span", None),
    ("lie", "rho_schedule", "lie.rho_schedule", "span", _after_rho_schedule),
    ("sequences", "PositiveSequence.log", "sequences.PositiveSequence.log",
     "count", None),
    ("sequences", "lemma_rho", "sequences.lemma_rho", "span", None),
    ("sequences", "taming_epsilon_log", "sequences.taming_epsilon_log",
     "span", None),
    ("sequences", "bruno_transform", "sequences.bruno_transform", "count",
     None),
    ("iterate", "RadiusSchedule.radius", "iterate.RadiusSchedule.radius",
     "span", None),
    ("iterate", "nash_moser", "iterate.nash_moser", "span", None),
    ("demos", "morse", "demos.morse", "span", None),
    ("demos", "mather", "demos.mather", "span", None),
    ("demos", "circle", "demos.circle", "span", None),
    ("trace", "IterationTrace.to_json", "trace.IterationTrace.to_json",
     "span", None),
    ("cli", "main", "cli.main", "span", None),
)


class Round:
    """Spans, counts and hook totals of one traced round."""

    def __init__(self):
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self):
        self.names = [t[2] for t in TARGETS]
        self.rounds: list[Round] = []
        self.current: Round | None = None

    def _span(self, nid, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rnd = tracer.current
            spans, stack = rnd.spans, rnd.stack
            idx = len(spans)
            rec = [nid, _now(), 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if hook is not None:
                hook(rnd, args, result, rec)
            return result
        return wrapped

    def _count(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.current.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    @contextlib.contextmanager
    def patched(self):
        """Trace one round: wrap every target, yield, restore."""
        restore = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "banachscale"
                                         or name.startswith("banachscale."))]
        self.current = Round()
        try:
            for nid, (mod, path, name, kind, hook) in enumerate(TARGETS):
                module = sys.modules[f"banachscale.{mod}"]
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else None
                original = (owner.__dict__[attr] if owner is not None
                            else getattr(module, attr))
                wrapper = (self._span(nid, original, hook) if kind == "span"
                           else self._count(name, original))
                if owner is not None:
                    setattr(owner, attr, wrapper)
                    restore.append((owner, attr, original))
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            restore.append((m, key, original))
            yield self.current
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self.rounds.append(self.current)
            self.current = None

    def round_metrics(self, rnd: Round) -> dict[str, float]:
        """Calls and self time (ms) per spanned layer, call counts of the
        counted helpers and the hook totals, for one round."""
        calls = defaultdict(int)
        total = defaultdict(int)
        child = [0] * len(rnd.spans)
        for rec in rnd.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, rec in enumerate(rnd.spans):
            name = self.names[rec[0]]
            calls[name] += 1
            total[name] += rec[2] - rec[1] - child[i]
        out: dict[str, float] = {}
        for mod, path, name, kind, hook in TARGETS:
            if kind == "span":
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.ms"] = total[name] / 1e6
            else:
                out[f"{name}.calls"] = rnd.counts[name]
        extra = rnd.extra
        out["series.multiply.nd_ms"] = extra["series.multiply.nd_ns"] / 1e6
        touched = extra["series.multiply.touched_pairs"]
        out["series.multiply.useful_ratio"] = (
            extra["series.multiply.live_pairs"] / touched if touched else 0.0)
        for key in ("local_ops.borel_apply.terms",
                    "local_ops.borel_apply.unfolded",
                    "lie.rho_schedule.halvings"):
            out[key] = extra[key]
        return out

    def write_spans(self, path, header: dict) -> None:
        """All spans of all traced rounds, one JSON document."""
        with open(path, "w") as fh:
            json.dump({**header, "names": self.names,
                       "span_fields": ["name", "start_ns", "end_ns",
                                       "parent"],
                       "rounds": [r.spans for r in self.rounds]},
                      fh, separators=(",", ":"))
            fh.write("\n")
