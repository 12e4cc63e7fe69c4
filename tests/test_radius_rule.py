"""One radius rule: outside `series.py`, a series is read at a radius
through `TruncatedSeries.at`, never by a hand-written restrict-unless.

`f.at(s)` is f itself when its reference radius is at most s and
`f.restrict(s)` otherwise; `align` reads both sides through it.  Spelling
that map again by hand (`f if f.ref_radius == t else f.restrict(t)`,
`f.restrict(min(s, f.ref_radius))`, an `if` on the radius around a
restrict) lets the copies drift apart, so the test walks each module of
`src/banachscale` except `series.py` with `ast` and fails at the
file:line of:

* a conditional, expression or statement, whose test reads `ref_radius`
  and whose branches call `.restrict(`;
* a `.restrict(` call whose argument reads `ref_radius`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "banachscale"


def _reads_ref_radius(node):
    return any(isinstance(n, ast.Attribute) and n.attr == "ref_radius"
               for n in ast.walk(node))


def _is_restrict(node):
    return isinstance(node, ast.Call) \
        and isinstance(node.func, ast.Attribute) \
        and node.func.attr == "restrict"


def _violations(tree):
    """Line numbers of the hand-written radius reads in one module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.IfExp, ast.If)) \
                and _reads_ref_radius(node.test):
            branches = node.body + node.orelse if isinstance(node, ast.If) \
                else [node.body, node.orelse]
            if any(_is_restrict(n) for b in branches for n in ast.walk(b)):
                lines.append(node.lineno)
        elif _is_restrict(node) and any(map(_reads_ref_radius, node.args)):
            lines.append(node.lineno)
    return lines


def test_series_are_read_at_a_radius_only_through_at():
    found = [f"src/banachscale/{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "series.py"
             for line in _violations(ast.parse(path.read_text(), str(path)))]
    assert not found, "restrict-unless written by hand (use .at):\n" \
        + "\n".join(found)


@pytest.mark.parametrize("source", [
    "tau = f if f.ref_radius == t else f.restrict(t)",
    "x = x0.restrict(s0) if x0.ref_radius > s0 else x0.copy()",
    "g = f if f.ref_radius <= t else f.restrict(t)",
    "p = g.cutoff(0, 1).restrict(min(s, g.ref_radius))",
    "if f.ref_radius > t:\n    f = f.restrict(t)",
    "def clamp(f, t):\n    return f if f.ref_radius <= t else f.restrict(t)",
])
def test_each_hand_written_spelling_is_caught(source):
    assert _violations(ast.parse(source))


@pytest.mark.parametrize("source", [
    "tau = f.at(t)",
    "if f.ref_radius < t:\n    raise ValueError('not certified at t')",
    "x = x.restrict(s_next) + w",
    "ref = w.ref_radius if w.tail == 0.0 else s + 0.75 * (w.ref_radius - s)",
])
def test_reads_through_at_and_plain_restricts_pass(source):
    assert _violations(ast.parse(source)) == []
