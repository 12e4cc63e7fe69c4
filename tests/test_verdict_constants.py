"""Every float constant that reaches an ordering comparison in
`src/banachscale` is listed here with the reason it is there.

A verdict is a plain comparison of the operands the code computed.  A
margin such as `ratio <= C + 1e-9` would pass an inequality that is
broken by less than the margin, so no such constant may enter a
comparison unexplained.  The test walks each module with `ast` and
collects the float constants inside `<`, `<=`, `>` and `>=`
comparisons: those written in the comparison, and those reached through
a name it reads, followed to the name's assignments or parameter default
in the enclosing functions, then in the module, and on through the names
those read.  Along a name, the arguments of a call are searched only when
the call is arithmetic (abs, float, max, min, pow, math or numpy); any
other call returns an operand the code computed.  A constant
subexpression counts as one constant, so `2.0 ** -53` is 2^-53 and
`4.0 * math.e` is 4e.

Each constant must appear in ALLOWED under its (module, function), with
a one-line derivation; an unlisted one fails the test at its file:line,
and so does an entry that no comparison uses any more.
"""

import ast
import math
import operator
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "banachscale"
ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_ARITHMETIC = {"abs", "float", "max", "min", "pow"}

ALLOWED = {
    ("cli", "_cmd_newton"): {
        1.0: "the ball |x - x0| <= 1 must stay off 0 for |j| <= "
             "1/(2(x0 - 1))",
    },
    ("demos", "circle"): {
        0.0: "f must have zero mean: any nonzero |f_0| is refused",
    },
    ("demos", "circle_problem"): {
        0.0: "omega > 0",
        (1.0 + math.sqrt(5.0)) / 2.0: "omega's default, the golden mean",
    },
    ("demos", "_tuned_schedule"): {
        0.0: "t > 0: rho_schedule's own check, run before the key is built",
    },
    ("demos", "mather_problem.m_member"): {
        1e-12: "_FLOOR: membership ignores coefficients below 1e-12 times "
               "the run's seed's largest (ROADMAP item 1: derive it)",
    },
    ("demos", "circle_problem.qi"): {
        math.pi: "|mean| >= pi omega, half the start 2 pi omega, so "
                 "|j| = 1/(pi omega) holds",
        (1.0 + math.sqrt(5.0)) / 2.0: "omega's default, the golden mean",
    },
    ("iterate", "RadiusSchedule.__init__"): {
        0.0: "0 < q, 0 < s_inf < s0, s0 > 0, and log rho_n < 0",
        1.0: "q < 1",
    },
    ("iterate", "newton"): {
        0.5: "C = m M / 2, the Kantorovich quadratic constant",
        1.0: "entry condition |x_1 - x_0| < 1/C; max(1, |x|) of the stop",
        1e-14: "stopping rule: below 1e-14 max(1, |x|) an increment is "
               "rounding and its ratio means nothing",
        0.0: "a ratio needs a nonzero previous increment",
    },
    ("iterate", "nash_moser"): {
        2.0: "the closed-form envelope (prod a_k^(2^-k) d_0)^(2^n)",
        700.0: "overflow guard: e^700 is finite, e^710 is not",
        1e-16: "stopping rule: below 1e-16 (1 + |x|) an increment is "
               "rounding",
        1.0: "the 1 of the stopping rule's 1 + |x|",
    },
    ("lie", "lie_step"): {
        0.0: "radii fall: 0 < s_{n+1} < s_n; a tail to move to the slack",
    },
    ("lie", "rho_schedule"): {
        0.0: "t > 0; a tamed log below 0 is lifted to 0",
    },
    ("lie", "rho_schedule.lie_conditions"): {
        0.5: "rho_n^(1/2) against rho_(n+1)^(1/2) and sigma^(-k/2) in the "
             "linear-branch and transversal conditions",
        0.25: "the exponent 1/4 of rho_(n+1) in the smallness conditions "
              "and of rho_n in the n-range",
        math.log(4.0) + 1.0: "log 4e, the 4e of N2",
        math.log(2.0): "n-range: rho_n^(1/4) < 2^-n",
    },
    ("lie", "run_lie"): {
        0.0: "a tail to move into the slack",
        1e-10: "status rule: |r_N| + slack <= 1e-10 (1 + |x_0|) is "
               "'converged'; the verdict is certify's, not the status",
        1.0: "the 1 of the status rule's 1 + |x_0|",
    },
    ("lie", "certify"): {
        0.5: "N1: |delta_n| <= 2^-(n+1)",
        4.0 * math.e: "N2: |r_n| <= sigma_n / (4 e |j_n|)",
    },
    ("lie", "involutive_quasi_inverse"): {
        1e-12: "_QI_TOL: a sampled coefficient defect above 1e-12 "
               "(1 + the sample's norms) refutes the identity",
        1.0: "the 1 of the sample scale",
    },
    ("local_ops", "WeightFunction.value"): {0.0: "0 < s <= t"},
    ("local_ops", "_check_window"): {0.0: "0 < s <= t"},
    ("local_ops", "borel_apply"): {
        0.0: "a nonzero operator; a tailed iterate; a positive remainder",
        1.0: "lambda = 1 at s = t; no factor e for a derivation; 1 - x "
             "of the rounding stop; the remainder's 1 +- 4 eps",
        4.0: "the remainder |f|(x)(1 + 4 eps) - partial (1 - 4 eps) "
             "rounds each side outward by 4 eps",
        math.e: "a generic operator's chain factor, n^n <= e^n n! "
                "(module docstring)",
        0.75: "radius descent: a tailed iterate moves 3/4 of the way to s",
        1e-18: "stopping rule: a term below 1e-18 |g|_t is stagnation, "
               "and the series ends inexact",
        1e-300: "keeps that threshold positive when |g|_t = 0",
        2.0 ** -53: "the rounding stop: 2^-53, the unit roundoff "
                    "(module docstring)",
    },
    ("local_ops", "product_of_exponentials"): {
        1.0: "each x_n = |u_n|/lambda_n <= 1, and sigma < 1 for the "
             "bound sigma/(1 - sigma)",
    },
    ("sequences", "PositiveSequence._log_tails"): {
        2.0: "the closed-form tail sum_k alpha^k / 2^(k+1) needs alpha < 2",
    },
    ("sequences", "PositiveSequence.divergence_witness"): {
        2.0: "alpha >= 2 makes sum_k alpha^k / 2^(k+1) diverge",
    },
    ("sequences", "_transform_logs"): {0.0: "admissible: a_k >= 1"},
    ("sequences", "_gap_logs"): {0.0: "the gap needs a_n < 1"},
    ("sequences", "log_one_minus_exp"): {
        math.log(2.0): "the switch between log1p and log(-expm1)",
    },
    ("sequences", "tame_check"): {
        2.0: "(*) a_n b_n^2 <= b_(n+1) in logs",
        0.0: "a >= 1 and b <= 1",
    },
    ("sequences", "strictness_check"): {
        0.0: "b <= 1",
        2.0: "b_n^2 <= b_(n+1) in logs",
    },
    ("sequences", "model_iteration"): {
        math.log(2.0): "x' = (a x^2 + b x) / 2 in logs",
        2.0: "the square of a x^2 in logs",
        700.0: "overflow guard: e^700 is finite, e^710 is not",
        -50.0: "status rule: 'converged' once log x < min(-50, log x_0); "
               "the verdict is the envelope check, not the status",
    },
    ("sequences", "lemma_rho"): {
        1.0: "1 < alpha < 2; 0 < K < 1",
        2.0: "1 < alpha < 2",
        0.0: "0 < K < 1",
        1.5: "alpha's default, the rate of e^(-alpha^n)",
    },
    ("sequences", "lemma_rho.attempt"): {
        2.0: "(*) for the pair: a_n sigma_n^-k y_n^2 <= y_(n+1) in logs",
    },
    ("series", "TruncatedSeries.__init__"): {
        0.0: "a positive radius and a nonnegative tail",
    },
    ("series", "TruncatedSeries.majorant_norm"): {0.0: "t > 0"},
    ("series", "TruncatedSeries.hilbert_norm"): {0.0: "t > 0"},
    ("series", "TruncatedSeries.reciprocal"): {
        1.0: "theta = |1 - f/c| < 1 for the Neumann series",
    },
    ("series", "TruncatedSeries.derivative"): {
        0.0: "a tail forces 0 < s < r; a tail-free series needs none",
    },
    ("series", "TruncatedSeries.divide_by_coordinate"): {
        0.0: "a tail drops the cap by one",
    },
    ("series", "TruncatedSeries.order"): {
        0.0: "tol's default: a nonzero coefficient counts",
    },
    ("series", "TruncatedSeries.restrict"): {0.0: "0 < s <= ref_radius"},
}


def _fold(node):
    """The value of a constant numeric expression, else None."""
    if isinstance(node, ast.Constant):
        value = node.value
        return value if type(value) in (int, float) else None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _fold(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        left, right = _fold(node.left), _fold(node.right)
        if left is not None and right is not None:
            return _BINOPS[type(node.op)](left, right)
    if _in_math(node) and node.attr in ("e", "pi"):
        return getattr(math, node.attr)
    if isinstance(node, ast.Call) and _in_math(node.func) and node.args \
            and not node.keywords:
        args = [_fold(arg) for arg in node.args]
        if None not in args:
            return getattr(math, node.func.attr)(*args)
    return None


def _in_math(node):
    return isinstance(node, ast.Attribute) \
        and isinstance(node.value, ast.Name) and node.value.id == "math"


def _arithmetic(call):
    """A call that only does arithmetic on its arguments."""
    f = call.func
    return (isinstance(f, ast.Name) and f.id in _ARITHMETIC) or (
        isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
        and f.value.id in ("math", "np"))


def _constants(node, opaque_calls):
    """(value, line) of each maximal float constant in node, and the
    names node reads.  With opaque_calls, a call that is not arithmetic
    is an operand the code computed: its arguments are not searched."""
    found, names = [], []

    def walk(n):
        value = _fold(n)
        if value is not None:
            if isinstance(value, float):
                found.append((value, n.lineno))
            return
        if isinstance(n, ast.Call) and opaque_calls and not _arithmetic(n):
            return
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.append(n.id)
        for child in ast.iter_child_nodes(n):
            walk(child)
    walk(node)
    return found, names


class _Scope:
    """The names a module, class or function binds, each to the
    (scope, expression) pairs that give its value: an assignment or a
    parameter default, read here, or a nested function's return values,
    read in that function.  As in Python, a method does not see its
    class's names."""

    def __init__(self, node, parent):
        self.parent = parent
        self.bindings = {}
        self.returns = []
        self.is_class = isinstance(node, ast.ClassDef)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) \
                + list(args.defaults)
            for arg, default in zip(positional + args.kwonlyargs,
                                    defaults + args.kw_defaults):
                self.bindings.setdefault(arg.arg, [])
                if default is not None:
                    self.bindings[arg.arg].append((self, default))
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    self.bindings.setdefault(arg.arg, [])

    def bind(self, target, value):
        if isinstance(target, ast.Name):
            self.bindings.setdefault(target.id, []).append((self, value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = value.elts if isinstance(value, (ast.Tuple, ast.List)) \
                and len(value.elts) == len(target.elts) else None
            for i, elt in enumerate(target.elts):
                self.bind(elt, items[i] if items else ast.Constant(None))

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.bindings and (scope is self
                                           or not scope.is_class):
                return scope
            scope = scope.parent
        return None


def _collect(path):
    """(function, value, literal line, comparison line) for every float
    constant reaching an ordering comparison in one module."""
    tree = ast.parse(path.read_text(), str(path))
    hits = []

    def visit(node, scope, qualname, comparisons):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(qualname + [child.name])
                inner = _Scope(child, scope)
                found = []
                visit(child, inner, qualname + [child.name], found)
                functions.append((inner, name, found))
                if qualname and not scope.is_class:     # a nested function
                    scope.bindings.setdefault(child.name, []).extend(
                        (inner, value) for value in inner.returns)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, _Scope(child, scope), qualname + [child.name],
                      comparisons)
                continue
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    scope.bind(target, child.value)
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)) \
                    and child.value is not None:
                scope.bind(child.target, child.value)
            elif isinstance(child, ast.NamedExpr):
                scope.bind(child.target, child.value)
            elif isinstance(child, (ast.For, ast.comprehension)):
                scope.bind(child.target, ast.Constant(None))
            elif isinstance(child, ast.Return) and child.value is not None:
                scope.returns.append(child.value)
            if isinstance(child, ast.Compare) \
                    and any(isinstance(op, ORDERING) for op in child.ops):
                comparisons.append(child)
            visit(child, scope, qualname, comparisons)

    def resolve(scope, name, comparisons):
        for cmp in comparisons:
            seen = set()
            pending = [(scope, cmp)]
            while pending:
                where, expr = pending.pop()
                found, names = _constants(expr, expr is not cmp)
                hits.extend((name, value, line, cmp.lineno)
                            for value, line in found)
                for ident in names:
                    owner = where.lookup(ident)
                    if owner is None or (id(owner), ident) in seen:
                        continue
                    seen.add((id(owner), ident))
                    pending.extend(owner.bindings[ident])

    module = _Scope(tree, None)
    functions = [(module, "<module>", [])]
    visit(tree, module, [], functions[0][2])
    for scope, name, comparisons in functions:   # every name is bound now
        resolve(scope, name, comparisons)
    return hits


def test_every_compared_constant_is_derived():
    unlisted, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for func, value, line, cmp_line in _collect(path):
            key = (path.stem, func)
            if value in ALLOWED.get(key, {}):
                used.add((key, value))
            else:
                unlisted.append(f"src/banachscale/{path.name}:{line}: "
                                f"{value!r} in {func}, compared at line "
                                f"{cmp_line}")
    stale = [f"{key}: {value!r}" for key, entries in ALLOWED.items()
             for value in entries if (key, value) not in used]
    assert not unlisted, "constants in a comparison with no derivation:\n" \
        + "\n".join(unlisted)
    assert not stale, "allow-list entries no comparison uses:\n" \
        + "\n".join(stale)

