"""Print the shipped outputs of a source tree, one value a line:
`python3 tools/digest.py [TREE] > tests/golden/outputs.txt`.

TREE is a checkout with `src/banachscale` and `README.md`, by default
this file's own.  Its `banachscale` is imported and each CLI line runs
through `cli.main(argv)` in this process, with stdout and stderr
captured.  `tests/test_golden.py` regenerates the lines the same way and
compares them with the checked-in file, so a change that moves an output
fails tier-1 until the file is regenerated, and the file's diff is the
list of moved outputs.

The first line names the Python and numpy versions.  Then come blocks,
each opened by a label line:

* `$ banachscale ARGV`: `lie` per demo at caps 16/64/128 and in edge and
  error cases, and every `banachscale` line of the README; then
  `exit N`, stdout, and stderr after a `-- stderr` line.  An engine's
  `--json` and `--csv` files print as SHA-256.
* `@ NAME`: library outputs as `float.hex`.  Each demo at caps
  16/64/128 prints its residual, every detail (a non-float as its repr)
  and every row's `value_norm`, then its b_n and sigma_n (`None` when
  absent) and `checks_passed`; `morse` and `mather` then run again in
  the same process and print the SHA-256 of both runs' trace JSON,
  which must agree.  The sequence layer on fixed geometric,
  exp_power, product and scaled families prints `bruno_check` and
  `taming_epsilon_log` at depths 60 and 240, `bruno_transform` at
  n = 0..5, and `lemma_rho`'s report, the SHA-256 of its rho's JSON
  and its sigma at n = 0..60 (`end` past a table).  Under `@ sequence
  refusals`, families that refuse an index (factors ending at different
  indices, in both orders; a gap over a refusing base; an overflowing
  alpha^n inside a product; start > stop and a negative start) print,
  for `log_values(window, start)`, the logs `log_rows` reads before the
  refusal (`empty` when none) and the refusal's type and message
  (`none` when there is none).  `rho_schedule` at
  five |j| prints its report (or the `LieError`) and the SHA-256 of
  rho's logs at n = 0..40.  A report prints as its repr, except that
  each tuple of per-n verdicts reads `all N true` or
  `false at [n, ...] of N`.
"""

import contextlib
import dataclasses
import hashlib
import io
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CAPS = (16, 64, 128)
DEMOS = ("morse", "mather", "circle")
LIE_EXTRA = ("morse --steps 70", "morse --t 0.1", "mather --steps 0",
             "circle --omega 0.3 --steps 5", "mather --eps 1e-3",
             "circle --strip 0.6 --strip-end 0.3", "morse --eps 0.5",
             "morse --steps -1", "circle --omega 0.75", "morse --steps 121",
             "circle --steps 54")
ENGINES = ("model", "newton", "nashmoser", "lie")
REPLAYED = ("morse", "mather")     # certified demos, run twice in process


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_run(argv: list[str]) -> list[str]:
    """One CLI run as its label, exit code, stdout and stderr lines."""
    from banachscale.cli import main
    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: Path(tmp, f"t.{name}") for name in ("json", "csv")}
        if argv[0] in ENGINES:
            label += " --json t.json --csv t.csv"
            argv = [*argv, "--json", str(files["json"]),
                    "--csv", str(files["csv"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = [f"$ banachscale {label}", f"exit {code}",
                 *out.getvalue().splitlines()]
        if err.getvalue():
            lines += ["-- stderr", *err.getvalue().splitlines()]
        lines += [f"{name} sha256 {sha(path.read_bytes())}"
                  for name, path in files.items() if path.exists()]
    return lines


def trace_sha(report) -> str:
    return sha(report.trace.to_json().encode())


def hexed(*xs: float) -> str:
    return " ".join(float.hex(x) for x in xs)


def maybe_hex(x: float | None) -> str:
    return "None" if x is None else float.hex(x)


def verdicts(flags: tuple) -> str:
    """A tuple of per-n verdicts as `all N true` or `false at [n, ...] of
    N`, which loses nothing."""
    bad = [n for n, ok in enumerate(flags) if not ok]
    n = len(flags)
    return f"false at {bad} of {n}" if bad else f"all {n} true"


def report_text(report) -> str:
    """A report dataclass as its repr, its verdict tuples (also those in
    a dict of conditions) printed by `verdicts`."""
    def text(v):
        if isinstance(v, dict):
            return "{" + ", ".join(f"{k!r}: {text(x)}"
                                   for k, x in v.items()) + "}"
        if isinstance(v, tuple) and all(isinstance(x, bool) for x in v):
            return verdicts(v)
        return repr(v)
    return (f"{type(report).__name__}("
            + ", ".join(f"{f.name}={text(getattr(report, f.name))}"
                        for f in dataclasses.fields(report)) + ")")


def sigma_hex(sigma, n: int) -> str:
    try:
        return sigma.value(n).hex()
    except ValueError:      # SequenceDomainError: past the end of a table
        return "end"


def sequence_layer() -> list[str]:
    from banachscale import sequences as sq
    ps = sq.PositiveSequence
    grow = {"geometric:2.5": ps.geometric(2.5),
            "exp_power:1.3": ps.exp_power(1, 1.3),
            "geometric:1.5*exp_power:1.7^2": (ps.geometric(1.5)
                                              * ps.exp_power(1, 1.7) ** 2.0),
            "(exp_power:1.2^0.5)*3": (ps.exp_power(1, 1.2) ** 0.5).scaled(3.0)}
    strict = ps.exp_power(-1, 1.5)
    lines = []
    for name, a in grow.items():
        lines.append(f"@ sequences {name}")
        for depth in (60, 240):
            cert = sq.bruno_check(a, depth)
            lines += [f"bruno_check depth={depth} "
                      f"{hexed(cert.partial_sum, cert.tail_bound)}",
                      f"taming_epsilon_log depth={depth} "
                      f"{hexed(sq.taming_epsilon_log(a, depth))}"]
        for n in range(6):
            res = sq.bruno_transform(a, n)
            lines.append(f"bruno_transform n={n} "
                         f"{hexed(res.log_value, res.log_lower)}")
        for ap_name, aprime, k, l in (("constant:2", ps.constant(2.0), 4, 1),
                                      ("geometric:1.5", ps.geometric(1.5),
                                       2, 3)):
            label = f"lemma_rho aprime={ap_name} k={k} l={l}"
            rho, sigma, report = sq.lemma_rho(a, aprime, strict, k, l)
            lines += [f"{label} report {report_text(report)}",
                      f"{label} rho sha256 {sha(rho.to_json().encode())}",
                      f"{label} sigma "
                      + " ".join(sigma_hex(sigma, n) for n in range(61))]
    return lines


def refusal_text(call) -> str:
    try:
        call()
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "none"


def refusals() -> list[str]:
    from banachscale import sequences as sq
    ps = sq.PositiveSequence
    tab2, tab3 = ps.tabulated([2.0, 3.0]), ps.tabulated([2.0, 3.0, 5.0])
    huge = ps.exp_power(1, 1e200)       # alpha^n overflows at n = 2
    scaled = (ps.exp_power(-1, 1.5) ** 2.0).scaled(3.0)
    cases = (("tab3*tab2", tab3 * tab2, 0, 4),
             ("tab2*tab3", tab2 * tab3, 0, 4),
             ("tab2*exp_power:1e200", tab2 * huge, 0, 4),
             ("exp_power:1e200*tab2", huge * tab2, 0, 4),
             ("gap(tab:0.5,0.25,0.9)",
              ps.tabulated([0.5, 0.25, 0.9]).gap(), 0, 4),
             ("gap(tab:0.5,2,0.5)", ps.tabulated([0.5, 2.0, 0.5]).gap(), 0, 4),
             ("gap(exp_power:1e200^-1)", (huge ** -1.0).gap(), 0, 4),
             ("geometric:2*exp_power:1e6",
              ps.geometric(2.0) * ps.exp_power(1, 1e6), 0, 60),
             ("((exp_power:-1.5^2)*3)*exp_power:1e6",
              scaled * ps.exp_power(1, 1e6), 40, 60),
             ("tab3", tab3, 5, 2), ("tab3", tab3, -1, -3),
             ("tab3", tab3, -1, 2))
    lines = ["@ sequence refusals"]
    for name, seq, start, window in cases:
        label = f"{name} log_values({window}, start={start})"
        (logs,), _ = sq.log_rows([seq], start, window + 1)
        lines += [f"{label} logs {hexed(*logs.tolist()) or 'empty'}",
                  f"{label} refusal " + refusal_text(
                      lambda: seq.log_values(window, start=start))]
    return lines


def demo_outputs() -> list[str]:
    from banachscale import demos
    lines = []
    for demo in DEMOS:
        for cap in CAPS:
            rep = getattr(demos, demo)(cap=cap)
            lines += [f"@ {demo}(cap={cap})",
                      f"residual {hexed(rep.residual)}"]
            lines += [f"{key} {hexed(v) if isinstance(v, float) else repr(v)}"
                      for key, v in rep.details.items()]
            for rec in rep.trace.steps:
                lines += [f"row {rec.n} value_norm {hexed(rec.value_norm)}",
                          f"row {rec.n} b_n {maybe_hex(rec.bound)} sigma_n "
                          f"{maybe_hex(rec.sigma)} checks_passed "
                          f"{rec.checks_passed}"]
            if demo in REPLAYED:
                again = getattr(demos, demo)(cap=cap)
                lines.append(f"trace sha256 {trace_sha(rep)} replay "
                             f"{trace_sha(again)}")
    return lines


def schedules() -> list[str]:
    from banachscale import demos, lie
    from banachscale.sequences import PositiveSequence
    from banachscale.series import TruncatedSeries
    z3 = TruncatedSeries.monomial(3, 1.0, cap=64, ref_radius=1.0)
    b, const = PositiveSequence.exp_power(-1, 1.5), PositiveSequence.constant
    lines = []
    for name, problem, t in (("morse", demos.morse_problem(), 1.0),
                             ("mather", demos.mather_problem(z3), 0.8),
                             ("circle", demos.circle_problem(), 1.0)):
        lines.append(f"@ rho_schedule {name}")
        for j in (1e-3, 0.05, 1.0, 10.0, 20.0):
            p = dataclasses.replace(problem, j_norms=const(j))
            try:
                s = lie.rho_schedule(p, b, t)
            except lie.LieError as exc:
                lines.append(f"|j|={j} LieError: {exc}")
                continue
            lines += [f"|j|={j} report {report_text(s.report)}",
                      f"|j|={j} rho logs sha256 "
                      f"{sha(s.rho.log_values(41).tobytes())}"]
    return lines


def outputs(tree: Path = ROOT) -> list[str]:
    """Every line of the golden file, header first, for the `banachscale`
    importable here and the README of tree."""
    lines = [f"# python {platform.python_version()} numpy {np.__version__}"]
    runs = [f"{d} --cap {c}" for d in DEMOS for c in CAPS] + list(LIE_EXTRA)
    for run in runs:
        lines += cli_run(["lie", "--demo", *run.split()])
    readme = (tree / "README.md").read_text().replace("\\\n", " ")
    for line in readme.splitlines():
        if line.startswith("banachscale "):
            lines += cli_run(shlex.split(line, comments=True)[1:])
    return (lines + sequence_layer() + refusals() + demo_outputs()
            + schedules())


if __name__ == "__main__":
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    sys.path.insert(0, str(tree / "src"))
    print("\n".join(outputs(tree)))
