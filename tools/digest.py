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
  and every row's `value_norm`.  The sequence layer on fixed geometric,
  exp_power, product and scaled families prints `bruno_check` and
  `taming_epsilon_log` at depths 60 and 240, `bruno_transform` at
  n = 0..5, and `lemma_rho`'s report repr, the SHA-256 of its rho's
  JSON and its sigma at n = 0..60 (`end` past a table).
  `rho_schedule` at five |j| prints its report repr (or the `LieError`)
  and the SHA-256 of rho's logs at n = 0..40.
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


def hexed(*xs: float) -> str:
    return " ".join(float.hex(x) for x in xs)


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
            lines += [f"{label} report {report!r}",
                      f"{label} rho sha256 {sha(rho.to_json().encode())}",
                      f"{label} sigma "
                      + " ".join(sigma_hex(sigma, n) for n in range(61))]
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
            lines += [f"row {rec.n} value_norm {hexed(rec.value_norm)}"
                      for rec in rep.trace.steps]
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
            lines += [f"|j|={j} report {s.report!r}",
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
    return lines + sequence_layer() + demo_outputs() + schedules()


if __name__ == "__main__":
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    sys.path.insert(0, str(tree / "src"))
    print("\n".join(outputs(tree)))
