"""Print one SHA-256 per shipped output of a source tree (a checkout with
`src/banachscale` and `README.md`): `python3 tools/digest.py TREE`.

Covered: `lie` per demo at caps 16/64/128 and in edge and error cases,
README examples but `verify` (stdout, stderr, exit code, engine `--json`
and `--csv`), each demo's residual and details, and `rho_schedule` at
five |j|.  Floats go through repr: clean `diff` = byte-identical outputs.
On fixed geometric, exp_power, product and scaled families, the sequence
layer prints its floats as `float.hex` instead of a digest:
`bruno_check` and `taming_epsilon_log` at depths 60 and 240 and
`bruno_transform` at n = 0..5; `lemma_rho` digests its rho JSON and
its report repr, and prints its sigma at n = 0..60 (`end` past a
table), so a change of sigma's representation shows as values.
"""

import dataclasses
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

CAPS = (16, 64, 128)
DEMOS = ("morse", "mather", "circle")
LIE_EXTRA = ("morse --steps 70", "morse --t 0.1", "mather --steps 0",
             "circle --omega 0.3 --steps 5", "mather --eps 1e-3",
             "circle --strip 0.6 --strip-end 0.3", "morse --eps 0.5",
             "morse --steps -1", "circle --omega 0.75", "morse --steps 121",
             "circle --steps 54")


def emit(label: str, data) -> None:
    data = data if isinstance(data, bytes) else repr(data).encode()
    print(hashlib.sha256(data).hexdigest(), label)


def cli(tree: Path, argv: list[str]) -> None:
    label = " ".join(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out = {"json": Path(tmp, "t.json"), "csv": Path(tmp, "t.csv")}
        if argv[0] in ("model", "newton", "nashmoser", "lie"):
            argv += ["--json", str(out["json"]), "--csv", str(out["csv"])]
        proc = subprocess.run(
            [sys.executable, "-m", "banachscale", *argv], capture_output=True,
            cwd=tmp, env=dict(os.environ, PYTHONPATH=str(tree / "src")))
        for name, data in (("stdout", proc.stdout), ("stderr", proc.stderr),
                           ("exit", proc.returncode)):
            emit(f"{label} :{name}", data)
        for name, path in out.items():
            if path.exists():
                emit(f"{label} :{name}", path.read_bytes())


def hexed(label: str, *xs: float) -> None:
    print(*(x.hex() for x in xs), label)


def sequence_layer() -> None:
    from banachscale import sequences as sq
    ps = sq.PositiveSequence
    grow = {"geometric:2.5": ps.geometric(2.5),
            "exp_power:1.3": ps.exp_power(1, 1.3),
            "geometric:1.5*exp_power:1.7^2": (ps.geometric(1.5)
                                              * ps.exp_power(1, 1.7) ** 2.0),
            "(exp_power:1.2^0.5)*3": (ps.exp_power(1, 1.2) ** 0.5).scaled(3.0)}
    for name, a in grow.items():
        for depth in (60, 240):
            cert = sq.bruno_check(a, depth)
            hexed(f"bruno_check {name} depth={depth}",
                  cert.partial_sum, cert.tail_bound)
            hexed(f"taming_epsilon_log {name} depth={depth}",
                  sq.taming_epsilon_log(a, depth))
        for n in range(6):
            res = sq.bruno_transform(a, n)
            hexed(f"bruno_transform {name} n={n}",
                  res.log_value, res.log_lower)
    strict = ps.exp_power(-1, 1.5)
    for name, a in grow.items():
        for ap_name, aprime, k, l in (("constant:2", ps.constant(2.0), 4, 1),
                                      ("geometric:1.5", ps.geometric(1.5),
                                       2, 3)):
            label = f"lemma_rho {name} aprime={ap_name} k={k} l={l}"
            rho, sigma, report = sq.lemma_rho(a, aprime, strict, k, l)
            emit(label, (rho.to_json(), repr(report)))
            print(*(sigma_hex(sigma, n) for n in range(61)), label, "sigma")


def sigma_hex(sigma, n: int) -> str:
    try:
        return sigma.value(n).hex()
    except ValueError:      # SequenceDomainError: past the end of a table
        return "end"


def main(tree: Path) -> None:
    runs = [f"{d} --cap {c}" for d in DEMOS for c in CAPS] + list(LIE_EXTRA)
    for run in runs:
        cli(tree, ["lie", "--demo", *run.split()])
    readme = (tree / "README.md").read_text().replace("\\\n", " ")
    for line in readme.splitlines():
        if line.startswith("banachscale ") and " verify" not in line:
            cli(tree, shlex.split(line, comments=True)[1:])
    sys.path.insert(0, str(tree / "src"))
    from banachscale import demos, lie
    from banachscale.sequences import PositiveSequence
    from banachscale.series import TruncatedSeries
    sequence_layer()
    for demo, cap in [(d, c) for d in DEMOS for c in CAPS]:
        rep = getattr(demos, demo)(cap=cap)
        emit(f"{demo}(cap={cap})", (rep.residual, rep.details))
    z3 = TruncatedSeries.monomial(3, 1.0, cap=64, ref_radius=1.0)
    b, const = PositiveSequence.exp_power(-1, 1.5), PositiveSequence.constant
    for name, problem, t in (("morse", demos.morse_problem(), 1.0),
                             ("mather", demos.mather_problem(z3), 0.8),
                             ("circle", demos.circle_problem(), 1.0)):
        for j in (1e-3, 0.05, 1.0, 10.0, 20.0):
            p = dataclasses.replace(problem, j_norms=const(j))
            try:
                s = lie.rho_schedule(p, b, t)
                out = (repr(s.report), s.rho.log_values(41).tobytes())
            except lie.LieError as exc:
                out = f"LieError: {exc}"
            emit(f"rho_schedule {name} |j|={j}", out)


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
