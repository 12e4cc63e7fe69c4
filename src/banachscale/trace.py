"""Iteration traces shared by the iteration engines.

Every engine (model iteration, Newton, Nash-Moser, Lie iteration)
records one `StepRecord` per step and wraps them in an `IterationTrace`
which knows how to serialize itself to CSV and JSON.  The CSV column set
is fixed so traces from different engines stay machine-comparable:

    n, s_n, |r_n|, |delta_n|, |u_n|, b_n, sigma_n, checks_passed

Engines that have no value for a column leave it empty.  All floats are
printed with 17 significant digits so a rerun with the same config is
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Any

CSV_COLUMNS = ("n", "s_n", "|r_n|", "|delta_n|", "|u_n|", "b_n", "sigma_n",
               "checks_passed")


def fmt17(x: float | None) -> str:
    """Format a float with 17 significant digits; empty string for None."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    return format(float(x), ".17g")


def _jsonable(x: Any) -> Any:
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        # inf/nan are not valid JSON; store as strings
        if math.isfinite(x):
            return x
        return repr(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if hasattr(x, "item"):        # numpy scalar
        return _jsonable(x.item())
    return str(x)


@dataclass
class StepRecord:
    """One step of an iteration: norms, bounds and per-step check outcome."""

    n: int
    radius: float | None = None          # s_n
    value_norm: float | None = None      # |r_n| (or |x_n|, engine-dependent)
    increment_norm: float | None = None  # |delta_n|
    aux_norm: float | None = None        # |u_n|
    bound: float | None = None           # b_n
    sigma: float | None = None           # sigma_n
    checks_passed: bool = True
    extra: dict = field(default_factory=dict)

    def csv_row(self) -> list[str]:
        return [
            str(self.n),
            fmt17(self.radius),
            fmt17(self.value_norm),
            fmt17(self.increment_norm),
            fmt17(self.aux_norm),
            fmt17(self.bound),
            fmt17(self.sigma),
            "1" if self.checks_passed else "0",
        ]


@dataclass
class IterationTrace:
    """Full record of an iteration run.

    `status` is 'ran' until the engine sets 'converged', 'diverged',
    'bounded' (model_iteration) or 'uncertified' (nash_moser, when the
    Bruno gate refuses); `certified` means every per-step check the
    engine performs passed, so the run's conclusion is backed by the
    recorded inequalities rather than by luck.
    """

    engine: str
    steps: list[StepRecord] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    status: str = "ran"
    certified: bool = False
    failures: list[str] = field(default_factory=list)

    def add(self, record: StepRecord) -> None:
        self.steps.append(record)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def all_checks_passed(self) -> bool:
        return not self.failures and all(s.checks_passed for s in self.steps)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for rec in self.steps:
                writer.writerow(rec.csv_row())

    def to_json(self, path: str | None = None) -> str:
        payload = {
            "engine": self.engine,
            "status": self.status,
            "certified": self.certified,
            "failures": list(self.failures),
            "metadata": _jsonable(self.metadata),
            "steps": [
                {
                    "n": rec.n,
                    "s_n": _jsonable(rec.radius),
                    "r_norm": _jsonable(rec.value_norm),
                    "delta_norm": _jsonable(rec.increment_norm),
                    "u_norm": _jsonable(rec.aux_norm),
                    "b_n": _jsonable(rec.bound),
                    "sigma_n": _jsonable(rec.sigma),
                    "checks_passed": rec.checks_passed,
                    "extra": _jsonable(rec.extra),
                }
                for rec in self.steps
            ],
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
                fh.write("\n")
        return text
