"""banachscale benchmark: one workload, one closed loop, one result line.

    python3 bench/run.py --workload engines --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  One process runs the workload's
fixed op list (workloads.py) round after round, one op at a time, until
--seconds have passed, and always at least enough rounds for 100 ops.
Outputs of the first round are checked against references computed
apart from the program (checks.py); every later round must reproduce
them byte for byte.  The last line of stdout is one JSON object with
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
of a fresh interpreter (median of three), round wall time (median),
per-op p50 and p90 over all rounds, and peak resident memory.
--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics (medians over traced rounds) and the tracing overhead.
Per-run results and spans go to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = HERE / "results"
MIN_OPS = 100
SETUP_PROBES = 3


def _import_program() -> None:
    """Put the checkout's src first on the path and import from it."""
    if not (SRC / "banachscale" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC}/banachscale; run from the "
                 "root of a banachscale checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import banachscale
    if Path(banachscale.__file__).resolve().parent != SRC / "banachscale":
        sys.exit(f"bench: imported banachscale from {banachscale.__file__}")


def probe(workload: str, seed: int) -> None:
    """Set-up as a user pays it: import, build the inputs, one warm-up op."""
    _import_program()
    import workloads
    workloads.build(workload, seed)[0].run()


def _probe_cmd(workload: str, seed: int, flags=()) -> list[str]:
    return [sys.executable, *flags, str(Path(__file__).resolve()),
            "--probe", "--workload", workload, "--seed", str(seed)]


def setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(_probe_cmd(workload, seed), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_split(workload: str, seed: int) -> dict[str, float]:
    """Cumulative import time of banachscale and of the scipy.signal
    import inside it (0 when the package no longer imports it), from
    -X importtime of fresh probes; medians over the probes."""
    found: dict[str, list[float]] = {"banachscale": [], "scipy.signal": []}
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(_probe_cmd(workload, seed, ("-X", "importtime")),
                              cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for key in found:
            found[key].append(seen.get(key, 0.0))
    return {"setup.package_import_s": statistics.median(found["banachscale"]),
            "setup.scipy_signal_import_s":
                statistics.median(found["scipy.signal"])}


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest rank: the smallest value with at least q of the samples
    at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Closed loop over whole rounds of one op list."""

    def __init__(self, ops):
        self.ops = ops
        self.op_seconds: list[float] = []
        self.round_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.first: list = []
        self.first_digest: list = []
        self.mismatches: list[str] = []

    def round(self) -> float:
        outputs = []
        perf = time.perf_counter
        start = perf()
        for op in self.ops:
            t0 = perf()
            try:
                out = op.run()
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            outputs.append((out, perf() - t0))
        seconds = perf() - start
        self.attempted += len(self.ops)
        digests = []
        for op, (out, dt) in zip(self.ops, outputs):
            if isinstance(out, Exception):
                self.failed += 1
                digests.append(f"failed: {type(out).__name__}")
            else:
                self.op_seconds.append(dt)
                digests.append(hashlib.sha256(op.canon(out)).hexdigest())
        if not self.first:
            self.first = [out for out, _ in outputs]
            self.first_digest = digests
        else:
            self.mismatches += [
                f"{op.kind} #{i}: output differs from round 1"
                for i, op in enumerate(self.ops)
                if digests[i] != self.first_digest[i]]
        self.round_seconds.append(seconds)
        return seconds

    def check_first_round(self, checks) -> list[str]:
        """Reference-check every op of round 1 that did not fail."""
        problems = list(self.mismatches)
        for op, out in zip(self.ops, self.first):
            if isinstance(out, Exception):
                print(f"failed op {op.kind}: {out}", file=sys.stderr)
                continue
            try:
                op.check(out)
            except checks.CheckError as exc:
                problems.append(f"{op.kind}: {exc}")
        return problems


def _spec_metrics(section: str) -> list[tuple[str, str]]:
    spec = json.loads(SPEC.read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: one set-up probe, then exit")
    args = p.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.seconds is None:
        p.error("--seconds is required")

    _import_program()
    if not SPEC.is_file():
        sys.exit(f"bench: {SPEC} is missing")
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}")

    metrics: dict[str, float] = {}
    if args.trace == 0:
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
    else:
        metrics.update(import_split(args.workload, args.seed))

    ops = workloads.build(args.workload, args.seed)
    try:
        ops[0].run()                       # warm-up, untimed
    except Exception as exc:
        print(f"warm-up op {ops[0].kind} failed: {exc}", file=sys.stderr)
    runner = Runner(ops)
    min_rounds = math.ceil(MIN_OPS / len(ops))
    tracer = None
    if args.trace == 1:
        import tracing
        tracer = tracing.Tracer()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while (len(traced) < min_rounds or len(untraced) < min_rounds
               or time.perf_counter() < deadline):
            untraced.append(runner.round())
            with tracer.patched():
                traced.append(runner.round())
        per_round = [tracer.round_metrics(r) for r in tracer.rounds]
        for key in per_round[0]:
            metrics[key] = statistics.median(m[key] for m in per_round)
        metrics["bench.trace_overhead_s"] = (statistics.median(traced)
                                             - statistics.median(untraced))
    else:
        deadline = time.perf_counter() + args.seconds
        while (len(runner.round_seconds) < min_rounds
               or time.perf_counter() < deadline):
            runner.round()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        times = sorted(runner.op_seconds)
        metrics["wall_s"] = statistics.median(runner.round_seconds)
        metrics["op_p50_ms"] = _percentile(times, 0.5) * 1e3
        metrics["op_p90_ms"] = _percentile(times, 0.9) * 1e3
        metrics["peak_rss_mb"] = peak_mb

    problems = runner.check_first_round(checks)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    declared = _spec_metrics(section)
    missing = [name for name, _ in declared if name not in metrics]
    if missing:
        sys.exit(f"bench: no measurement for {missing}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": len(runner.round_seconds),
              "ops_per_round": len(ops),
              "op_kinds": sorted({op.kind for op in ops}),
              "python": sys.version.split()[0], "cpus": os.cpu_count()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{args.workload}-spans.json",
                           {"workload": args.workload, "seed": args.seed})
    for name, unit in declared:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"attempted {runner.attempted} failed {runner.failed} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
