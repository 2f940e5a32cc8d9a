"""Benchmark of eclab: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sparse-ladder --seed 1 --seconds 25 --trace 0

Load is closed-loop with one client: the units of the workload run one
after another, each in a fresh interpreter (``worker.py``), so eclab's
lru caches start cold as they do for a user's invocation.

``--trace 0`` first starts a few set-up probes, then cycles through the
units, in an order drawn from ``--seed``, until at least one full pass is
done and ``--seconds`` have elapsed.  It prints the end-to-end metrics:

* ``setup_s``: median over the interpreters started of the time from
  process start to the first timed call (interpreter start, ``import
  eclab``, building the inputs).  The first probe only warms the bytecode
  cache and is not counted.
* ``wall_s``: one pass over the workload, as the sum over its units of the
  median timed wall time of each unit.
* ``instance_p50_ms`` / ``instance_p99_ms``: percentiles over the
  workload's instances of each instance's median latency.
* ``peak_rss_mib``: the largest peak resident set of any interpreter.

Every time is host-adjusted: each interpreter also times a fixed loop that
never touches eclab (``worker.gauge_s``), and its measured seconds are
scaled by ``GAUGE_NOMINAL_S / gauge``.  On a shared host whose speed drifts
by tens of percent over minutes this keeps the figures comparable from run
to run; a change to eclab still moves them in full.  The unadjusted wall
time is printed on stderr.

``--trace 1`` runs every unit once untraced and once under the tracer and
prints the per-layer metrics of the traced pass, plus ``bench.check_s``
and ``bench.trace_overhead_ratio``.  Spans go to ``.perfbench/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``attempted`` counts checked operations and ``failed`` those whose output
was wrong.  A worker that crashes or a missing ``src/eclab`` ends the run
with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
#: Set-up probes per run, after one warm-up probe that is not counted.
PROBES = 5
#: Every worker must end before this many seconds into the run.
RUN_LIMIT_S = 170.0
#: The gauge loop's typical time on the machine where the benchmark was
#: defined (2-vCPU KVM guest, Intel Xeon, Python 3.11.7).
GAUGE_NOMINAL_S = 0.0005


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def spawn(self, unit: str | None = None, spans: Path | None = None) -> dict:
        """Run one worker to completion and return its report."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        if unit is None:
            cmd.append("--probe")
        else:
            cmd += ["--unit", unit]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker for {unit!r} did not finish within the run limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker for {unit!r} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError) as exc:
            raise BenchError(f"worker for {unit!r} printed no report: {proc.stdout[-500:]!r}") from exc


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(report: dict) -> float:
    """Factor that turns a worker's measured seconds into host-adjusted ones."""
    return GAUGE_NOMINAL_S / report["gauge_s"]


def measure(runner: Runner, units: list[str], seconds: float) -> tuple[dict, list[dict]]:
    """End-to-end metrics of one untraced run."""
    probes = [runner.spawn() for _ in range(PROBES + 1)][1:]
    reports: list[tuple[str, dict]] = []
    start = time.monotonic()
    while len(reports) < len(units) or time.monotonic() - start < seconds:
        unit = units[len(reports) % len(units)]
        reports.append((unit, runner.spawn(unit)))

    per_unit: dict[str, list[float]] = {}
    per_instance: dict[str, list[float]] = {}
    for unit, r in reports:
        per_unit.setdefault(unit, []).append(r["timed_s"] * speed(r))
        for key, seconds_taken in r["instances"]:
            per_instance.setdefault(key, []).append(seconds_taken * speed(r))
    instance_ms = [1000 * statistics.median(v) for v in per_instance.values()]
    everyone = probes + [r for _, r in reports]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * speed(r) for r in everyone), "s"),
        "wall_s": (sum(statistics.median(v) for v in per_unit.values()), "s"),
        "instance_p50_ms": (statistics.median(instance_ms), "ms"),
        "instance_p99_ms": (percentile(instance_ms, 99), "ms"),
        "peak_rss_mib": (max(r["peak_rss_mib"] for r in everyone), "MiB"),
    }
    raw_wall = sum(statistics.median([r["timed_s"] for u, r in reports if u == unit]) for unit in per_unit)
    print(
        f"{runner.workload}: {len(reports)} unit runs, {len(per_instance)} instances, "
        f"{len(everyone)} set-ups; unadjusted wall {raw_wall:.3f} s, "
        f"median gauge {statistics.median(r['gauge_s'] for r in everyone) * 1000:.2f} ms",
        file=sys.stderr,
    )
    return metrics, [r for _, r in reports]


def measure_layers(runner: Runner, units: list[str]) -> tuple[dict, list[dict]]:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    SPANS_DIR.mkdir(exist_ok=True)
    plain = [runner.spawn(unit) for unit in units]
    traced = []
    for i, unit in enumerate(units):
        spans = SPANS_DIR / f"spans-{runner.workload}-seed{runner.seed}-unit{i}.json"
        traced.append(runner.spawn(unit, spans))

    sums: dict[str, float] = {}
    missing: set[str] = set()
    for r in traced:
        for key, value in r["layers"].items():
            sums[key] = sums.get(key, 0) + (value * speed(r) if key.endswith("_s") else value)
        missing.update(r["missing"])
    metrics = {}
    for m in LAYER_METRICS:
        if m.needs in missing:
            print(f"missing per-layer metric {m.name}: hook {m.needs} has no target", file=sys.stderr)
            metrics[m.name] = (None, m.unit)
        else:
            metrics[m.name] = (m.value(sums), m.unit)
    metrics["bench.check_s"] = (sum(r["check_s"] * speed(r) for r in plain), "s")
    untraced_wall = sum(r["timed_s"] * speed(r) for r in plain)
    traced_wall = sum(r["timed_s"] * speed(r) for r in traced)
    metrics["bench.trace_overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return metrics, plain + traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eclab" / "__init__.py").is_file():
        print(f"error: no eclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the workloads: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    units = list(workload.units)
    random.Random(args.seed).shuffle(units)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, reports = measure_layers(runner, units)
        else:
            metrics, reports = measure(runner, units, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in reports for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
