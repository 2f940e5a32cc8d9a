"""One fresh interpreter of the benchmark: set up, run one unit, check it.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import eclab`` and
building the workload's inputs.  ``gauge_s`` is the host-speed gauge
(``gauge.py``) sampled around and during the unit, or after set-up for a
probe.  With ``--probe`` the worker stops after set-up.  With ``--spans
PATH`` it runs the unit under the tracer and writes the spans to PATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import eclab  # noqa: E402

if not Path(eclab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"eclab was imported from {eclab.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracer import Tracer, layer_sums  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--unit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup()
    setup_s = time.monotonic() - args.t0
    report = {"setup_s": setup_s}
    gauge = Gauge()
    if args.probe:
        gauge.sample_now()
    else:
        tracer = Tracer() if args.spans else None
        mark = (lambda key: setattr(tracer, "instance", key)) if tracer else (lambda key: None)
        with gauge, tracer or contextlib.nullcontext():
            run = workload.run(args.unit, inputs, args.seed, mark)
        if tracer:
            tracer.write(args.spans)
            report["layers"] = layer_sums(tracer.finished_spans(), tracer.counts)
            report["missing"] = sorted(tracer.missing)
        start = time.perf_counter()
        verdicts = workload.check(args.unit, inputs, run.outputs)
        report.update(
            check_s=time.perf_counter() - start,
            timed_s=run.timed_s,
            instances=run.instances,
            attempted=len(verdicts.results),
            failures=verdicts.failures,
        )
    report["gauge_s"] = gauge.seconds
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
