"""Freeze the expected outputs of the corpus-sweep workload.

    python3 perfbench/freeze.py

Runs the sweep once, confirms every EC value with the independent
brute-force oracle on each graph with m <= 10 and every gamma' with the
line-graph route (vertex domination of L(G)), and writes the per-class
corpus counts and the histogram of isomorphism-invariant outputs to
``expected/corpus-sweep.json``.  Nothing is written if a confirmation fails.
Takes several minutes, almost all of it in the oracle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import eclab.domination  # noqa: E402
import eclab.oracle  # noqa: E402
from workloads import EXPECTED_DIR, CorpusSweep, _gamma_from_bounds  # noqa: E402


def main() -> int:
    sweep = CorpusSweep()
    run = sweep.run("sweep", {}, seed=0, mark=lambda key: None)
    problems = sweep.graph_verdicts(run.outputs).failures
    confirmed = 0
    for cls, g, out in run.outputs.graphs:
        ec = out["result"].ec
        gamma = _gamma_from_bounds(out["bounds"])
        if gamma != eclab.domination.gamma_prime_via_line_graph(g):
            problems.append(f"{cls} {g.edges}: gamma' {gamma} disagrees with the line-graph route")
        if g.m <= eclab.oracle.ORACLE_EDGE_CAP:
            confirmed += 1
            oracle = eclab.oracle.brute_force_ec(g)
            if oracle != ec:
                problems.append(f"{cls} {g.edges}: solver EC {ec} != oracle {oracle}")
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return 1
    summary = sweep.summary(run.outputs)
    rows = ",\n    ".join(json.dumps(row) for row in summary["histogram"])
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / "corpus-sweep.json"
    path.write_text(
        "{\n"
        f'  "confirmed_by_oracle": {confirmed},\n'
        f'  "class_counts": {json.dumps(summary["class_counts"])},\n'
        f'  "histogram": [\n    {rows}\n  ]\n'
        "}\n"
    )
    print(f"wrote {path}: {len(run.outputs.graphs)} graphs, {confirmed} confirmed by the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
