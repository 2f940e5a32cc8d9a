"""Checks too slow for tier-1: the corpus digests and peak RSS, the oracle at
its cap, the lex-least witnesses, exact search counts, traced benchmark runs
and the gamma' subset scans.

Run with ``PYTHONPATH=src python -m pytest -q tests/slow_checks.py``.  The
tier-1 command does not collect this file, since its name does not match
``test_*.py``.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from eclab import coalition
from eclab.coalition import _degree_bound, _find_partition_of_order, edge_coalition_number
from eclab.domination import edge_domination_number
from eclab.families import FamilySpec, generate
from eclab.graphs import Graph
from eclab.oracle import CorpusSpec, brute_force_ec, enumerate_corpus, graphs_of_order

from test_coalition import _rem, _search_calls
from test_domination import _subset_scan

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """``python *args`` run to success in a fresh interpreter at the repo root.

    A fresh process keeps pytest out of a peak-RSS read, and
    ``subprocess.run`` kills the process once ``timeout`` seconds pass.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


_PEAK_KIB = "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"

# Count and digest of each corpus, with the peak RSS once it is built.
_CORPORA = f"""
import hashlib, json, resource
from eclab.oracle import graphs_of_order
out = []
for cls, n in (("connected", 8), ("trees", 13), ("unicyclic", 10)):
    graphs = graphs_of_order(cls, n)
    digest = hashlib.sha256(repr([(g.n, g.edges) for g in graphs]).encode()).hexdigest()
    out.append([len(graphs), digest, {_PEAK_KIB}])
print(json.dumps(out))
"""


def test_corpus_counts_representatives_and_peak_rss():
    # Which graph represents each class, in order: connected as enumerated
    # before orbit pruning, trees and unicyclic with tuple colour signatures.
    connected, trees, unicyclic = json.loads(_run("-c", _CORPORA).stdout)
    assert connected[:2] == [11117, "f0f1c5cbc11f626f0ed0679cab1b236c028fb0cf94e47d5957a292adb796a765"]
    assert connected[2] < 128 * 1024, f"peak RSS {connected[2]} KiB"
    assert trees[:2] == [1301, "a1366060078b0a33df55ec5c3672e6767a1e7f6494532f5fa9d7c49845c25761"]
    assert unicyclic[:2] == [657, "6aa54c612c36631407d6f8fa805499ebf1c2e4c2267201595c496253974e35b1"]


_REFUSE = f"""
import resource, sys
from eclab.cli import main
print(main(["ec", "--graph", sys.argv[1]]), {_PEAK_KIB})
"""


@pytest.mark.parametrize("spec, mib", [("complete:300", 64), ("path:100000", 160)], ids=["K300", "P100000"])
def test_over_cap_edge_list_is_refused_within_peak_rss(tmp_path, spec, mib):
    # K300 is refused before any edge mask is built, P100000 without
    # per-vertex edge masks.
    path = str(tmp_path / "graph.el")
    _run("-m", "eclab.cli", "generate", "--family", spec, "--output", path)
    code, peak_kib = map(int, _run("-c", _REFUSE, path).stdout.split())
    assert code == 3
    assert peak_kib < mib * 1024, f"peak RSS {peak_kib} KiB"


def test_oracle_equals_solver_at_the_oracle_cap():
    # The 10-edge oracle cap: connected n = 7 with m = 10, trees n = 11 and
    # unicyclic n = 10.
    connected = [g for g in graphs_of_order("connected", 7) if g.m == 10]
    trees = graphs_of_order("trees", 11)
    unicyclic = graphs_of_order("unicyclic", 10)
    assert (len(connected), len(trees), len(unicyclic)) == (132, 235, 657)
    for g in [*connected, *trees, *unicyclic]:
        assert brute_force_ec(g) == edge_coalition_number(g).ec, g.edges


# The one stdout line of `python -m eclab.cli <argv> --format json`, by check.
_CLI_OUTPUT = {
    "sparse": [
        ("ec --family path:16", '{"ec": 6, "blocks": [[0, 2, 3, 5, 10, 13], [1, 4, 6, 9, 14], [7], [8], [11], [12]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}], "mode": "exact"}'),
        ("ec --family cycle:16", '{"ec": 6, "blocks": [[0, 1, 3, 4, 6, 8, 11], [2, 5, 7, 12, 15], [9], [10], [13], [14]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
        ("ec --family path:17", '{"ec": 6, "blocks": [[0, 2, 3, 5, 6, 11, 14], [1, 4, 7, 10, 15], [8], [9], [12], [13]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}], "mode": "exact"}'),
        ("ec --family cycle:17 --max-edges 17", '{"ec": 6, "blocks": [[0, 1, 3, 4, 6, 7, 9, 12], [2, 5, 8, 13, 16], [10], [11], [14], [15]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
    ],
    "dense": [
        ("ec --family kbip:4,4", '{"ec": 12, "blocks": [[0, 5, 10], [1, 4, 15], [2], [3], [6], [7], [8], [9], [11], [12], [13], [14]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
        ("ec --family kbip:3,6 --max-edges 18", '{"ec": 15, "blocks": [[0, 6], [1, 12], [2], [3], [4], [5], [7, 13], [8], [9], [10], [11], [14], [15], [16], [17]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 6}, {"type": "partner", "with": 6}, {"type": "partner", "with": 6}, {"type": "partner", "with": 6}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
        ("ec --family complete:7 --max-edges 21", '{"ec": 17, "blocks": [[0, 1, 20], [2, 3, 6], [4], [5], [7], [8], [9], [10], [11], [12], [13], [14], [15], [16], [17], [18], [19]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
        ("ec --family kbip:4,5 --max-edges 20", '{"ec": 14, "blocks": [[0, 1, 7, 13], [2, 5, 6, 19], [3], [4], [8], [9], [10], [11], [12], [14], [15], [16], [17], [18]], "justification": [{"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 1}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}, {"type": "partner", "with": 0}], "mode": "exact"}'),
    ],
    "gamma": [
        ("gamma --family complete:12", '{"gamma_prime": 6, "witness": [0, 1, 30, 45, 56, 63]}'),
        ("gamma --family complete:13", '{"gamma_prime": 6, "witness": [0, 23, 42, 57, 68, 75]}'),
        ("gamma --family kbip:8,8", '{"gamma_prime": 8, "witness": [0, 1, 2, 3, 4, 5, 6, 7]}'),
        ("gamma --family path:30", '{"gamma_prime": 10, "witness": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]}'),
        ("gamma --family cycle:29", '{"gamma_prime": 10, "witness": [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]}'),
    ],
}


def _assert_cli_output(rows, timeout=None):
    for argv, line in rows:
        out = _run("-m", "eclab.cli", *argv.split(), "--format", "json", timeout=timeout).stdout
        assert out == line + "\n", argv


def test_sparse_lex_least_witnesses_at_the_degree_bound():
    _assert_cli_output(_CLI_OUTPUT["sparse"])


def test_dense_exhausted_searches_each_under_60_s():
    # The twin-swap cut and the completion test keep each run below the limit.
    _assert_cli_output(_CLI_OUTPUT["dense"], timeout=60)


def _counted(graphs):
    with _search_calls() as calls:
        for g in graphs:
            edge_coalition_number(g)
    return calls


def test_corpus_sweep_orders_swaps_memo_and_search_counts():
    # The corpus-sweep graphs: connected n <= 7 with m <= 10, trees n <= 10,
    # unicyclic n <= 9.
    sweep = [g for cls, n in (("connected", 7), ("trees", 10), ("unicyclic", 9))
             for g in enumerate_corpus(CorpusSpec(n, (cls,)))
             if g.m and not (cls == "connected" and g.n == 7 and g.m > 10)]
    assert len(sweep) == 1075
    # rec and completes calls of the exact EC runs: a prune, memo or twin
    # cut that weakens on any corpus graph changes the totals.
    assert _counted(sweep) == {"rec": 45680, "completes": 148211}
    # The four EC runs of the sparse-ladder benchmark workload, one by one.
    ladder = {spec: _counted([generate(FamilySpec.parse(spec))])
              for spec in ("path:13", "path:14", "cycle:12", "cycle:13")}
    assert ladder == {"path:13": {"rec": 628, "completes": 879},
                      "path:14": {"rec": 755, "completes": 865},
                      "cycle:12": {"rec": 417, "completes": 667},
                      "cycle:13": {"rec": 437, "completes": 546}}
    # Every order up to the degree bound.
    orders = [(g, k) for g in sweep for k in range(1, min(g.m, _degree_bound(g.closed_edge_masks())) + 1)]
    results = [_find_partition_of_order(g, k) for g, k in orders]
    assert (len(orders), sum(r is not None for r in results)) == (9040, 6098)
    # Every witness and refutation as the search gave them before forced
    # tails were settled by the completion test.
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == "56a15b330c49348ec6a4ff0d8fb3c78e7b2da6fa64bd6f172c7fc8aec11b458c"
    # Every swap of every graph, in order, as built with per-vertex
    # neighbourhood bitmasks before the one-pass build.
    digest = hashlib.sha256(json.dumps([coalition._twin_swaps(g) for g in sweep]).encode()).hexdigest()
    assert digest == "e99e83a5f9636169e83357a59fb9fc933fb7424f36d7454d4337686c95810397"
    # The twin-swap cut changes no result: the results above are the
    # with-swaps side.
    twinned = [g for g in sweep if coalition._twin_swaps(g)]
    with_swaps = [(g, k, r) for (g, k), r in zip(orders, results) if coalition._twin_swaps(g)]
    assert (len(twinned), len(with_swaps)) == (751, 6338)
    with mock.patch.object(coalition, "_twin_swaps", lambda g: ()):
        differ = [(g.edges, k) for g, k, r in with_swaps if _find_partition_of_order(g, k) != r]
    assert differ == []
    # The frontier memo, forced on at every slack, changes no result on the
    # graphs of frontier width at most 2.
    def is_narrow(g):
        return coalition._frontier_width(_rem(g)) <= coalition._MEMO_WIDTH

    narrow = [g for g in sweep if is_narrow(g)]
    narrow_orders = [(g, k) for g, k in orders if is_narrow(g)]
    assert (len(narrow), len(narrow_orders)) == (120, 799)
    with mock.patch.object(coalition, "_MEMO_SLACK", 0):
        with_memo = [_find_partition_of_order(g, k) for g, k in narrow_orders]
    with mock.patch.object(coalition, "_frontier_width", lambda rem: math.inf):
        plain = [_find_partition_of_order(g, k) for g, k in narrow_orders]
    differ = [(g.edges, k) for (g, k), a, b in zip(narrow_orders, with_memo, plain) if a != b]
    assert differ == []


# Per-layer counts each traced benchmark run must report exactly.
_TRACED_COUNTS = {
    "sparse-ladder": {"coalition.search.find_orders": 4, "coalition.search.refute_orders": 0},
    "theorems": {
        "oracle.brute_force_calls": 269,
        # The suite reads its one bound corpus through enumerate_corpus; a
        # bypass would read 0 here.
        "oracle.corpus_graphs": 290,
        # Each class reaches the solver once; re-solving one under a second
        # labelling would raise this count.
        "coalition.search.find_orders": 309,
    },
    # One is_ec_partition call per graph and one coalition_partner_count
    # call per block.
    "corpus-sweep": {"coalition.verify_calls": 1075, "coalition.partner_count_calls": 7469,
                     "graphs.construct_calls": 2661},
    "dense-bounds": {"domination.gamma_calls": 2},
}


def _traced(workload):
    """Metric values of a traced 2 s benchmark run, its pinned counts checked."""
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", "1")
    assert "missing per-layer metric" not in proc.stderr, proc.stderr
    r = json.loads(proc.stdout)
    assert r["correct"] is True and r["failed"] == 0, r
    metrics = {k: v["value"] for k, v in r["metrics"].items()}
    pinned = _TRACED_COUNTS[workload]
    assert {k: metrics[k] for k in pinned} == pinned
    return metrics


def test_traced_sparse_ladder_reaches_the_search_hook():
    _traced("sparse-ladder")


def test_traced_theorems_reaches_every_check_and_the_oracle():
    metrics = _traced("theorems")
    timed = [k for k in metrics if k.startswith("theorems.") and k.endswith("_s")]
    assert len(timed) == 14, sorted(timed)
    # A check that ran outside the tracer leaves its metric present but 0.
    assert [k for k in timed if not metrics[k] > 0] == []


def test_traced_corpus_sweep_verifies_builds_and_counts_partners():
    _traced("corpus-sweep")


def test_traced_dense_bounds_and_gamma_witnesses_each_under_60_s():
    _traced("dense-bounds")
    k12, *larger = _CLI_OUTPUT["gamma"]
    _assert_cli_output([k12])
    _assert_cli_output(larger, timeout=60)


def test_gamma_equals_subset_scan_on_relabelled_corpus_graphs():
    # Connected n <= 7, trees n <= 12, unicyclic n <= 10, with 1 to 16 edges.
    graphs = [g for cls, top in (("connected", 7), ("trees", 12), ("unicyclic", 10))
              for n in range(top + 1) for g in graphs_of_order(cls, n) if 0 < g.m <= 16]
    assert len(graphs) == 3002
    rng = random.Random(0)
    for g in graphs:
        perm = rng.sample(range(g.n), g.n)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rng.shuffle(edges)
        h = Graph(g.n, edges)
        result = edge_domination_number(h)
        assert (result.gamma_prime, result.witness) == _subset_scan(h), h.edges


def test_gamma_equals_subset_scan_on_random_graphs():
    # 50,000 graphs with n = 2 to 10 and 1 to 20 shuffled edges,
    # disconnected ones included.
    rng = random.Random(0)
    checked = 0
    while checked < 50000:
        n, p = rng.randint(2, 10), rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        rng.shuffle(edges)
        if not edges:
            continue
        g = Graph(n, edges[:20])
        result = edge_domination_number(g)
        assert (result.gamma_prime, result.witness) == _subset_scan(g), g.edges
        checked += 1
