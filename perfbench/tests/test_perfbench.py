"""Tests of the benchmark itself: checkers, span arithmetic and the tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import eclab  # noqa: E402
import eclab.cli  # noqa: E402
import eclab.coalition  # noqa: E402
import eclab.graphs  # noqa: E402
import eclab.oracle  # noqa: E402
import eclab.theorems  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402
from tracer import Hook, Span, Tracer, layer_sums, outermost, self_times  # noqa: E402


def _ec_json(spec: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert eclab.cli.main(["ec", "--family", spec, "--format", "json"]) == 0
    return json.loads(out.getvalue())


def _problem(spec: str, payload: dict, code: int = 0) -> str | None:
    g = workloads._family(spec)
    return workloads.SparseLadder._problem(g, spec, code, json.dumps(payload))


# --- checkers -------------------------------------------------------------------


def test_checker_accepts_the_solver_output():
    assert _problem("path:8", _ec_json("path:8")) is None


def test_checker_flags_a_wrong_ec():
    payload = _ec_json("path:8")
    payload["ec"] += 1
    assert "closed form" in _problem("path:8", payload)


def test_checker_flags_a_tampered_certificate():
    payload = _ec_json("path:8")
    g = workloads._family("path:8")
    blocks = payload["blocks"]
    # Move one edge to another block, keeping the order: the first such move
    # that breaks the ec-partition must be caught.
    for i, block in enumerate(blocks):
        for e in block[1:] if len(block) > 1 else ():
            for j in range(len(blocks)):
                moved = [sorted(set(b) - {e}) if k == i else sorted(b + [e]) if k == j else b
                         for k, b in enumerate(blocks)]
                if j != i and not eclab.oracle.accepts_partition(g, moved):
                    assert _problem("path:8", dict(payload, blocks=moved)) == "oracle rejects the certificate"
                    return
    raise AssertionError("no tampering of the P8 certificate breaks it")


def test_certificate_check_is_the_oracle():
    g = workloads._family("path:6")
    singletons = [[e] for e in range(g.m)]  # EC(P6) = 4 < 5, so this is not an ec-partition
    assert workloads._certificate_problem(g, singletons, g.m) == "oracle rejects the certificate"
    assert "partition" in workloads._certificate_problem(g, [[0, 1], [1, 2, 3, 4]], 2)


def test_checker_flags_a_nonzero_exit_code():
    assert _problem("path:8", _ec_json("path:8"), code=3) == "exit code 3"


def test_dense_checker_flags_a_wrong_value():
    dense = workloads.DenseBounds()
    inputs = {"ec:kbip:3,4": workloads._family("kbip:3,4")}
    run = dense.run("ec:kbip:3,4", inputs, 0, lambda key: None)
    assert dense.check("ec:kbip:3,4", inputs, run.outputs).failures == []
    dense.expected = dict(dense.expected, **{"ec:kbip:3,4": 10})
    assert dense.check("ec:kbip:3,4", inputs, run.outputs).failures


def test_theorems_checker_counts_a_flip_either_way():
    lines = [f"{'FAIL' if t in workloads.Theorems.expected_failures else 'PASS'}  {t} detail" for t in tr.THEOREM_TAGS]
    text = "\n".join(lines + ["12/14 checks passed"])
    check = workloads.Theorems().check
    assert check("theorems", {}, (1, text)).failures == []
    assert len(check("theorems", {}, (1, text.replace("FAIL  bound-suite", "PASS  bound-suite"))).failures) == 1
    assert len(check("theorems", {}, (1, text.replace("PASS  trees-phi", "FAIL  trees-phi"))).failures) == 1
    assert len(check("theorems", {}, (0, text)).failures) == 1


# --- span arithmetic ---------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span(0, None, "outer", 0.0, 10.0, "i", None),
        Span(1, 0, "a", 1.0, 4.0, "i", None),
        Span(2, 0, "b", 5.0, 7.0, "i", None),
        Span(3, 2, "c", 5.5, 6.0, "i", None),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 3.0, 2: 1.5, 3: 0.5}


def test_outermost_drops_recursive_calls():
    spans = [
        Span(0, None, "corpus", 0.0, 3.0, "i", None),
        Span(1, 0, "iso", 0.5, 1.0, "i", None),
        Span(2, 1, "corpus", 0.6, 0.9, "i", None),
    ]
    assert [s.id for s in outermost(spans)] == [0, 1]
    sums = layer_sums(spans, {})
    assert sums["corpus.total_s"] == 3.0
    assert sums["corpus.calls"] == 2


def test_tracer_records_nesting_and_labels():
    t = Tracer(hooks=(), theorem_tags=())

    def inner(x):
        return x

    traced_inner = t.span("inner", inner, label=lambda r: "even" if r % 2 == 0 else "odd")
    traced_outer = t.span("outer", lambda: [traced_inner(i) for i in range(3)])
    t.instance = "g1"
    traced_outer()
    spans = t.finished_spans()
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert all(s.parent == 0 for s in spans[1:]) and spans[0].parent is None
    assert {s.instance for s in spans} == {"g1"}
    sums = layer_sums(spans, {})
    assert sums["inner.even.calls"] == 2 and sums["inner.odd.calls"] == 1


# --- tracer install / restore ---------------------------------------------------------------


def _bindings(original):
    return [
        (name, attr)
        for name, module in sys.modules.items()
        if name == "eclab" or name.startswith("eclab.")
        for attr, value in vars(module).items()
        if value is original
    ]


def test_tracer_patches_every_binding_and_restores_the_originals():
    ec = eclab.coalition.edge_domination_number
    bindings = _bindings(ec)
    assert ("eclab.coalition", "edge_domination_number") in bindings
    assert ("eclab.theorems", "edge_domination_number") in bindings
    init = eclab.graphs.Graph.__init__
    checks = eclab.theorems.CHECKS
    t = Tracer()
    with t:
        assert _bindings(ec) == []
        assert eclab.graphs.Graph.__init__ is not init
        assert eclab.theorems.CHECKS is not checks
        eclab.coalition.ec_bounds(workloads._family("path:4"))
    assert _bindings(ec) == bindings
    assert eclab.graphs.Graph.__init__ is init
    assert eclab.theorems.CHECKS is checks
    names = {s.name for s in t.finished_spans()}
    assert {"coalition.bounds", "domination.gamma"} <= names
    assert t.missing == set()


def test_missing_target_is_reported_not_raised():
    hooks = (Hook("gone", "eclab.coalition", "no_such_function"), Hook("gone2", "eclab.no_such_module", "f"))
    t = Tracer(hooks=hooks, theorem_tags=("paths-closed-form", "no-such-tag"))
    with t:
        pass
    assert t.missing == {"gone", "gone2", "theorems.no-such-tag"}


def _traced_counts() -> dict[str, float]:
    dense = workloads.DenseBounds()
    inputs = dense.setup()
    t = Tracer()
    with t:
        for unit in ("ec:complete:6", "ec:kbip:3,4"):
            dense.run(unit, inputs, 0, lambda key: setattr(t, "instance", key))
    return {k: v for k, v in layer_sums(t.finished_spans(), t.counts).items() if k.endswith(".calls")}


def test_two_traced_runs_give_identical_counts():
    first = _traced_counts()
    assert first["coalition.search.find.calls"] == 2
    assert first == _traced_counts()


# --- host-speed gauge --------------------------------------------------------------------


def test_gauge_samples_during_the_region_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    g = Gauge(interval=0.005, edge_samples=3)
    with g:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(g.samples) > 2 * 3 + 5
    assert g.seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# --- the benchmark definition ---------------------------------------------------------------


def test_run_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorems", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [m.name for m in tr.LAYER_METRICS] + ["bench.check_s", "bench.trace_overhead_ratio"]
    units = {m.name: m.unit for m in tr.LAYER_METRICS}
    assert all(units.get(m["name"], m["unit"]) == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "instance_p50_ms", "instance_p99_ms", "peak_rss_mib",
    }
