"""The benchmark's workloads: their units of work, timed regions and checks.

A *unit* is what one fresh interpreter runs: one ``eclab ec`` invocation,
one dense-graph operation, one corpus sweep or one ``eclab theorems`` run.
An *instance* is what per-instance latency is measured over: the unit
itself, or each graph of the corpus sweep.

``run`` returns the unit's timed wall time, its instance latencies and the
raw outputs; ``check`` turns those outputs into one verdict per checked
operation.  Timing and checking are separate so that checks never fall
inside a timed region.

Every eclab call goes through a module attribute (``eclab.coalition.X``)
so that the tracer's patched bindings see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import eclab
import eclab.cli
import eclab.coalition
import eclab.families
import eclab.graphs
import eclab.oracle
from tracer import THEOREM_TAGS

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass
class UnitRun:
    timed_s: float
    instances: list[tuple[str, float]]
    outputs: Any


@dataclass
class Verdicts:
    """One entry per checked operation: ``None`` when it passed, else why not."""

    results: list[tuple[str, str | None]] = field(default_factory=list)

    def add(self, op: str, problem: str | None) -> None:
        self.results.append((op, problem))

    @property
    def failures(self) -> list[str]:
        return [f"{op}: {problem}" for op, problem in self.results if problem is not None]


def _family(spec: str) -> eclab.Graph:
    return eclab.families.generate(eclab.families.FamilySpec.parse(spec))


def _certificate_problem(g: eclab.Graph, blocks: list[list[int]], ec: int) -> str | None:
    """Solver-independent check of a certificate of order ``ec``."""
    if len(blocks) != ec:
        return f"certificate has {len(blocks)} blocks, EC is {ec}"
    if sorted(e for b in blocks for e in b) != list(range(g.m)):
        return "certificate blocks do not partition the edge set"
    if not eclab.oracle.accepts_partition(g, blocks):
        return "oracle rejects the certificate"
    return None


# --- sparse-ladder -----------------------------------------------------------


class SparseLadder:
    """``eclab ec --format json`` via ``cli.main`` on long paths and cycles.

    P15 (about 6 s, one sample per run) is left out: it made the run's
    figures depend on a single long sample.
    """

    name = "sparse-ladder"
    units = ("path:13", "path:14", "cycle:12", "cycle:13")

    def setup(self) -> dict[str, Any]:
        return {spec: _family(spec) for spec in self.units}

    def run(self, unit: str, inputs, seed: int, mark: Callable[[str], None]) -> UnitRun:
        mark(unit)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = eclab.cli.main(["ec", "--family", unit, "--format", "json"])
        elapsed = time.perf_counter() - start
        return UnitRun(elapsed, [(unit, elapsed)], (code, out.getvalue()))

    def check(self, unit: str, inputs, outputs) -> Verdicts:
        code, text = outputs
        verdicts = Verdicts()
        verdicts.add(unit, self._problem(inputs[unit], unit, code, text))
        return verdicts

    @staticmethod
    def _problem(g, unit: str, code: int, text: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(text.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"output is not JSON: {text[:80]!r}"
        if list(payload) != ["ec", "blocks", "justification", "mode"]:
            return f"JSON keys {list(payload)}"
        want = eclab.families.closed_form_ec(eclab.families.FamilySpec.parse(unit))
        if payload["ec"] != want:
            return f"EC {payload['ec']} != closed form {want}"
        if payload["mode"] != "exact":
            return f"mode {payload['mode']!r}"
        return _certificate_problem(g, payload["blocks"], payload["ec"])


# --- dense-bounds --------------------------------------------------------------


class DenseBounds:
    """Exact EC, bound reports and graph metrics on complete (bipartite) graphs."""

    name = "dense-bounds"
    units = (
        "ec:complete:6",
        "ec:kbip:3,4",
        "ec:kbip:3,5",
        "bounds:complete:12",
        "bounds:kbip:6,6",
        "metrics:kbip:6,6",
        "metrics:complete:9",
    )
    #: EC as the exact solver gave it when the benchmark was defined;
    #: gamma'(K_2r) = gamma'(K_r,r) = r; both graphs are Hamiltonian, so the
    #: longest path has n - 1 edges.
    expected = {
        "ec:complete:6": 13,
        "ec:kbip:3,4": 9,
        "ec:kbip:3,5": 12,
        "bounds:complete:12": 6,
        "bounds:kbip:6,6": 6,
        "metrics:kbip:6,6": 11,
        "metrics:complete:9": 8,
    }

    def setup(self) -> dict[str, Any]:
        return {unit: _family(unit.split(":", 1)[1]) for unit in self.units}

    def run(self, unit: str, inputs, seed: int, mark: Callable[[str], None]) -> UnitRun:
        g = inputs[unit]
        op = unit.split(":", 1)[0]
        mark(unit)
        start = time.perf_counter()
        if op == "ec":
            result = eclab.coalition.edge_coalition_number(g)
        elif op == "bounds":
            result = eclab.coalition.ec_bounds(g)
        else:
            result = eclab.graphs.graph_metrics(g)
        elapsed = time.perf_counter() - start
        return UnitRun(elapsed, [(unit, elapsed)], result)

    def check(self, unit: str, inputs, result) -> Verdicts:
        verdicts = Verdicts()
        verdicts.add(unit, self._problem(unit, inputs[unit], result))
        return verdicts

    def _problem(self, unit: str, g, result) -> str | None:
        want = self.expected[unit]
        op = unit.split(":", 1)[0]
        if op == "ec":
            if result.ec != want or result.mode != "exact":
                return f"EC {result.ec} ({result.mode}) != {want}"
            blocks = [sorted(b) for b in result.certificate.blocks]
            return _certificate_problem(g, blocks, result.ec)
        if op == "bounds":
            gamma = _gamma_from_bounds(result)
            return None if gamma == want else f"gamma' {gamma} != {want}"
        got = result.longest_path_length
        return None if got == want else f"longest path {got} != {want}"


def _gamma_from_bounds(report) -> int | None:
    for entry in report.entries:
        if entry.source == "twice-gamma-minus-one":
            return (entry.value + 1) // 2
    return None


# --- corpus-sweep ----------------------------------------------------------------


@dataclass(frozen=True)
class SweepOutput:
    class_counts: dict[str, list[int]]
    graphs: list[tuple[str, Any, dict[str, Any]]]


class CorpusSweep:
    """Corpus generation, then every per-graph operation of the research batch path."""

    name = "corpus-sweep"
    units = ("sweep",)
    classes = (("connected", 7), ("trees", 10), ("unicyclic", 9))
    #: Connected graphs on 7 vertices with more edges are left out for run
    #: length only (m = 11..16 costs about 50 s more).
    max_edges_at_7 = 10

    def setup(self) -> dict[str, Any]:
        return {}

    @staticmethod
    def _recognizer(cls: str) -> Callable:
        return {
            "trees": eclab.families.phi_recognizer,
            "unicyclic": eclab.families.theta_recognizer,
            "connected": eclab.families.small_ec_classifier,
        }[cls]

    def _instances(self, corpus: dict[str, list]) -> list[tuple[str, str, Any]]:
        out = []
        for cls, graphs in corpus.items():
            for i, g in enumerate(graphs):
                if g.m == 0 or (cls == "connected" and g.n == 7 and g.m > self.max_edges_at_7):
                    continue
                out.append((f"{cls}/{i}", cls, g))
        return out

    def run(self, unit: str, inputs, seed: int, mark: Callable[[str], None]) -> UnitRun:
        coalition = eclab.coalition
        mark("corpus")
        start = time.perf_counter()
        corpus = {
            cls: list(eclab.oracle.enumerate_corpus(eclab.oracle.CorpusSpec(n, (cls,))))
            for cls, n in self.classes
        }
        todo = self._instances(corpus)
        random.Random(seed).shuffle(todo)
        latencies = []
        results = []
        for key, cls, g in todo:
            mark(key)
            t0 = time.perf_counter()
            result = coalition.edge_coalition_number(g)
            cert = coalition.is_ec_partition(g, result.certificate.blocks)
            ecg = coalition.coalition_graph(g, cert.blocks)
            partners = [coalition.coalition_partner_count(g, cert.blocks, i) for i in range(cert.order)]
            bounds = coalition.ec_bounds(g)
            metrics = eclab.graphs.graph_metrics(g)
            recognized = self._recognizer(cls)(g)
            latencies.append((key, time.perf_counter() - t0))
            results.append(
                (cls, g, {
                    "result": result, "cert": cert, "ecg": ecg, "partners": partners,
                    "bounds": bounds, "metrics": metrics, "recognized": recognized,
                })
            )
        elapsed = time.perf_counter() - start
        counts = {cls: [sum(1 for g in graphs if g.n == n) for n in range(1, max(g.n for g in graphs) + 1)]
                  for cls, graphs in corpus.items()}
        return UnitRun(elapsed, latencies, SweepOutput(counts, results))

    @staticmethod
    def histogram_row(cls: str, g, out: dict[str, Any]) -> tuple:
        """The isomorphism-invariant outputs for one graph."""
        recognized = out["recognized"]
        return (
            cls, g.n, g.m, out["result"].ec, _gamma_from_bounds(out["bounds"]),
            out["metrics"].diameter, out["metrics"].longest_path_length,
            getattr(recognized, "name", recognized),
        )

    @staticmethod
    def summary(output: SweepOutput) -> dict[str, Any]:
        rows = Counter(CorpusSweep.histogram_row(cls, g, out) for cls, g, out in output.graphs)
        return {
            "class_counts": output.class_counts,
            "histogram": [
                list(row) + [count]
                for row, count in sorted(rows.items(), key=lambda kv: [(type(x).__name__, x) for x in kv[0]])
            ],
        }

    def graph_verdicts(self, output: SweepOutput) -> Verdicts:
        verdicts = Verdicts()
        for cls, g, out in output.graphs:
            verdicts.add(f"{cls}:{g.edges}", self._graph_problem(cls, g, out))
        return verdicts

    def check(self, unit: str, inputs, output: SweepOutput) -> Verdicts:
        verdicts = self.graph_verdicts(output)
        expected = json.loads((EXPECTED_DIR / "corpus-sweep.json").read_text())
        got = json.loads(json.dumps(self.summary(output)))
        problem = None
        if got["class_counts"] != expected["class_counts"]:
            problem = f"class counts {got['class_counts']} != {expected['class_counts']}"
        elif got["histogram"] != expected["histogram"]:
            changed = [r for r in got["histogram"] if r not in expected["histogram"]]
            changed += [r for r in expected["histogram"] if r not in got["histogram"]]
            problem = f"histogram differs from the frozen one in {changed[:3]}"
        verdicts.add("frozen histogram", problem)
        return verdicts

    @staticmethod
    def _graph_problem(cls: str, g, out: dict[str, Any]) -> str | None:
        result, cert, ecg = out["result"], out["cert"], out["ecg"]
        if result.mode != "exact" or not cert or cert.order != result.ec:
            return f"verification of the order-{result.ec} certificate failed"
        if ecg.n != result.ec or out["partners"] != [ecg.degree(i) for i in range(ecg.n)]:
            return "coalition graph disagrees with the partner counts"
        flag = {"trees": "tree", "unicyclic": "unicyclic", "connected": "connected"}[cls]
        if getattr(out["metrics"], flag) is not True:
            return f"graph_metrics does not report the graph as {cls}"
        blocks = [sorted(b) for b in result.certificate.blocks]
        return _certificate_problem(g, blocks, result.ec)


# --- theorems ----------------------------------------------------------------------


class Theorems:
    """``eclab theorems`` via ``cli.main``; the invocation is the one instance.

    Per-check times are per-layer metrics of the traced run: most checks
    take tens of milliseconds, too short to time steadily on a shared host.
    """

    name = "theorems"
    units = ("theorems",)
    #: Criteria 9 and 11 fail by design: both are counterexamples to claims
    #: of the paper, confirmed by the brute-force oracle.
    expected_failures = frozenset({"bound-suite", "coalition-graph-theorems"})
    tags = THEOREM_TAGS

    def setup(self) -> dict[str, Any]:
        return {}

    def run(self, unit: str, inputs, seed: int, mark: Callable[[str], None]) -> UnitRun:
        mark(unit)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = eclab.cli.main(["theorems"])
        elapsed = time.perf_counter() - start
        return UnitRun(elapsed, [(unit, elapsed)], (code, out.getvalue()))

    def check(self, unit: str, inputs, outputs) -> Verdicts:
        code, text = outputs
        status = {}
        for line in text.splitlines():
            word, _, rest = line.partition("  ")
            if word in ("PASS", "FAIL") and rest.split():
                status[rest.split()[0]] = word
        verdicts = Verdicts()
        for tag in self.tags:
            want = "FAIL" if tag in self.expected_failures else "PASS"
            got = status.get(tag)
            verdicts.add(tag, None if got == want else f"{got or 'missing'}, expected {want}")
        passed = len(self.tags) - len(self.expected_failures)
        summary = f"{passed}/{len(self.tags)} checks passed"
        ok = code == 1 and summary in text
        verdicts.add("exit code", None if ok else f"exit code {code}, expected 1 with {summary!r}")
        return verdicts


WORKLOADS = {w.name: w for w in (SparseLadder(), CorpusSweep(), DenseBounds(), Theorems())}

