"""Span tracer that wraps eclab entry points from outside the library.

Each hook names a function by module and attribute.  Installing the tracer
replaces that function in every ``eclab`` module namespace that binds it
(``from ... import`` copies the binding, so the home module alone is not
enough), records one span per call, and ``uninstall`` puts every original
back.  Benchmark code must call eclab through module attributes
(``eclab.coalition.ec_bounds(...)``) so that its calls pass the wrappers.

Spans stay in memory as tuples until the caller writes them out.  A hook
whose target no longer exists is recorded in ``missing``; the metrics
that depend on it are then reported as missing rather than crashing the
run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    instance: str
    label: str | None


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as span ``name``.

    ``label`` maps the call's result to a short outcome string stored on the
    span.  ``count_yields`` wraps a generator function and only counts the
    items it yields: a span around a generator would also time its consumer.
    """

    name: str
    module: str
    attr: str
    label: Callable[[Any], str] | None = None
    count_yields: bool = False


def _search_outcome(result) -> str:
    if result is None:
        return "refute"
    return "find" if isinstance(result, list) else "other"


HOOKS: tuple[Hook, ...] = (
    Hook("coalition.search", "eclab.coalition", "_find_partition_of_order", _search_outcome),
    Hook("coalition.verify", "eclab.coalition", "is_ec_partition"),
    Hook("coalition.ecg", "eclab.coalition", "coalition_graph"),
    Hook("coalition.partner_count", "eclab.coalition", "coalition_partner_count"),
    Hook("coalition.bounds", "eclab.coalition", "ec_bounds"),
    Hook("domination.gamma", "eclab.domination", "edge_domination_number"),
    Hook("domination.vertex_gamma", "eclab.domination", "vertex_domination_number"),
    Hook("graphs.iso", "eclab.graphs", "are_isomorphic", lambda r: "match" if r else "differ"),
    Hook("graphs.construct", "eclab.graphs", "Graph.__init__"),
    Hook("graphs.metrics", "eclab.graphs", "graph_metrics"),
    Hook("graphs.longest_path", "eclab.graphs", "longest_path_length"),
    Hook("oracle.corpus", "eclab.oracle", "graphs_of_order"),
    Hook("oracle.corpus_yield", "eclab.oracle", "enumerate_corpus", count_yields=True),
    Hook("oracle.brute_force", "eclab.oracle", "brute_force_ec"),
    Hook("families.recognize", "eclab.families", "phi_recognizer"),
    Hook("families.recognize", "eclab.families", "theta_recognizer"),
    Hook("families.recognize", "eclab.families", "small_ec_classifier"),
    Hook("cli", "eclab.cli", "main"),
)

#: The check tags of ``eclab.theorems.CHECKS``, each traced as ``theorems.<tag>``.
THEOREM_TAGS: tuple[str, ...] = (
    "paths-closed-form",
    "cycles-closed-form",
    "stars-and-double-stars",
    "complete-graphs",
    "complete-bipartite",
    "small-ec-classes",
    "trees-phi",
    "unicyclic-theta",
    "bound-suite",
    "partner-cap",
    "coalition-graph-theorems",
    "oracle-equivalence",
    "singleton-ec-spot-checks",
    "gamma-prime-identity",
)


class Tracer:
    """Records spans for the hooks it installs; one instance per traced run."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS, theorem_tags: tuple[str, ...] = THEOREM_TAGS):
        self.hooks = hooks
        self.theorem_tags = theorem_tags
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.missing: set[str] = set()
        self.instance = ""
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # --- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None, float]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, opened: tuple[int, int | None, float], name: str, label: str | None) -> None:
        end = time.perf_counter()
        sid, parent, start = opened
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, self.instance, label)

    def span(self, name: str, fn: Callable, label: Callable[[Any], str] | None = None) -> Callable:
        """Wrap ``fn`` so every call records a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = None
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
                if label is not None:
                    outcome = label(result)
                return result
            finally:
                self._close(opened, name, outcome)

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                yield item

        return wrapper

    # --- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "eclab" or n.startswith("eclab.")]
        for hook in self.hooks:
            owner, attr, original = _resolve(hook)
            if original is None:
                self.missing.add(hook.name)
                continue
            if hook.count_yields:
                wrapper = self._counter(hook.name, original)
            else:
                wrapper = self.span(hook.name, original, hook.label)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)
        self._install_theorems()

    def _install_theorems(self) -> None:
        theorems = sys.modules.get("eclab.theorems")
        checks = getattr(theorems, "CHECKS", None)
        if checks is None:
            self.missing.update(f"theorems.{tag}" for tag in self.theorem_tags)
            return
        present = {tag for tag, _ in checks}
        self.missing.update(f"theorems.{tag}" for tag in self.theorem_tags if tag not in present)
        wrapped = tuple((tag, self.span(f"theorems.{tag}", fn)) for tag, fn in checks)
        self._patch(theorems, "CHECKS", wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- output ----------------------------------------------------------------

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        """Write the spans as JSON: one ``[id, parent, name, start, end, instance, label]`` row each."""
        with open(path, "w") as fh:
            json.dump(
                {"fields": list(Span._fields), "spans": [list(s) for s in self.finished_spans()]},
                fh,
                separators=(",", ":"),
            )


def _resolve(hook: Hook):
    """(owner, attribute, original function) for a hook, or a None original."""
    try:
        module = importlib.import_module(hook.module)
    except ImportError:
        return None, None, None
    owner: Any = module
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    original = getattr(owner, attr, None)
    if isinstance(owner, type) and original is not None and attr not in vars(owner):
        return None, None, None  # inherited, e.g. object.__init__
    return owner, attr, original


# --- span arithmetic -----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def outermost(spans: list[Span]) -> list[Span]:
    """Spans with no ancestor of the same name, so recursion is not counted twice."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def layer_sums(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Additive per-layer quantities: ``<name>.calls``, ``<name>.total_s``,
    ``<name>.self_s`` and ``<name>.<label>.calls`` / ``.total_s``.

    Sums from several traced processes add up key by key.
    """
    selfs = self_times(spans)
    sums: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0) + value

    for s in spans:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", selfs[s.id])
        if s.label is not None:
            add(f"{s.name}.{s.label}.calls", 1)
    for s in outermost(spans):
        add(f"{s.name}.total_s", s.end - s.start)
        if s.label is not None:
            add(f"{s.name}.{s.label}.total_s", s.end - s.start)
    for name, n in counts.items():
        add(f"{name}.calls", n)
    return sums


# --- per-layer metrics -------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric: ``value`` reads the summed quantities of ``layer_sums``.

    ``needs`` names the span whose hook must exist; when it is missing the
    metric is reported as missing.
    """

    name: str
    unit: str
    better: str
    needs: str
    value: Callable[[dict[str, float]], float]


def _key(key: str) -> Callable[[dict[str, float]], float]:
    return lambda sums: sums.get(key, 0)


def _ratio(num: str, den: str) -> Callable[[dict[str, float]], float]:
    """``num / den``; 0 when the layer made no attempts on this workload."""
    return lambda sums: sums.get(num, 0) / sums[den] if sums.get(den) else 0.0


def _metric(name: str, unit: str, needs: str, key: str, better: str = "lower") -> LayerMetric:
    return LayerMetric(name, unit, better, needs, _key(key))


LAYER_METRICS: tuple[LayerMetric, ...] = (
    _metric("coalition.search.refute_orders", "count", "coalition.search", "coalition.search.refute.calls"),
    _metric("coalition.search.refute_s", "s", "coalition.search", "coalition.search.refute.total_s"),
    _metric("coalition.search.find_orders", "count", "coalition.search", "coalition.search.find.calls"),
    _metric("coalition.search.find_s", "s", "coalition.search", "coalition.search.find.total_s"),
    LayerMetric(
        "coalition.search.useful_ratio", "ratio", "higher", "coalition.search",
        _ratio("coalition.search.find.calls", "coalition.search.calls"),
    ),
    _metric("coalition.verify_calls", "count", "coalition.verify", "coalition.verify.calls"),
    _metric("coalition.verify_s", "s", "coalition.verify", "coalition.verify.total_s"),
    _metric("coalition.ecg_s", "s", "coalition.ecg", "coalition.ecg.total_s"),
    _metric("coalition.partner_count_calls", "count", "coalition.partner_count", "coalition.partner_count.calls"),
    _metric("coalition.partner_count_s", "s", "coalition.partner_count", "coalition.partner_count.total_s"),
    _metric("coalition.bounds_self_s", "s", "coalition.bounds", "coalition.bounds.self_s"),
    _metric("domination.gamma_calls", "count", "domination.gamma", "domination.gamma.calls"),
    _metric("domination.gamma_s", "s", "domination.gamma", "domination.gamma.total_s"),
    _metric("domination.vertex_gamma_s", "s", "domination.vertex_gamma", "domination.vertex_gamma.total_s"),
    _metric("graphs.iso_calls", "count", "graphs.iso", "graphs.iso.calls"),
    _metric("graphs.iso_s", "s", "graphs.iso", "graphs.iso.total_s"),
    LayerMetric(
        "graphs.iso_match_ratio", "ratio", "higher", "graphs.iso",
        _ratio("graphs.iso.match.calls", "graphs.iso.calls"),
    ),
    _metric("graphs.construct_calls", "count", "graphs.construct", "graphs.construct.calls"),
    _metric("graphs.construct_s", "s", "graphs.construct", "graphs.construct.total_s"),
    _metric("graphs.metrics_self_s", "s", "graphs.metrics", "graphs.metrics.self_s"),
    _metric("graphs.longest_path_s", "s", "graphs.longest_path", "graphs.longest_path.total_s"),
    _metric("oracle.corpus_graphs", "count", "oracle.corpus_yield", "oracle.corpus_yield.calls", "higher"),
    _metric("oracle.corpus_self_s", "s", "oracle.corpus", "oracle.corpus.self_s"),
    _metric("oracle.brute_force_calls", "count", "oracle.brute_force", "oracle.brute_force.calls"),
    _metric("oracle.brute_force_s", "s", "oracle.brute_force", "oracle.brute_force.total_s"),
    _metric("families.recognize_calls", "count", "families.recognize", "families.recognize.calls"),
    _metric("families.recognize_s", "s", "families.recognize", "families.recognize.total_s"),
    *(
        _metric(f"theorems.{tag}_s", "s", f"theorems.{tag}", f"theorems.{tag}.total_s")
        for tag in THEOREM_TAGS
    ),
    _metric("cli.self_s", "s", "cli", "cli.self_s"),
)
