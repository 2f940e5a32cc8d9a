"""Reproduction suite: closed forms, bounds, and characterizations at desk scale.

Each check is exact (integer equality, no tolerances).  The corpus checks
read one corpus, ``_bound_corpus`` (each isomorphism class once), and
filter it by shape.  ``run_all`` yields one :class:`CheckResult` per check
and prints nothing; the CLI verb ``theorems`` prints one pass/fail line
per result and exits nonzero when anything fails.

Two checks report FAIL because the claims they test are false, not because
of a bug (the independent brute-force oracle confirms both; see the
respective check docstrings): the lower bound 2*gamma'-1 is violated by
spider trees, and the self-coalition characterization misses triangles
with pendant leaves at every vertex.  Each of the two checks is a thin
wrapper over public evidence functions (``bound_violations``,
``p3_bound_sharp``, ``k24_preset_mismatches``, ``star_ecg_mismatches``,
``self_coalition_census``); the acceptance tests read the same evidence
and pin the exact counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .coalition import (
    EcResult,
    coalition_graph,
    ec_bounds,
    edge_coalition_number,
    is_self_edge_coalition_graph,
    is_singleton_ec_graph,
    singleton_partition,
)
from .domination import edge_domination_number, gamma_prime_via_line_graph
from .errors import EclabError
from .families import (
    FamilySpec,
    K24_PARTITION_PRESETS,
    SINGLETON_EC_SPOT_CHECKS,
    SmallEcClass,
    closed_form_ec,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate,
    net_graph,
    path_graph,
    phi_recognizer,
    small_ec_classifier,
    star_graph,
    theta_recognizer,
    two_disjoint_edges,
)
from .graphs import Graph, _is_connected, are_isomorphic
from .oracle import CorpusSpec, brute_force_ec, enumerate_corpus


@dataclass(frozen=True)
class CheckResult:
    tag: str
    passed: bool
    detail: str


@lru_cache(maxsize=None)
def _solve(g: Graph) -> tuple[EcResult, Graph]:
    """The exact EC result of ``g`` and the coalition graph of its
    certificate.  The graph is built right after the solve, while the
    verifier still holds the certificate it issued, so it is not validated
    and judged a second time."""
    result = edge_coalition_number(g)
    return result, coalition_graph(g, result.certificate.blocks)


def _ec(g: Graph) -> int:
    return _solve(g)[0].ec


@lru_cache(maxsize=None)
def _bound_corpus() -> tuple[Graph, ...]:
    """Each class once: every graph with an edge and n<=5, then trees with
    6<=n<=9 and unicyclic graphs with 6<=n<=8.  Its largest m is K5's 10."""
    graphs = [g for g in enumerate_corpus(CorpusSpec(5, ("all",))) if g.m >= 1]
    graphs += [g for g in enumerate_corpus(CorpusSpec(9, ("trees",))) if g.n >= 6]
    graphs += [g for g in enumerate_corpus(CorpusSpec(8, ("unicyclic",))) if g.n >= 6]
    return tuple(graphs)


def _connected_corpus() -> tuple[Graph, ...]:
    """The connected graphs with an edge and n<=5, read from the bound corpus."""
    return tuple(g for g in _bound_corpus() if g.n <= 5 and _is_connected(g))


def _closed_form_mismatch(specs: Iterable[FamilySpec]) -> str | None:
    """The first family member whose solver EC differs from ``closed_form_ec``."""
    for spec in specs:
        got, want = _ec(generate(spec)), closed_form_ec(spec)
        if got != want:
            return f"{spec.to_string()}: solver {got} != closed form {want}"
    return None


def _check_paths() -> tuple[bool, str]:
    """EC of paths n = 2..14 equals ``_KINDS``; a certificate of order k has k
    blocks, so EC(P13) = 6 also gives the 6 blocks of its witness."""
    bad = _closed_form_mismatch(FamilySpec("path", (n,)) for n in range(2, 15))
    if bad:
        return False, bad
    return True, "paths n=2..14 match; P_13 witness has 6 blocks"


def _check_cycles() -> tuple[bool, str]:
    """EC of cycles n = 3..12 equals ``_KINDS``."""
    bad = _closed_form_mismatch(FamilySpec("cycle", (n,)) for n in range(3, 13))
    if bad:
        return False, bad
    return True, "cycles n=3..12 match"


def _check_stars() -> tuple[bool, str]:
    """EC of stars s = 1..8 and double stars to 9 edges equals ``_KINDS``."""
    double_stars = [
        FamilySpec("double_star", (p, q)) for p in range(9) for q in range(p + 1) if p + q + 1 <= 9
    ]
    bad = _closed_form_mismatch([FamilySpec("star", (s,)) for s in range(1, 9)] + double_stars)
    if bad:
        return False, bad
    return True, f"stars n=1..8 and {len(double_stars)} double stars match"


def _check_complete() -> tuple[bool, str]:
    """EC(K_n) for n = 2..5 equals ``_KINDS``, whose K4 = 6 is the even-order
    bound 2(n-1); K6, with no closed form, is computed exactly in [10, 15)."""
    bad = _closed_form_mismatch(FamilySpec("complete", (n,)) for n in range(2, 6))
    if bad:
        return False, bad
    k6 = _ec(complete_graph(6))
    if not 2 * (6 - 1) <= k6 < 15:
        return False, f"EC(K_6) = {k6} outside [10, 15)"
    return True, f"K_2..K_5 attain m; EC(K_6) = {k6} < 15; K_4 sharp at 2(n-1)"


def _check_bipartite() -> tuple[bool, str]:
    """EC(K_{2,s}) for s = 2..4 equals the 2s of ``_KINDS``: sharp at 2, met at 3 and 4."""
    bad = _closed_form_mismatch(FamilySpec("complete_bipartite", (2, s)) for s in (2, 3, 4))
    if bad:
        return False, bad
    return True, "K_2,2 = 4; K_2,3 = 6 >= 6; K_2,4 = 8 >= 8"


def _check_small_ec() -> tuple[bool, str]:
    """EC = 1 only for K2; EC = 2 only for P3 and 2K2; EC = 3 (connected)
    only for C3, P4, K_{1,3}."""
    corpus = list(_connected_corpus()) + [two_disjoint_edges()]
    for g in corpus:
        value = _ec(g)
        cls = small_ec_classifier(g)
        connected = _is_connected(g)
        if value in (1, 2) and cls != SmallEcClass(value):
            return False, f"{g.edges}: EC={value} but class {cls.name}"
        if value == 3 and connected and cls != SmallEcClass.EC3:
            return False, f"{g.edges}: EC=3, connected, class {cls.name}"
        if cls != SmallEcClass.OTHER and value != cls.value:
            return False, f"{g.edges}: class {cls.name} but EC={value}"
    return True, f"{len(corpus)} graphs classified consistently"


def _recognizer_sweep(excess: int, recognizer: Callable[[Graph], bool], agree: str) -> tuple[bool, str]:
    """EC = m iff ``recognizer`` accepts, over the connected bound-corpus graphs
    with m = n + excess: every tree up to n=9 at -1, unicyclic graph up to n=8 at 0."""
    graphs = [g for g in _bound_corpus() if g.m == g.n + excess and _is_connected(g)]
    for g in graphs:
        if (_ec(g) == g.m) != recognizer(g):
            return False, f"counterexample: {g.edges}"
    return True, f"{len(graphs)} {agree}"


def _check_trees() -> tuple[bool, str]:
    """For every tree up to 9 vertices: EC(T) = n-1 iff the recognizer accepts."""
    return _recognizer_sweep(-1, phi_recognizer, "trees agree with the recognizer")


def _check_unicyclic() -> tuple[bool, str]:
    """For every unicyclic graph up to 8 vertices: EC(G) = n iff the recognizer accepts."""
    return _recognizer_sweep(0, theta_recognizer, "unicyclic graphs agree")


@dataclass(frozen=True)
class BoundViolation:
    """An applicable bound of ``ec_bounds`` that the exact EC of ``graph`` breaks."""

    graph: Graph
    source: str
    bound: int
    ec: int


def bound_violations() -> tuple[BoundViolation, ...]:
    """Every applicable bound that fails on the bound corpus, in corpus order."""
    found = []
    for g in _bound_corpus():
        value = _ec(g)
        for entry in ec_bounds(g).entries:
            if not entry.applicable:
                continue
            ok = entry.value <= value if entry.kind == "lower" else value <= entry.value
            if not ok:
                found.append(BoundViolation(g, entry.source, entry.value, value))
    return tuple(found)


def p3_bound_sharp() -> bool:
    """True iff the universal-vertex bound applies to P3 with value 2 = EC(P3)."""
    p3 = path_graph(3)
    sharp = any(
        e.source == "universal-vertex-count" and e.applicable and e.value == 2
        for e in ec_bounds(p3).entries
    )
    return sharp and _ec(p3) == 2


def _check_bounds() -> tuple[bool, str]:
    """Every applicable bound must hold on the corpus, with P3 sharp.

    Reports FAIL: spiders with >= 3 legs of length 2 satisfy the stated
    applicability condition of the 2*gamma'-1 lower bound (no isolated or
    full edges) yet have EC below it; the 3-leg spider has gamma' = 3 and
    EC = 4 < 5, the 4-leg spider gamma' = 4 and EC = 4 < 7, both confirmed
    by the independent brute-force oracle.  Criterion 9 of the acceptance
    suite pins exactly these two violations.
    """
    failures = [f"{v.graph.edges}: {v.source}={v.bound} vs EC={v.ec}" for v in bound_violations()]
    if not p3_bound_sharp():
        failures.append("P3 sharpness of the universal-vertex bound failed")
    if failures:
        preview = "; ".join(failures[:3])
        return False, f"{len(failures)} violations, e.g. {preview}"
    return True, f"all applicable bounds hold on {len(_bound_corpus())} graphs"


def _check_partner_cap() -> tuple[bool, str]:
    """In every computed maximum certificate, no block exceeds 2*Delta - 1 partners."""
    checked = 0
    for g in _bound_corpus():
        delta = max(map(g.degree, range(g.n)))
        if delta < 2:
            continue
        result, ecg = _solve(g)
        for i in range(result.ec):
            checked += 1
            if ecg.degree(i) > 2 * delta - 1:
                return False, f"{g.edges}: block {i} exceeds 2*Delta-1"
    return True, f"{checked} blocks within the partner cap"


def k24_preset_mismatches() -> tuple[str, ...]:
    """Ids of the K_{2,4} partition presets whose coalition graph is not the
    claimed target, in preset order."""
    k24 = complete_bipartite(2, 4)

    def plus_edge(g: Graph, u: int, v: int) -> Graph:
        return Graph(g.n, list(g.edges) + [(u, v)])

    targets = {
        "pi1": complete_bipartite(4, 4),
        "pi2": complete_bipartite(3, 4),
        "pi3": plus_edge(complete_bipartite(2, 4), 0, 1),
        "pi4": complete_bipartite(3, 3),
        "pi5": plus_edge(complete_bipartite(2, 3), 0, 1),
        "pi6": complete_graph(4),
    }
    return tuple(
        pid
        for pid, blocks in K24_PARTITION_PRESETS.items()
        if not are_isomorphic(coalition_graph(k24, blocks), targets[pid])
    )


def star_ecg_mismatches() -> tuple[int, ...]:
    """Orders n = 3..7 at which the singleton coalition graph of the star on
    n vertices is not the edgeless graph on n-1 vertices."""
    bad = []
    for n in range(3, 8):
        s = star_graph(n - 1)
        ecg = coalition_graph(s, singleton_partition(s))
        if ecg.n != n - 1 or ecg.m != 0:
            bad.append(n)
    return tuple(bad)


def self_coalition_census() -> tuple[Graph, ...]:
    """Unicyclic graphs with n <= 7 that are isomorphic to their own
    singleton coalition graph, in bound-corpus order."""
    unicyclic = (g for g in _bound_corpus() if g.m == g.n <= 7 and _is_connected(g))
    return tuple(g for g in unicyclic if is_self_edge_coalition_graph(g))


def _check_coalition_graphs() -> tuple[bool, str]:
    """Coalition graphs of K_{2,4} presets and stars; self-coalition census.

    Reports FAIL on the census clause: the expected answer admits only C5
    and the net graph, but the triangle with pendant-leaf counts (2,1,1) is
    also isomorphic to its own singleton coalition graph (its ECG is again
    a triangle whose opposite edges carry the leaf blocks), so the n <= 7
    census finds three graphs, not two.  Criterion 11 of the acceptance
    suite pins exactly this three-graph census.
    """
    bad_presets = k24_preset_mismatches()
    if bad_presets:
        return False, f"preset {bad_presets[0]} mismatch"
    bad_stars = star_ecg_mismatches()
    if bad_stars:
        return False, f"star ECG wrong at n={bad_stars[0]}"

    expected = (cycle_graph(5), net_graph())
    hits = self_coalition_census()
    unexpected = [g.edges for g in hits if not any(are_isomorphic(g, t) for t in expected)]
    missing = [t.edges for t in expected if not any(are_isomorphic(g, t) for g in hits)]
    if missing or unexpected:
        return False, (
            "self-coalition census differs from the expected two-graph answer: "
            f"extra hits {unexpected}, missing {missing}"
        )
    return True, "presets, stars, and census all match"


def _check_oracle() -> tuple[bool, str]:
    """Solver EC equals brute-force EC on every bound-corpus graph."""
    for g in _bound_corpus():
        fast = _ec(g)
        slow = brute_force_ec(g)
        if fast != slow:
            return False, f"{g.edges}: solver {fast} != oracle {slow}"
    return True, f"{len(_bound_corpus())} graphs agree with the oracle"


def _check_spot_checks() -> tuple[bool, str]:
    """Hand-encoded dense spot checks reach EC = m; EC = m iff singleton-ec."""
    for name, g in SINGLETON_EC_SPOT_CHECKS.items():
        if _ec(g) != g.m:
            return False, f"{name}: EC != m"
        if not is_singleton_ec_graph(g):
            return False, f"{name}: not singleton-ec"
    count = 0
    for g in _connected_corpus():
        if g.m <= g.n:  # a connected graph with m <= n is a tree or unicyclic
            continue
        count += 1
        if (_ec(g) == g.m) != is_singleton_ec_graph(g):
            return False, f"inconsistent at {g.edges}"
    return True, f"{len(SINGLETON_EC_SPOT_CHECKS)} spot checks and {count} dense graphs consistent"


def _check_gamma_identity() -> tuple[bool, str]:
    """gamma'(G) equals the vertex domination number of the line graph;
    gamma' of K_n and K_{n/2,n/2} is n/2 at the stated orders."""
    for g in _bound_corpus():
        if edge_domination_number(g).gamma_prime != gamma_prime_via_line_graph(g):
            return False, f"identity fails at {g.edges}"
    for n in (4, 6, 8):
        if edge_domination_number(complete_graph(n)).gamma_prime != n // 2:
            return False, f"K_{n} != {n // 2}"
    for r in (2, 3):
        if edge_domination_number(complete_bipartite(r, r)).gamma_prime != r:
            return False, f"K_{r},{r} != {r}"
    return True, f"{len(_bound_corpus())} graphs plus K_n/K_r,r cases agree"


# Each check returns (passed, detail); its tag is named here and only here.
CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("paths-closed-form", _check_paths),
    ("cycles-closed-form", _check_cycles),
    ("stars-and-double-stars", _check_stars),
    ("complete-graphs", _check_complete),
    ("complete-bipartite", _check_bipartite),
    ("small-ec-classes", _check_small_ec),
    ("trees-phi", _check_trees),
    ("unicyclic-theta", _check_unicyclic),
    ("bound-suite", _check_bounds),
    ("partner-cap", _check_partner_cap),
    ("coalition-graph-theorems", _check_coalition_graphs),
    ("oracle-equivalence", _check_oracle),
    ("singleton-ec-spot-checks", _check_spot_checks),
    ("gamma-prime-identity", _check_gamma_identity),
)


def run_all(tags: Sequence[str] | None = None) -> Iterator[CheckResult]:
    """Yield each result of the suite, or of the checks in ``tags``, in
    ``CHECKS`` order as its check finishes.  A bare str, unknown tags and
    repeated tags raise :class:`EclabError` before any check runs.  ``CHECKS``
    is read at call time, so a caller such as the benchmark tracer may replace it.
    """
    checks = CHECKS
    if tags is not None:
        if isinstance(tags, str):  # would be read as its letters
            raise EclabError(f"check tags must be a sequence of str, got the str {tags!r}")
        known = {tag for tag, _ in checks}
        unknown = [t for t in tags if t not in known]
        if unknown:
            raise EclabError(f"unknown check tags: {', '.join(map(repr, unknown))}")
        for tag in tags:
            if tags.count(tag) > 1:  # would run once
                raise EclabError(f"check tag {tag!r} is listed more than once")
        checks = tuple((tag, fn) for tag, fn in checks if tag in tags)
    return (CheckResult(tag, *fn()) for tag, fn in checks)
