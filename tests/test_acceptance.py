"""Acceptance suite: one test per reproduction criterion, exact equality.

Every criterion prints one pass/fail line (visible with ``pytest -s`` or in
the captured output of failures), and the same checks back the CLI verb
``eclab theorems``.

Criteria 9 and 11 test claims that are false, so ``eclab theorems`` reports
both checks as FAIL.  Their tests assert the refutation instead: that the
check fails, and that the evidence behind it is exactly the counterexample
set below, each member matched against a graph built here and confirmed by
the independent brute-force oracle.  Any added or lost violation or census
hit, or any disagreement between oracle and solver, fails them.

* criterion 9: the only applicable bound broken on the bound corpus is
  2*gamma' - 1, and only by the spiders S(2,2,2) (gamma' = 3, EC = 4 < 5)
  and S(2,2,2,2) (gamma' = 4, EC = 4 < 7), which have no isolated or full
  edges;
* criterion 11: the self-coalition census of unicyclic graphs with n <= 7
  is exactly {C5, net, (2,1,1)-leaf triangle}, where the claim admits only
  C5 and the net.
"""

import dataclasses

import pytest

import eclab.families
import eclab.theorems
from eclab.coalition import ec_bounds, edge_coalition_number, singleton_partition
from eclab.domination import gamma_prime_via_line_graph
from eclab.errors import EclabError
from eclab.families import K24_PARTITION_PRESETS, two_disjoint_edges
from eclab.graphs import Graph, _canonical_form, are_isomorphic
from eclab.oracle import ORACLE_EDGE_CAP, CorpusSpec, accepts_partition, brute_force_ec, enumerate_corpus
from eclab.theorems import (
    CHECKS,
    CheckResult,
    bound_violations,
    k24_preset_mismatches,
    p3_bound_sharp,
    run_all,
    self_coalition_census,
    star_ecg_mismatches,
)

_DESCRIPTIONS = {
    "paths-closed-form": "criterion 01: path coalition-number table, n = 2..14",
    "cycles-closed-form": "criterion 02: cycle coalition-number table, n = 3..12",
    "stars-and-double-stars": "criterion 03: stars n = 1..8 and double stars to 9 edges",
    "complete-graphs": "criterion 04: complete graphs; exact K6 below its size",
    "complete-bipartite": "criterion 05: K_{2,2} sharp; K_{2,3}, K_{2,4} lower bounds",
    "small-ec-classes": "criterion 06: EC in {1,2,3} characterizations on the corpus",
    "trees-phi": "criterion 07: tree recognizer iff EC = n-1, n = 2..9",
    "unicyclic-theta": "criterion 08: unicyclic recognizer iff EC = n, n = 3..8",
    "bound-suite": "criterion 09: bound suite; 2*gamma'-1 refuted by exactly two spiders",
    "partner-cap": "criterion 10: certificate blocks stay within 2*Delta - 1 partners",
    "coalition-graph-theorems": "criterion 11: K_{2,4}/star ECGs; census is C5, net, (2,1,1)-triangle",
    "oracle-equivalence": "criterion 12: solver equals brute force on every bound-corpus graph",
    "singleton-ec-spot-checks": "criterion 13: dense spot checks and EC = m consistency",
    "gamma-prime-identity": "criterion 14: edge domination equals line-graph vertex domination",
}


def _report(tag: str):
    result = next(run_all((tag,)))
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {_DESCRIPTIONS[tag]} -- {result.detail}")
    return result


def _run(tag: str) -> None:
    result = _report(tag)
    assert result.passed, f"{tag}: {result.detail}"


def _spider(legs: int) -> Graph:
    """Centre 0 with ``legs`` legs of length two: 0-i-(legs+i)."""
    edges = [(0, i) for i in range(1, legs + 1)]
    edges += [(i, legs + i) for i in range(1, legs + 1)]
    return Graph(2 * legs + 1, edges)


def _leafy_triangle(leaves: tuple[int, int, int]) -> Graph:
    """Triangle 0-1-2 with ``leaves[v]`` pendant leaves at vertex v."""
    edges = [(0, 1), (1, 2), (0, 2)]
    n = 3
    for v, count in enumerate(leaves):
        for _ in range(count):
            edges.append((v, n))
            n += 1
    return Graph(n, edges)


def test_criterion_01_paths():
    _run("paths-closed-form")


def test_criterion_02_cycles():
    _run("cycles-closed-form")


def test_criterion_03_stars_and_double_stars():
    _run("stars-and-double-stars")


def test_criterion_04_complete_graphs():
    _run("complete-graphs")


def test_criterion_05_complete_bipartite():
    _run("complete-bipartite")


def test_criterion_05_reads_the_closed_form_table(monkeypatch):
    row = eclab.families._KINDS["complete_bipartite"]
    off_by_one = dataclasses.replace(row, closed_form_ec=lambda r, s: 2 * s + 1)
    monkeypatch.setitem(eclab.families._KINDS, "complete_bipartite", off_by_one)
    result = next(run_all(("complete-bipartite",)))
    assert (result.passed, result.detail) == (False, "kbip:2,2: solver 4 != closed form 5")


def test_criterion_06_small_ec_classes():
    _run("small-ec-classes")


def test_criterion_07_trees():
    _run("trees-phi")


def test_criterion_08_unicyclic():
    _run("unicyclic-theta")


def test_criterion_09_bound_suite():
    # The claim 2*gamma'-1 <= EC is false; pin its exact counterexamples.
    result = _report("bound-suite")
    violations = bound_violations()
    assert not result.passed
    assert result.detail.startswith(f"{len(violations)} violations, e.g. ")
    assert p3_bound_sharp()

    # (legs, gamma', EC): the bound 2*gamma'-1 exceeds EC on each.
    pinned = {3: (3, 4), 4: (4, 4)}
    assert len(violations) == len(pinned)
    matched = set()
    for v in violations:
        assert v.source == "twice-gamma-minus-one"
        legs = [k for k in pinned if are_isomorphic(v.graph, _spider(k))]
        assert len(legs) == 1, f"violator {v.graph.edges} is not a pinned spider"
        gamma, ec = pinned[legs[0]]
        assert (v.bound, v.ec) == (2 * gamma - 1, ec)
        matched.add(legs[0])
    assert matched == set(pinned)

    for legs, (gamma, ec) in pinned.items():
        spider = _spider(legs)
        assert gamma_prime_via_line_graph(spider) == gamma
        assert brute_force_ec(spider) == ec
        assert edge_coalition_number(spider).ec == ec
        entry = next(e for e in ec_bounds(spider).entries if e.source == "twice-gamma-minus-one")
        assert entry.applicable and entry.value == 2 * gamma - 1


def test_criterion_10_partner_cap():
    _run("partner-cap")


def test_criterion_11_coalition_graphs():
    # The claim "only C5 and the net" is false; pin the exact census.
    result = _report("coalition-graph-theorems")
    assert not result.passed
    assert result.detail.startswith("self-coalition census differs")

    assert len(K24_PARTITION_PRESETS) == 6
    assert k24_preset_mismatches() == ()
    assert star_ecg_mismatches() == ()

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    triangle = _leafy_triangle((2, 1, 1))
    assert triangle.edges == ((0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6))
    pinned = {"C5": c5, "net": _leafy_triangle((1, 1, 1)), "(2,1,1)-triangle": triangle}
    hits = self_coalition_census()
    assert len(hits) == len(pinned)
    named = []
    for g in hits:
        names = [name for name, t in pinned.items() if are_isomorphic(g, t)]
        assert len(names) == 1, f"census hit {g.edges} is not a pinned graph"
        named.extend(names)
    assert sorted(named) == sorted(pinned)

    # A self-coalition graph's singleton partition is an ec-partition, so EC = m.
    for name, g in pinned.items():
        assert accepts_partition(g, singleton_partition(g)), name
        assert brute_force_ec(g) == edge_coalition_number(g).ec == g.m, name


def test_criterion_12_oracle_equivalence():
    _run("oracle-equivalence")


def test_bound_corpus_holds_each_class_once_within_the_oracle_cap():
    # Every corpus check, criteria 6 to 14, reads this one corpus: every graph with an
    # edge and n <= 5, trees 6 <= n <= 9 and unicyclic graphs 6 <= n <= 8.
    corpus = eclab.theorems._bound_corpus()
    forms = {_canonical_form(g.n, g.edges)[0] for g in corpus}
    assert len(corpus) == len(forms) == 269
    pair = two_disjoint_edges()
    assert _canonical_form(pair.n, pair.edges)[0] in forms
    assert max(g.m for g in corpus) <= ORACLE_EDGE_CAP


def test_small_connected_corpus_is_read_from_the_bound_corpus():
    # Criteria 6 and 13 take the connected classes with n <= 5 from the bound
    # corpus, the same graph objects, so the solver meets each class once.
    bound = {id(g) for g in eclab.theorems._bound_corpus()}
    connected = eclab.theorems._connected_corpus()
    assert all(id(g) in bound for g in connected)
    enumerated = [g for g in enumerate_corpus(CorpusSpec(5, ("connected",))) if g.m >= 1]
    assert len(connected) == len(enumerated) == 30
    assert {_canonical_form(g.n, g.edges)[0] for g in connected} == {
        _canonical_form(g.n, g.edges)[0] for g in enumerated
    }


@pytest.mark.parametrize(
    "tag, recognizer, cls, max_n, count",
    [
        ("trees-phi", "phi_recognizer", "trees", 9, 94),
        ("unicyclic-theta", "theta_recognizer", "unicyclic", 8, 143),
    ],
)
def test_recognizer_sweep_reads_the_bound_corpus(monkeypatch, tag, recognizer, cls, max_n, count):
    # Criteria 7 and 8 filter the bound corpus by shape, the same graph
    # objects, and still cover every class of their corpus once.
    swept = []
    original = getattr(eclab.theorems, recognizer)

    def recording(g):
        swept.append(g)
        return original(g)

    monkeypatch.setattr(eclab.theorems, recognizer, recording)
    assert next(run_all((tag,))).passed
    bound = {id(g) for g in eclab.theorems._bound_corpus()}
    assert all(id(g) in bound for g in swept)
    enumerated = [g for g in enumerate_corpus(CorpusSpec(max_n, (cls,))) if g.m >= 1]
    assert len(swept) == len(enumerated) == count
    assert {_canonical_form(g.n, g.edges)[0] for g in swept} == {
        _canonical_form(g.n, g.edges)[0] for g in enumerated
    }


def test_self_coalition_census_reads_the_bound_corpus():
    bound = {id(g) for g in eclab.theorems._bound_corpus()}
    hits = self_coalition_census()
    assert len(hits) == 3
    assert all(id(g) in bound for g in hits)


def test_criterion_13_spot_checks():
    _run("singleton-ec-spot-checks")


def test_criterion_14_gamma_identity():
    _run("gamma-prime-identity")


def test_every_check_has_a_criterion_test():
    assert {tag for tag, _ in CHECKS} == set(_DESCRIPTIONS)


def _spy_checks(monkeypatch) -> list[str]:
    """Replace ``CHECKS`` by cheap stand-ins that record each tag they run."""
    ran: list[str] = []

    def make(tag):
        def check():
            ran.append(tag)
            return True, f"{tag} ran"

        return check

    monkeypatch.setattr(eclab.theorems, "CHECKS", tuple((tag, make(tag)) for tag, _ in CHECKS))
    return ran


def test_run_all_reads_checks_at_call_time_and_keeps_their_order(monkeypatch):
    ran = _spy_checks(monkeypatch)
    results = list(run_all(["gamma-prime-identity", "paths-closed-form"]))
    assert ran == ["paths-closed-form", "gamma-prime-identity"]
    assert results == [
        CheckResult("paths-closed-form", True, "paths-closed-form ran"),
        CheckResult("gamma-prime-identity", True, "gamma-prime-identity ran"),
    ]


def test_unknown_tags_raise_before_any_check_runs(monkeypatch):
    ran = _spy_checks(monkeypatch)
    with pytest.raises(EclabError, match="unknown check tags: 'nonsense', 'bad'$"):
        run_all(["nonsense", "paths-closed-form", "bad"])
    with pytest.raises(EclabError, match="unknown check tags: 'nonsense'$"):
        run_all(("nonsense",))
    assert ran == []


def test_a_bare_str_or_a_repeated_tag_raises_before_any_check_runs(monkeypatch):
    # Unchecked, a str reads as its letters and a repeated tag runs once.
    ran = _spy_checks(monkeypatch)
    with pytest.raises(EclabError, match="got the str 'paths-closed-form'$"):
        run_all("paths-closed-form")
    with pytest.raises(EclabError, match="tag 'paths-closed-form' is listed more than once"):
        run_all(["paths-closed-form", "gamma-prime-identity", "paths-closed-form"])
    assert ran == []
