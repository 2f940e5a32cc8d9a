"""Tests for family generators, closed forms, and structural recognizers."""

import re
from itertools import product

import pytest

import eclab.graphs
from eclab.coalition import edge_coalition_number, is_singleton_ec_graph
from eclab.errors import InvalidSpec, NotATree, NotUnicyclic
from eclab.families import (
    _KINDS,
    FamilySpec,
    SmallEcClass,
    _edge_count,
    bowtie_graph,
    closed_form_ec,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    double_star,
    generate,
    net_graph,
    path_graph,
    phi_recognizer,
    small_ec_classifier,
    star_graph,
    theta_recognizer,
    two_disjoint_edges,
)
from eclab.graphs import Graph, graph_metrics
from eclab.oracle import CorpusSpec, enumerate_corpus
from eclab.theorems import run_all


#: One spec string per family kind, in its short name.
SAMPLE_SPECS = ("path:6", "cycle:7", "star:5", "dstar:3,2", "complete:4", "kbip:2,4")

#: Refused spec strings, or ``(kind, params)`` constructor arguments, with the
#: exact message of their ``InvalidSpec``.
INVALID_SPECS = [
    ("path", "cannot parse family spec 'path'"),
    ("path:1", "invalid parameters (1,) for family 'path'"),
    ("cycle:2", "invalid parameters (2,) for family 'cycle'"),
    ("star:0", "invalid parameters (0,) for family 'star'"),
    ("dstar:1,2", "invalid parameters (1, 2) for family 'double_star'"),
    ("kbip:0,3", "invalid parameters (0, 3) for family 'complete_bipartite'"),
    ("blob:4", "cannot parse family spec 'blob:4'"),
    ("path:x", "cannot parse family spec 'path:x'"),
    ("double:3,2", "cannot parse family spec 'double:3,2'"),
    ("d_star:3,2", "cannot parse family spec 'd_star:3,2'"),
    # A kind that is not a str is unknown; a list or dict one was a bare TypeError.
    ((["path"], (3,)), "unknown family kind ['path']"),
    (({"path": 1}, (3,)), "unknown family kind {'path': 1}"),
    ((None, (3,)), "unknown family kind None"),
]


class TestSpecsAndGenerators:
    def test_parse_round_trip(self):
        for text in SAMPLE_SPECS:
            spec = FamilySpec.parse(text)
            assert spec.to_string() == text
        assert sorted(FamilySpec.parse(text).kind for text in SAMPLE_SPECS) == sorted(_KINDS)

    @pytest.mark.parametrize("bad, message", INVALID_SPECS, ids=[str(bad) for bad, _ in INVALID_SPECS])
    def test_invalid_specs(self, bad, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            FamilySpec.parse(bad) if isinstance(bad, str) else FamilySpec(*bad)

    def test_unknown_kind_refused_by_the_constructor(self):
        with pytest.raises(InvalidSpec, match="unknown family kind 'widget'"):
            FamilySpec("widget", (1,))

    @pytest.mark.parametrize(
        "kind, params",
        [("path", (6.0,)), ("star", (True,)), ("cycle", ("5",)), ("complete", (None,)),
         ("complete_bipartite", (2, False)), ("double_star", (3, 2.0)), ("path", 6), ("path", [6])],
    )
    def test_constructor_refuses_params_that_are_not_ints(self, kind, params):
        with pytest.raises(InvalidSpec, match="family parameters must be a tuple of integers"):
            FamilySpec(kind, params)

    @pytest.mark.parametrize(
        "kind, size",
        [(kind, size) for kind, row in _KINDS.items() for size in range(4) if size != row.arity],
    )
    def test_constructor_refuses_the_wrong_number_of_params(self, kind, size):
        params = (3,) * size
        message = f"invalid parameters {params} for family {kind!r}"
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            FamilySpec(kind, params)

    def test_edge_count_equals_generated_size(self):
        # Every valid spec of each kind with parameters below 30 (one parameter) or 12 (two).
        for kind, row in _KINDS.items():
            grid = product(range(30 if row.arity == 1 else 12), repeat=row.arity)
            specs = [FamilySpec(kind, p) for p in grid if row.valid(*p)]
            assert specs, kind
            for spec in specs:
                assert _edge_count(spec) == generate(spec).m, spec

    def test_parse_accepts_kind_or_short_name_in_any_case(self):
        for text in SAMPLE_SPECS:
            short, _, params = text.partition(":")
            spec = FamilySpec.parse(text)
            for name in (spec.kind, short, spec.kind.upper(), short.upper(), spec.kind.title()):
                assert FamilySpec.parse(f"{name}:{params}") == spec
                assert FamilySpec.parse(f"{name}:{params}").to_string() == text

    def test_path(self):
        g = path_graph(6)
        assert (g.n, g.m) == (6, 5)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))

    def test_double_star_shape(self):
        g = double_star(2, 1)
        assert (g.n, g.m) == (5, 4)
        assert (0, 1) in g.edges  # centers adjacent
        assert g.degree(0) == 3 and g.degree(1) == 2

    def test_k24_edge_layout(self):
        # The preset partitions rely on this exact column-major edge order.
        g = complete_bipartite(2, 4)
        assert g.edges == (
            (0, 2), (0, 3), (0, 4), (0, 5),
            (1, 2), (1, 3), (1, 4), (1, 5),
        )

    def test_cycle_edges_sorted(self):
        g = cycle_graph(5)
        assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))

    def test_star_center(self):
        g = star_graph(4)
        assert g.degree(0) == 4 and all(g.degree(v) == 1 for v in range(1, 5))


class TestClosedForms:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("path:13", 6),
            ("path:2", 1),
            ("path:6", 4),
            ("path:9", 5),
            ("cycle:7", 5),
            ("cycle:6", 6),
            ("cycle:12", 6),
            ("star:9", 9),
            ("dstar:3,2", 6),
            ("complete:5", 10),
            ("complete:6", None),
            ("kbip:1,4", 4),
            ("kbip:2,3", 6),
            ("kbip:5,2", 10),
            ("kbip:3,3", None),
            ("kbip:3,1", 3),
        ],
    )
    def test_values(self, text, expected):
        assert closed_form_ec(FamilySpec.parse(text)) == expected

    def test_closed_forms_match_solver_at_desk_scale(self):
        specs = [FamilySpec("path", (n,)) for n in range(2, 11)]
        specs += [FamilySpec("cycle", (n,)) for n in range(3, 10)]
        specs += [FamilySpec("star", (n,)) for n in range(1, 7)]
        specs += [FamilySpec("double_star", (p, q)) for p in range(4) for q in range(p + 1)]
        specs += [FamilySpec("complete", (n,)) for n in range(2, 6)]
        specs += [FamilySpec("complete_bipartite", (2, s)) for s in range(2, 7)]
        for spec in specs:
            want = closed_form_ec(spec)
            assert want is not None
            assert edge_coalition_number(generate(spec)).ec == want, spec


class TestPhiRecognizer:
    def test_double_star_accepted(self):
        assert phi_recognizer(double_star(3, 2))

    def test_p5_accepted(self):
        assert phi_recognizer(path_graph(5))

    def test_spider_rejected(self):
        spider = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        assert not phi_recognizer(spider)
        # Cross-check against the operational criterion.
        assert not is_singleton_ec_graph(spider)

    def test_long_path_rejected(self):
        assert not phi_recognizer(path_graph(6))

    def test_diameter_four_with_middle_degree_two_accepted(self):
        # Two stars joined through a degree-2 middle vertex.
        broom = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (5, 7)])
        assert graph_metrics(broom).diameter == 4
        assert phi_recognizer(broom)

    def test_requires_tree(self):
        with pytest.raises(NotATree):
            phi_recognizer(cycle_graph(3))


class TestThetaRecognizer:
    def test_small_cycles_accepted(self):
        for n in (3, 4, 5, 6):
            assert theta_recognizer(cycle_graph(n))

    def test_long_cycles_rejected(self):
        for n in (7, 8):
            assert not theta_recognizer(cycle_graph(n))

    def test_paw_accepted(self):
        assert theta_recognizer(Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]))

    def test_net_accepted(self):
        assert theta_recognizer(net_graph())

    def test_triangle_with_depth_two_tail_accepted(self):
        tail = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert theta_recognizer(tail)

    def test_c6_with_leaf_rejected(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)])
        assert not theta_recognizer(g)

    def test_c4_with_three_attachment_points_rejected(self):
        g = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5), (2, 6)])
        assert not theta_recognizer(g)

    def test_requires_unicyclic(self):
        with pytest.raises(NotUnicyclic):
            theta_recognizer(path_graph(4))


class TestSmallEcClassifier:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete_graph(2), SmallEcClass.EC1),
            (path_graph(3), SmallEcClass.EC2),
            (two_disjoint_edges(), SmallEcClass.EC2),
            (cycle_graph(3), SmallEcClass.EC3),
            (path_graph(4), SmallEcClass.EC3),
            (star_graph(3), SmallEcClass.EC3),
            (cycle_graph(5), SmallEcClass.OTHER),
            (complete_graph(4), SmallEcClass.OTHER),
        ],
    )
    def test_examples(self, graph, expected):
        assert small_ec_classifier(graph) == expected

    def test_graph_above_iso_cap_is_other(self):
        assert small_ec_classifier(path_graph(13)) == SmallEcClass.OTHER


class TestSpotCheckGraphs:
    def test_dense_spot_checks_reach_m(self):
        for g in (diamond_graph(), complete_graph(4), bowtie_graph()):
            assert edge_coalition_number(g).ec == g.m
            assert is_singleton_ec_graph(g)

    def test_balanced_bipartite_lower_bound(self):
        # 2s is a lower bound for complete bipartite graphs with parts >= 2.
        assert edge_coalition_number(complete_bipartite(2, 2)).ec == 4
        assert edge_coalition_number(complete_bipartite(2, 3)).ec >= 6
        assert edge_coalition_number(complete_bipartite(3, 3)).ec >= 6


@pytest.fixture
def no_longest_path(monkeypatch):
    """Make the exhaustive longest-path search raise wherever it is reached."""

    def tripwire(g):
        raise AssertionError(f"exhaustive longest-path search on {g!r}")

    monkeypatch.setattr(eclab.graphs, "longest_path_length", tripwire)
    with pytest.raises(AssertionError):
        graph_metrics(path_graph(3))  # the tripwire is live


class TestNoLongestPathSearch:
    """Shape questions are answered by BFS alone; none of these reads a
    longest path, so none may pay for the exponential search."""

    def test_phi_recognizer(self, no_longest_path):
        for g in enumerate_corpus(CorpusSpec(8, ("trees",))):
            if g.m >= 1:
                phi_recognizer(g)

    def test_theta_recognizer(self, no_longest_path):
        for g in enumerate_corpus(CorpusSpec(7, ("unicyclic",))):
            theta_recognizer(g)

    def test_small_ec_classifier(self, no_longest_path):
        for g in enumerate_corpus(CorpusSpec(5, ("all",))):
            small_ec_classifier(g)

    @pytest.mark.parametrize(
        "tag", ["small-ec-classes", "partner-cap", "singleton-ec-spot-checks"]
    )
    def test_theorem_checks(self, no_longest_path, tag):
        assert next(run_all((tag,))).passed
