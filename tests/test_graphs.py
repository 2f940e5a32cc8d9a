"""Tests for graph construction, edge structure, metrics, and isomorphism."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eclab.errors import (
    DuplicateEdge,
    EdgeIndexOutOfRange,
    OutOfRangeVertex,
    SelfLoop,
    SizeLimitExceeded,
)
from eclab.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    two_disjoint_edges,
)
from eclab.graphs import (
    Graph,
    are_isomorphic,
    edge_neighborhood,
    format_edge_list,
    graph_from_edge_list,
    graph_metrics,
    is_full_edge,
    line_graph,
    longest_path_length,
    parse_edge_list,
)
from eclab.oracle import graphs_of_order


@st.composite
def small_graphs(draw, max_n=6, min_m=0, max_m=None):
    min_n = 1
    while min_n * (min_n - 1) // 2 < min_m:
        min_n += 1
    n = draw(st.integers(min_value=min_n, max_value=max(max_n, min_n)))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not all_pairs:
        return Graph(n, [])
    cap = len(all_pairs) if max_m is None else min(max_m, len(all_pairs))
    picked = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, min_size=min_m, max_size=cap)
    )
    return Graph(n, picked)


def corpus_graphs() -> list[Graph]:
    """1,580 graphs: connected n <= 7, trees n <= 10, unicyclic n <= 9."""
    caps = {"connected": 7, "trees": 10, "unicyclic": 9}
    return [
        g
        for cls, top in caps.items()
        for n in range(top + 1)
        for g in graphs_of_order(cls, n)
    ]


def _disjoint_cycles(*lengths: int) -> Graph:
    edges, start = [], 0
    for k in lengths:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return Graph(start, edges)


def _prism(k: int) -> Graph:
    """Two k-cycles joined by a perfect matching (k = 3: the triangular prism)."""
    g = _disjoint_cycles(k, k)
    return Graph(2 * k, list(g.edges) + [(i, i + k) for i in range(k)])


def _petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def _frucht() -> Graph:
    """Cubic on 12 vertices with no automorphism but the identity (LCF notation)."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    chords = {tuple(sorted((i, (i + lcf[i]) % 12))) for i in range(12)}
    return Graph(12, [(i, (i + 1) % 12) for i in range(12)] + sorted(chords))


def _cocktail_party(k: int) -> Graph:
    """K_2k minus a perfect matching."""
    return Graph(2 * k, [(u, v) for u in range(2 * k) for v in range(u + 1, 2 * k) if v != u + k])


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in reversed(g.edges)])


class TestConstruction:
    def test_p3_direct(self):
        g = graph_from_edge_list(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_c4_direct(self):
        g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4

    def test_duplicate_edge_rejected_unordered(self):
        with pytest.raises(DuplicateEdge):
            graph_from_edge_list(2, [(0, 1), (1, 0)])
        with pytest.raises(DuplicateEdge):
            graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            graph_from_edge_list(2, [(0, 0)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(OutOfRangeVertex):
            graph_from_edge_list(2, [(0, 2)])

    def test_isolated_vertices_allowed(self):
        g = graph_from_edge_list(5, [(0, 1)])
        assert g.n == 5 and g.m == 1


class TestEdgeNeighborhood:
    def test_p4_middle_edge(self):
        g = path_graph(4)
        nb = edge_neighborhood(g, 1)
        assert nb.neighbors == frozenset({0, 2})
        assert nb.degree == 2

    def test_k4_every_edge_has_four_neighbors(self):
        g = complete_graph(4)
        for e in range(g.m):
            assert edge_neighborhood(g, e).degree == 4

    def test_star_edges_have_m_minus_1_neighbors(self):
        g = star_graph(4)
        for e in range(g.m):
            assert edge_neighborhood(g, e).degree == g.m - 1

    def test_index_out_of_range(self):
        with pytest.raises(EdgeIndexOutOfRange):
            edge_neighborhood(path_graph(3), 2)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_stored_masks_match_the_edge_pairs(self, g):
        closed = g.closed_edge_masks()
        assert len(closed) == g.m
        for e, (a, b) in enumerate(g.edges):
            expected = sum(
                1 << f for f, pair in enumerate(g.edges) if f == e or {a, b} & set(pair)
            )
            assert closed[e] == expected
            assert g.edge_neighbor_mask(e) == expected & ~(1 << e)

    def test_has_edge_checks_the_vertex_range(self):
        g = Graph(3, [(1, 2)])
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        # _adj[-1] would be vertex 2's row, which holds 1.
        for u, v in [(0, 1), (-1, 1), (3, 1), (1, 3)]:
            assert not g.has_edge(u, v)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_neighbor_symmetry_and_irreflexivity(self, g):
        hoods = [edge_neighborhood(g, e).neighbors for e in range(g.m)]
        for e in range(g.m):
            assert e not in hoods[e]
            for f in hoods[e]:
                assert e in hoods[f]


class TestFullEdges:
    def test_star_edges_full(self):
        g = star_graph(5)
        assert all(is_full_edge(g, e) for e in range(g.m))

    def test_p5_middle_edge_not_full(self):
        assert not is_full_edge(path_graph(5), 1)

    def test_p3_both_edges_full(self):
        g = path_graph(3)
        assert is_full_edge(g, 0) and is_full_edge(g, 1)


class TestLineGraph:
    def test_line_of_path(self):
        assert are_isomorphic(line_graph(path_graph(4)), path_graph(3))

    def test_line_of_cycle(self):
        assert are_isomorphic(line_graph(cycle_graph(5)), cycle_graph(5))

    def test_line_of_star(self):
        assert are_isomorphic(line_graph(star_graph(4)), complete_graph(4))

    @settings(max_examples=60)
    @given(small_graphs())
    def test_line_graph_size_formula(self, g):
        expected = sum(math.comb(g.degree(v), 2) for v in range(g.n))
        assert line_graph(g).m == expected

    @settings(max_examples=60)
    @given(small_graphs(min_m=1))
    def test_line_graph_max_degree_bound(self, g):
        lg = line_graph(g)
        max_deg = max((g.degree(v) for v in range(g.n)), default=0)
        lg_max = max((lg.degree(v) for v in range(lg.n)), default=0)
        assert lg_max <= 2 * max_deg - 2


class TestMetrics:
    def test_p6(self):
        met = graph_metrics(path_graph(6))
        assert met.min_degree == 1 and met.max_degree == 2
        assert met.tree and met.connected
        assert met.diameter == 5
        assert met.longest_path_length == 5

    def test_c5(self):
        met = graph_metrics(cycle_graph(5))
        assert met.min_degree == met.max_degree == 2
        assert met.unicyclic and not met.tree
        assert met.longest_path_length == 4

    def test_two_disjoint_edges(self):
        met = graph_metrics(two_disjoint_edges())
        assert not met.connected
        assert met.diameter is None
        assert met.min_degree == met.max_degree == 1

    def test_tree_flag_consistency(self):
        for g in (path_graph(5), star_graph(4)):
            met = graph_metrics(g)
            assert met.tree and g.m == g.n - 1 and met.connected


def _plain_longest_path(g: Graph) -> int:
    """Exhaustive DFS over every simple path, with no early exit."""
    best = 0

    def dfs(v: int, visited: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for u in g.neighbors(v):
            if not visited >> u & 1:
                dfs(u, visited | 1 << u, length + 1)

    for v in range(g.n):
        dfs(v, 1 << v, 0)
    return best


class TestLongestPath:
    def test_corpus_matches_plain_dfs(self):
        graphs = corpus_graphs()
        assert len(graphs) == 1580
        for g in graphs:
            assert longest_path_length(g) == _plain_longest_path(g), format_edge_list(g)

    @pytest.mark.parametrize(
        "g,expected",
        [
            # K1,3 + P3: the ceiling 3 of the 4-vertex star is never reached.
            (Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6)]), 2),
            # P2 + K4: K4 reaches its ceiling 3 after P2 gave 1.
            (Graph(6, [(0, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]), 3),
            (Graph(0), 0),
            (Graph(3), 0),
        ],
    )
    def test_values(self, g, expected):
        assert longest_path_length(g) == expected == _plain_longest_path(g)

    def test_hamiltonian_graph_stops_at_the_ceiling(self):
        # An exhaustive DFS of K8,8 would not finish; the timeout turns a
        # lost ceiling exit into a failure instead of a hang.
        code = (
            "from eclab.families import complete_bipartite\n"
            "from eclab.graphs import longest_path_length\n"
            "assert longest_path_length(complete_bipartite(8, 8)) == 15\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr


class TestIsomorphism:
    def test_c4_is_k22(self):
        assert are_isomorphic(cycle_graph(4), complete_bipartite(2, 2))

    def test_p4_vs_star(self):
        assert not are_isomorphic(path_graph(4), star_graph(3))

    def test_line_star_vs_complete(self):
        assert are_isomorphic(line_graph(star_graph(4)), complete_graph(4))

    @pytest.mark.parametrize(
        "g1,g2,expected",
        [
            (cycle_graph(6), _disjoint_cycles(3, 3), False),
            (complete_bipartite(3, 3), _prism(3), False),
            (cycle_graph(12), _disjoint_cycles(6, 6), False),
            (_petersen(), _prism(5), False),
            (_petersen(), _relabeled(_petersen(), 3), True),
            (_cocktail_party(6), _relabeled(_cocktail_party(6), 7), True),
            (_frucht(), _relabeled(_frucht(), 5), True),
        ],
        ids=[
            "C6-2C3", "K33-prism", "C12-2C6", "petersen-prism5", "petersen", "cocktail-party",
            "frucht",
        ],
    )
    def test_regular_pairs_refinement_cannot_split(self, g1, g2, expected):
        # Each pair is regular of equal degree and order, so colour
        # refinement alone leaves one cell in both graphs.
        assert are_isomorphic(g1, g2) is expected
        assert are_isomorphic(g2, g1) is expected

    def test_size_cap(self):
        big = complete_graph(13)
        with pytest.raises(SizeLimitExceeded):
            are_isomorphic(big, big)

    def test_size_cap_not_reached_when_counts_differ(self):
        assert not are_isomorphic(path_graph(13), complete_graph(2))

    @settings(max_examples=50)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert are_isomorphic(g, relabeled)

    @settings(max_examples=30)
    @given(small_graphs())
    def test_reflexive(self, g):
        assert are_isomorphic(g, g)

    @settings(max_examples=30)
    @given(small_graphs(max_n=5), small_graphs(max_n=5))
    def test_symmetric(self, g1, g2):
        assert are_isomorphic(g1, g2) == are_isomorphic(g2, g1)


class TestEdgeListFormat:
    def test_round_trip(self):
        g = complete_bipartite(2, 3)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\n3 2\n0 1\n# middle comment\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges == ((0, 1), (1, 2))

    def test_header_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 2\n0 1\n")
