"""Tests for graph construction, edge structure, metrics, and isomorphism."""

import math
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eclab.coalition import edge_coalition_number
from eclab.errors import (
    BudgetExceeded,
    DuplicateEdge,
    EclabError,
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
    _canonical_form,
    are_isomorphic,
    format_edge_list,
    graph_metrics,
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


def _circulant(n: int, *steps: int) -> Graph:
    """Vertex i adjacent to i ± s (mod n) for each step s."""
    return Graph(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def _brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Is there a vertex bijection mapping g1's edges onto g2's?  Plain
    backtracking: vertex v of g1 goes to each unused vertex of g2 whose
    adjacency to the images of 0..v-1 matches v's."""
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return False
    edges1, edges2 = set(g1.edges), set(g2.edges)  # pairs stored as (min, max)
    image: list[int] = []

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if w not in image and all(
                ((u, v) in edges1) == ((min(x, w), max(x, w)) in edges2)
                for u, x in enumerate(image)
            ):
                image.append(w)
                if extend(v + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in reversed(g.edges)])


class TestConstruction:
    def test_p3_direct(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert g.edges == ((0, 1), (1, 2))

    def test_c4_direct(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4

    def test_duplicate_edge_rejected_unordered(self):
        with pytest.raises(DuplicateEdge):
            Graph(2, [(0, 1), (1, 0)])
        with pytest.raises(DuplicateEdge):
            Graph(4, [(0, 1), (1, 2), (2, 3), (2, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            Graph(2, [(0, 0)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(OutOfRangeVertex):
            Graph(2, [(0, 2)])
        with pytest.raises(OutOfRangeVertex, match="nonnegative"):
            Graph(-1)

    @pytest.mark.parametrize("edge", [(True, 2), (0, False), (0.0, 1), (0, 1.0), ("0", 1), (None, 1)])
    def test_endpoint_that_is_not_an_int_vertex_refused(self, edge):
        # A stored bool endpoint would be written as "True 2", which
        # parse_edge_list refuses.
        with pytest.raises(OutOfRangeVertex, match="int endpoints"):
            Graph(3, [edge])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([5], "edge 5 is not a pair"),
            (None, "edges must be an iterable of pairs, got None"),
            ([(0, 1, 2)], "edge (0, 1, 2) is not a pair"),
            ([(0,)], "edge (0,) is not a pair"),
        ],
        ids=["int", "None", "triple", "single"],
    )
    def test_edge_list_that_is_not_vertex_pairs_refused(self, edges, message):
        # Unchecked, each raises a bare TypeError or ValueError from the unpacking.
        with pytest.raises(OutOfRangeVertex, match=re.escape(message)):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(0, 1): "x", (1, 2): "y"}, "edges must be an iterable of pairs, got type dict"),
            (b"\x00\x01", "edges must be an iterable of pairs, got type bytes"),
            (bytearray(b"\x00\x01"), "edges must be an iterable of pairs, got type bytearray"),
            ([{0: "x", 1: "y"}], "edge {0: 'x', 1: 'y'} has type dict"),
            ([b"\x00\x01"], "edge b'\\x00\\x01' has type bytes"),
            ([bytearray(b"\x00\x01")], "edge bytearray(b'\\x00\\x01') has type bytearray"),
        ],
        ids=["dict-list", "bytes-list", "bytearray-list", "dict-edge", "bytes-edge", "bytearray-edge"],
    )
    def test_edge_list_or_edge_read_as_keys_or_byte_values_refused(self, edges, message):
        # Unchecked, the dict builds P3 from its keys and each bytes edge
        # the edge (0, 1) from its byte values.
        with pytest.raises(OutOfRangeVertex, match=re.escape(message)):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (1, 2)],
            ((0, 1), (1, 2)),
            [[0, 1], [1, 2]],
            ((u, u + 1) for u in range(2)),
            [tuple(range(u, u + 2)) for u in range(2)],
            [range(u, u + 2) for u in range(2)],
        ],
        ids=["list", "tuple", "list-of-lists", "generator", "range-tuples", "ranges"],
    )
    def test_edge_collections_of_pairs_accepted(self, edges):
        assert Graph(3, edges).edges == ((0, 1), (1, 2))

    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_vertex_count_that_is_not_a_nonnegative_int_refused(self, n):
        with pytest.raises(OutOfRangeVertex, match="nonnegative int"):
            Graph(n)

    def test_isolated_vertices_allowed(self):
        g = Graph(5, [(0, 1)])
        assert g.n == 5 and g.m == 1

    def test_refused_exact_solve_builds_no_edge_masks(self):
        # K300 has 44,850 edges; its closed edge masks alone take about 240 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                edge_coalition_number(complete_graph(300))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_refused_long_path_builds_no_per_vertex_edge_masks(self):
        # P20000 has 19,999 edges; one incident-edge bitmask per vertex, built
        # while the edges are read, would hold m²/2 bits, about 24 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                edge_coalition_number(path_graph(20000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"

    def test_isolated_vertices_build_no_per_vertex_lists(self):
        # A ten-byte file that declares a million isolated vertices: one
        # empty neighbour list per vertex took about 70 MiB.
        tracemalloc.start()
        try:
            g = parse_edge_list("1000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
        assert (g.n, g.m, g.neighbors(0), g.degree(999999)) == (1000000, 0, (), 0)


class TestEdgeNeighborhood:
    def test_p4_middle_edge(self):
        g = path_graph(4)
        assert g.closed_edge_masks()[1] == 0b111

    def test_k4_every_edge_has_four_neighbors(self):
        g = complete_graph(4)
        for e in range(g.m):
            assert g.closed_edge_masks()[e].bit_count() == 5

    def test_star_edges_have_m_minus_1_neighbors(self):
        g = star_graph(4)
        for e in range(g.m):
            assert g.closed_edge_masks()[e].bit_count() == g.m

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

    @pytest.mark.parametrize("v", [-1, 3, True, 1.0, None])
    def test_degree_and_neighbors_refuse_a_non_vertex(self, v):
        # _adj[-1] is vertex 2's row (1,), and _adj[True] vertex 1's.
        g = Graph(3, [(1, 2)])
        for query in (g.degree, g.neighbors):
            with pytest.raises(OutOfRangeVertex, match=re.escape(f"vertex {v!r} not in 0..2")):
                query(v)

    @settings(max_examples=60)
    @given(small_graphs())
    def test_closed_masks_are_symmetric_and_hold_their_edge(self, g):
        hoods = g.closed_edge_masks()
        for e in range(g.m):
            assert hoods[e] >> e & 1
            for f in range(g.m):
                assert hoods[e] >> f & 1 == hoods[f] >> e & 1


def _full_edges(g: Graph) -> list[int]:
    """Edges whose closed neighbourhood is every edge, as the solver reads them."""
    return [e for e, mask in enumerate(g.closed_edge_masks()) if mask == g.full_edge_mask]


class TestFullEdges:
    def test_star_edges_full(self):
        g = star_graph(5)
        assert _full_edges(g) == list(range(g.m))

    def test_p5_middle_edge_not_full(self):
        assert 1 not in _full_edges(path_graph(5))

    def test_p3_both_edges_full(self):
        assert _full_edges(path_graph(3)) == [0, 1]


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
        assert met.tree and met.connected
        assert met.diameter == 5
        assert met.longest_path_length == 5

    def test_c5(self):
        met = graph_metrics(cycle_graph(5))
        assert met.unicyclic and not met.tree
        assert met.longest_path_length == 4

    def test_two_disjoint_edges(self):
        met = graph_metrics(two_disjoint_edges())
        assert not met.connected
        assert met.diameter is None

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
            # P4 + K3: one BFS per component finds the ceiling 3 of P4.
            (Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)]), 3),
            # K1 + C5 + P2: the isolated vertex comes first.
            (Graph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7)]), 4),
            # K4 + a trailing isolated vertex.
            (Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 3),
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
            (_circulant(8, 1, 2), _relabeled(_circulant(8, 1, 3), 1), False),
            (_petersen(), _prism(5), False),
            (_petersen(), _relabeled(_petersen(), 3), True),
            (_cocktail_party(6), _relabeled(_cocktail_party(6), 7), True),
            (_frucht(), _relabeled(_frucht(), 5), True),
        ],
        ids=[
            "C6-2C3", "K33-prism", "C12-2C6", "C8(1,2)-K44", "petersen-prism5", "petersen",
            "cocktail-party", "frucht",
        ],
    )
    def test_regular_pairs_refinement_cannot_split(self, g1, g2, expected):
        # Each pair is regular of equal degree and order, so colour
        # refinement alone leaves one cell in both graphs.  C8(1, 3) is K4,4.
        assert _brute_isomorphic(g1, g2) is expected
        assert are_isomorphic(g1, g2) is expected
        assert are_isomorphic(g2, g1) is expected

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 12])
    def test_stars_against_brute_force(self, n):
        # A star's centre has n - 1 neighbours of one colour, the largest
        # count a signature field holds; 3 and 4, and 7 and 8, sit on either
        # side of a step of n.bit_length(), and 12 is the vertex cap.
        star = star_graph(n - 1)
        for other in (star, path_graph(n)):
            for seed in range(3):
                h = _relabeled(other, seed)
                assert are_isomorphic(star, h) is _brute_isomorphic(star, h), (n, h.edges)

    def test_all_order_5_pairs_against_brute_force(self):
        graphs = graphs_of_order("all", 5)
        for i, g1 in enumerate(graphs):
            for j, g2 in enumerate(graphs):
                h = _relabeled(g2, 100 * i + j)
                assert are_isomorphic(g1, h) is _brute_isomorphic(g1, h) is (i == j), (i, j)

    def test_empty_and_one_vertex_graphs(self):
        # The empty graph's degree colouring has no class at all, so it must
        # be a leaf as it stands, not a cell to branch on.
        assert are_isomorphic(Graph(0), Graph(0))
        assert are_isomorphic(Graph(1), Graph(1))
        assert not are_isomorphic(Graph(0), Graph(1))
        assert _canonical_form(0, ()) == ((0, 0), set())

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

    @pytest.mark.parametrize("text", ["", "x y\n", "2 1\n0 1 2\n", "2 2\n0 1\n"])
    def test_malformed_text_is_eclab_error(self, text):
        with pytest.raises(EclabError):
            parse_edge_list(text)
