"""Tests for edge-dominating-set predicates and domination numbers."""

import json
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eclab.cli import main
from eclab.coalition import forms_edge_coalition
from eclab.domination import (
    check_edge_set,
    edge_domination_number,
    gamma_prime_via_line_graph,
    is_edge_dominating_set,
    vertex_domination_number,
)
from eclab.errors import GraphMismatch
from eclab.families import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    two_disjoint_edges,
)
from eclab.graphs import Graph

from test_graphs import corpus_graphs, small_graphs


def _subset_scan(g: Graph) -> tuple[int, frozenset[int]]:
    """Least dominating size and lex-least witness, by scanning every subset."""
    masks, full = g.closed_edge_masks(), g.full_edge_mask
    for size in range(1, g.m + 1):
        for combo in combinations(range(g.m), size):
            cover = 0
            for e in combo:
                cover |= masks[e]
            if cover == full:
                return size, frozenset(combo)
    return 0, frozenset()


@st.composite
def dense_graphs(draw, max_n=8):
    """A complete graph on 4..``max_n`` vertices with at most three edges removed."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    missing = draw(st.sets(st.sampled_from(pairs), max_size=3))
    return Graph(n, [p for p in pairs if p not in missing])


class TestIsEdgeDominatingSet:
    def test_p6_two_end_blocks_do_not_dominate(self):
        # Edges 0..4 along the path; {0, 4} leaves edge 2 undominated.
        assert not is_edge_dominating_set(path_graph(6), {0, 4})

    def test_p6_three_edges_dominate(self):
        assert is_edge_dominating_set(path_graph(6), {0, 1, 4})

    def test_whole_edge_set_always_dominates(self):
        for g in (path_graph(5), cycle_graph(6), two_disjoint_edges()):
            assert is_edge_dominating_set(g, range(g.m))

    def test_empty_set_dominates_only_edgeless_graphs(self):
        assert is_edge_dominating_set(Graph(3), ())
        assert not is_edge_dominating_set(path_graph(3), ())

    def test_members_need_no_neighbor_inside(self):
        # Both members are isolated edges with no neighbors at all, yet the
        # set dominates: only edges *outside* the set need a neighbor in it.
        assert is_edge_dominating_set(two_disjoint_edges(), {0, 1})

    def test_graph_mismatch(self):
        with pytest.raises(GraphMismatch):
            is_edge_dominating_set(path_graph(3), {5})

    @pytest.mark.parametrize("e", [2, -1, True, "a", 1.0, None])
    def test_index_out_of_range(self, e):
        # Only a plain int in 0..m-1 names an edge: -1 would read the last
        # edge's mask, and True and 1.0 would pass for edge 1.
        with pytest.raises(GraphMismatch, match="does not exist"):
            check_edge_set(path_graph(3), [e])

    def test_bool_indices_are_a_graph_mismatch(self):
        with pytest.raises(GraphMismatch):
            check_edge_set(path_graph(3), [True])

    @pytest.mark.parametrize(
        "members",
        [[0, False], [False, 0], [1, True], [True, 1]],
        ids=["0-False", "False-0", "1-True", "True-1"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, s: is_edge_dominating_set(g, s),
            lambda g, s: forms_edge_coalition(g, s, [2]),
        ],
        ids=["dominating", "coalition"],
    )
    def test_bool_members_are_refused_in_either_order(self, call, members):
        # A set keeps only the first of 0 and False, so checking the set
        # instead of the members as given accepted [0, False] but not
        # [False, 0].
        with pytest.raises(GraphMismatch):
            call(path_graph(4), members)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: is_edge_dominating_set(g, [[0]]),
            lambda g: is_edge_dominating_set(g, 5),
            lambda g: forms_edge_coalition(g, [[0]], {2}),
        ],
        ids=["unhashable", "not-iterable", "coalition"],
    )
    def test_malformed_edge_sets_are_a_graph_mismatch(self, call):
        # Unhashable members and non-iterables fail inside frozenset();
        # that TypeError must surface as an EclabError like any bad index.
        with pytest.raises(GraphMismatch):
            call(path_graph(4))

    @settings(max_examples=60)
    @given(small_graphs(min_m=1), st.data())
    def test_monotone_under_superset(self, g, data):
        base = data.draw(st.sets(st.integers(0, g.m - 1)))
        extra = data.draw(st.sets(st.integers(0, g.m - 1)))
        if is_edge_dominating_set(g, base):
            assert is_edge_dominating_set(g, base | extra)


class TestEdgeDominationNumber:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (complete_graph(4), 2),
            (complete_bipartite(3, 3), 3),
            (cycle_graph(5), 2),
            (path_graph(2), 1),
            (Graph(3), 0),
        ],
    )
    def test_known_values(self, graph, expected):
        assert edge_domination_number(graph).gamma_prime == expected

    def test_witness_is_minimal_and_lex_least(self):
        g = cycle_graph(6)
        result = edge_domination_number(g)
        # Recompute the lexicographically least minimum by direct scan.
        for combo in combinations(range(g.m), result.gamma_prime):
            if is_edge_dominating_set(g, combo):
                assert frozenset(combo) == result.witness
                break

    def test_cycles_match_ceiling_third(self):
        # gamma'(C_n) = ceil(n/3), cross-checked by exhaustive search.
        for n in range(3, 13):
            g = cycle_graph(n)
            got = edge_domination_number(g).gamma_prime
            brute = next(
                size
                for size in range(1, g.m + 1)
                if any(
                    is_edge_dominating_set(g, c) for c in combinations(range(g.m), size)
                )
            )
            assert got == brute == math.ceil(n / 3)

    def test_complete_even_order(self):
        for n in (4, 6, 8):
            assert edge_domination_number(complete_graph(n)).gamma_prime == n // 2

    def test_complete_bipartite_balanced(self):
        for r in (2, 3):
            assert edge_domination_number(complete_bipartite(r, r)).gamma_prime == r

    def test_corpus_matches_subset_scan(self):
        graphs = corpus_graphs()
        assert len(graphs) == 1580
        for g in graphs:
            result = edge_domination_number(g)
            assert (result.gamma_prime, result.witness) == _subset_scan(g)

    @pytest.mark.parametrize(
        "graph,witness",
        [
            # Lex-least minimum sets, each computed by the size-by-size
            # matching scan that the memoized search replaced; the first two
            # are not the first dominating matching.
            (complete_graph(12), (0, 1, 30, 45, 56, 63)),
            (complete_bipartite(6, 6), (0, 1, 2, 3, 4, 5)),
            (complete_graph(13), (0, 23, 42, 57, 68, 75)),
            (complete_bipartite(7, 7), range(7)),
            (complete_bipartite(8, 8), range(8)),
            (path_graph(30), range(0, 28, 3)),
            (cycle_graph(29), range(0, 28, 3)),
        ],
    )
    def test_pinned_dense_witnesses(self, graph, witness):
        result = edge_domination_number(graph)
        assert (result.gamma_prime, result.witness) == (len(witness), frozenset(witness))

    def test_paths_and_cycles_closed_forms(self):
        for n in range(2, 201):
            assert edge_domination_number(path_graph(n)).gamma_prime == math.ceil((n - 1) / 3)
        for n in range(3, 201):
            assert edge_domination_number(cycle_graph(n)).gamma_prime == math.ceil(n / 3)

    def test_cli_answers_path_2500(self, capsys):
        # gamma' = 833 is deeper than Python's recursion limit; the search
        # keeps its own stack.  Edge 0 cannot start the witness: it leaves
        # edges 2..2498 undominated, and those 2,497 edges need 833 more.
        assert main(["gamma", "--family", "path:2500", "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"gamma_prime": 833, "witness": list(range(1, 2499, 3))}

    @settings(max_examples=60)
    @given(st.one_of(small_graphs(max_n=7, min_m=1), dense_graphs()), st.data())
    def test_relabelled_shuffled_graphs_match_subset_scan(self, g, data):
        perm = data.draw(st.permutations(range(g.n)))
        edges = data.draw(st.permutations([(perm[u], perm[v]) for u, v in g.edges]))
        h = Graph(g.n, edges)
        result = edge_domination_number(h)
        assert (result.gamma_prime, result.witness) == _subset_scan(h)

    def test_cli_json_on_k12(self, capsys):
        assert main(["gamma", "--family", "complete:12", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == '{"gamma_prime": 6, "witness": [0, 1, 30, 45, 56, 63]}\n'

    @settings(max_examples=40)
    @given(small_graphs(min_m=1))
    def test_witness_dominates_and_nothing_smaller_does(self, g):
        result = edge_domination_number(g)
        assert is_edge_dominating_set(g, result.witness)
        if result.gamma_prime > 1:
            assert not any(
                is_edge_dominating_set(g, c)
                for c in combinations(range(g.m), result.gamma_prime - 1)
            )


class TestVertexDomination:
    @pytest.mark.parametrize(
        "graph,expected",
        [(complete_graph(4), 1), (cycle_graph(5), 2), (path_graph(3), 1)],
    )
    def test_known_values(self, graph, expected):
        assert vertex_domination_number(graph) == expected

    @settings(max_examples=40)
    @given(small_graphs(min_m=1))
    def test_line_graph_identity(self, g):
        assert edge_domination_number(g).gamma_prime == gamma_prime_via_line_graph(g)
