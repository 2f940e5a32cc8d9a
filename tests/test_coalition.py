"""Tests for coalition predicates, partition verification, and the solver."""

import contextlib
import itertools
import json
import math
import operator
import random
import re
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eclab import coalition
from eclab.coalition import (
    NO_PARTNER,
    NON_SINGLETON_DOMINATING,
    EcCertificate,
    EcRejection,
    FullEdgeSingleton,
    Partner,
    certificate_json,
    coalition_graph,
    coalition_partner_count,
    ec_bounds,
    edge_coalition_lower_bound,
    edge_coalition_number,
    forms_edge_coalition,
    is_ec_partition,
    is_self_edge_coalition_graph,
    is_singleton_ec_graph,
    singleton_partition,
    validate_partition,
)
from eclab.domination import is_edge_dominating_set
from eclab.errors import (
    BlockIndexOutOfRange,
    BudgetExceeded,
    EclabError,
    EmptyGraph,
    EmptySet,
    GraphMismatch,
    InvalidPartition,
    NotAnEcPartition,
)
from eclab.families import (
    K24_PARTITION_PRESETS,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    net_graph,
    path_graph,
    star_graph,
    two_disjoint_edges,
)
from eclab.graphs import Graph, are_isomorphic
from eclab.oracle import (
    CorpusSpec,
    accepts_partition,
    brute_force_ec,
    enumerate_corpus,
    graphs_of_order,
)

from test_graphs import small_graphs

P6 = path_graph(6)
PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])  # a triangle with one pendant leaf
# The classic four-block partition of P6: end edges pooled, middle singletons.
P6_PARTITION = (frozenset({0, 4}), frozenset({1}), frozenset({2}), frozenset({3}))


class TestFormsEdgeCoalition:
    def test_p6_end_pool_with_second_edge(self):
        assert forms_edge_coalition(P6, {0, 4}, {1})

    def test_p6_two_middle_singletons_fail(self):
        # {1} and {2} jointly miss edge 4.
        assert not forms_edge_coalition(P6, {1}, {2})

    def test_not_disjoint(self):
        assert not forms_edge_coalition(P6, {1}, {1, 2})

    def test_empty_operand_rejected(self):
        with pytest.raises(EmptySet):
            forms_edge_coalition(P6, set(), {1})

    def test_mismatched_indices_rejected(self):
        with pytest.raises(GraphMismatch):
            forms_edge_coalition(P6, {9}, {1})

    def test_dominating_member_fails(self):
        # The middle edge of P4 dominates alone, so it cannot be a partner.
        g = path_graph(4)
        assert not forms_edge_coalition(g, {1}, {0})

    @settings(max_examples=60)
    @given(small_graphs(min_m=2), st.data())
    def test_symmetry(self, g, data):
        edges = list(range(g.m))
        a = data.draw(st.sets(st.sampled_from(edges), min_size=1))
        rest = sorted(set(edges) - a)
        if not rest:
            return
        b = data.draw(st.sets(st.sampled_from(rest), min_size=1))
        assert forms_edge_coalition(g, a, b) == forms_edge_coalition(g, b, a)


class TestIsEcPartition:
    def test_p6_partition_accepted_with_partners(self):
        cert = is_ec_partition(P6, P6_PARTITION)
        assert cert
        assert isinstance(cert, EcCertificate)
        assert all(isinstance(j, Partner) for j in cert.justifications)

    def test_p6_singleton_rejected_at_middle_block(self):
        outcome = is_ec_partition(P6, singleton_partition(P6))
        assert not outcome
        assert outcome == EcRejection(block=2, reason=NO_PARTNER)
        assert outcome.message() == "block 2 has no partner"

    def test_c5_singleton_accepted(self):
        cert = is_ec_partition(cycle_graph(5), singleton_partition(cycle_graph(5)))
        assert cert and cert.order == 5

    def test_star_singletons_are_full_edge_blocks(self):
        g = star_graph(4)
        cert = is_ec_partition(g, singleton_partition(g))
        assert cert
        assert all(isinstance(j, FullEdgeSingleton) for j in cert.justifications)

    def test_dominating_singleton_accepted_only_as_full_edge(self):
        # In the paw, edges (0,2) and (1,2) are full; their singleton blocks
        # are legal, while the remaining two blocks pair up as partners.
        g = PAW
        cert = is_ec_partition(g, singleton_partition(g))
        assert cert
        kinds = [type(j) for j in cert.justifications]
        assert kinds == [Partner, FullEdgeSingleton, FullEdgeSingleton, Partner]

    def test_non_singleton_dominating_block_rejected(self):
        outcome = is_ec_partition(P6, ({0, 1, 2, 3}, {4}))
        assert outcome == EcRejection(block=0, reason=NON_SINGLETON_DOMINATING)

    def test_thirteen_vertex_path_example(self):
        # A five-block partition of P13: two interleaved end pools and three
        # middle singletons; pools pair with the middle blocks.
        g = path_graph(13)
        blocks = (
            frozenset({0, 2, 8, 10}),
            frozenset({1, 3, 7, 9, 11}),
            frozenset({4}),
            frozenset({5}),
            frozenset({6}),
        )
        cert = is_ec_partition(g, blocks)
        assert cert and cert.order == 5
        assert not is_edge_dominating_set(g, blocks[0])
        assert forms_edge_coalition(g, blocks[0], blocks[3])
        assert forms_edge_coalition(g, blocks[1], blocks[2])
        assert forms_edge_coalition(g, blocks[1], blocks[4])

    @pytest.mark.parametrize(
        "blocks",
        [
            ({0, 1}, {1, 2}, {3, 4}),  # overlap
            ({0, 1}, {3, 4}),  # gap
            ({0, 1, 2, 3, 4}, set()),  # empty block
            ({0, 1}, {2, 3, 4, 7}),  # foreign index
        ],
    )
    def test_invalid_partitions_raise(self, blocks):
        with pytest.raises(InvalidPartition):
            is_ec_partition(P6, blocks)

    def test_bool_edge_indices_rejected(self):
        # bool is a subclass of int, so JSON true/false must be caught explicitly.
        with pytest.raises(InvalidPartition, match="nonexistent edge"):
            validate_partition(path_graph(3), [[True], [False]])
        # A set of 0 and False, or of 1 and True, keeps only the first.
        with pytest.raises(InvalidPartition, match="nonexistent edge False"):
            validate_partition(path_graph(2), [[0, False]])
        with pytest.raises(InvalidPartition, match="nonexistent edge True"):
            validate_partition(path_graph(3), [[0], [1, True]])

    def test_unhashable_block_member_rejected(self):
        with pytest.raises(InvalidPartition, match="unhashable"):
            validate_partition(path_graph(3), [[[0]], [1]])

    @pytest.mark.parametrize(
        "blocks, kind",
        [
            ({frozenset({0}): 1, frozenset({1}): 2, frozenset({2}): 3}, "dict"),  # its keys
            ("012", "str"),
            (b"\x00\x01\x02", "bytes"),
        ],
        ids=["dict", "str", "bytes"],
    )
    def test_partition_of_wrong_type_rejected(self, blocks, kind):
        # Each iterates as something else than its blocks.
        with pytest.raises(InvalidPartition, match=f"partition must be .*, got a {kind}$"):
            validate_partition(path_graph(4), blocks)

    @pytest.mark.parametrize(
        "blocks, i, kind",
        [
            ([b"\x00", b"\x01", b"\x02"], 0, "bytes"),  # its byte values
            ([[0], [1], "2"], 2, "str"),
            ([[0, 1], {2: "x"}], 1, "dict"),
        ],
        ids=["bytes", "str", "dict"],
    )
    def test_block_of_wrong_type_rejected(self, blocks, i, kind):
        with pytest.raises(InvalidPartition, match=f"block {i} must be .*, got a {kind}$"):
            validate_partition(path_graph(4), blocks)
        with pytest.raises(InvalidPartition):
            is_ec_partition(path_graph(4), blocks)

    @pytest.mark.parametrize(
        "blocks, want",
        [
            ([{0}, frozenset({1}), [2]], [[0], [1], [2]]),
            (((0,), (1, 2)), [[0], [1, 2]]),
            (((e,) for e in range(3)), [[0], [1], [2]]),
            ([range(3)], [[0, 1, 2]]),
        ],
        ids=["sets-and-list", "tuples", "generator", "range"],
    )
    def test_collections_of_collections_accepted(self, blocks, want):
        assert [sorted(b) for b in validate_partition(path_graph(4), blocks)] == want

    def test_edgeless_graph_has_no_partition(self):
        with pytest.raises(InvalidPartition, match="no edges"):
            validate_partition(Graph(3), [])
        with pytest.raises(InvalidPartition, match="no edges"):
            singleton_partition(Graph(3))

    @settings(max_examples=50)
    @given(small_graphs(min_m=1), st.data())
    def test_certificate_reverifies_from_scratch(self, g, data):
        labels = data.draw(
            st.lists(st.integers(0, g.m - 1), min_size=g.m, max_size=g.m)
        )
        groups: dict[int, set[int]] = {}
        for e, b in enumerate(labels):
            groups.setdefault(b, set()).add(e)
        blocks = tuple(frozenset(s) for s in groups.values())
        outcome = is_ec_partition(g, blocks)
        if not outcome:
            return
        # Re-verify every justification using only the domination predicate.
        for i, just in enumerate(outcome.justifications):
            if isinstance(just, FullEdgeSingleton):
                assert len(outcome.blocks[i]) == 1
                assert is_edge_dominating_set(g, outcome.blocks[i])
            else:
                j = just.with_block
                assert j != i
                assert not is_edge_dominating_set(g, outcome.blocks[i])
                assert not is_edge_dominating_set(g, outcome.blocks[j])
                assert is_edge_dominating_set(g, outcome.blocks[i] | outcome.blocks[j])


class TestSolver:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (P6, 4),
            (complete_graph(2), 1),
            (complete_graph(4), 6),
            (complete_bipartite(2, 2), 4),
            (cycle_graph(5), 5),
            (two_disjoint_edges(), 2),
            (path_graph(3), 2),
        ],
    )
    def test_known_values(self, graph, expected):
        result = edge_coalition_number(graph)
        assert result.ec == expected
        assert result.certificate.order == expected
        assert result.mode == "exact"

    def test_proof_tag(self):
        assert edge_coalition_number(cycle_graph(5)).proof == "upper-bound-met"
        assert edge_coalition_number(path_graph(14)).proof == "degree-bound-met"
        assert edge_coalition_number(cycle_graph(13)).proof == "degree-bound-met"
        # P6: m = 5 is below its degree bound 6, and order 5 is refuted.
        assert edge_coalition_number(P6).proof == "exhausted-search"

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            edge_coalition_number(Graph(3))

    @pytest.mark.parametrize(
        "routine",
        [
            edge_coalition_lower_bound,
            is_singleton_ec_graph,
            is_self_edge_coalition_graph,
            ec_bounds,
        ],
        ids=lambda f: f.__name__,
    )
    def test_every_ec_routine_refuses_an_edgeless_graph(self, routine):
        with pytest.raises(EmptyGraph):
            routine(Graph(3))

    def test_budget_cap(self):
        with pytest.raises(BudgetExceeded):
            edge_coalition_number(P6, max_edges=3)
        assert edge_coalition_number(P6, max_edges=5).ec == 4

    @pytest.mark.parametrize("cap", [-1, "5", None, False, True, 5.0, math.inf])
    def test_malformed_cap_is_refused_before_it_is_compared(self, cap):
        # -1 was taken as a cap every graph exceeds, "5" and None raised a
        # bare TypeError, and False was taken as the cap 0.
        with pytest.raises(EclabError, match="max_edges must be a nonnegative int") as info:
            edge_coalition_number(P6, max_edges=cap)
        assert not isinstance(info.value, BudgetExceeded)

    def test_deterministic_witness(self):
        a = edge_coalition_number(P6)
        b = edge_coalition_number(P6)
        assert a.certificate == b.certificate
        # Pinned lexicographically least canonical labeling for P6.
        assert a.certificate.blocks == (
            frozenset({0, 2}),
            frozenset({1}),
            frozenset({3}),
            frozenset({4}),
        )

    def test_lower_bound_mode(self):
        result = edge_coalition_lower_bound(P6, time_budget=10.0)
        assert result.mode == "lower_bound"
        assert result.ec == 4  # small instance: the budget is ample
        assert is_ec_partition(P6, result.certificate.blocks)

    def test_lower_bound_skips_orders_that_time_out(self, monkeypatch):
        # K4,5 (20 edges, EC 14) refutes order 16 in about 0.13 s and order 15
        # in about 2.2 s; the budget stops them, and a lower order gives a
        # certificate.
        g = complete_bipartite(4, 5)
        timed_out = []
        search = coalition._find_partition_of_order

        def recording(g, k, *args, **kwargs):
            try:
                return search(g, k, *args, **kwargs)
            except coalition._SearchTimeout:
                timed_out.append(k)
                raise

        monkeypatch.setattr(coalition, "_find_partition_of_order", recording)
        start = time.monotonic()
        result = edge_coalition_lower_bound(g, time_budget=0.5)
        assert time.monotonic() - start < 3
        assert 15 in timed_out
        assert result.mode == "lower_bound"
        assert 1 <= result.ec <= 14
        assert accepts_partition(g, result.certificate.blocks)

    def test_lower_bound_reaches_the_value_on_p17(self):
        # The order-6 find of P17 takes hundredths of a second, so the budget
        # is ample and the first order searched gives the value.
        result = edge_coalition_lower_bound(path_graph(17), time_budget=20)
        assert (result.ec, result.mode) == (6, "lower_bound")

    def test_lower_bound_error_prints_the_budget(self, monkeypatch):
        # Each read of this clock is one second later, so the first order
        # already starts past the deadline.
        monkeypatch.setattr(coalition.time, "monotonic", itertools.count().__next__)
        with pytest.raises(BudgetExceeded, match=r"within 0\.05s"):
            edge_coalition_lower_bound(P6, time_budget=0.05)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0, True, False, "5", None])
    def test_lower_bound_rejects_negative_or_non_finite_budget(self, monkeypatch, budget):
        # A non-finite budget never runs out, so every order would run to
        # the end; a negative one has run out before any order starts.  A
        # bool or a value that is no number is refused too: True ran with a
        # 1 s budget, and "5" and None raised a bare TypeError.
        def no_search(*args, **kwargs):
            raise AssertionError(f"searched with budget {budget}")

        monkeypatch.setattr(coalition, "_find_partition_of_order", no_search)
        with pytest.raises(EclabError, match="time_budget"):
            edge_coalition_lower_bound(P6, time_budget=budget)

    @pytest.mark.parametrize(
        "g, ec",
        [(complete_graph(6), 13), (complete_bipartite(3, 4), 9), (complete_bipartite(3, 5), 12)],
        ids=["K6", "K3,4", "K3,5"],
    )
    def test_dense_values(self, g, ec):
        # Every order from m down to ec + 1 is refuted, so these pin the
        # refutations as well as the witness search.
        result = edge_coalition_number(g)
        assert (result.ec, result.proof) == (ec, "exhausted-search")

    @pytest.mark.parametrize(
        "g, k, labels",
        [
            (complete_graph(6), 13, [0, 1, 2, 3, 4, 2, 5, 6, 7, 8, 7, 9, 10, 11, 12]),
            (complete_bipartite(3, 4), 9, [0, 0, 1, 2, 1, 3, 4, 5, 6, 7, 0, 8]),
            (complete_bipartite(3, 5), 12, [0, 1, 2, 3, 4, 0, 5, 6, 7, 8, 1, 5, 9, 10, 11]),
        ],
        ids=["K6", "K3,4", "K3,5"],
    )
    def test_dense_lex_least_witness(self, g, k, labels):
        assert coalition._find_partition_of_order(g, k) == labels

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=7, min_m=1, max_m=7), st.randoms(use_true_random=False))
    # A path whose low orders run with the frontier memo, and twin-rich graphs.
    @example(path_graph(8), random.Random(0))
    @example(complete_bipartite(2, 3), random.Random(1))
    @example(complete_graph(4), random.Random(2))
    def test_lex_least_witness_against_plain_enumeration(self, g, rng):
        # The reference is the first restricted-growth string in lex order
        # whose blocks the oracle accepts, found with no prune at all.  Edge
        # order decides which labeling is least, so shuffle it.
        edges = list(g.edges)
        rng.shuffle(edges)
        g = Graph(g.n, edges)
        first: dict[int, list[int]] = {}
        for labels in _restricted_growth_strings(g.m):
            k = max(labels) + 1
            blocks = [[e for e, b in enumerate(labels) if b == i] for i in range(k)]
            if k not in first and accepts_partition(g, blocks):
                first[k] = labels
        orders = range(1, g.m + 1)
        assert [coalition._find_partition_of_order(g, k) for k in orders] == [
            first.get(k) for k in orders
        ]

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(min_m=1))
    def test_value_within_trivial_range(self, g):
        result = edge_coalition_number(g)
        assert 1 <= result.ec <= g.m


def _restricted_growth_strings(m: int) -> list[list[int]]:
    """Every restricted-growth string of length ``m``, in lex order."""
    strings: list[list[int]] = [[]]
    for _ in range(m):
        strings = [s + [b] for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


@st.composite
def _sparse_graphs(draw, max_n: int = 8) -> Graph:
    """A tree on 2 to ``max_n`` vertices, with or without one more edge, its
    edges in a random order: the long sparse graphs where the anchor rule
    cuts."""
    n = draw(st.integers(2, max_n))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    chords = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges += draw(st.lists(st.sampled_from(chords), max_size=1)) if chords else []
    return Graph(n, draw(st.permutations(edges)))


def _disjoint_union(*parts: Graph) -> Graph:
    edges, n = [], 0
    for g in parts:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


_COMPONENTS = {
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "P4": path_graph(4),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "K1,3": star_graph(3),
}

# Graphs whose degree bound is below m, for the oracle.  Below m <= 9 it
# needs Δ(L) <= 2, which leaves P8-P10 and C7-C9 among connected graphs; the
# rest are disjoint unions of two to four small components with m <= 8.
_BELOW_M = {
    **{f"P{n}": path_graph(n) for n in (8, 9, 10)},
    **{f"C{n}": cycle_graph(n) for n in (7, 8, 9)},
    "3K3": _disjoint_union(*[complete_graph(3)] * 3),
    **{
        "+".join(names): g
        for r in (2, 3, 4)
        for names in itertools.combinations_with_replacement(_COMPONENTS, r)
        for g in [_disjoint_union(*(_COMPONENTS[name] for name in names))]
        if coalition._degree_bound(g.closed_edge_masks()) < g.m <= 8
    },
}


class TestDegreeBound:
    @pytest.mark.parametrize(
        "g, bound",
        [
            (path_graph(3), 4),
            (path_graph(14), 6),
            (cycle_graph(13), 6),
            (complete_graph(6), 30),
            (complete_bipartite(3, 4), 16),
            (complete_bipartite(3, 5), 20),
        ],
        ids=["P3", "P14", "C13", "K6", "K3,4", "K3,5"],
    )
    def test_values(self, g, bound):
        assert coalition._degree_bound(g.closed_edge_masks()) == bound

    def test_unions_listed(self):
        for name in ("K2+K2+K2", "P3+P3+P3", "C4+K1,3"):
            assert name in _BELOW_M
        assert len(_BELOW_M) > 40

    @pytest.mark.parametrize("g", list(_BELOW_M.values()), ids=list(_BELOW_M))
    def test_matches_oracle_where_it_cuts(self, g):
        ec = edge_coalition_number(g).ec
        assert ec == brute_force_ec(g)
        assert ec <= coalition._degree_bound(g.closed_edge_masks()) < g.m

    def test_search_never_above_bound(self, monkeypatch):
        orders = []
        search = coalition._find_partition_of_order

        def recording(g, k, *args, **kwargs):
            orders.append(k)
            return search(g, k, *args, **kwargs)

        monkeypatch.setattr(coalition, "_find_partition_of_order", recording)
        assert edge_coalition_number(path_graph(14)).ec == 6
        assert orders == [6]

    @pytest.mark.parametrize(
        "g",
        [complete_graph(6), complete_bipartite(3, 4), complete_bipartite(3, 5)],
        ids=["K6", "K3,4", "K3,5"],
    )
    def test_dense_graphs_start_at_m(self, monkeypatch, g):
        # The bound is at least m here; only the first order searched is read.
        class FirstOrder(Exception):
            pass

        def stop(_, k, *args, **kwargs):
            raise FirstOrder(k)

        monkeypatch.setattr(coalition, "_find_partition_of_order", stop)
        with pytest.raises(FirstOrder) as caught:
            edge_coalition_number(g)
        assert caught.value.args == (g.m,)


class TestSearchRoute:
    @pytest.mark.parametrize(
        "solve", [edge_coalition_number, edge_coalition_lower_bound], ids=["exact", "lower"]
    )
    def test_rejected_solver_labeling_raises(self, monkeypatch, solve):
        # The singleton partition of P6 is no ec-partition: edge 2 has no partner.
        def singletons(g, k, deadline=None):
            return list(range(g.m))

        monkeypatch.setattr(coalition, "_find_partition_of_order", singletons)
        with pytest.raises(NotAnEcPartition, match="block 2 has no partner"):
            solve(P6)


@contextlib.contextmanager
def _search_calls():
    """Count the rec and completes calls of the order-k search in the block."""
    calls = {"rec": 0, "completes": 0}

    def count(frame, event, arg):
        name = frame.f_code.co_name
        if event == "call" and name in calls and frame.f_globals is vars(coalition):
            calls[name] += 1

    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(None)


class TestPrefixPrunes:
    """Each rule that cuts a labeling prefix in the order-k search, pinned
    by a direct search whose result the rule decides."""

    def test_label_jump(self, monkeypatch):
        # Labels grow by at most one, so each partition is searched once and
        # not once per relabeling.  No result shows that, the node count
        # does: the search reads the clock once per 4,096 nodes, and K3,3
        # at k = 8 is refuted with no read, but with 867 when a label may
        # jump.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(complete_bipartite(3, 3), 8) is None
        assert len(reads) <= 8

    def test_label_at_or_above_k(self):
        # One block of all of P6 dominates it, so order 1 is refuted.  A
        # label k would index past the k block covers.
        assert coalition._find_partition_of_order(P6, 1) is None

    def test_dominating_block_with_two_edges(self):
        # The middle edge of P4 dominates it, so no order-2 partition exists.
        # Without this rule the search returns [0, 1, 0].
        assert coalition._find_partition_of_order(path_graph(4), 2) is None

    def test_reachability(self):
        # Labels stay below k, and a prefix with no slack left opens a new
        # block for each remaining edge, so every labeling has k blocks.
        # Without that count the search returns [0, 0, 1, 1] for P5 at
        # k = 3, with two blocks.
        assert coalition._find_partition_of_order(path_graph(5), 3) == [0, 0, 1, 2]

    def test_partner_feasibility(self, monkeypatch):
        # The completion test decides every labeling on its own, so this rule
        # changes no result; it cuts prefixes whose blocks can no longer all
        # find partners.  Clock reads bound the nodes as below: C11 at k = 7
        # is refuted with 1 read, and with 7 without the rule.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(cycle_graph(11), 7) is None
        assert len(reads) <= 1

    def test_pinned_p6_witness(self):
        # The lex-smaller [0, 0, 1, 2, 3] has four blocks too, but the block
        # of edge 2 has no partner, so its completion test fails.
        assert coalition._find_partition_of_order(P6, 4) == [0, 1, 0, 2, 3]

    @pytest.mark.parametrize("g, k", [(cycle_graph(11), 7), (path_graph(13), 8)])
    def test_early_reachability_cut_bounds_the_nodes(self, monkeypatch, g, k):
        # The search reads the clock once per 4,096 nodes, a completion test
        # counting as one, so the number of reads bounds the nodes.  These
        # refutations take at most 1 read each; without the cut on
        # unreachable k, that is without the block count and the completion
        # test that settles a prefix with no slack, they take 28 and 67.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(g, k) is None
        assert len(reads) <= 8

    def test_no_slack_opens_a_new_block(self, monkeypatch):
        # When exactly k - used edges remain, each must open a new block, so
        # the prefix has one completion, and the completion test decides it
        # in place: every non-full block needs a non-full partner, and a
        # full one-edge block needs none.  At k = m it decides the root.
        assert coalition._find_partition_of_order(P6, 5) is None  # edge 2 alone
        assert coalition._find_partition_of_order(star_graph(4), 4) == [0, 1, 2, 3]
        # The star K1,4 with one edge added between two leaves: after
        # [0, 1, 1] the completion puts the full edge 3 and edge 4 in blocks
        # of their own, and the full one needs no partner.
        cricket = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4)])
        assert coalition._find_partition_of_order(cricket, 4) == [0, 1, 1, 2, 3]
        # Each forced tail is one completion test and enters no node: K3,5
        # at k = 13 is refuted in 41 nodes and 218 completion tests (pinned
        # in test_node_and_completion_test_counts), where walking the tails
        # edge by edge enters 235 nodes.  Clock reads bound the work as
        # above, and it makes none.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(complete_bipartite(3, 5), 13) is None
        assert reads == []

    @pytest.mark.parametrize(
        "g, k, found, nodes, tests",
        [
            (complete_bipartite(4, 4), 12, True, 1835, 14602),
            (path_graph(17), 6, True, 1466, 865),
            (complete_bipartite(3, 5), 13, False, 41, 218),
        ],
        ids=["K44-k12", "P17-k6", "K35-k13"],
    )
    def test_node_and_completion_test_counts(self, g, k, found, nodes, tests):
        # Exact counts of rec calls and completes calls, so a prune, memo
        # or twin cut that grows weaker fails here even when every verdict
        # stays the same.
        with _search_calls() as calls:
            labels = coalition._find_partition_of_order(g, k)
        assert (labels is not None, calls["rec"], calls["completes"]) == (found, nodes, tests)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_full_partners_never_decide_the_partner_test(self, data):
        # Every edge meets u = 0 or v = 1, so uv is a full edge.  While no
        # block of two or more edges dominates, a block's potential partner
        # may be a full block only if a non-full one serves too: the search's
        # partner test needs no "non-full" clause, at any depth.
        ends = data.draw(st.lists(st.sampled_from([(0,), (1,), (0, 1)]), max_size=6))
        edges = [(0, 1)] + [(a, w) for w, at in enumerate(ends, 2) for a in at]
        g = Graph(len(ends) + 2, data.draw(st.permutations(edges)))
        closed, full, m = g.closed_edge_masks(), g.full_edge_mask, g.m
        covers: list[int] = []
        i = data.draw(st.integers(0, m))
        for e in range(i):
            # Any label that keeps every block of two or more edges non-full.
            allowed = [b for b in range(len(covers)) if covers[b] | closed[e] != full]
            b = data.draw(st.sampled_from([*allowed, len(covers)]))
            if b == len(covers):
                covers.append(0)
            covers[b] |= closed[e]
        r = 0
        for e in range(i, m):
            r |= closed[e]

        def partnered(non_full_only: bool) -> bool:
            return all(
                x | r == full
                or any(x | r | y == full for y in covers if not non_full_only or y != full)
                for x in covers
            )

        assert partnered(True) == partnered(False)

    @settings(max_examples=40, deadline=None)
    @given(_sparse_graphs())
    # P7 is the shortest path with a prefix that only the anchor rule
    # cuts: after [0, 0, 1, 1, 1] for k = 3, no open cover holds both
    # edge 0 and edge 3 together with the last edge's.  Every edge of the
    # star is full, so after [0] the one open block is a full edge; the
    # rule must still pass it, or the singleton partition of order 3 is
    # lost.
    @example(path_graph(7))
    @example(star_graph(3))
    def test_anchor_rule_cuts_no_completable_prefix(self, g):
        # Every prefix of every order k, not only those the search reaches:
        # when the partner test with the anchor rule cuts one, no completion
        # of order k is an ec-partition by the oracle's definition.
        closed, full, m = g.closed_edge_masks(), g.full_edge_mask, g.m
        completable = set()
        for labels in _restricted_growth_strings(m):
            k = max(labels) + 1
            if accepts_partition(g, [[e for e, b in enumerate(labels) if b == c] for c in range(k)]):
                completable.update((tuple(labels[:j]), k) for j in range(1, m + 1))
        for j in range(1, m + 1):
            rem = 0
            for e in range(j, m):
                rem |= closed[e]
            for labels in _restricted_growth_strings(j):
                used = max(labels) + 1
                covers = [0] * used
                for e, b in enumerate(labels):
                    covers[b] |= closed[e]
                for k in range(used, used + m - j + 1):
                    if not coalition._partnered(covers, rem, full, used == k):
                        assert (tuple(labels), k) not in completable, (labels, k)

    def test_completion_tests_read_the_clock(self, monkeypatch):
        # Completion tests count toward the once-per-4,096 clock read, so a
        # search made mostly of them still meets its deadline: K4,4 at
        # k = 12 runs 1,835 nodes and 14,602 completion tests, and would
        # read the clock no time at all from its nodes alone.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(complete_bipartite(4, 4), 12) is not None
        assert len(reads) >= 4

    def test_order_above_m(self, monkeypatch):
        # No partition has more blocks than edges, so k = m + 1 is refuted
        # before any node is searched; without that test at entry the search
        # takes 67 reads.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(path_graph(13), 13, deadline=1e9) is None
        assert reads == []


def _swapped_pairs(g: Graph) -> list[list[tuple[int, int]]]:
    """Each twin swap of ``g`` as its edge pairs (e, p[e]) with e < p[e]."""
    return [[(e, f) for e, f in enumerate(p) if e < f] for _, p in coalition._twin_swaps(g)]


class TestTwinSymmetry:
    """The twin-swap cut of the order-k search (lex-leader symmetry breaking)."""

    @pytest.mark.parametrize(
        "g, pairs",
        [
            # Leaves 1, 2, 3 of the star: swaps (1 2) and (2 3).
            (star_graph(3), [[(0, 1)], [(1, 2)]]),
            # Opposite vertices of C4 (edges 01, 03, 12, 23): (0 2), (1 3).
            (cycle_graph(4), [[(0, 2), (1, 3)], [(0, 1), (2, 3)]]),
            # Closed twins: every pair of K3 vertices, consecutive in order.
            (complete_graph(3), [[(1, 2)], [(0, 1)]]),
            (path_graph(5), []),
            (cycle_graph(6), []),
            # The ends of each K2 are closed twins, and the two isolated
            # vertices open twins, but these swaps move no edge.
            (two_disjoint_edges(), []),
            (Graph(4, [(0, 1)]), []),
        ],
        ids=["star3", "C4", "K3", "P5", "C6", "2K2", "K2+2K1"],
    )
    def test_generators(self, g, pairs):
        assert _swapped_pairs(g) == pairs

    @settings(max_examples=80, deadline=None)
    @given(
        small_graphs(max_n=6), st.integers(0, 2), st.integers(0, 2), st.randoms(use_true_random=False)
    )
    # Open twins (the star's leaves) and closed twins (the K3) in one graph.
    @example(_disjoint_union(star_graph(3), complete_graph(3)), 1, 1, random.Random(0))
    def test_swaps_match_the_definition(self, g, k2s, isolated, rng):
        # With K2 components and isolated vertices added, and vertices and
        # edges shuffled.  The reference groups vertices by N(v), then by
        # N[v], pairs consecutive members in vertex order, applies each pair's
        # vertex transposition to the edges and drops swaps that move none.
        n = g.n + 2 * k2s + isolated
        edges = [*g.edges, *((g.n + 2 * j, g.n + 2 * j + 1) for j in range(k2s))]
        perm = list(range(n))
        rng.shuffle(perm)
        rng.shuffle(edges)
        g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        index = {frozenset(edge): e for e, edge in enumerate(g.edges)}
        expected = []
        for closed in (False, True):
            classes: dict[frozenset[int], list[int]] = {}
            for v in range(n):
                nbrs = frozenset(g.neighbors(v)) | ({v} if closed else set())
                classes.setdefault(nbrs, []).append(v)
            pairs = sorted((c[j], c[j + 1]) for c in classes.values() for j in range(len(c) - 1))
            for u, v in sorted(pairs, key=operator.itemgetter(1)):
                swap = {u: v, v: u}
                p = tuple(index[frozenset(swap.get(x, x) for x in edge)] for edge in g.edges)
                moved = [e for e in range(g.m) if p[e] != e]
                if moved:
                    expected.append((moved[0], p))
        assert coalition._twin_swaps(g) == tuple(expected)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=7))
    def test_each_swap_is_an_edge_automorphism(self, g):
        closed = g.closed_edge_masks()
        for first, p in coalition._twin_swaps(g):
            moved = [e for e in range(g.m) if p[e] != e]
            assert first == moved[0]
            for e in range(g.m):
                assert p[p[e]] == e
                image = sum(1 << p[f] for f in range(g.m) if closed[e] >> f & 1)
                assert closed[p[e]] == image

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=7, min_m=1, max_m=10), st.randoms(use_true_random=False))
    # Twin-rich graphs, on which walks run on past the last edge a swap moves.
    @example(complete_bipartite(3, 4), random.Random(3))
    @example(complete_graph(6), random.Random(6))
    def test_same_result_as_the_search_without_swaps(self, g, rng):
        # Edge order decides which labeling is least, so shuffle it.  With
        # no swaps the search is the plain restricted-growth enumeration.
        edges = list(g.edges)
        rng.shuffle(edges)
        g = Graph(g.n, edges)
        with_swaps = [coalition._find_partition_of_order(g, k) for k in range(1, g.m + 1)]
        with mock.patch.object(coalition, "_twin_swaps", lambda g: ()):
            plain = [coalition._find_partition_of_order(g, k) for k in range(1, g.m + 1)]
        assert with_swaps == plain

    @pytest.mark.parametrize(
        "g, max_edges, k, labels",
        [
            (complete_bipartite(4, 4), 16, 12, [0, 1, 2, 3, 1, 0, 4, 5, 6, 7, 0, 8, 9, 10, 11, 1]),
            (
                complete_bipartite(3, 6), 18, 15,
                [0, 1, 2, 3, 4, 5, 0, 6, 7, 8, 9, 10, 1, 6, 11, 12, 13, 14],
            ),
            (
                complete_graph(7), 21, 17,
                [0, 0, 1, 1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0],
            ),
        ],
        ids=["K4,4", "K3,6", "K7"],
    )
    def test_dense_lex_least_witness(self, g, max_edges, k, labels):
        # The search without the cut gives the same witnesses, in seconds
        # rather than hundredths of one; every order above k is refuted.
        result = edge_coalition_number(g, max_edges=max_edges)
        assert (result.ec, result.proof) == (k, "exhausted-search")
        assert coalition._find_partition_of_order(g, k) == labels
        blocks = [[e for e, b in enumerate(labels) if b == i] for i in range(k)]
        assert [sorted(b) for b in result.certificate.blocks] == blocks

    def test_mirror_images_are_not_refuted_again(self, monkeypatch):
        # Clock reads bound the nodes as in TestPrefixPrunes: K4,4 at k = 13
        # is refuted in 8,697 nodes and 81,252 completion tests, with 21
        # reads, without the cut, and with none, in 368 nodes and 2,917
        # completion tests, with it.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(complete_bipartite(4, 4), 13) is None
        assert reads == []


def _rem(g: Graph) -> list[int]:
    """rem[i] of the order-k search: the union of N[e] over the edges e >= i."""
    closed = g.closed_edge_masks()
    return list(itertools.accumulate(reversed(closed), operator.or_, initial=0))[::-1]


# Edge orders the frontier gate admits: paths and cycles in their own order,
# and the trees with 8 vertices whose frontier width is at most 2.
_NARROW = [
    *(path_graph(n) for n in range(2, 12)),
    *(cycle_graph(n) for n in range(3, 11)),
    *(t for t in graphs_of_order("trees", 8) if coalition._frontier_width(_rem(t)) <= 2),
]


class TestFrontierMemo:
    """The frontier nogood memo of the order-k search."""

    @pytest.mark.parametrize(
        "g, width",
        [
            (path_graph(14), 1),
            (cycle_graph(13), 2),
            (complete_graph(6), 10),
            (complete_bipartite(4, 4), 12),
            (star_graph(5), 4),
        ],
        ids=["P14", "C13", "K6", "K4,4", "star5"],
    )
    def test_frontier_width(self, g, width):
        assert coalition._frontier_width(_rem(g)) == width

    def test_narrow_trees_listed(self):
        # Ten paths, eight cycles and six trees.
        assert len(_NARROW) == 10 + 8 + 6

    @pytest.mark.parametrize(
        "g, labels",
        [
            (path_graph(17), [0, 1, 0, 0, 1, 0, 0, 1, 2, 3, 1, 0, 4, 5, 0, 1]),
            (cycle_graph(17), [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 3, 0, 1, 4, 5, 1]),
        ],
        ids=["P17", "C17"],
    )
    def test_sparse_finds_bound_the_nodes(self, monkeypatch, g, labels):
        # Clock reads bound the nodes as in TestPrefixPrunes: at k = 6 the
        # search without the memo finds these witnesses in 418,953 nodes and
        # 1,421,245 completion tests (P17) and in 317,897 nodes and 948,645
        # completion tests (C17), and with it in under 4,096.
        reads = []
        monkeypatch.setattr(coalition.time, "monotonic", lambda: reads.append(1) or 0.0)
        assert coalition._find_partition_of_order(g, 6) == labels
        assert reads == []

    def test_width_gate_keeps_wide_orders_out_of_the_memo(self):
        # K4,4 has frontier width 12 and slack m - k = 4 at k = 12, so only
        # the width gate keeps the memo off.  Traced, this find peaks at
        # about 20 KiB with the gate and about 2 MiB without it.
        g = complete_bipartite(4, 4)
        g.closed_edge_masks()
        tracemalloc.start()
        try:
            labels = coalition._find_partition_of_order(g, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels == [0, 1, 2, 3, 1, 0, 4, 5, 6, 7, 0, 8, 9, 10, 11, 1]
        assert peak < 256 * 2**10, f"traced peak {peak / 2**10:.0f} KiB"

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(_NARROW), small_graphs(max_n=7, min_m=1, max_m=10)),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    # Edge orders on which a key without the label of the oldest boundary
    # edge changes the witness.
    @example(
        Graph(9, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (4, 6), (6, 7), (7, 8)]),
        False,
        random.Random(0),
    )
    @example(
        Graph(8, [(1, 2), (0, 1), (0, 7), (5, 6), (6, 7), (3, 4), (2, 3), (4, 5)]),
        False,
        random.Random(0),
    )
    def test_same_result_as_the_search_without_memo(self, g, shuffle, rng):
        # Edge order decides which labeling is least and whether the gate
        # admits the graph, so it is shuffled or kept.  The memo forced on,
        # at every width and slack, checks the key where the gate refuses it.
        edges = list(g.edges)
        if shuffle:
            rng.shuffle(edges)
        g = Graph(g.n, edges)
        orders = range(1, g.m + 1)
        gated = [coalition._find_partition_of_order(g, k) for k in orders]
        with mock.patch.object(coalition, "_frontier_width", lambda rem: 0), \
                mock.patch.object(coalition, "_MEMO_SLACK", 0):
            forced = [coalition._find_partition_of_order(g, k) for k in orders]
        with mock.patch.object(coalition, "_frontier_width", lambda rem: math.inf):
            plain = [coalition._find_partition_of_order(g, k) for k in orders]
        assert gated == forced == plain


class TestCoalitionGraph:
    def test_p6_partition_gives_paw(self):
        ecg = coalition_graph(P6, P6_PARTITION)
        assert ecg.n == 4
        assert sorted(ecg.edges) == [(0, 1), (0, 2), (0, 3), (1, 3)]

    def test_star_singleton_gives_edgeless(self):
        g = star_graph(4)
        ecg = coalition_graph(g, singleton_partition(g))
        assert ecg.n == 4 and ecg.m == 0

    def test_k24_preset_six_gives_k4(self):
        ecg = coalition_graph(complete_bipartite(2, 4), K24_PARTITION_PRESETS["pi6"])
        assert are_isomorphic(ecg, complete_graph(4))

    def test_rejects_non_ec_partition(self):
        with pytest.raises(NotAnEcPartition):
            coalition_graph(P6, singleton_partition(P6))


class TestPartnerCount:
    def test_p6_pool_block_has_three_partners(self):
        assert coalition_partner_count(P6, P6_PARTITION, 0) == 3

    def test_c5_blocks_within_cap(self):
        g = cycle_graph(5)
        blocks = singleton_partition(g)
        for i in range(5):
            assert coalition_partner_count(g, blocks, i) <= 3  # 2*Delta - 1

    def test_star_blocks_have_no_partners(self):
        g = star_graph(4)
        blocks = singleton_partition(g)
        assert all(coalition_partner_count(g, blocks, i) == 0 for i in range(4))

    @pytest.mark.parametrize("i", [4, True, 1.0, "a", None])
    def test_block_index_out_of_range(self, i):
        # True would answer for block 1; 1.0, "a" and None would raise a bare TypeError.
        with pytest.raises(BlockIndexOutOfRange, match=re.escape(f"block index {i!r} not in")):
            coalition_partner_count(P6, P6_PARTITION, i)

    def test_equals_coalition_graph_degree_on_solver_certificates(self):
        checked = 0
        for g in enumerate_corpus(CorpusSpec(5)):
            if g.m == 0:
                continue
            blocks = edge_coalition_number(g).certificate.blocks
            ecg = coalition_graph(g, blocks)
            for i in range(len(blocks)):
                assert coalition_partner_count(g, blocks, i) == ecg.degree(i)
                checked += 1
        assert checked > 100


class TestVerdictMemo:
    """The verifier keeps its last certificate, keyed by the graph and the
    certificate's own blocks tuple, both by identity."""

    @pytest.mark.parametrize(
        "g", [P6, PAW, complete_graph(4), net_graph()], ids=["P6", "paw", "K4", "net"]
    )
    def test_solver_certificate_is_verified_once(self, monkeypatch, g):
        calls = []
        real = coalition.validate_partition
        monkeypatch.setattr(
            coalition, "validate_partition", lambda graph, b: calls.append(b) or real(graph, b)
        )
        result = edge_coalition_number(g)
        assert len(calls) == 1  # the solver certifies its labeling
        blocks = result.certificate.blocks
        assert is_ec_partition(g, blocks) is result.certificate
        ecg = coalition_graph(g, blocks)
        partners = [coalition_partner_count(g, blocks, i) for i in range(len(blocks))]
        assert len(calls) == 1
        assert partners == [ecg.degree(i) for i in range(ecg.n)]
        # The full route gives an equal verdict.
        assert is_ec_partition(g, [sorted(b) for b in blocks]) == result.certificate
        assert len(calls) == 2

    def test_equal_tuple_with_false_for_zero_is_refused(self):
        blocks = edge_coalition_number(P6).certificate.blocks
        forged = tuple(frozenset(False if e == 0 else e for e in b) for b in blocks)
        assert forged == blocks and forged is not blocks
        with pytest.raises(InvalidPartition, match="nonexistent edge False"):
            is_ec_partition(P6, forged)
        with pytest.raises(InvalidPartition, match="nonexistent edge False"):
            coalition_graph(P6, forged)

    def test_same_blocks_on_another_graph_are_judged_on_it(self):
        blocks = edge_coalition_number(P6).certificate.blocks
        # P6 with edges 1 and 2 listed the other way round.
        h = Graph(6, [P6.edges[i] for i in (0, 2, 1, 3, 4)])
        assert is_ec_partition(h, blocks) == EcRejection(block=1, reason=NO_PARTNER)
        with pytest.raises(NotAnEcPartition, match="block 1 has no partner"):
            coalition_graph(h, blocks)
        with pytest.raises(NotAnEcPartition, match="block 1 has no partner"):
            coalition_partner_count(h, blocks, 0)

    def test_list_changed_between_calls_is_judged_again(self):
        blocks = [[0, 4], [1], [2], [3]]
        assert is_ec_partition(P6, blocks)
        blocks[0].remove(4)
        blocks.append([4])
        assert is_ec_partition(P6, blocks) == EcRejection(block=2, reason=NO_PARTNER)
        blocks[4].append(5)
        with pytest.raises(InvalidPartition, match="nonexistent edge 5"):
            is_ec_partition(P6, blocks)

    def test_rejection_raises_on_every_call(self):
        blocks = singleton_partition(P6)
        for _ in range(3):
            assert is_ec_partition(P6, blocks) == EcRejection(block=2, reason=NO_PARTNER)
            with pytest.raises(NotAnEcPartition, match="block 2 has no partner"):
                coalition_graph(P6, blocks)
            with pytest.raises(NotAnEcPartition, match="block 2 has no partner"):
                coalition_partner_count(P6, blocks, 0)


class TestDerivedPredicates:
    def test_singleton_ec(self):
        assert is_singleton_ec_graph(cycle_graph(5))
        assert not is_singleton_ec_graph(P6)
        assert is_singleton_ec_graph(complete_graph(5))

    def test_singleton_ec_iff_ec_equals_m(self):
        for g in (P6, cycle_graph(5), cycle_graph(7), star_graph(4), complete_graph(4)):
            assert is_singleton_ec_graph(g) == (edge_coalition_number(g).ec == g.m)

    def test_self_coalition_examples(self):
        assert is_self_edge_coalition_graph(cycle_graph(5))
        assert is_self_edge_coalition_graph(net_graph())
        assert not is_self_edge_coalition_graph(star_graph(4))
        assert not is_self_edge_coalition_graph(P6)


class TestBounds:
    def test_p3_universal_vertex_bound_sharp(self):
        report = ec_bounds(path_graph(3))
        entry = next(e for e in report.entries if e.source == "universal-vertex-count")
        assert entry.applicable and entry.value == 2
        assert edge_coalition_number(path_graph(3)).ec == 2

    def test_c7_bounds(self):
        report = ec_bounds(cycle_graph(7))
        twice_gamma = next(
            e for e in report.entries if e.source == "twice-gamma-minus-one"
        )
        assert twice_gamma.applicable and twice_gamma.value == 5
        upper = next(e for e in report.entries if e.source == "size-upper")
        assert upper.value == 7
        assert edge_coalition_number(cycle_graph(7)).ec == 5

    def test_star_full_edge_bounds_inapplicable(self):
        report = ec_bounds(star_graph(5))
        for source in ("twice-gamma-minus-one", "one-plus-min-degree"):
            entry = next(e for e in report.entries if e.source == source)
            assert not entry.applicable
            assert "full edge" in entry.reason

    def test_inapplicable_entries_still_reported(self):
        report = ec_bounds(path_graph(4))
        sources = {e.source for e in report.entries}
        assert sources == {
            "trivial-lower",
            "size-upper",
            "twice-gamma-minus-one",
            "universal-vertex-count",
            "one-plus-min-degree",
            "complete-even-order",
            "bipartite-twice-larger-side",
        }

    def test_k22_bipartite_bound(self):
        report = ec_bounds(complete_bipartite(2, 2))
        entry = next(
            e for e in report.entries if e.source == "bipartite-twice-larger-side"
        )
        assert entry.applicable and entry.value == 4


FULL_EDGE = "graph has a full edge"
NEEDS_EVEN_COMPLETE = (
    "needs a complete graph of even order >= 4 "
    "(splitting a one-edge dominating set is impossible at n = 2)"
)
NEEDS_BIPARTITE = "needs a complete bipartite graph with both parts of size >= 2"
TRIVIAL = ("trivial-lower", "lower", 1, True, "holds for every graph with an edge")


def _size(m):
    return ("size-upper", "upper", m, True, "a partition of m edges has at most m blocks")


def _no_bipartite():
    return ("bipartite-twice-larger-side", "lower", 0, False, NEEDS_BIPARTITE)


# Every applicability branch of every bound, pinned entry by entry.
BOUND_GOLDEN = {
    "star:5": (star_graph(5), [
        TRIVIAL,
        _size(5),
        ("twice-gamma-minus-one", "lower", 1, False, FULL_EDGE),
        ("universal-vertex-count", "lower", 5, True, "1 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 2, False, FULL_EDGE),
        ("complete-even-order", "lower", 10, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "2K2": (two_disjoint_edges(), [
        TRIVIAL,
        _size(2),
        ("twice-gamma-minus-one", "lower", 3, False, "graph has an isolated edge"),
        ("universal-vertex-count", "lower", 0, True, "0 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 2, True, "no full edge and minimum degree >= 1"),
        ("complete-even-order", "lower", 6, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "P5+K1": (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)]), [
        TRIVIAL,
        _size(4),
        ("twice-gamma-minus-one", "lower", 3, True, "no isolated edges and no full edges"),
        ("universal-vertex-count", "lower", 0, True, "0 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 1, False, "graph has an isolated vertex"),
        ("complete-even-order", "lower", 10, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "cycle:7": (cycle_graph(7), [
        TRIVIAL,
        _size(7),
        ("twice-gamma-minus-one", "lower", 5, True, "no isolated edges and no full edges"),
        ("universal-vertex-count", "lower", 0, True, "0 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 3, True, "no full edge and minimum degree >= 1"),
        ("complete-even-order", "lower", 12, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "complete:4": (complete_graph(4), [
        TRIVIAL,
        _size(6),
        ("twice-gamma-minus-one", "lower", 3, True, "no isolated edges and no full edges"),
        ("universal-vertex-count", "lower", 6, False, "stated only for incomplete graphs"),
        ("one-plus-min-degree", "lower", 4, True, "no full edge and minimum degree >= 1"),
        ("complete-even-order", "lower", 6, True, "complete graph of even order >= 4"),
        _no_bipartite(),
    ]),
    "complete:3": (complete_graph(3), [
        TRIVIAL,
        _size(3),
        ("twice-gamma-minus-one", "lower", 1, False, FULL_EDGE),
        ("universal-vertex-count", "lower", 3, False, "stated only for incomplete graphs"),
        ("one-plus-min-degree", "lower", 3, False, FULL_EDGE),
        ("complete-even-order", "lower", 4, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "complete:2": (complete_graph(2), [
        TRIVIAL,
        _size(1),
        ("twice-gamma-minus-one", "lower", 1, False, FULL_EDGE),
        ("universal-vertex-count", "lower", 1, False, "stated only for incomplete graphs"),
        ("one-plus-min-degree", "lower", 2, False, FULL_EDGE),
        ("complete-even-order", "lower", 2, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
    "kbip:2,3": (complete_bipartite(2, 3), [
        TRIVIAL,
        _size(6),
        ("twice-gamma-minus-one", "lower", 3, True, "no isolated edges and no full edges"),
        ("universal-vertex-count", "lower", 0, True, "0 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 3, True, "no full edge and minimum degree >= 1"),
        ("complete-even-order", "lower", 8, False, NEEDS_EVEN_COMPLETE),
        ("bipartite-twice-larger-side", "lower", 6, True, "complete bipartite with parts 2 <= 3"),
    ]),
    "kbip:1,3": (complete_bipartite(1, 3), [
        TRIVIAL,
        _size(3),
        ("twice-gamma-minus-one", "lower", 1, False, FULL_EDGE),
        ("universal-vertex-count", "lower", 3, True, "1 vertices of degree n-1"),
        ("one-plus-min-degree", "lower", 2, False, FULL_EDGE),
        ("complete-even-order", "lower", 6, False, NEEDS_EVEN_COMPLETE),
        _no_bipartite(),
    ]),
}


@pytest.mark.parametrize("name", list(BOUND_GOLDEN))
def test_bound_report_golden(name):
    g, expected = BOUND_GOLDEN[name]
    entries = [(e.source, e.kind, e.value, e.applicable, e.reason) for e in ec_bounds(g).entries]
    assert entries == expected


@pytest.mark.parametrize(
    "g, parts",
    [
        (cycle_graph(4), (2, 2)),
        (complete_bipartite(3, 3), (3, 3)),
        (star_graph(3), (1, 3)),
        (complete_graph(2), (1, 1)),
        (cycle_graph(6), None),  # bipartite, but m = 6 != 3 * 3
        (path_graph(4), None),
        (complete_graph(3), None),  # an edge joins two vertices of equal parity
        (PAW, None),  # the same, although m = 4 = 2 * 2
        (two_disjoint_edges(), None),  # disconnected
        (Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4)]), None),  # P5+K1
    ],
    ids=["C4", "K3,3", "star:3", "K2", "C6", "P4", "K3", "paw", "2K2", "P5+K1"],
)
def test_complete_bipartite_parts(g, parts):
    assert coalition._complete_bipartite_parts(g) == parts


class TestCertificateJson:
    def test_schema_and_field_order(self):
        result = edge_coalition_number(P6)
        payload = certificate_json(result)
        assert list(payload) == ["ec", "blocks", "justification", "mode"]
        text = json.dumps(payload)
        assert text == (
            '{"ec": 4, "blocks": [[0, 2], [1], [3], [4]], '
            '"justification": [{"type": "partner", "with": 2}, '
            '{"type": "partner", "with": 2}, {"type": "partner", "with": 0}, '
            '{"type": "partner", "with": 0}], "mode": "exact"}'
        )

    def test_full_edge_entries(self):
        payload = certificate_json(edge_coalition_number(star_graph(3)))
        assert payload["justification"] == [{"type": "full_edge"}] * 3
