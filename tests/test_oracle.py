"""Tests for the brute-force oracle and the corpus enumerators.

The corpus counts are validated against a second, independent enumerator
written here: labeled graphs canonicalized by minimizing the adjacency
bitstring over all vertex permutations (small n), and labeled trees built
from Prüfer sequences.  Only after those agree are the larger counts
frozen.
"""

import ast
import hashlib
from itertools import combinations, permutations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eclab.coalition import edge_coalition_number, is_ec_partition, validate_partition
from eclab.errors import BudgetExceeded, InvalidPartition, InvalidSpec, TooManyEdges
from eclab.families import cycle_graph, diamond_graph, path_graph, star_graph
from eclab.graphs import Graph, are_isomorphic
import eclab.graphs
import eclab.oracle
from eclab.oracle import (
    CorpusSpec,
    _augmentations,
    _set_partitions,
    accepts_partition,
    brute_force_ec,
    enumerate_corpus,
    export_corpus,
    graphs_of_order,
)

from test_graphs import _relabeled, small_graphs


# --- independent enumerator helpers ----------------------------------------


def _canonical_form(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in permutations(range(n)):
        image = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or image < best:
            best = image
    return best


def _count_labeled_classes(n: int, keep) -> int:
    """Classes among all labeled graphs on n vertices that satisfy ``keep``."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        g = Graph(n, sorted(edges))
        if not keep(g):
            continue
        seen.add(_canonical_form(n, edges))
    return len(seen)


def _connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.neighbors(v):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _brute_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation that maps the edge set onto itself."""
    edges = {frozenset(e) for e in g.edges}
    return [
        p for p in permutations(range(g.n))
        if all(frozenset((p[u], p[v])) in edges for u, v in g.edges)
    ]


def _image(mask: int, p) -> int:
    return sum(1 << p[v] for v in range(len(p)) if mask >> v & 1)


def _orbits(n: int, generators) -> set[frozenset[int]]:
    """Orbits on the vertex subsets of range(n) (as bit masks) of the group
    the permutations generate, by closing each subset under them."""
    orbits, placed = set(), set()
    for mask in range(1 << n):
        if mask in placed:
            continue
        orbit = {mask}
        frontier = [mask]
        while frontier:
            x = frontier.pop()
            for p in generators:
                y = _image(x, p)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        placed |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _prufer_tree(seq: tuple[int, ...], n: int) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq_list = list(seq)
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    for v in seq_list:
        leaf = leaves.pop(0)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            # Insert keeping the candidate list sorted.
            lo = 0
            while lo < len(leaves) and leaves[lo] < v:
                lo += 1
            leaves.insert(lo, v)
    edges.append((leaves[0], leaves[1]))
    return Graph(n, edges)


class TestBruteForce:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 4),
            (cycle_graph(6), 6),
            (diamond_graph(), 5),
        ],
    )
    def test_known_values(self, graph, expected):
        assert brute_force_ec(graph) == expected

    @pytest.mark.parametrize(
        "graph,expected",
        [(path_graph(11), 6), (cycle_graph(10), 6), (star_graph(10), 10)],
    )
    def test_values_at_the_edge_cap(self, graph, expected):
        assert graph.m == 10
        assert brute_force_ec(graph) == expected

    def test_edge_cap(self):
        with pytest.raises(TooManyEdges):
            brute_force_ec(star_graph(11))
        with pytest.raises(TooManyEdges):
            brute_force_ec(Graph(2))

    @settings(max_examples=25, deadline=None)
    @given(small_graphs(max_n=5, min_m=1, max_m=7))
    def test_matches_solver(self, g):
        assert brute_force_ec(g) == edge_coalition_number(g).ec

    @settings(max_examples=450)
    @given(small_graphs(), st.data())
    def test_double_entry_with_verifier(self, g, data):
        # A partition of the edges with up to two edits (with none it stays
        # a partition), or an arbitrary list of int lists: out-of-range
        # values, repeats, empty blocks, bools.
        member = st.one_of(st.integers(-1, g.m + 1), st.booleans())
        arbitrary = st.lists(st.lists(member, max_size=4), max_size=6)
        blocks = data.draw(st.one_of(_edited_partitions(g.m, member), arbitrary))
        try:
            validate_partition(g, blocks)
        except InvalidPartition:
            expected = False
        else:
            expected = bool(is_ec_partition(g, blocks))
        assert accepts_partition(g, blocks) == expected

    def test_rejects_a_dropped_or_repeated_edge(self):
        star = star_graph(3)
        assert accepts_partition(star, [[0], [1], [2]])
        assert not accepts_partition(star, [[0]])
        assert not accepts_partition(star, [[0], [0], [1], [2]])
        assert not accepts_partition(Graph(2), [])

    def test_every_partition_of_a_refuted_order_is_checked(self):
        check = eclab.oracle._blocks_satisfy_definition
        with mock.patch.object(eclab.oracle, "_blocks_satisfy_definition", wraps=check) as spy:
            assert brute_force_ec(path_graph(9)) == 5
        # All 1 + 28 + 266 partitions of orders 8, 7 and 6, then the first 164
        # of order 5 in restricted-growth order.
        assert spy.call_count == 459


@st.composite
def _edited_partitions(draw, m, member):
    """A partition of range(m) with up to two edits: an edge dropped, an
    edge repeated in another block, an empty block added, or a member
    replaced by any value ``member`` draws."""
    labels = draw(st.lists(st.integers(0, max(0, m - 1)), min_size=m, max_size=m))
    blocks = [[e for e, b in enumerate(labels) if b == label] for label in sorted(set(labels))]
    for _ in range(draw(st.integers(0, 2))):
        if not blocks:
            break
        i = draw(st.integers(0, len(blocks) - 1))
        kind = draw(st.sampled_from(("drop", "repeat", "empty", "replace")))
        if kind == "drop" and blocks[i]:
            blocks[i].pop(draw(st.integers(0, len(blocks[i]) - 1)))
        elif kind == "repeat" and blocks[i]:
            j = draw(st.integers(0, len(blocks) - 1))
            blocks[j].append(draw(st.sampled_from(blocks[i])))
        elif kind == "empty":
            blocks.insert(i, [])
        elif blocks[i]:
            blocks[i][draw(st.integers(0, len(blocks[i]) - 1))] = draw(member)
    return blocks


def _stirling2(m: int, k: int) -> int:
    """S(m, k) by the recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1)."""
    if m == k:
        return 1
    if k == 0:
        return 0
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


class TestSetPartitions:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_each_k_block_partition_once(self, m):
        for k in range(1, m + 1):
            seen = set()
            count = 0
            for blocks in _set_partitions(m, k):
                count += 1
                # Nonzero masks with no bit at or above m: nonempty blocks
                # drawn from range(m) only.
                assert len(blocks) == k
                assert all(isinstance(b, int) and 0 < b < 1 << m for b in blocks)
                members = [[e for e in range(m) if mask >> e & 1] for mask in blocks]
                assert sorted(e for b in members for e in b) == list(range(m))
                seen.add(frozenset(blocks))
            assert count == len(seen) == _stirling2(m, k), (m, k)


class TestIndependence:
    def test_oracle_imports_nothing_from_the_solver(self):
        # The oracle is ground truth only while it shares no code with the
        # solver: no import of eclab.coalition or eclab.domination, direct
        # or relative.
        tree = ast.parse(Path(eclab.oracle.__file__).read_text())
        forbidden = {"coalition", "domination"}
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported.append(module)
                imported += [f"{module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
        assert imported, "no imports parsed"
        for name in imported:
            assert not forbidden & set(name.split(".")), name

    def test_oracle_builds_its_own_masks(self):
        # The oracle's edge masks come from its own pair loop, never from the
        # masks the solver reads off the Graph or the solver's twin swaps.
        source = Path(eclab.oracle.__file__).read_text()
        assert _solver_mask_attributes(source) == []
        borrowed = source + "\n\ndef _borrowed(g):\n    return g.closed_edge_masks()\n"
        assert _solver_mask_attributes(borrowed) == ["closed_edge_masks"]


def _solver_mask_attributes(source: str) -> list[str]:
    """Attributes of the solver's edge masks that ``source`` reads."""
    solver_masks = {"closed_edge_masks", "full_edge_mask", "_twin_swaps"}
    return [
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in solver_masks
    ]


class TestCorpusCounts:
    def test_tree_counts_small(self):
        assert [len(graphs_of_order("trees", n)) for n in range(1, 6)] == [1, 1, 1, 2, 3]

    def test_unicyclic_base(self):
        (only,) = graphs_of_order("unicyclic", 3)
        assert are_isomorphic(only, cycle_graph(3))

    def test_against_independent_enumerator_all(self):
        for n in range(1, 6):
            assert len(graphs_of_order("all", n)) == _count_labeled_classes(
                n, lambda g: True
            )

    def test_against_independent_enumerator_connected(self):
        for n in range(1, 6):
            assert len(graphs_of_order("connected", n)) == _count_labeled_classes(
                n, _connected
            )

    def test_against_independent_enumerator_unicyclic(self):
        for n in range(3, 6):
            assert len(graphs_of_order("unicyclic", n)) == _count_labeled_classes(
                n, lambda g: _connected(g) and g.m == g.n
            )

    def test_trees_against_prufer_enumeration(self):
        for n in range(3, 7):
            forms = set()
            for seq in _all_sequences(n - 2, n):
                t = _prufer_tree(seq, n)
                forms.add(_canonical_form(n, frozenset(t.edges)))
            assert len(graphs_of_order("trees", n)) == len(forms)

    def test_frozen_larger_counts(self):
        # Counts at larger orders, frozen after the small-order enumerators
        # above agreed with the augmentation route.
        # OEIS: A000055 (trees), A000088 (all graphs), A001349 (connected),
        # A001429 (unicyclic).
        assert [len(graphs_of_order("trees", n)) for n in range(6, 13)] == [
            6, 11, 23, 47, 106, 235, 551
        ]
        assert [len(graphs_of_order("unicyclic", n)) for n in range(6, 9)] == [13, 33, 89]
        assert len(graphs_of_order("connected", 6)) == 112
        assert len(graphs_of_order("all", 6)) == 156
        assert len(graphs_of_order("connected", 7)) == 853
        assert [len(graphs_of_order("unicyclic", n)) for n in (9, 10)] == [240, 657]

    def test_pairwise_non_isomorphic(self):
        graphs = graphs_of_order("connected", 5)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not are_isomorphic(graphs[i], graphs[j])


class TestOrbitPruning:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_search_automorphisms_generate_the_group(self, n):
        # Each recorded permutation is an automorphism, and together they
        # have the orbits of the whole group on vertex subsets.
        for index, g in enumerate(graphs_of_order("all", n)):
            for h in (g, _relabeled(g, index)):
                found = eclab.graphs._canonical_form(h.n, h.edges)[1]
                edges = {frozenset(e) for e in h.edges}
                for p in found:
                    assert sorted(p) == list(range(n)), (h.edges, p)
                    assert {frozenset((p[u], p[v])) for u, v in h.edges} == edges, (h.edges, p)
                assert _orbits(n, found) == _orbits(n, _brute_automorphisms(h)), h.edges

    def test_one_candidate_per_orbit_of_neighbour_sets(self):
        # Connected order 6: one candidate per Aut-orbit of nonempty
        # neighbour sets over each of the 21 order-5 parents.
        parents = graphs_of_order("connected", 5)
        assert len(parents) == 21
        expected = sum(
            len({min(_image(mask, p) for p in _brute_automorphisms(g)) for mask in range(1, 32)})
            for g in parents
        )
        candidates = list(_augmentations("connected", 6, range(1, 32)))
        assert len(candidates) == expected
        assert len(candidates) < 21 * 31

    @pytest.mark.parametrize(
        "cls,n,digest",
        [
            ("all", 6, "d1f225a917d2b079d34c6e4b2488e96febb662b9f3304c4b300293eec10af168"),
            ("connected", 7, "0b8f0e40e999056e0ef1085e489735d66caf28130afae9aa45ca1700bc085849"),
            ("trees", 10, "32de40af8568db8d0c4abf6817f4644ac4803a1d646389af2df128ca11e0960b"),
            ("unicyclic", 9, "233a40fb41ebb1078088bf19bcf15c83438858b3b4fd5a440b6ff782095aa693"),
        ],
        ids=["all-6", "connected-7", "trees-10", "unicyclic-9"],
    )
    def test_representatives_pinned(self, cls, n, digest):
        # The counts and the corpus-sweep histogram are isomorphism
        # invariants; this pins which graph represents each class, in order,
        # as enumerated before orbit pruning.
        listing = repr([(g.n, g.edges) for g in graphs_of_order(cls, n)])
        assert hashlib.sha256(listing.encode()).hexdigest() == digest

    def test_canonical_forms_and_automorphisms_pinned(self):
        # Every form value and every recorded automorphism of the 208 graphs
        # with at most 6 vertices, as the canonical search gave them before
        # its rounds were cut; a change that moves either re-pins this.
        forms = []
        for n in range(1, 7):
            for g in graphs_of_order("all", n):
                form, automorphisms = eclab.graphs._canonical_form(g.n, g.edges)
                forms.append((form, sorted(automorphisms)))
        assert len(forms) == 208
        digest = hashlib.sha256(repr(forms).encode()).hexdigest()
        assert digest == "b65da4cbf3ccb7a0eb031ad89b05de7f279b4aa406f62b8d65c0f9d7280678f7"


def _all_sequences(length: int, n: int):
    if length == 0:
        yield ()
        return
    for head in range(n):
        for tail in _all_sequences(length - 1, n):
            yield (head,) + tail


class TestCorpusApi:
    def test_deterministic_order(self):
        spec = CorpusSpec(5, ("trees", "unicyclic"))
        first = [g.edges for g in enumerate_corpus(spec)]
        second = [g.edges for g in enumerate_corpus(spec)]
        assert first == second

    def test_class_caps(self):
        with pytest.raises(BudgetExceeded):
            CorpusSpec(10, ("all",))
        with pytest.raises(InvalidSpec):
            CorpusSpec(4, ("widgets",))
        with pytest.raises(InvalidSpec):
            graphs_of_order("widgets", 3)
        with pytest.raises(BudgetExceeded):
            CorpusSpec(14, ("trees",))
        with pytest.raises(BudgetExceeded):
            graphs_of_order("trees", 14)
        CorpusSpec(13, ("trees",))  # allowed

    @pytest.mark.parametrize("max_vertices", [-1, True, 2.5, "3", None])
    def test_max_vertices_must_be_a_nonnegative_int(self, max_vertices):
        # Unchecked, -1 gives an empty corpus, True the order-1 one, and 2.5
        # or "3" a bare TypeError from the cap comparison.
        with pytest.raises(InvalidSpec, match="max_vertices must be a nonnegative int"):
            CorpusSpec(max_vertices, ("trees",))

    @pytest.mark.parametrize("classes", ["trees", ["trees"], ("trees", None), (["trees"],)])
    def test_classes_must_be_a_tuple_of_str(self, classes):
        # A bare str was read as its letters ("unknown corpus class 't'"),
        # and a list was accepted into a frozen spec that hash() refused.
        with pytest.raises(InvalidSpec, match="classes must be a tuple of str"):
            CorpusSpec(3, classes)

    def test_repeated_class_rejected(self):
        # A second export pass over a class would overwrite the first one's files.
        with pytest.raises(InvalidSpec, match="'trees' is listed more than once"):
            CorpusSpec(5, ("trees", "unicyclic", "trees"))

    def test_below_first_order_is_empty(self):
        assert graphs_of_order("trees", 0) == ()
        assert graphs_of_order("all", 0) == ()
        assert graphs_of_order("unicyclic", 2) == ()

    def test_export_file_names(self, tmp_path):
        written = export_corpus(CorpusSpec(4, ("trees",)), tmp_path)
        names = sorted(p.name for p in written)
        assert names == ["trees_1_0.el", "trees_2_0.el", "trees_3_0.el", "trees_4_0.el", "trees_4_1.el"]
        # Round-trip one file.
        from eclab.graphs import parse_edge_list

        g = parse_edge_list((tmp_path / "trees_4_1.el").read_text())
        assert g.n == 4 and g.m == 3
