"""Edge-dominating sets, minimality, and exact domination numbers.

An edge set D dominates when every edge outside D shares an endpoint with
some member of D.  Edges inside D are never themselves required to be
dominated; that convention matters for coalition checks and is pinned by a
dedicated unit test.  Consequently the whole edge set always dominates and
the empty set dominates exactly when the graph has no edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import GraphMismatch
from .graphs import Graph, line_graph


def check_edge_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    """Normalize an edge-index collection, raising GraphMismatch on bad indices."""
    try:
        s = frozenset(members)
    except TypeError as exc:
        raise GraphMismatch(f"an edge set must be a collection of edge indices: {exc}") from exc
    for e in s:
        if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < g.m:
            raise GraphMismatch(f"edge index {e!r} does not exist in a graph with m={g.m}")
    return s


def _cover_mask(closed: Sequence[int], members: Iterable[int]) -> int:
    """Edges dominated by ``members``: the union of their closed neighborhoods."""
    cover = 0
    for e in members:
        cover |= closed[e]
    return cover


def is_edge_dominating_set(g: Graph, members: Iterable[int]) -> bool:
    """True iff every edge outside the set has a neighbor inside it."""
    s = check_edge_set(g, members)
    return _cover_mask(g.closed_edge_masks(), s) == g.full_edge_mask


def is_minimal_edge_dominating_set(g: Graph, members: Iterable[int]) -> bool:
    """True iff the set dominates and no single member can be dropped."""
    s = check_edge_set(g, members)
    closed = g.closed_edge_masks()
    full = g.full_edge_mask
    if _cover_mask(closed, s) != full:
        return False
    return all(_cover_mask(closed, s - {e}) != full for e in s)


@dataclass(frozen=True)
class DominationResult:
    """Exact edge domination number together with a witness of that size."""

    gamma_prime: int
    witness: frozenset[int]


def edge_domination_number(g: Graph) -> DominationResult:
    """Minimum size of an edge dominating set, with a deterministic witness.

    The value is the least size at which some *matching* dominates, and
    sizes 1, 2, ... are refuted over matchings only.  Proof: a matching
    dominates exactly when it is maximal, since an edge outside it that
    meets no member could be added.  Every edge dominating set D yields a
    maximal matching of size at most |D| (Yannakakis & Gavril, *Edge
    dominating sets in graphs*, SIAM J. Appl. Math. 38, 1980).  So no
    matching dominates below gamma', and one of size exactly gamma' does.
    The matchings of one size are some of its subsets, so the refutation
    never tries more candidates than a scan of all subsets would.

    Only at that size are all subsets scanned, in lexicographic order, so
    the witness is still the lexicographically least minimum set (which
    need not be a matching).  That order is each head of size - 1 edges in
    lexicographic order, then every last edge above the head, so the scan
    ORs each head's cover once rather than once per subset.  The whole edge
    set dominates, so a graph with edges passes by size m at the latest;
    only a graph without edges falls through, with 0 and the empty set.
    """
    masks = g.closed_edge_masks()
    full = g.full_edge_mask
    edges, m = g.edges, g.m

    def matching_dominates(start: int, used: int, cover: int, left: int) -> bool:
        """True iff ``left`` more edges from index ``start`` on, disjoint from
        ``used`` and from each other, complete ``cover`` to every edge."""
        for e in range(start, m - left + 1):
            u, v = edges[e]
            if not used >> u & 1 and not used >> v & 1:
                if left == 1:
                    if cover | masks[e] == full:
                        return True
                elif matching_dominates(e + 1, used | 1 << u | 1 << v, cover | masks[e], left - 1):
                    return True
        return False

    for size in range(1, m + 1):
        if matching_dominates(0, 0, 0, size):
            for head in combinations(range(m), size - 1):
                cover = _cover_mask(masks, head)
                for last in range(head[-1] + 1 if head else 0, m):
                    if cover | masks[last] == full:
                        return DominationResult(size, frozenset((*head, last)))
    return DominationResult(0, frozenset())


def vertex_domination_number(g: Graph) -> int:
    """Minimum size of a vertex dominating set (increasing-cardinality search).

    The scan ends by size n at the latest, where every vertex dominates;
    only a graph without vertices falls through, with 0.
    """
    n = g.n
    closed = [1 << v for v in range(n)]
    for v in range(n):
        for u in g.neighbors(v):
            closed[v] |= 1 << u
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cover = 0
            for v in combo:
                cover |= closed[v]
            if cover == full:
                return size
    return 0


def gamma_prime_via_line_graph(g: Graph) -> int:
    """Cross-check route: edge domination of g equals vertex domination of L(g)."""
    return vertex_domination_number(line_graph(g))
