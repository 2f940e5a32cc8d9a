"""Edge-dominating sets and exact domination numbers.

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
from .graphs import _NOT_COLLECTIONS, Graph, _is_index, line_graph


def check_edge_set(g: Graph, members: Iterable[int]) -> frozenset[int]:
    """Normalize an edge-index collection, raising GraphMismatch on bad indices."""
    if isinstance(members, _NOT_COLLECTIONS):
        raise GraphMismatch(
            f"an edge set must be a collection of edge indices, got a {type(members).__name__}"
        )
    try:
        # A set keeps one of 0 and False, so members are checked as given.
        given = members if isinstance(members, (set, frozenset)) else list(members)
        s = frozenset(given)
    except TypeError as exc:
        raise GraphMismatch(f"an edge set must be a collection of edge indices: {exc}") from exc
    for e in given:
        if not _is_index(e, g.m):
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
    return _cover_mask(g.closed_edge_masks(), check_edge_set(g, members)) == g.full_edge_mask


@dataclass(frozen=True)
class DominationResult:
    """Exact edge domination number together with a witness of that size."""

    gamma_prime: int
    witness: frozenset[int]


def edge_domination_number(g: Graph) -> DominationResult:
    """Minimum size of an edge dominating set, with a deterministic witness.

    A set D dominates an edge set F when every edge of F lies in some
    closed neighbourhood N[d], d in D.  The undominated edges of a partial
    choice are F = E(g[S]), S the vertices no chosen edge touches, so F
    also names S with its isolated vertices dropped.  ``need(F)`` is the
    fewest edges of g that dominate F, and gamma' = need(E).  It is
    monotone: F' within F gives need(F') <= need(F).

    **Value.**  For nonempty F and any e in F,
    need(F) = 1 + min need(F - N[f]) over f in N[e] & F.  Proof: adding f
    to a set that dominates F - N[f] dominates F, so need(F) is at most
    the right side.  Conversely some d of a minimum set D lies in N[e],
    and D - {d} dominates F - N[d].  If d is in F, that is a branch.  If
    not, d = xw with x an end of e and w outside S, so no edge of F ends at
    w, N[d] & F is within N[e] & F, and the branch f = e is no larger by
    monotonicity.  For the same reason the branch e is dropped whenever
    another branch f has N[e] & F within N[f]: then F - N[f] is within
    F - N[e].  At a pendant edge of g[S] that leaves one branch, so a path
    or a cycle takes O(m) states.  e is an edge of F with fewest
    neighbours in F (the first with at most one is taken at once).  If one
    branch dominates all of F, need(F) = 1; otherwise every child is
    nonempty, need(F) >= 2, and the branches stop at a child of need 1.
    The recursion keeps its own stack of frames, so no input reaches
    Python's recursion limit.

    **Witness.**  One forward scan over the edge indices keeps the
    undominated set U and the slots left L, from U = E and L = gamma'.  It
    takes edge e when rest = U - N[e] has need(rest) < L (an empty rest
    has need 0), and stops once L is 0.  It never reaches a dead end: some
    minimum dominating set D of each rest it takes lies wholly above e.  D
    holds no edge taken before e, nor e, since those dominate nothing in
    rest.  Suppose D held a skipped edge f, rejected at a step with
    undominated set U_d and L_d slots left because need(U_d - N[f]) >= L_d.
    The edges taken since that step, e, and D - {f} number at most
    L_d - 1 and dominate U_d - N[f], against the rejection.  So the least
    edge of D passes the test if no edge before it does.  A rejection of f
    also means that no minimum set holds the edges taken so far and f, so
    each edge the scan takes is the least next edge of any minimum set
    with the prefix taken so far: the witness is the lexicographically
    least minimum dominating set.  A graph without edges has need 0 and
    the empty witness.
    """
    masks = g.closed_edge_masks()
    m = len(masks)
    full = (1 << m) - 1
    memo = {0: 0}

    def branches(f: int) -> int:
        """The branch edges of ``f`` as a mask, or 0 when one of them
        dominates all of ``f``."""
        fewest, rest = m + 1, f
        while rest:
            bit = rest & -rest
            rest ^= bit
            around = masks[bit.bit_length() - 1] & f
            d = around.bit_count()
            if d < fewest:
                fewest, best, pick = d, around, bit
                if d <= 2:
                    break
        if best == f:
            return 0
        todo, rest = best, best ^ pick
        while rest:
            bit = rest & -rest
            rest ^= bit
            cover = masks[bit.bit_length() - 1] & f
            if cover == f:
                return 0
            if not best & ~cover:
                todo = best ^ pick
        return todo

    def need(f: int) -> int:
        value = memo.get(f)
        frames: list[list[int]] = []  # [edge set, branches left, least child need]
        while True:
            if value is None:
                todo = branches(f)
                if todo:
                    frames.append([f, todo, m])
                else:
                    value = memo[f] = 1
            if value is not None:
                if not frames:
                    return value
                if value < frames[-1][2]:
                    frames[-1][2] = value
            frame = frames[-1]
            f, todo, least = frame
            if todo and least > 1:
                bit = todo & -todo
                frame[1] = todo ^ bit
                f &= ~masks[bit.bit_length() - 1]
                value = memo.get(f)
            else:
                frames.pop()
                value = memo[f] = least + 1

    size = left = need(full)
    witness, undominated, e = [], full, 0
    while left:
        rest = undominated & ~masks[e]
        if need(rest) < left:
            witness.append(e)
            left, undominated = left - 1, rest
        e += 1
    return DominationResult(size, frozenset(witness))


def vertex_domination_number(g: Graph) -> int:
    """Minimum size of a vertex dominating set (increasing-cardinality search).

    The scan ends by size n at the latest, where every vertex dominates;
    only a graph without vertices falls through, with 0.
    """
    n = g.n
    closed = [1 << v for v in range(n)]
    for v in range(n):
        for u in g._adj[v]:
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
