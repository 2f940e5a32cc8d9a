"""Edge coalitions: verification with certificates, the exact solver, bounds.

Vocabulary used throughout:

* Two disjoint nonempty edge sets form an *edge coalition* when neither
  dominates on its own but their union does.
* An *ec-partition* splits the edge set into blocks so that every block is
  either a one-edge dominating set (necessarily a full edge) or forms a
  coalition with some other non-dominating block.
* ``EC(G)`` is the largest number of blocks over all ec-partitions; the
  singleton partition puts every edge in its own block.

Verification is pure set/bitmask arithmetic.  The solver searches for a
feasible partition order k = top, top-1, ..., where top is the smaller of
m and the degree bound of :func:`_degree_bound`, by enumerating
restricted-growth strings (canonical block labelings) with pruning, so the
first feasible k is exact and the returned witness is the lexicographically
least canonical labeling of that order.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter, or_
from typing import Iterable, Iterator, Literal, Sequence, Union

from .domination import _cover_mask, check_edge_set, edge_domination_number
from .errors import (
    BlockIndexOutOfRange,
    BudgetExceeded,
    EclabError,
    EmptyGraph,
    EmptySet,
    InvalidPartition,
    NotAnEcPartition,
)
from .graphs import Graph, _bfs_distances, _is_index, _members, are_isomorphic

DEFAULT_EXACT_EDGE_CAP = 16

NO_PARTNER = "no_partner"
NON_SINGLETON_DOMINATING = "non_singleton_dominating"

Blocks = tuple[frozenset[int], ...]


# --- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class FullEdgeSingleton:
    """Justification: the block is a single full edge, hence dominating alone."""


@dataclass(frozen=True)
class Partner:
    """Justification: the block forms an edge coalition with block ``with_block``."""

    with_block: int


Justification = Union[FullEdgeSingleton, Partner]


@dataclass(frozen=True)
class EcCertificate:
    """A verified ec-partition with one justification per block."""

    blocks: Blocks
    justifications: tuple[Justification, ...]

    @property
    def order(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class EcRejection:
    """Why a partition is not an ec-partition: first offending block + reason."""

    block: int
    reason: str

    def message(self) -> str:
        if self.reason == NO_PARTNER:
            return f"block {self.block} has no partner"
        return f"block {self.block} is a dominating set with more than one edge"

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class EcResult:
    """Coalition number plus its certificate.

    ``mode`` is "exact" or "lower_bound"; for exact results ``proof`` records
    how optimality was established:

    * "upper-bound-met": the partition reaches the trivial bound m;
    * "degree-bound-met": it reaches the degree bound ⌊(Δ(L)+3)²/4⌋ of
      the line graph L, which is below m;
    * "exhausted-search": every order from min(m, degree bound) down to
      ec + 1 was refuted.
    """

    ec: int
    certificate: EcCertificate
    mode: Literal["exact", "lower_bound"]
    proof: str | None


# --- partitions and verification -------------------------------------------


def validate_partition(g: Graph, blocks: Iterable[Iterable[int]]) -> Blocks:
    """Normalize blocks, each read by :func:`check_edge_set` (a frozenset
    block stays the same object), and check they partition the edges of ``g``."""
    if g.m == 0:
        raise InvalidPartition("a graph with no edges has no edge partitions")
    normalized = []
    seen = 0
    members = _members(blocks, "a partition must be a collection of blocks", InvalidPartition)
    for i, b in enumerate(members):
        block = check_edge_set(g, b, i)
        if not block:
            raise InvalidPartition(f"block {i} is empty")
        for e in block:
            bit = 1 << e
            if seen & bit:
                raise InvalidPartition(f"edge {e} appears in more than one block")
            seen |= bit
        normalized.append(block)
    if seen != g.full_edge_mask:
        missing = [e for e in range(g.m) if not seen >> e & 1]
        raise InvalidPartition(f"edges {missing} are not covered by any block")
    return tuple(normalized)


def singleton_partition(g: Graph) -> Blocks:
    """The partition of the edge set into one-edge blocks, in index order."""
    return validate_partition(g, ((e,) for e in range(g.m)))


def forms_edge_coalition(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff ``a`` and ``b`` are disjoint, individually non-dominating,
    and jointly dominating."""
    sa = check_edge_set(g, a)
    sb = check_edge_set(g, b)
    if not sa or not sb:
        raise EmptySet("coalition members must be nonempty edge sets")
    if sa & sb:
        return False
    masks = g.closed_edge_masks()
    return 1 in _partners([_cover_mask(masks, sa), _cover_mask(masks, sb)], g.full_edge_mask, 0)


def _partners(covers: Sequence[int], full: int, i: int) -> Iterator[int]:
    """Blocks forming an edge coalition with block ``i``, lowest index first."""
    if covers[i] == full:
        return
    # Block i never partners itself: covers[i] | covers[i] is covers[i], not full.
    for j, cover in enumerate(covers):
        if cover != full and covers[i] | cover == full:
            yield j


#: ``(graph, certificate, covers)`` of the last partition :func:`_verify`
#: certified; the certificate's blocks are the tuple it validated.
_last_certified: tuple[Graph, EcCertificate, tuple[int, ...]] | None = None


def _verify(
    g: Graph, blocks: Iterable[Iterable[int]]
) -> tuple[EcCertificate | EcRejection, tuple[int, ...]]:
    """Verdict on ``blocks`` together with the cover of every block.

    The last certificate issued is kept with its graph and covers.  A call
    with that very graph and that certificate's own blocks tuple (``is``,
    not ``==``) returns them without judging again, so the solver's
    certificate passed on to :func:`is_ec_partition`,
    :func:`coalition_graph` and :func:`coalition_partner_count` is verified
    once.  A hit is sound:

    * the key is an immutable tuple of frozensets of validated ints, built
      by :func:`validate_partition` below, so its contents never change;
    * the entry holds the graph and the tuple by strong reference, so
      neither identity can pass to another object while it is kept;
    * an equal but distinct input, a list or any tuple a caller built, goes
      the full route: ``(frozenset({False}),)`` equals
      ``(frozenset({0}),)`` and is still refused.

    A rejection is not kept: no caller can hold the tuple it was given.  The
    entry is read once, so a store from another thread cannot pair one
    entry's graph with another's blocks.
    """
    global _last_certified
    last = _last_certified
    if last is not None and last[0] is g and last[1].blocks is blocks:
        return last[1], last[2]
    normalized = validate_partition(g, blocks)
    masks = g.closed_edge_masks()
    full = g.full_edge_mask
    covers = tuple([_cover_mask(masks, block) for block in normalized])

    justifications: list[Justification] = []
    for i, block in enumerate(normalized):
        if covers[i] == full:
            if len(block) == 1:
                justifications.append(FullEdgeSingleton())
                continue
            return EcRejection(i, NON_SINGLETON_DOMINATING), covers
        partner = next(_partners(covers, full, i), None)
        if partner is None:
            return EcRejection(i, NO_PARTNER), covers
        justifications.append(Partner(partner))
    cert = EcCertificate(normalized, tuple(justifications))
    _last_certified = (g, cert, covers)
    return cert, covers


def _verified(g: Graph, blocks: Iterable[Iterable[int]]) -> tuple[EcCertificate, tuple[int, ...]]:
    """Certificate and block covers of an ec-partition; raises otherwise."""
    cert, covers = _verify(g, blocks)
    if not cert:
        raise NotAnEcPartition(cert.message())
    return cert, covers


def is_ec_partition(
    g: Graph, blocks: Iterable[Iterable[int]]
) -> EcCertificate | EcRejection:
    """Verify a partition block by block.

    Returns a truthy :class:`EcCertificate` on success, or a falsy
    :class:`EcRejection` naming the first offending block.  A dominating
    singleton block is accepted exactly as a full-edge singleton; a
    dominating block with two or more edges is always rejected; any other
    block needs a non-dominating partner whose union with it dominates.
    Raises :class:`InvalidPartition` when the blocks do not partition E.
    """
    return _verify(g, blocks)[0]


def coalition_graph(g: Graph, blocks: Iterable[Iterable[int]]) -> Graph:
    """Graph on the blocks of a verified ec-partition; i ~ j iff blocks i and j
    form an edge coalition."""
    cert, covers = _verified(g, blocks)
    full = g.full_edge_mask
    edges = [(i, j) for i in range(cert.order) for j in _partners(covers, full, i) if j > i]
    return Graph(cert.order, edges)


def coalition_partner_count(g: Graph, blocks: Iterable[Iterable[int]], i: int) -> int:
    """Number of blocks forming an edge coalition with block ``i``
    (its degree in the coalition graph)."""
    cert, covers = _verified(g, blocks)
    if not _is_index(i, cert.order):
        raise BlockIndexOutOfRange(f"block index {i!r} not in 0..{cert.order - 1}")
    return sum(1 for _ in _partners(covers, g.full_edge_mask, i))


# --- exact solver -----------------------------------------------------------

class _SearchTimeout(Exception):
    """An order-k search passed its deadline before it found or refuted."""


def _find_partition_of_order(g: Graph, k: int, deadline: float = math.inf) -> list[int] | None:
    """Lexicographically least restricted-growth string of a valid order-k
    partition, or None when the order is refuted.  Past ``deadline``, read
    once per 4,096 nodes, a completion test counting as one, it raises
    :class:`_SearchTimeout` instead.

    Pruning rules, all sound for the strict block conditions:
      * a block that holds two or more edges must stay non-dominating;
      * no label reaches k, and a prefix with no slack is settled by the
        completion test below;
      * every block must keep a *potential* partner: the part of its
        deficiency that no remaining edge can cover must already be covered
        by some other existing block (that part lies outside the block's own
        cover, so it is never its own);
      * while a block is still to be opened, some open block must be able
        to partner it (the anchor rule, below);
      * no twin swap may map the labeling onto a lex-smaller one.

    Anchor rule.  A child at depth i + 1 with used < k must have an open
    cover x with x | rem[i + 1] full, or it is cut.  This is step (a) of
    :func:`_degree_bound`, the blocks meeting N[y] covering every edge of
    the coalition graph, applied to the finalized edges y:
      1. let F = full & ~rem[i + 1], the edges y with N[y] inside edges
         0..i;
      2. a block opened later holds only edges e >= i + 1, and since N is
         symmetric no such N[e] meets F, so its cover misses F when F is
         not empty;
      3. it therefore neither dominates nor partners another block opened
         later, and its partner is an open block whose final cover holds
         F; later edges add only N[e] within rem[i + 1] to that cover, so
         x | rem[i + 1] is full for its cover x now;
      4. when F is empty every x passes, so the rule needs no special case.
    The rule cuts only subtrees with no ec-partition of order k, so the
    search returns the same witness, and refutes the same orders, as
    without it.

    Completion test.  The slack after edges 0..j-1 are labelled is
    used + (m - j) - k, the number of remaining edges that may still join an
    existing block.  An existing block lowers it by one and a new block
    keeps it.  At slack 0 the k - used remaining edges must open the
    k - used missing blocks, one each, so the prefix has exactly one
    completion, labels[j:] = used, ..., k - 1.  That prefix is never entered
    as a node: its completion is tested in place, and the test counts as one
    node toward the clock read.  At k = m the root itself has slack 0 and
    the test runs with j = 0; k > m has slack below 0 there and is refuted
    on entry.  Every node entered has slack at least 1, so its children have
    slack at least 0, and depth m is never entered.

    Partner test.  One test, :func:`_partnered`, serves the prune and the
    anchor rule, on the open covers with r = rem[i + 1], and the completion
    test, on the final covers (covers[:used] and N[f] for each edge f >= j)
    with r = 0 and every block open: every cover x has x | r full, or
    x | r | y full for some cover y.  No block of two or more edges
    dominates and a full one-edge block needs no partner, so the rules ask
    this with y restricted to non-full covers; the restriction changes no
    verdict, at any depth:
      1. a full open block can only be a single full edge uv, and then every
         edge meets u or v;
      2. a block X whose cover x has x | r not full cannot hold an edge at u
         and one at v, or it would dominate; say its edges meet u.  X covers
         every edge at u, so each edge outside x | r, all of whose closed
         neighbourhood is labelled, is an edge vt with t on no edge of X;
      3. vt is labelled.  Its block covers every edge at v, so its union
         with X is full, and it is not full: as a single edge vt misses the
         edges of X, and a larger block never dominates.

    Walking the forced tail one edge at a time would reach the same verdict,
    since every prune on the way is a necessary condition of the test: a new
    block is never cut as dominating, ``_partnered`` asks only for a
    potential partner, and the anchor rule cuts no prefix that an
    ec-partition completes.  Neither the twin cut nor the memo is applied in
    the tail.  Each cuts a completion L that is an ec-partition only when L
    is not the lex-least witness of the order; the search meets labelings in
    lex order and never cuts the lex-least witness, so it returned a witness
    smaller than L before it reached L.  A completion that passes is
    therefore the lex-least witness, the same one the walked tail returns.

    Twin swaps (lex-leader symmetry breaking; Crawford, Ginsberg, Luks and
    Roy, KR 1996).  A swap p of :func:`_twin_swaps` is an automorphism
    acting on edges, with p[p[f]] = f, so p(N[e]) = N[p[e]] and it maps
    every ec-partition of order k onto one of order k.  The image of a
    labeling L puts edge f in the block of p[f]; renumbering its labels in
    order of first use gives a restricted-growth string L'.  L'[f] depends
    on L at p[0], ..., p[f] only, so once edges 0..f and p[0..f] are
    labelled and L' agrees with L before f, L'[f] against L[f] decides
    L' < L or L' > L for every completion of the prefix.  A prefix decided
    L' < L is cut.  Each of its completions that is an ec-partition of
    order k has a strictly smaller automorphic image of the same order, so
    it is not the lex-least one; the lex-least witness of the order has no
    smaller image and is never cut.  The search therefore returns the same
    witness, and refutes the same orders, as without this rule.  At k = m
    the completion test at the root decides the order, so the swaps are
    built only for k < m.

    Each swap's comparison is a walk ``(p, f, due, seen, extra)`` passed
    down the recursion: L' agrees with L before edge f, and the walk
    resumes once edge due = max(f, p[f]) is labelled.  The relabeling from
    L to L' is the identity on the ``seen`` labels of the edges before the
    first one p moves, which are fixed, and ``extra`` on the rest.  The
    walk starts on entry to depth f, after the memo lookup, as
    (p, f, p[f], used, {}): p fixes the edges before f, and there used is
    max(labels[:f]) + 1, or 0 at the root.  A walk decided L' > L leaves
    the subtree.  No walk reaches the tail: ``advance``
    runs only for children with slack at least 1, so i <= m - 2 and a walk
    resumes at an edge f <= m - 1.  Walks are never changed in place, so
    backtracking restores nothing.  Past the last edge p moves, p[f] = f and
    the walk steps one edge per node.  A graph without twins has no walk;
    its nodes pay one truth test each, and one per child, for them.

    A block is empty exactly when its cover is 0, because N[e] contains e.

    Frontier memo (nogood recording; Dechter, *Constraint Processing*,
    2003).  At the node of depth i, edges 0..i-1 are labelled.  Call an edge
    y *finalized* when every edge of N[y] is labelled; since N is symmetric,
    the edges not finalized are exactly rem[i], and F = full & ~rem[i] are
    the finalized ones.  Call a pair of blocks (b, c) *dead* when some edge
    of F lies in neither cover, a block not yet open covering nothing.  The
    node's key is (i, used, dead, the labels of boundary[i]), where
    boundary[i] lists the edges e < i whose N[e] meets rem[i].  Any later
    cover of block b is covers[b] plus edges of rem[i] only, so it agrees
    with covers[b] on F, and covers[b] & rem[i] is the union of
    N[e] & rem[i] over the edges e of boundary[i] labelled b.  Hence every
    test below the node reads the key alone:
      * block b is open, that is its cover is not 0, exactly when b < used;
      * block b is full exactly when (b, b) is not dead and its cover
        contains rem[i];
      * at any depth j >= i, covers[b] | rem[j] | covers[c] in
        ``_partnered`` is full exactly when F_j & ~(covers[b] | covers[c])
        is 0, that is when (b, c) is not dead and the two covers together
        hold F_j & rem[i]; covers[b] | rem[j], which the partner test and
        the anchor rule read, is the case c = b;
      * the slack reads only ``used``, and a completion test decides what
        ``_partnered`` decides at depth m on the completed labeling.
    Two nodes with equal keys therefore have subtrees with the same
    completions that are ec-partitions of order k.  Every failed node is
    recorded, walks or not.  A later node with an equal key has a lex-larger
    prefix, and any completion below it that is an ec-partition of order k
    also completes the earlier prefix into a lex-smaller one, so the later
    subtree cannot hold the lex-least witness.  The memo and the twin cut
    are thus independent prunes that each keep the lex-least witness, and
    the search returns the same witness, and refutes the same orders, as
    without the memo.  ``dead`` is a k*k-bit int, bit b*k + c for the pair
    (b, c), grown without a rescan: on entry to depth i, each edge y of
    fin[i], finalized by labelling edge i - 1, adds every pair inside the
    blocks that do not meet N[y].  Only children that pass ``_partnered``,
    which does not read it, pay for that update.
    The key repeats where the labelled part of the frontier is narrow and
    costs O(k²) bits per node, so the memo is on only for edge orders whose
    :func:`_frontier_width` is at most ``_MEMO_WIDTH``: paths (width 1) and
    cycles (2) are in, K6 (10) and K4,4 (12) out.  It is also off while the
    slack m - k at the root is below ``_MEMO_SLACK``: so few edges join an
    existing block that the search is small and its keys rarely repeat.  On
    the orders of the graphs of width at most 2 among connected graphs with
    n <= 7 and m <= 10, trees with n <= 10 and unicyclic graphs with n <= 9,
    the memo took 1.81, 1.44, 1.23, 1.32 and 1.95 times as long as the plain
    search at slack 1, 2, 3, 4 and above (medians of 15 interleaved rounds,
    the median of four such runs); the gate cuts their exact EC time by
    about 20 %.  P17 at k = 6 has slack 10 and takes 418,953 nodes without
    the memo and 1,466 with it.
    """
    m = g.m
    if k > m:
        return None
    closed = g.closed_edge_masks()
    full = g.full_edge_mask
    # rem[i]: the union of N[e] over the edges e >= i not yet labelled.
    rem = list(accumulate(reversed(closed), or_, initial=0))[::-1]

    labels = [0] * m
    covers = [0] * k
    used = 0

    memo: set | None = None
    if m - k >= _MEMO_SLACK and _frontier_width(rem) <= _MEMO_WIDTH:
        memo = set()
        # The labels of boundary[i]; itemgetter gives one label bare, and
        # keys are compared only at equal depth.
        boundary = [
            itemgetter(*b) if b else lambda _: ()
            for b in ([e for e in range(i) if closed[e] & rem[i]] for i in range(m))
        ]
        # fin[i]: N[y], as a list, of each edge y whose highest closed
        # neighbour is i - 1, so that labelling edge i - 1 finalizes y.
        fin: list[list[list[int]]] = [[] for _ in range(m + 1)]
        for mask in closed:
            fin[mask.bit_length()].append([e for e in range(m) if mask >> e & 1])
        # squares[have]: the pairs inside the blocks outside the label set have.
        squares: dict[int, int] = {}

    def advance(walks: tuple, i: int) -> tuple | None:
        """The walks for the subtree below edge i, just labelled, or None
        when one decides L' < L."""
        below = []
        for walk in walks:
            p, f, due, seen, extra = walk
            if due > i:
                below.append(walk)
                continue
            extra = extra.copy()
            while f <= i:  # due <= i, so at least one step runs
                image = p[f]
                if image > i:
                    break
                x = labels[image]
                if x < seen:
                    y = x
                else:
                    y = extra.get(x)
                    if y is None:
                        y = extra[x] = seen + len(extra)
                z = labels[f]
                if y != z:
                    break
                f += 1
            if y < z:
                return None
            if y == z:
                below.append((p, f, max(f, p[f]), seen, extra))
        return tuple(below)

    counter = 0

    def tick() -> None:
        nonlocal counter
        counter += 1
        if counter & 0xFFF == 0 and time.monotonic() > deadline:
            raise _SearchTimeout

    def completes(j: int) -> bool:
        """The completion test of a prefix of edges 0..j-1 with no slack; on
        a pass, labels[j:] holds the completion."""
        tick()
        if not _partnered((*covers[:used], *closed[j:]), 0, full, True):
            return False
        labels[j:] = range(used, k)
        return True

    def rec(i: int, walks: tuple, dead: int) -> bool:
        nonlocal used
        tick()
        if memo is not None:
            for nbrs in fin[i]:
                have = 0
                for e in nbrs:
                    have |= 1 << labels[e]
                square = squares.get(have)
                if square is None:
                    # miss times one bit per row b of miss: row b is miss.
                    miss = ~have & ((1 << k) - 1)
                    rows = sum(1 << b * k for b in range(k) if miss >> b & 1)
                    square = squares[have] = miss * rows
                dead |= square
            key = (i, used, dead, boundary[i](labels))
            if key in memo:
                return False
        if starts[i]:
            walks += tuple((p, i, p[i], used, {}) for p in starts[i])
        # Existing blocks, then a new one while fewer than k are open.
        for b in range(used + (used < k)):
            old_cover = covers[b]
            new_cover = old_cover | closed[i]
            if old_cover and new_cover == full:
                continue
            labels[i] = b
            covers[b] = new_cover
            if not old_cover:
                used += 1
            if used + (m - i - 1) == k:
                if completes(i + 1):
                    return True
            else:
                below = advance(walks, i) if walks else walks
                if (
                    below is not None
                    and _partnered(covers[:used], rem[i + 1], full, used == k)
                    and rec(i + 1, below, dead)
                ):
                    return True
            covers[b] = old_cover
            if not old_cover:
                used -= 1
        if memo is not None:
            memo.add(key)
        return False

    if k == m:
        return list(labels) if completes(0) else None
    starts: list[tuple] = [()] * m  # starts[f]: the swaps whose least moved edge is f
    for first, p in _twin_swaps(g):
        starts[first] += (p,)
    return list(labels) if rec(0, (), 0) else None


def _partnered(blocks: Sequence[int], r: int, full: int, anchored: bool) -> bool:
    """True iff every cover x in ``blocks`` has a potential partner (x | r
    is ``full``, or x | r | y is for some y in ``blocks``) and, unless
    ``anchored``, some x | r is ``full``: the partner test and the anchor
    rule of :func:`_find_partition_of_order`."""
    for x in blocks:
        x |= r
        if x == full:
            anchored = True
        else:
            for y in blocks:
                if x | y == full:
                    break
            else:
                return False
    return anchored


_MEMO_WIDTH = 2
_MEMO_SLACK = 4


def _frontier_width(rem: Sequence[int]) -> int:
    """The most edges that are labelled but not finalized at one node of the
    order-k search: the largest |rem[i] ∩ {0, ..., i - 1}|.  The frontier
    memo's key repeats often only where it is small; see
    :func:`_find_partition_of_order`."""
    width = below = 0  # below: the edges 0, ..., i - 1
    for r in rem:
        width = max(width, (r & below).bit_count())
        below = below << 1 | 1
    return width


def _twin_swaps(g: Graph) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Twin transpositions acting on edges: one ``(first, p)`` each, with
    ``p[e]`` the image of edge e and ``first`` the least edge p moves.

    Vertices u != v are twins when N(u) - {v} = N(v) - {u}: open twins
    have N(u) = N(v), closed twins N[u] = N[v].  Swapping them is an
    automorphism: it maps edge uw onto vw for every other neighbour w
    and fixes every other edge, so ``p[p[e]] == e``.  The classes of
    twins are the vertices grouped by open and then by closed
    neighbourhood, and each class gives the transpositions of its
    consecutive members, which generate every permutation of the class;
    the swaps of each kind come in the order of the later member.  One
    that moves no edge is left out: u has no neighbour but v, as for
    isolated vertices or a K2 component.
    """
    adj = g._adj
    index = {pair: e for e, pair in enumerate(g.edges)}
    swaps = []
    for rows in (adj, [tuple(sorted((*row, v))) for v, row in enumerate(adj)]):
        latest: dict[tuple[int, ...], int] = {}
        for v, row in enumerate(rows):
            u = latest.get(row)
            latest[row] = v
            if u is None:
                continue
            perm = list(range(g.m))
            for w in adj[u]:
                if w != v:
                    a = index[(u, w) if u < w else (w, u)]
                    b = index[(v, w) if v < w else (w, v)]
                    perm[a], perm[b] = b, a
            first = next((e for e, f in enumerate(perm) if e != f), None)
            if first is not None:
                swaps.append((first, tuple(perm)))
    return tuple(swaps)


def _degree_bound(closed: Sequence[int]) -> int:
    """``(P + 2)**2 // 4`` with P the largest popcount of a closed mask: an
    upper bound on EC.

    P is Δ(L) + 1 for the line graph L = L(G), and the closed masks are the
    closed neighbourhoods of L, so ec-partitions of G are the coalition
    partitions of L and this is C(L) <= ⌊(Δ(L) + 3)²/4⌋ of Haynes,
    Hedetniemi, Hedetniemi, McRae and Mohan, *Upper bounds on the coalition
    number*, Australas. J. Combin. 80 (2021).  The argument, in edge terms:

    Take an ec-partition with k blocks.  If a block is a full edge e, then
    N[e] holds every edge, so k <= m <= P <= (P + 2)²/4.  Otherwise no block
    dominates, so every block has a partner.  Let C be the coalition graph
    on the k blocks; it has no isolated vertex.

    (a) For every edge y the blocks meeting N[y] cover every edge of C (a
        partner pair dominates y, so one of the two meets N[y]), and there
        are at most |N[y]| <= P of them.  A block B does not dominate, so
        some edge y has N[y] disjoint from B, and that cover avoids B.  In
        particular B has at most P partners (the partner lemma).
    (b) Let T be a minimum vertex cover of C, c = |T| <= P by (a), and I
        the other k - c blocks.  I is independent, so every block of I has
        all its partners, at least one, in T.  For an independent Q ⊆ T
        let N_I(Q) be its partners in I; then |N_I(Q)| >= |Q|, because
        (T - Q) ∪ N_I(Q) is again a cover.
    (c) For w in T, the complement J of a cover from (a) that avoids w is
        independent, holds w and has at least k - P blocks.  Q = J ∩ T is
        independent, holds w, and J misses N_I(Q), so
        k - P <= |Q| + |I| - |N_I(Q)|, that is |N_I(Q)| <= |Q| + P - c.
    (d) Cover T by sets Q_1, ..., Q_r from (c), each holding a block of T
        not in E_j = Q_1 ∪ ... ∪ Q_{j-1}, so r <= c.  The blocks of I first
        reached by Q_j number at most |N_I(Q_j)| - |N_I(Q_j ∩ E_j)|, which
        is at most |Q_j - E_j| + P - c by (c) and by (b) for Q_j ∩ E_j.
        Every block of I is reached, so, with r <= c and c <= P,
        k - c = |I| <= c + r(P - c) <= c(P + 1 - c).

    Hence k <= c(P + 2 - c) <= (P + 2)²/4, and k is an integer.  The bound
    is 6 on every path and cycle, and it meets m only on small or dense
    graphs.
    """
    return (max(mask.bit_count() for mask in closed) + 2) ** 2 // 4


def _largest_order(g: Graph, deadline: float = math.inf):
    """``(k, certificate, top)`` for the first order k = top, top-1, ... the
    search fills, or None, where top = min(m, :func:`_degree_bound`), as no
    larger order can be filled.  Each order gets ``max(remaining / k, 0.05)``
    seconds, capped at the deadline; one that times out is skipped downward,
    and none starts past the deadline.  The default deadline is infinite, so
    every order runs to the end and k is the maximum.  :func:`_verified`, the
    users' verifier, certifies the labeling found or raises its rejection.
    """
    top = min(g.m, _degree_bound(g.closed_edge_masks()))
    for k in range(top, 0, -1):
        now = time.monotonic()
        if now >= deadline:
            break
        try:
            labels = _find_partition_of_order(
                g, k, min(now + max((deadline - now) / k, 0.05), deadline)
            )
        except _SearchTimeout:
            continue
        if labels is not None:
            blocks: list[list[int]] = [[] for _ in range(k)]
            for e, b in enumerate(labels):
                blocks[b].append(e)
            return k, _verified(g, blocks)[0], top
    return None


def _require_edges(g: Graph) -> None:
    """Refuse a graph without edges, on which EC is undefined."""
    if g.m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")


def _check_edge_cap(m: int, max_edges: int) -> None:
    """Refuse a malformed cap, or an exact solve of ``m`` edges above it; the
    CLI calls it on a family spec's edge count before it builds the graph."""
    if not _is_index(max_edges, math.inf):
        raise EclabError(f"max_edges must be a nonnegative int, got {max_edges!r}")
    if m > max_edges:
        raise BudgetExceeded(
            f"graph has m={m} edges, above the exact-mode cap {max_edges}; "
            "raise the cap (--max-edges or ECLAB_MAX_EDGES) "
            "or use lower-bound mode (--lower-bound)"
        )


def edge_coalition_number(
    g: Graph,
    *,
    max_edges: int = DEFAULT_EXACT_EDGE_CAP,
) -> EcResult:
    """Exact edge coalition number with a verified certificate.

    Searches partition orders downward from the degree bound
    min(m, ⌊(Δ(L)+3)²/4⌋), above which no order is feasible, and returns
    at the first feasible order, so the result is the maximum.  Raises
    :class:`EmptyGraph` when m = 0 and :class:`BudgetExceeded` when m
    exceeds ``max_edges`` (enumeration grows like the Bell numbers); the
    cap test is :func:`_check_edge_cap`, which also refuses a malformed cap
    and which the CLI applies to a family spec before building its graph.
    """
    m = g.m
    _require_edges(g)
    _check_edge_cap(m, max_edges)
    found = _largest_order(g)
    if found is None:
        raise NotAnEcPartition("no ec-partition found; this contradicts the existence guarantee")
    k, cert, top = found
    if k == m:
        proof = "upper-bound-met"
    elif k == top:
        proof = "degree-bound-met"
    else:
        proof = "exhausted-search"
    return EcResult(ec=k, certificate=cert, mode="exact", proof=proof)


def edge_coalition_lower_bound(
    g: Graph,
    *,
    time_budget: float = 30.0,
) -> EcResult:
    """Best certified lower bound on EC(g) found within a time budget.

    Runs the order loop of the exact solver, from the same degree bound,
    with a finite deadline in place of the infinite one: each order gets a
    slice of what is left of the budget, and orders that neither succeed nor
    get refuted in time are skipped downward.  The first order that yields
    a partition gives a certificate; the value is exact only if no higher
    order was skipped, and the result is always labeled "lower_bound".  A
    budget that is nan, infinite or an int past the largest float would
    never time out and a negative one has run out before any search, so
    each raises :class:`EclabError`, as does a bool or a budget that is not
    an int or float; :class:`BudgetExceeded` means no order was filled in time.
    """
    number = isinstance(time_budget, (int, float)) and type(time_budget) is not bool
    if not (number and 0 <= time_budget <= sys.float_info.max):
        raise EclabError(
            f"time_budget must be a finite, nonnegative number of seconds, got {time_budget!r}"
        )
    _require_edges(g)
    found = _largest_order(g, time.monotonic() + time_budget)
    if found is None:
        raise BudgetExceeded(f"no ec-partition found within {time_budget:g}s for m={g.m}")
    k, cert, _ = found
    return EcResult(ec=k, certificate=cert, mode="lower_bound", proof=None)


# --- derived predicates -----------------------------------------------------


def is_singleton_ec_graph(g: Graph) -> bool:
    """True iff the singleton partition is an ec-partition (equivalently EC = m)."""
    _require_edges(g)
    return bool(is_ec_partition(g, singleton_partition(g)))


def is_self_edge_coalition_graph(g: Graph) -> bool:
    """True iff g is isomorphic to the coalition graph of its own singleton
    partition (which must itself be an ec-partition).  Raises
    :class:`SizeLimitExceeded` when it must compare graphs on more than 12
    vertices, as on T(5,3,2) with 13."""
    _require_edges(g)
    if g.m != g.n:
        return False  # the coalition graph has m vertices, so iso is impossible
    return is_singleton_ec_graph(g) and are_isomorphic(g, coalition_graph(g, singleton_partition(g)))


# --- bound report -----------------------------------------------------------


@dataclass(frozen=True)
class BoundEntry:
    """One bound on EC(g): value, direction, origin tag, and applicability."""

    source: str
    kind: Literal["lower", "upper"]
    value: int
    applicable: bool
    reason: str


@dataclass(frozen=True)
class BoundReport:
    entries: tuple[BoundEntry, ...]


def ec_bounds(g: Graph) -> BoundReport:
    """Evaluate every known EC bound on ``g``, flagging inapplicable ones.

    Inapplicable bounds are reported with a reason rather than dropped.
    """
    _require_edges(g)
    m, n, closed = g.m, g.n, g.closed_edge_masks()
    degrees = [len(row) for row in g._adj]
    delta = min(degrees)
    has_full_edge = g.full_edge_mask in closed
    has_isolated_edge = any(c == 1 << e for e, c in enumerate(closed))
    is_complete = m == n * (n - 1) // 2 and n >= 2
    universal = sum(1 for d in degrees if d == n - 1)

    gamma = edge_domination_number(g).gamma_prime
    r, s = _complete_bipartite_parts(g) or (0, 0)

    # (source, kind, value, [(blocked, reason), ...], reason when applicable);
    # the first blocking condition that holds makes the bound inapplicable.
    rows = (
        ("trivial-lower", "lower", 1, [], "holds for every graph with an edge"),
        ("size-upper", "upper", m, [], "a partition of m edges has at most m blocks"),
        (
            "twice-gamma-minus-one", "lower", 2 * gamma - 1,
            [(has_full_edge, "graph has a full edge"),
             (has_isolated_edge, "graph has an isolated edge")],
            "no isolated edges and no full edges",
        ),
        (
            "universal-vertex-count", "lower", universal * n - universal * (universal + 1) // 2,
            [(is_complete, "stated only for incomplete graphs")],
            f"{universal} vertices of degree n-1",
        ),
        (
            "one-plus-min-degree", "lower", 1 + delta,
            [(has_full_edge, "graph has a full edge"),
             (delta < 1, "graph has an isolated vertex")],
            "no full edge and minimum degree >= 1",
        ),
        (
            "complete-even-order", "lower", 2 * (n - 1),
            [(not (is_complete and n % 2 == 0 and n >= 4),
              "needs a complete graph of even order >= 4 "
              "(splitting a one-edge dominating set is impossible at n = 2)")],
            "complete graph of even order >= 4",
        ),
        (
            "bipartite-twice-larger-side", "lower", 2 * s if r >= 2 else 0,
            [(r < 2, "needs a complete bipartite graph with both parts of size >= 2")],
            f"complete bipartite with parts {r} <= {s}",
        ),
    )
    entries = []
    for source, kind, value, blockers, reason in rows:
        blocked = next((why for hit, why in blockers if hit), None)
        entries.append(BoundEntry(source, kind, value, blocked is None, blocked or reason))
    return BoundReport(tuple(entries))


def _complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """(r, s) with r <= s when g is a complete bipartite graph, else None.

    ``g`` must have an edge (:func:`ec_bounds` refuses it otherwise).  The
    sides are the parities of the BFS distances from vertex 0: a connected
    graph is bipartite iff no edge joins two vertices of equal parity, and
    then it is complete bipartite iff m = r * s.
    """
    dist = _bfs_distances(g, 0)
    if min(dist) < 0 or any(dist[u] % 2 == dist[v] % 2 for u, v in g.edges):
        return None
    s = sum(d % 2 for d in dist)
    r = g.n - s
    if g.m != r * s:
        return None
    return (min(r, s), max(r, s))


# --- JSON schema ------------------------------------------------------------


def certificate_json(result: EcResult) -> dict:
    """Certificate as a JSON-ready dict with the documented fixed field order:
    ec, blocks, justification, mode."""
    justification = []
    for j in result.certificate.justifications:
        if isinstance(j, FullEdgeSingleton):
            justification.append({"type": "full_edge"})
        else:
            justification.append({"type": "partner", "with": j.with_block})
    return {
        "ec": result.ec,
        "blocks": [sorted(block) for block in result.certificate.blocks],
        "justification": justification,
        "mode": result.mode,
    }
