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
import time
from dataclasses import dataclass
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
from .graphs import Graph, _bfs_distances, are_isomorphic, is_full_edge

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

    def __bool__(self) -> bool:
        return True


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
    """Normalize blocks and check they partition the edge set of ``g``."""
    if g.m == 0:
        raise InvalidPartition("a graph with no edges has no edge partitions")
    try:
        normalized = tuple(frozenset(b) for b in blocks)
    except TypeError as exc:
        raise InvalidPartition(f"blocks must be sets of edge indices: {exc}") from exc
    seen = 0
    for i, block in enumerate(normalized):
        if not block:
            raise InvalidPartition(f"block {i} is empty")
        for e in block:
            if isinstance(e, bool) or not isinstance(e, int) or not 0 <= e < g.m:
                raise InvalidPartition(f"block {i} references nonexistent edge {e!r}")
            bit = 1 << e
            if seen & bit:
                raise InvalidPartition(f"edge {e} appears in more than one block")
            seen |= bit
    if seen != g.full_edge_mask:
        missing = [e for e in range(g.m) if not seen >> e & 1]
        raise InvalidPartition(f"edges {missing} are not covered by any block")
    return normalized


def singleton_partition(g: Graph) -> Blocks:
    """The partition of the edge set into one-edge blocks, in index order."""
    if g.m == 0:
        raise InvalidPartition("a graph with no edges has no edge partitions")
    return tuple(frozenset((e,)) for e in range(g.m))


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
    full = g.full_edge_mask
    ca = _cover_mask(masks, sa)
    cb = _cover_mask(masks, sb)
    return ca != full and cb != full and (ca | cb) == full


def _partners(covers: Sequence[int], full: int, i: int) -> Iterator[int]:
    """Blocks forming an edge coalition with block ``i``, lowest index first."""
    if covers[i] == full:
        return
    for j, cover in enumerate(covers):
        if j != i and cover != full and covers[i] | cover == full:
            yield j


def _verify(
    g: Graph, blocks: Iterable[Iterable[int]]
) -> tuple[EcCertificate | EcRejection, list[int]]:
    """Verdict on ``blocks`` together with the cover of every block."""
    normalized = validate_partition(g, blocks)
    masks = g.closed_edge_masks()
    full = g.full_edge_mask
    covers = [_cover_mask(masks, block) for block in normalized]

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
    return EcCertificate(normalized, tuple(justifications)), covers


def _verified(g: Graph, blocks: Iterable[Iterable[int]]) -> tuple[EcCertificate, list[int]]:
    """Certificate and block covers of an ec-partition; raises otherwise."""
    cert, covers = _verify(g, blocks)
    if not cert:
        raise NotAnEcPartition(cert.message())
    return cert, covers


def _coalition_edges(covers: Sequence[int], full: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(covers)) for j in _partners(covers, full, i) if j > i]


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
    return Graph(cert.order, _coalition_edges(covers, g.full_edge_mask))


def coalition_partner_count(g: Graph, blocks: Iterable[Iterable[int]], i: int) -> int:
    """Number of blocks forming an edge coalition with block ``i``
    (its degree in the coalition graph)."""
    cert, covers = _verified(g, blocks)
    if not 0 <= i < cert.order:
        raise BlockIndexOutOfRange(f"block index {i} not in 0..{cert.order - 1}")
    return sum(1 for _ in _partners(covers, g.full_edge_mask, i))


# --- exact solver -----------------------------------------------------------

class _SearchTimeout(Exception):
    """An order-k search passed its deadline before it found or refuted."""


def _find_partition_of_order(g: Graph, k: int, deadline: float = math.inf) -> list[int] | None:
    """Lexicographically least restricted-growth string of a valid order-k
    partition, or None when the order is refuted.  Past ``deadline``, read
    once per 4,096 nodes, it raises :class:`_SearchTimeout` instead.

    Pruning rules, all sound for the strict block conditions:
      * a block that holds two or more edges must stay non-dominating;
      * exactly k labels must remain reachable; with no slack left, the edge
        opens a new block;
      * every block must keep a *potential* partner: the part of its
        deficiency that no remaining edge can cover must already be covered
        by some other existing block that is not itself dominating (that
        part lies outside the block's own cover, so it is never its own).

    The slack at edge i is used + (m - i) - k.  At 0, edge i going into an
    existing block leaves a child with used + (m - i - 1) = k - 1 < k, which
    the count refutes on entry, so only the new block ``used`` is tried.  The
    skipped branches hold no solution and the remaining ones keep their
    order, so the lex-least witness is unchanged; what is saved is the
    partner check each skipped child would pay before it is refuted.  An
    existing block lowers the slack by one and a new block keeps it, so once
    k <= m makes it at least 0 at the root it never drops below 0; k > m is
    refuted on entry.

    A block is empty exactly when its cover is 0, because N[e] contains e.
    """
    m = g.m
    if k > m:
        return None
    closed = g.closed_edge_masks()
    full = g.full_edge_mask
    rem = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        rem[i] = rem[i + 1] | closed[i]

    labels = [0] * m
    covers = [0] * k
    used = 0

    def partners_feasible(i: int) -> bool:
        r = rem[i]
        for b in range(used):
            need = full & ~(covers[b] | r)
            if not need:
                continue
            for c in range(used):
                if covers[c] != full and not need & ~covers[c]:
                    break
            else:
                return False
        return True

    counter = 0

    def rec(i: int) -> bool:
        nonlocal counter, used
        counter += 1
        if counter & 0xFFF == 0 and time.monotonic() > deadline:
            raise _SearchTimeout
        if i == m:
            return used == k  # partners_feasible(m) held before descending here
        slack = used + (m - i) - k
        for b in range(used if slack == 0 else 0, min(used + 1, k)):
            old_cover = covers[b]
            new_cover = old_cover | closed[i]
            if old_cover and new_cover == full:
                continue
            labels[i] = b
            covers[b] = new_cover
            if not old_cover:
                used += 1
            if partners_feasible(i + 1) and rec(i + 1):
                return True
            covers[b] = old_cover
            if not old_cover:
                used -= 1
        return False

    return list(labels) if rec(0) else None


def _certified(g: Graph, labels: Sequence[int], k: int) -> EcCertificate:
    """Certificate of a solver labeling; raises when the verifier rejects it."""
    blocks: list[list[int]] = [[] for _ in range(k)]
    for e, b in enumerate(labels):
        blocks[b].append(e)
    cert = is_ec_partition(g, blocks)
    if not cert:
        raise NotAnEcPartition(
            f"solver produced a partition its own verifier rejects: {cert.message()}"
        )
    return cert


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
    every order runs to the end and k is the maximum.
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
            return k, _certified(g, labels, k), top
    return None


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
    exceeds ``max_edges`` (enumeration grows like the Bell numbers); this
    is the one place that refuses an exact solve, the CLI included.
    """
    m = g.m
    if m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")
    if m > max_edges:
        raise BudgetExceeded(
            f"graph has m={m} edges, above the exact-mode cap {max_edges}; "
            "raise the cap (--max-edges or ECLAB_MAX_EDGES) "
            "or use lower-bound mode (--lower-bound)"
        )
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
    non-finite budget would never time out, so it raises
    :class:`EclabError`; :class:`BudgetExceeded` means no order was filled
    in time.
    """
    if not math.isfinite(time_budget):
        raise EclabError(f"time_budget must be a finite number of seconds, got {time_budget!r}")
    m = g.m
    if m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")
    found = _largest_order(g, time.monotonic() + time_budget)
    if found is None:
        raise BudgetExceeded(f"no ec-partition found within {time_budget:g}s for m={m}")
    k, cert, _ = found
    return EcResult(ec=k, certificate=cert, mode="lower_bound", proof=None)


# --- derived predicates -----------------------------------------------------


def is_singleton_ec_graph(g: Graph) -> bool:
    """True iff the singleton partition is an ec-partition (equivalently EC = m)."""
    if g.m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")
    return bool(is_ec_partition(g, singleton_partition(g)))


def is_self_edge_coalition_graph(g: Graph) -> bool:
    """True iff g is isomorphic to the coalition graph of its own singleton
    partition (which must itself be an ec-partition).  Raises
    :class:`SizeLimitExceeded` when it must compare graphs on more than 12
    vertices, as on T(5,3,2) with 13."""
    if g.m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")
    cert, covers = _verify(g, singleton_partition(g))
    if not cert:
        return False
    if g.m != g.n:
        return False  # the coalition graph has m vertices, so iso is impossible
    return are_isomorphic(g, Graph(g.m, _coalition_edges(covers, g.full_edge_mask)))


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
    if g.m == 0:
        raise EmptyGraph("EC is undefined for graphs without edges")
    m = g.m
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    delta = min(degrees)
    has_full_edge = any(is_full_edge(g, e) for e in range(m))
    has_isolated_edge = any(g.edge_neighbor_mask(e) == 0 for e in range(m))
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

    The sides are the parities of the BFS distances from vertex 0: a
    connected graph is bipartite iff no edge joins two vertices of equal
    parity, and then it is complete bipartite iff m = r * s.
    """
    if g.m == 0:
        return None
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
