"""Independent brute-force ground truth and small-graph corpora.

The brute-force coalition number below deliberately shares no code with
the optimized solver or the domination module: adjacency is rebuilt from
the raw vertex pairs into one int bit mask per edge, domination is a direct
scan of the definition whose verdict is kept per graph keyed by the edge
set's mask, and set partitions are tried order by order from m down, so
every partition with more blocks than the answer is checked against the
definition and nothing is pruned by graph structure.  A bug in the fast
path therefore cannot hide behind a shared helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import BudgetExceeded, InvalidSpec, TooManyEdges
from .graphs import Graph, _canonical_form, _is_index, format_edge_list

ORACLE_EDGE_CAP = 10

#: Per corpus class: (smallest order enumerated, largest order allowed, the
#: neighbour sets of a new vertex n-1 as bit masks over the old vertices).
_CLASSES = {
    "all": (1, 9, lambda n: range(1 << (n - 1))),
    "connected": (1, 9, lambda n: range(1, 1 << (n - 1))),
    "trees": (1, 13, lambda n: [1 << v for v in range(n - 1)]),
    "unicyclic": (3, 10, lambda n: [1 << v for v in range(n - 1)]),
}


def _edge_neighbor_masks(g: Graph) -> list[int]:
    """Open edge neighbourhoods as bit masks (bit j of entry i: edges i and j
    share an endpoint), rebuilt from the raw vertex pairs (oracle's own route)."""
    m = g.m
    edges = g.edges
    neighbors = [0] * m
    for i in range(m):
        ui, vi = edges[i]
        for j in range(i + 1, m):
            uj, vj = edges[j]
            if ui in (uj, vj) or vi in (uj, vj):
                neighbors[i] |= 1 << j
                neighbors[j] |= 1 << i
    return neighbors


class _Verdicts(dict):
    """Edge-set mask -> whether that set dominates, scanned from the
    definition on first ask and kept: every edge is in the set or has a
    neighbour in it.  A dict subclass so that a hit is a bare lookup with
    no Python-level call."""

    def __init__(self, neighbors: list[int]) -> None:
        self.neighbors = neighbors

    def __missing__(self, mask: int) -> bool:
        answer = True
        for e, around in enumerate(self.neighbors):
            if not (mask >> e & 1 or around & mask):
                answer = False
                break
        self[mask] = answer
        return answer


def _make_dominating_check(g: Graph) -> Callable[[int], bool]:
    """``dominating(mask)`` for edge sets of ``g``, one verdict cache per graph."""
    return _Verdicts(_edge_neighbor_masks(g)).__getitem__


def _blocks_satisfy_definition(blocks: list[int], dominating) -> bool:
    """The block conditions on a partition given as block masks: a dominating
    block is a single edge, and every other block has a non-dominating
    partner whose union with it dominates.  Each block's own verdict is
    asked once."""
    lone = []
    for block in blocks:
        if dominating(block):
            if block & (block - 1):
                return False
        else:
            lone.append(block)
    for block in lone:
        # Trying the block as its own partner is harmless: block | block is
        # the block itself, which does not dominate.
        for other in lone:
            if dominating(block | other):
                break
        else:
            return False
    return True


def accepts_partition(g: Graph, blocks) -> bool:
    """Definition-level validity of an edge partition, independent of the
    solver's verifier (used for double-entry bookkeeping in tests).

    False unless every block is a nonempty collection of edge indices of
    ``g``, no two blocks share an edge and the blocks cover every edge.
    """
    m = g.m
    masks = []
    covered = 0
    for block in blocks:
        mask = 0
        for e in block:
            if not _is_index(e, m):
                return False
            mask |= 1 << e
        if not mask or mask & covered:
            return False
        covered |= mask
        masks.append(mask)
    # A graph with no edges has no edge partitions.
    if not masks or covered != (1 << m) - 1:
        return False
    return _blocks_satisfy_definition(masks, _make_dominating_check(g))


def brute_force_ec(g: Graph) -> int:
    """Maximum order over all set partitions of E that satisfy the block
    conditions, checked straight from the definitions.

    Orders are tried from m down and the first one with a satisfying
    partition is returned, so that order is the maximum.  Every partition
    with more blocks than the answer is checked; none is skipped by graph
    structure.  Blocks are int masks over the edge indices, and a graph's
    domination verdicts are cached by mask, never tabulated over all 2^m
    edge sets.
    """
    m = g.m
    if not 1 <= m <= ORACLE_EDGE_CAP:
        raise TooManyEdges(f"oracle accepts 1 <= m <= {ORACLE_EDGE_CAP}, got m={m}")
    dominating = _make_dominating_check(g)

    for k in range(m, 0, -1):
        for blocks in _set_partitions(m, k):
            if _blocks_satisfy_definition(blocks, dominating):
                return k
    return 0


def _set_partitions(m: int, k: int) -> Iterator[list[int]]:
    """Each partition of range(m) into exactly k blocks, once, as a list of
    block bit masks, for 1 <= k <= m (S(m, k) of them; Knuth, TAOCP 4A,
    7.2.1.5), in lexicographic order of restricted-growth strings.

    Edges are placed in increasing order and blocks are kept in order of
    their least edge.  Edge e joins an open block only while the edges
    after it can still open the missing blocks, and opens a new block only
    while fewer than k are open, so every leaf has exactly k blocks.
    Yields the internal buffer; consume each value before advancing.
    """
    blocks: list[int] = []

    def rec(e: int) -> Iterator[list[int]]:
        if e == m:
            yield blocks
            return
        bit = 1 << e
        if len(blocks) + (m - e) > k:
            for i in range(len(blocks)):
                blocks[i] |= bit
                yield from rec(e + 1)
                blocks[i] ^= bit
        if len(blocks) < k:
            blocks.append(bit)
            yield from rec(e + 1)
            blocks.pop()

    yield from rec(0)


# --- corpus enumeration ------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """Which isomorphism-class corpora to enumerate, and up to what order."""

    max_vertices: int
    classes: tuple[str, ...] = ("connected",)

    def __post_init__(self) -> None:
        if not _is_index(self.max_vertices, float("inf")):
            raise InvalidSpec(f"max_vertices must be a nonnegative int, got {self.max_vertices!r}")
        # Not a bare str, read as its letters, nor a list, which is unhashable.
        if not (isinstance(self.classes, tuple) and all(isinstance(c, str) for c in self.classes)):
            raise InvalidSpec(f"classes must be a tuple of str, got {self.classes!r}")
        for cls in self.classes:
            if cls not in _CLASSES:
                raise InvalidSpec(f"unknown corpus class {cls!r}")
            if self.classes.count(cls) > 1:
                # A second pass would overwrite the first one's exported files.
                raise InvalidSpec(f"corpus class {cls!r} is listed more than once")
            cap = _CLASSES[cls][1]
            if self.max_vertices > cap:
                raise BudgetExceeded(
                    f"class {cls!r} is capped at {cap} vertices, got {self.max_vertices}"
                )


def _orders(spec: CorpusSpec) -> Iterator[tuple[str, int]]:
    for cls in spec.classes:
        for n in range(_CLASSES[cls][0], spec.max_vertices + 1):
            yield cls, n


def enumerate_corpus(spec: CorpusSpec) -> Iterator[Graph]:
    """All graphs of the requested classes up to ``max_vertices``, one
    representative per isomorphism class, in a deterministic order."""
    for cls, n in _orders(spec):
        yield from graphs_of_order(cls, n)


def export_corpus(spec: CorpusSpec, directory: str | Path) -> list[Path]:
    """Write one edge-list file per corpus graph, named <class>_<n>_<index>.el."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for cls, n in _orders(spec):
        for index, g in enumerate(graphs_of_order(cls, n)):
            path = directory / f"{cls}_{n}_{index}.el"
            path.write_text(format_edge_list(g))
            written.append(path)
    return written


def graphs_of_order(cls: str, n: int) -> tuple[Graph, ...]:
    """Isomorphism-class representatives of the given class and order.

    One rule builds every class: the order n-1 corpus with a new vertex
    n-1 joined to each neighbour set the class admits (the bare cycle C_n
    comes first for the unicyclic class), streamed into the dedup, which
    keeps the first candidate of each isomorphism class.

    A parent's neighbour set is skipped when an automorphism of the parent
    maps it onto an earlier one (canonical augmentation in the spirit of
    McKay, *Isomorph-free exhaustive generation*, J. Algorithms 26, 1998).
    That leaves every representative and their order unchanged: if σ is an
    automorphism of the parent g with σ(S) = T, then σ extended by n-1 ->
    n-1 maps g + S onto g + T, so the child of the skipped set T is
    isomorphic to the earlier child of S.  The dedup meets that class first
    at S or before and keeps that candidate, never the one from T.
    """
    CorpusSpec(n, (cls,))  # refuses an unknown class or an order over its cap
    return _kept(cls, n)[0]


#: An order's representatives and, for each, the automorphisms (tuples p
#: mapping vertex v to p[v]) that its canonical search met in :func:`_dedup`.
_Kept = tuple[tuple[Graph, ...], tuple[tuple[tuple[int, ...], ...], ...]]


@lru_cache(maxsize=None)
def _kept(cls: str, n: int) -> _Kept:
    """The representatives of :func:`graphs_of_order` with their
    automorphisms, which :func:`_augmentations` reads when they are parents,
    so no parent needs a second canonical search."""
    first, _, neighbor_masks = _CLASSES[cls]
    if n < first:
        return (), ()
    if n == 1:
        return _dedup([(1, [])])
    return _dedup(_augmentations(cls, n, neighbor_masks(n)))


def _augmentations(
    cls: str, n: int, masks: Sequence[int]
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Each parent of order n-1 joined to one neighbour set per orbit of its
    automorphisms, the orbit's first set in ``masks`` order, as ``(n, edges)``
    with every edge a normalised pair."""
    if cls == "unicyclic":
        yield n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    for g, automorphisms in zip(*_kept(cls, n - 1)):
        # Bit images under each automorphism the canonical search met; they
        # generate the parent's whole group, so a set is seen iff it lies in
        # the orbit of a set already yielded.
        images = [[1 << p[v] for v in range(n - 1)] for p in automorphisms]
        seen: set[int] = set()
        for mask in masks:
            if mask in seen:
                continue
            seen.add(mask)
            orbit = [mask]
            for x in orbit:  # breadth-first closure under the generators
                for bits in images:
                    y = sum(bit for v, bit in enumerate(bits) if x >> v & 1)
                    if y not in seen:
                        seen.add(y)
                        orbit.append(y)
            yield n, list(g.edges) + [(v, n - 1) for v in range(n - 1) if mask >> v & 1]


def _dedup(candidates: Iterable[tuple[int, list[tuple[int, int]]]]) -> _Kept:
    """The first candidate of each isomorphism class, in candidate order, as
    a :class:`Graph`, and the automorphisms its canonical search met; a
    candidate of a class already kept is never built.  Equal automorphisms
    of different graphs are kept as one tuple: connected order 8 meets
    14,723 on its 11,117 graphs, 591 of them distinct."""
    kept: dict[tuple[int, int], tuple[Graph, tuple[tuple[int, ...], ...]]] = {}
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for n, edges in candidates:
        form, automorphisms = _canonical_form(n, edges)
        if form not in kept:
            kept[form] = (Graph(n, edges), tuple(shared.setdefault(p, p) for p in automorphisms))
    return tuple(g for g, _ in kept.values()), tuple(a for _, a in kept.values())
