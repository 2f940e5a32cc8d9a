"""Independent brute-force ground truth and small-graph corpora.

The brute-force coalition number below deliberately shares no code with
the optimized solver or the domination module: adjacency is rebuilt from
the raw vertex pairs, domination is a direct scan of the definition, and
set partitions are tried order by order from m down, so every partition
with more blocks than the answer is checked against the definition and
nothing is pruned by graph structure.  A bug in the fast path therefore
cannot hide behind a shared helper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


def _edge_neighbor_sets(g: Graph) -> list[set[int]]:
    """Edge adjacency rebuilt from the raw vertex pairs (oracle's own route)."""
    m = g.m
    edges = g.edges
    neighbors: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        ui, vi = edges[i]
        for j in range(i + 1, m):
            uj, vj = edges[j]
            if ui in (uj, vj) or vi in (uj, vj):
                neighbors[i].add(j)
                neighbors[j].add(i)
    return neighbors


def _make_dominating_check(g: Graph):
    neighbors = _edge_neighbor_sets(g)
    m = g.m
    cache: dict[frozenset[int], bool] = {}

    def dominating(members: frozenset[int]) -> bool:
        cached = cache.get(members)
        if cached is not None:
            return cached
        answer = True
        for e in range(m):
            if e not in members and not neighbors[e] & members:
                answer = False
                break
        cache[members] = answer
        return answer

    return dominating


def _blocks_satisfy_definition(blocks: list[frozenset[int]], dominating) -> bool:
    for i, block in enumerate(blocks):
        if dominating(block):
            if len(block) != 1:
                return False
            continue
        for j, other in enumerate(blocks):
            if j != i and not dominating(other) and dominating(block | other):
                break
        else:
            return False
    return True


def accepts_partition(g: Graph, blocks) -> bool:
    """Definition-level validity of an edge partition, independent of the
    solver's verifier (used for double-entry bookkeeping in tests)."""
    normalized = [frozenset(b) for b in blocks]
    return _blocks_satisfy_definition(normalized, _make_dominating_check(g))


def brute_force_ec(g: Graph) -> int:
    """Maximum order over all set partitions of E that satisfy the block
    conditions, checked straight from the definitions.

    Orders are tried from m down and the first one with a satisfying
    partition is returned, so that order is the maximum.  Every partition
    with more blocks than the answer is checked; none is skipped by graph
    structure.
    """
    m = g.m
    if not 1 <= m <= ORACLE_EDGE_CAP:
        raise TooManyEdges(f"oracle accepts 1 <= m <= {ORACLE_EDGE_CAP}, got m={m}")
    dominating = _make_dominating_check(g)

    for k in range(m, 0, -1):
        for blocks in _set_partitions(m, k):
            if _blocks_satisfy_definition([frozenset(b) for b in blocks], dominating):
                return k
    return 0


def _set_partitions(m: int, k: int) -> Iterator[list[list[int]]]:
    """Each partition of range(m) into exactly k blocks, once, for
    1 <= k <= m (S(m, k) of them; Knuth, TAOCP 4A, 7.2.1.5).

    Edges are placed in increasing order and blocks are kept in order of
    their least edge.  Edge e joins an open block only while the edges
    after it can still open the missing blocks, and opens a new block only
    while fewer than k are open, so every leaf has exactly k blocks.
    Yields the internal buffer; consume each value before advancing.
    """
    blocks: list[list[int]] = []

    def rec(e: int) -> Iterator[list[list[int]]]:
        if e == m:
            yield blocks
            return
        if len(blocks) + (m - e) > k:
            for block in blocks:
                block.append(e)
                yield from rec(e + 1)
                block.pop()
        if len(blocks) < k:
            blocks.append([e])
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


@lru_cache(maxsize=None)
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
    first, _, neighbor_masks = _CLASSES[cls]
    if n < first:
        return ()
    if n == 1:
        return (Graph(1),)
    return _dedup(_augmentations(cls, n, neighbor_masks(n)))


def _augmentations(cls: str, n: int, masks: Sequence[int]) -> Iterator[Graph]:
    """Each parent of order n-1 joined to one neighbour set per orbit of its
    automorphisms, the orbit's first set in ``masks`` order."""
    if cls == "unicyclic":
        yield Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    for g in graphs_of_order(cls, n - 1):
        # Bit images under each automorphism the canonical search met; they
        # generate the parent's whole group, so a set is seen iff it lies in
        # the orbit of a set already yielded.
        images = [[1 << p[v] for v in range(n - 1)] for p in _canonical_form(g)[1]]
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
            yield Graph(n, list(g.edges) + [(v, n - 1) for v in range(n - 1) if mask >> v & 1])


def _dedup(candidates: Iterable[Graph]) -> tuple[Graph, ...]:
    """The first candidate of each isomorphism class, in candidate order."""
    kept: dict[tuple, Graph] = {}
    for g in candidates:
        kept.setdefault(_canonical_form(g)[0], g)
    return tuple(kept.values())
