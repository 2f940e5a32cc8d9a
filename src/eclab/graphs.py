"""Undirected simple graphs with stable, indexable edges.

Edges are stored in insertion order and addressed everywhere in the
library by their 0-based index; sets of edges are plain ``frozenset``
objects of indices.  A :class:`Graph` stores the edge list and builds
from it, on first use, one bitmask per edge, its closed edge
neighbourhood N[e]; the line graph, the solver, the verifier and the
bounds all read those bits.  A :class:`Graph` is immutable after
construction and each fill always stores the same value, so instances
can be shared freely between threads and reused as keys.

The module also provides the edge-list text format used by the CLI:
a header line ``"n m"`` followed by ``m`` lines ``"u v"``; blank lines
and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DuplicateEdge,
    InvalidSpec,
    OutOfRangeVertex,
    SelfLoop,
    SizeLimitExceeded,
)

DEFAULT_ISO_VERTEX_CAP = 12


def _is_index(x: object, size: float) -> bool:
    """True iff ``x`` is an int, not a bool, with 0 <= x < size."""
    # bool cannot be subclassed, so the type test is the isinstance test.
    return isinstance(x, int) and type(x) is not bool and 0 <= x < size


# Iterables that read as something other than a collection of their members:
# a str as its letters, bytes as byte values, a dict as its keys.
_NOT_COLLECTIONS = (str, bytes, bytearray, dict)


class Graph:
    """Immutable undirected simple graph.

    Vertices are ``0..n-1``.  Edges are unordered pairs, normalized to
    ``(min, max)`` and stored in insertion order, with the sorted adjacency
    of each vertex; ``m`` is the edge count.  The closed edge masks take m²
    bits, so the first :meth:`closed_edge_masks` call builds them from the
    edge list: a graph only stored, written or refused never does.
    """

    __slots__ = ("n", "edges", "_adj", "_closed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if not _is_index(n, float("inf")):
            raise OutOfRangeVertex(f"vertex count must be a nonnegative int, got {n!r}")
        pairs: dict[tuple[int, int], None] = {}  # insertion-ordered edge set
        # Neighbour lists for edge endpoints only: an isolated vertex costs one
        # slot holding the shared empty tuple, so a header that declares
        # millions of vertices stays small.
        adj: defaultdict[int, list[int]] = defaultdict(list)
        if isinstance(edges, _NOT_COLLECTIONS):
            kind = type(edges).__name__
            raise OutOfRangeVertex(f"edges must be an iterable of pairs, got type {kind}")
        try:
            edges = iter(edges)
        except TypeError:
            raise OutOfRangeVertex(f"edges must be an iterable of pairs, got {edges!r}") from None
        for edge in edges:
            if isinstance(edge, _NOT_COLLECTIONS):
                kind = type(edge).__name__
                raise OutOfRangeVertex(f"edge {edge!r} has type {kind}, not a pair of vertices")
            try:
                u, v = edge
            except (TypeError, ValueError):  # not unpackable, or not two items
                raise OutOfRangeVertex(f"edge {edge!r} is not a pair of vertices") from None
            if not (_is_index(u, n) and _is_index(v, n)):
                raise OutOfRangeVertex(f"edge ({u!r}, {v!r}) needs int endpoints in 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in pairs:
                raise DuplicateEdge(f"duplicate edge {pair}")
            pairs[pair] = None
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(pairs)
        rows: list[tuple[int, ...]] = [()] * n
        for v, row in adj.items():
            row.sort()
            rows[v] = tuple(row)
        # Kept as this list, never changed again: a tuple copy would double
        # the peak for a large n.
        self._adj = rows
        self._closed: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_edge_mask(self) -> int:
        """Bitmask with one bit per edge, all set."""
        return (1 << self.m) - 1

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not _is_index(v, self.n):
            raise OutOfRangeVertex(f"vertex {v!r} not in 0..{self.n - 1}")
        return self._adj[v]

    def closed_edge_masks(self) -> tuple[int, ...]:
        """Closed neighborhood masks ``N[e] = N(e) | {e}`` for all edges."""
        if self._closed is None:
            # Bit f of N[e] is set iff f == e or f shares an endpoint with e.
            incident = [0] * self.n  # bit f of incident[v]: edge f ends at v
            for f, (u, v) in enumerate(self.edges):
                incident[u] |= 1 << f
                incident[v] |= 1 << f
            self._closed = tuple(incident[u] | incident[v] for u, v in self.edges)
        return self._closed

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of ``g``, adjacent iff the edges share an endpoint."""
    closed = g.closed_edge_masks()
    edges = [(i, j) for i in range(g.m) for j in range(i + 1, g.m) if closed[i] >> j & 1]
    return Graph(g.m, edges)


@dataclass(frozen=True)
class GraphMetrics:
    """Connectivity class, diameter and longest path of one graph.

    ``diameter`` is ``None`` for a disconnected graph (undefined, not an
    error).  ``longest_path_length`` counts edges; see :func:`longest_path_length`.
    """

    connected: bool
    tree: bool
    unicyclic: bool
    diameter: int | None
    longest_path_length: int


def graph_metrics(g: Graph) -> GraphMetrics:
    """Connectivity class, diameter and longest simple path of ``g``."""
    connected = _is_connected(g)
    return GraphMetrics(
        connected=connected,
        tree=connected and g.m == g.n - 1,
        unicyclic=connected and g.m == g.n and g.n >= 3,
        diameter=max(_eccentricities(g)) if connected and g.n > 0 else None,
        longest_path_length=longest_path_length(g),
    )


def longest_path_length(g: Graph) -> int:
    """Maximum edge count over all simple paths (DFS from every vertex).

    No simple path has more edges than its component has vertices minus
    one, so the search stops as soon as a path reaches that ceiling for the
    largest component, i.e. at the first Hamiltonian path found there.  On
    complete and balanced complete bipartite graphs the first DFS branch
    is one.  A graph without such a path (K5,7, any tree but a path) is
    searched exhaustively, in time exponential in n.  The component orders
    come from one breadth-first search per component, started at each
    vertex no earlier search reached: a single search on a connected graph.
    """
    adj = g._adj
    reached = [False] * g.n
    largest = 1
    for start in range(g.n):
        if not reached[start]:
            reached[start] = True
            component = [start]
            for v in component:  # grows while it is read: breadth-first
                for u in adj[v]:
                    if not reached[u]:
                        reached[u] = True
                        component.append(u)
            largest = max(largest, len(component))
    ceiling = largest - 1
    best = 0

    def dfs(v: int, visited: int, length: int) -> bool:
        """Extend the path ending at ``v``; True once ``best`` hits the ceiling."""
        nonlocal best
        if length > best:
            best = length
            if best == ceiling:
                return True
        for u in adj[v]:
            bit = 1 << u
            if not visited & bit and dfs(u, visited | bit, length + 1):
                return True
        return False

    for start in range(g.n):
        if dfs(start, 1 << start, 0):
            break
    return best


def _is_connected(g: Graph) -> bool:
    return g.n <= 1 or min(_bfs_distances(g, 0)) >= 0


def _bfs_distances(g: Graph, start: int) -> list[int]:
    """Edge distance from ``start`` to every vertex; -1 where unreachable."""
    adj = g._adj
    dist = [-1] * g.n
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _eccentricities(g: Graph) -> list[int]:
    """Greatest BFS distance from each vertex (``g`` must be connected)."""
    return [max(_bfs_distances(g, v)) for v in range(g.n)]


# --- isomorphism ---------------------------------------------------------


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: do the two graphs have the same canonical form?

    Intended for small graphs.  Graphs whose vertex or edge counts differ
    are non-isomorphic at any size; otherwise raises
    :class:`SizeLimitExceeded` when they have more than
    ``DEFAULT_ISO_VERTEX_CAP`` vertices.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if g1.n > DEFAULT_ISO_VERTEX_CAP:
        raise SizeLimitExceeded(
            f"isomorphism test limited to {DEFAULT_ISO_VERTEX_CAP} vertices, "
            f"got {g1.n} and {g2.n}"
        )
    return _canonical_form(g1.n, g1.edges)[0] == _canonical_form(g2.n, g2.edges)[0]


def _canonical_form(
    n: int, edges: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int], set[tuple[int, ...]]]:
    """``((n, least leaf code), automorphisms met on the way)`` of the graph
    on vertices 0..n-1 with the given edges (distinct pairs, no loops).

    The form is equal for two graphs iff they are isomorphic.

    Colour refinement plus individualisation (McKay & Piperno, *Practical
    graph isomorphism II*, 2014):

    * Colours are always ranks: k colour classes hold the colours 0..k-1.
      Refinement recolours every vertex by the rank of its signature
      ``colour << top`` plus ``1 << shift * c`` for each neighbour of colour
      c, with ``shift = n.bit_length()`` and ``top = shift * n``, until the
      colour count stops growing or reaches n.  Colours are below n, so the
      field of colour c, bits shift*c up to shift*(c+1), lies below bit
      top; a vertex has at most n - 1 < 2**shift neighbours of one colour,
      so no field carries into the next.  The signature is therefore the
      own colour above the neighbour-colour counts written as digits in
      base 2**shift, and two signatures are equal iff the own colours and
      the multisets of neighbour colours are: the encoding is injective.
      Ranks order the signatures as ints: by own colour, then by the
      neighbour counts from the highest colour down.  That order is
      computed from colours alone, so ranks depend on colours only, never
      on vertex labels, and only on the colours' order, not their values.
      The form's correctness rests on that alone; injectivity makes each
      round the full colour refinement, which keeps the search tree small.
    * Two rounds are never run, as neither could change a rank.  The round
      from the all-zero colouring gives every vertex its degree's rank, so
      the search starts from the degree ranks, already stable when they
      form one class (a regular graph).  A round on n classes returns its
      input, own colour being the top field, so refinement stops there.
    * While some colour class (cell) has several vertices, take the
      smallest such cell of lowest colour c0 (again a choice on colours
      only) and individualise each of its vertices in turn: it keeps c0,
      the rest of the cell moves to c0 + 1 and every colour above c0 up by
      one, and refinement goes on from there.  That gives the vertex a
      colour just below the rest of its cell, and the result is again a
      rank colouring, of k + 1 classes.  Any other colours in the same
      order would refine to the same ranks, so no leaf depends on this
      numbering; a child of n classes is a leaf as it stands.
    * Once every cell is one vertex, the colours number the vertices
      0..n-1 and the leaf is the relabelled adjacency matrix read as an
      int: bits n*c(u) + c(v) and n*c(v) + c(u) for each edge uv.  Each bit
      belongs to one ordered pair of numbers below n, so equal codes mean
      equal relabelled edge sets.  The form is the least leaf.  Relabelling
      the graph relabels its search tree but leaves every leaf as it is, so
      the form is an invariant; every leaf is a copy of the graph, so equal
      forms mean isomorphic graphs.
    * Twins are branched on once.  If u and v have equal open or equal
      closed neighbourhoods, swapping them is an automorphism that fixes
      the colouring (both lie in the chosen cell), so it maps the subtree
      under u onto the subtree under v with the same leaves.

    Each automorphism is a tuple ``p`` mapping vertex v to ``p[v]``.  Two
    kinds are recorded, and each is one:

    * the transposition (u v) whenever v is skipped as the twin of a vertex
      u already branched on, by the twin argument above;
    * ``v -> best_inv[colors[v]]`` for every leaf ``colors`` whose code
      equals the least leaf so far, where ``best_inv`` inverts the
      labelling that reached that least leaf: both labellings map the graph
      onto the same edge set, so one after the other's inverse maps the
      graph onto itself.

    Together they generate the whole automorphism group.  For an
    automorphism σ and the labelling c of the final least leaf, c∘σ is a
    leaf of the unpruned tree with the same code.  Walk down to it: where
    the walk enters a skipped twin v of u, (u v) fixes every vertex
    individualised so far, so replacing the leaf by its composition with
    (u v) keeps the code and moves the walk into u's subtree.  The walk
    ends at a visited leaf c∘σ∘τ, τ a product of recorded transpositions,
    whose recorded automorphism is σ∘τ (the identity when that leaf is c
    itself).
    """
    nbrs = [0] * n
    for u, v in edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    shift = n.bit_length()
    top = shift * n
    weight = [1 << shift * c for c in range(n)]  # one neighbour of colour c
    best = -1
    best_inv: list[int] = []  # best_inv[c]: the vertex the least leaf numbers c
    automorphisms: set[tuple[int, ...]] = set()

    def search(colors: list[int], k: int) -> None:
        nonlocal best, best_inv
        # Refine to a stable or a discrete colouring.  k is 1 only at the
        # root of a regular graph, whose degree colouring is stable.
        while 1 < k < n:
            sigs = [c << top for c in colors]
            for u, v in edges:
                sigs[u] += weight[colors[v]]
                sigs[v] += weight[colors[u]]
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            colors = [rank[sig] for sig in sigs]
            if len(rank) == k:
                break
            k = len(rank)
        if k == n:  # discrete: the ranks number the vertices
            leaf = 0
            for u, v in edges:
                a, b = colors[u], colors[v]
                leaf |= 1 << n * a + b | 1 << n * b + a
            if best < 0 or leaf < best:
                best = leaf
                best_inv = [0] * n
                for v, c in enumerate(colors):
                    best_inv[c] = v
            elif leaf == best:
                automorphisms.add(tuple(best_inv[c] for c in colors))
            return
        cells: list[list[int]] = [[] for _ in range(k)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        # The smallest open cell of lowest colour: min keeps the first.
        c0 = min((c for c in range(k) if len(cells[c]) > 1), key=lambda c: len(cells[c]))
        cell = cells[c0]
        # The cell moves up to c0 + 1 and every colour above it up by one;
        # each child puts its vertex back at c0.
        shifted = [c + (c >= c0) for c in colors]
        # The open and the closed neighbourhood mask of each vertex branched
        # on, to that vertex; an open mask never equals a closed one: v is
        # not in N(v).
        tried: dict[int, int] = {}
        for v in cell:
            u = tried.get(nbrs[v], tried.get(nbrs[v] | 1 << v))
            if u is None:
                tried[nbrs[v]] = tried[nbrs[v] | 1 << v] = v
                child = shifted.copy()
                child[v] = c0
                search(child, k + 1)
            else:
                swap = list(range(n))
                swap[u], swap[v] = v, u
                automorphisms.add(tuple(swap))

    # One round from the all-zero colouring ranks the degrees.
    degrees = [mask.bit_count() for mask in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    search([rank[d] for d in degrees], len(rank))
    return (n, best), automorphisms


# --- edge-list text format ------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``"n m"`` header, then ``m`` ``"u v"`` lines."""
    rows = [line.strip() for line in text.splitlines()]
    rows = [row for row in rows if row and not row.startswith("#")]
    if not rows:
        raise InvalidSpec("empty edge-list input")
    n, m = _int_pair(rows[0], "header 'n m'")
    if len(rows) - 1 != m:
        raise InvalidSpec(f"header declares {m} edges but {len(rows) - 1} lines follow")
    return Graph(n, [_int_pair(row, "edge line 'u v'") for row in rows[1:]])


def _int_pair(row: str, what: str) -> tuple[int, int]:
    try:
        a, b = map(int, row.split())
    except ValueError:
        raise InvalidSpec(f"expected {what}, got {row!r}") from None
    return a, b


def format_edge_list(g: Graph) -> str:
    """Serialize ``g`` in the edge-list text format (inverse of :func:`parse_edge_list`)."""
    lines = [f"{g.n} {g.m}", *(f"{u} {v}" for u, v in g.edges)]
    return "\n".join(lines) + "\n"
