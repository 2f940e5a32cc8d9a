"""Undirected simple graphs with stable, indexable edges.

Edges are stored in insertion order and addressed everywhere in the
library by their 0-based index; sets of edges are plain ``frozenset``
objects of indices.  A :class:`Graph` stores one bitmask per edge, its
closed edge neighbourhood N[e], built once at construction; every other
edge relation (open neighbourhoods, the line graph) is read from those
bits.  A :class:`Graph` is immutable after construction, so instances can
be shared freely between threads and reused as dictionary keys.

The module also provides the edge-list text format used by the CLI:
a header line ``"n m"`` followed by ``m`` lines ``"u v"``; blank lines
and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateEdge,
    EdgeIndexOutOfRange,
    OutOfRangeVertex,
    SelfLoop,
    SizeLimitExceeded,
)

DEFAULT_ISO_VERTEX_CAP = 12


class Graph:
    """Immutable undirected simple graph.

    Vertices are ``0..n-1``.  Edges are unordered pairs, normalized to
    ``(min, max)`` and kept in insertion order; ``m`` is the edge count.
    """

    __slots__ = ("n", "edges", "_adj", "_closed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise OutOfRangeVertex(f"vertex count must be nonnegative, got {n}")
        normalized: list[tuple[int, int]] = []
        adj: list[list[int]] = [[] for _ in range(n)]
        # incident[v] has bit e set iff edge e ends at v.
        incident = [0] * n
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise OutOfRangeVertex(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if incident[u] & incident[v]:  # only the edge uv can end at both
                raise DuplicateEdge(f"duplicate edge {pair}")
            bit = 1 << len(normalized)
            incident[u] |= bit
            incident[v] |= bit
            adj[u].append(v)
            adj[v].append(u)
            normalized.append(pair)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(normalized)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        # Closed edge neighbourhoods N[e]: bit f set iff f == e or f shares
        # an endpoint with e.
        self._closed = tuple(incident[u] | incident[v] for u, v in normalized)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_edge_mask(self) -> int:
        """Bitmask with one bit per edge, all set."""
        return (1 << self.m) - 1

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def edge_neighbor_mask(self, e: int) -> int:
        """Open neighborhood of edge ``e`` as a bitmask (``e`` excluded)."""
        self._check_edge(e)
        return self._closed[e] ^ 1 << e

    def closed_edge_masks(self) -> tuple[int, ...]:
        """Closed neighborhood masks ``N[e] = N(e) | {e}`` for all edges."""
        return self._closed

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.m:
            raise EdgeIndexOutOfRange(f"edge index {e} not in 0..{self.m - 1}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_edge_list(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on ``n`` vertices from vertex pairs, indexed in input order."""
    return Graph(n, pairs)


@dataclass(frozen=True)
class EdgeNeighborhood:
    """Open neighborhood of one edge: every other edge sharing an endpoint."""

    center: int
    neighbors: frozenset[int]

    @property
    def degree(self) -> int:
        """Edge degree of the center: the number of its neighbors."""
        return len(self.neighbors)


def edge_neighborhood(g: Graph, e: int) -> EdgeNeighborhood:
    """Neighborhood of edge ``e`` in ``g``."""
    mask = g.edge_neighbor_mask(e)
    return EdgeNeighborhood(e, frozenset(f for f in range(g.m) if mask >> f & 1))


def is_full_edge(g: Graph, e: int) -> bool:
    """True iff edge ``e`` is adjacent to every other edge (edge degree m-1)."""
    return g.edge_neighbor_mask(e).bit_count() == g.m - 1


def line_graph(g: Graph) -> Graph:
    """Line graph: one vertex per edge of ``g``, adjacent iff the edges share an endpoint."""
    closed = g.closed_edge_masks()
    edges = [(i, j) for i in range(g.m) for j in range(i + 1, g.m) if closed[i] >> j & 1]
    return Graph(g.m, edges)


@dataclass(frozen=True)
class GraphMetrics:
    """Basic structural facts about one graph.

    ``diameter`` is ``None`` for disconnected graphs (undefined, not an
    error).  ``longest_path_length`` counts edges.  Its DFS stops at the
    first path through every vertex of the largest component, and is
    exhaustive, so exponential in n, on graphs without such a path (see
    :func:`longest_path_length`).
    """

    min_degree: int
    max_degree: int
    connected: bool
    tree: bool
    unicyclic: bool
    diameter: int | None
    longest_path_length: int


def graph_metrics(g: Graph) -> GraphMetrics:
    """Degrees, connectivity class, diameter and longest simple path of ``g``."""
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    min_deg = min(degrees) if degrees else 0
    max_deg = max(degrees) if degrees else 0
    connected = _is_connected(g)
    tree = connected and g.m == n - 1
    unicyclic = connected and g.m == n and n >= 3
    diameter = max(_eccentricities(g)) if connected and n > 0 else None
    return GraphMetrics(
        min_degree=min_deg,
        max_degree=max_deg,
        connected=connected,
        tree=tree,
        unicyclic=unicyclic,
        diameter=diameter,
        longest_path_length=longest_path_length(g),
    )


def longest_path_length(g: Graph) -> int:
    """Maximum edge count over all simple paths (DFS from every vertex).

    No simple path has more edges than its component has vertices minus
    one, so the search stops as soon as a path reaches that ceiling for the
    largest component, i.e. at the first Hamiltonian path found there.  On
    complete and balanced complete bipartite graphs the first DFS branch
    is one.  A graph without such a path (K5,7, any tree but a path) is
    searched exhaustively, in time exponential in n.
    """
    orders = (sum(d >= 0 for d in _bfs_distances(g, v)) for v in range(g.n))
    ceiling = max(orders, default=1) - 1
    best = 0
    adj = g._adj

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
    dist = [-1] * g.n
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
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
    return _canonical_form(g1) == _canonical_form(g2)


def _canonical_form(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(n, sorted relabelled edges)``: equal for two graphs iff they are isomorphic.

    Colour refinement plus individualisation (McKay & Piperno, *Practical
    graph isomorphism II*, 2014):

    * Refinement recolours every vertex by the rank of its signature (own
      colour, sorted neighbour colours) until the colour count stops
      growing.  Ranks depend on colours only, never on vertex labels.
    * While some colour class (cell) has several vertices, take the
      smallest such cell of lowest colour (again a choice on colours only),
      give each of its vertices in turn a colour just below the rest of
      the cell, and refine again.
    * Once every cell is one vertex, the colours number the vertices
      0..n-1 and the relabelled edge list is a leaf.  The form is the least
      leaf.  Relabelling ``g`` relabels its search tree but leaves every
      leaf as it is, so the form is an invariant; every leaf is a copy of
      ``g``, so equal forms mean isomorphic graphs.
    * Twins are branched on once.  If u and v have equal open or equal
      closed neighbourhoods, swapping them is an automorphism of ``g`` that
      fixes the colouring (both lie in the chosen cell), so it maps the
      subtree under u onto the subtree under v with the same leaves.
    """
    n, adj = g.n, g._adj
    nbrs = [sum(1 << u for u in adj[v]) for v in range(n)]
    best = None

    def search(colors: list[int]) -> None:
        nonlocal best
        while True:  # refine to a stable colouring
            sigs = [(colors[v], tuple(sorted(colors[u] for u in adj[v]))) for v in range(n)]
            rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
            stable = len(rank) == len(set(colors))
            colors = [rank[sig] for sig in sigs]
            if stable:
                break
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(colors[v], []).append(v)
        open_cells = [cell for cell in cells.values() if len(cell) > 1]
        if not open_cells:
            leaf = tuple(sorted(tuple(sorted((colors[u], colors[v]))) for u, v in g.edges))
            best = leaf if best is None else min(best, leaf)
            return
        cell = min(open_cells, key=lambda c: (len(c), colors[c[0]]))
        tried: set[int] = set()  # an open mask never equals a closed one: v is not in N(v)
        for v in cell:
            twins = (nbrs[v], nbrs[v] | 1 << v)
            if tried.isdisjoint(twins):
                tried.update(twins)
                search([2 * c + (w != v) for w, c in enumerate(colors)])

    search([0] * n)
    return n, best


# --- edge-list text format ------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``"n m"`` header, then ``m`` ``"u v"`` lines."""
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append(stripped)
    if not rows:
        raise ValueError("empty edge-list input")
    header = rows[0].split()
    if len(header) != 2:
        raise ValueError(f"expected header 'n m', got {rows[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(rows) - 1} lines follow")
    pairs = []
    for row in rows[1:]:
        parts = row.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {row!r}")
        pairs.append((int(parts[0]), int(parts[1])))
    return Graph(n, pairs)


def format_edge_list(g: Graph) -> str:
    """Serialize ``g`` in the edge-list text format (inverse of :func:`parse_edge_list`)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
