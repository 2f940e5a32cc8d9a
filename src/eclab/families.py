"""Named graph families, closed-form coalition numbers, and recognizers.

Each family kind is one row of ``_KINDS``: its short CLI name, its
parameter rule, its canonical graph, its edge count and its closed-form
coalition number.  Family generators use a canonical layout so edge indices
are reproducible: vertices are numbered as documented at ``_KINDS`` and the
edge list is sorted lexicographically by endpoint pair.  Family specs are
also expressible as CLI strings: ``path:6``, ``cycle:7``, ``star:5``,
``dstar:3,2``, ``complete:4``, ``kbip:2,4``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable

from .errors import InvalidSpec, NotATree, NotUnicyclic
from .graphs import Graph, _eccentricities, _is_connected, are_isomorphic


def _path_ec(n: int) -> int:
    if n <= 5:
        return n - 1
    if n == 6:
        return 4
    if n <= 10:
        return 5
    return 6


def _cycle_ec(n: int) -> int:
    if n <= 6:
        return n
    if n == 7:
        return 5
    return 6


def _complete_bipartite_ec(r: int, s: int) -> int | None:
    # K_{1,s} is the star with s leaves.  K_{2,s} with s >= 2 and parts
    # {a, b} and X has EC = 2s = m: the singleton partition is an
    # ec-partition, since edge ax partners edge bx (their closed
    # neighbourhoods hold every edge at a and at b, so all of them) and
    # neither dominates (ax misses by for every other y in X, and bx misses
    # ay).  For r, s >= 3 only lower bounds are known.
    r, s = sorted((r, s))
    if r == 1:
        return s
    if r == 2:
        return 2 * s
    return None


@dataclass(frozen=True)
class _Kind:
    """One family kind; each function takes the spec's parameters, unpacked."""

    short: str  # the CLI name
    arity: int
    valid: Callable[..., bool]
    edge_count: Callable[..., int]  # read from the parameters, before any graph is built
    closed_form_ec: Callable[..., int | None]
    graph: Callable[..., tuple[int, list[tuple[int, int]]]]  # n and the (min, max) pairs


#: Every family kind; ``FamilySpec.parse`` accepts the kind or its short
#: name, in any case.  Vertex layout: paths and cycles sequential; star
#: center 0; double-star centers 0 (a leaves) and 1 (b leaves), joined;
#: complete-bipartite parts ``0..r-1`` and ``r..r+s-1``.
_KINDS = {
    "path": _Kind("path", 1, lambda n: n >= 2, lambda n: n - 1, _path_ec,
                  lambda n: (n, [(i, i + 1) for i in range(n - 1)])),
    "cycle": _Kind("cycle", 1, lambda n: n >= 3, lambda n: n, _cycle_ec,
                   lambda n: (n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])),
    "star": _Kind("star", 1, lambda s: s >= 1, lambda s: s, lambda s: s,
                  lambda s: (s + 1, [(0, i) for i in range(1, s + 1)])),
    "double_star": _Kind("dstar", 2, lambda a, b: a >= b >= 0, lambda a, b: a + b + 1,
                         lambda a, b: a + b + 1,
                         lambda a, b: (a + b + 2, [(0, 1)] + [(0, 2 + i) for i in range(a)]
                                       + [(1, 2 + a + i) for i in range(b)])),
    "complete": _Kind("complete", 1, lambda n: n >= 2, lambda n: n * (n - 1) // 2,
                      lambda n: n * (n - 1) // 2 if n <= 5 else None,
                      lambda n: (n, list(combinations(range(n), 2)))),
    "complete_bipartite": _Kind("kbip", 2, lambda r, s: r >= 1 and s >= 1, lambda r, s: r * s,
                                _complete_bipartite_ec,
                                lambda r, s: (r + s, [(a, b) for a in range(r)
                                                      for b in range(r, r + s)])),
}


@dataclass(frozen=True)
class FamilySpec:
    """A parameterized family member, e.g. ``FamilySpec("path", (6,))``."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        # A list or dict kind would make the membership test a bare TypeError.
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise InvalidSpec(f"unknown family kind {self.kind!r}")
        p = self.params
        if not isinstance(p, tuple) or any(isinstance(x, bool) or not isinstance(x, int) for x in p):
            raise InvalidSpec(f"family parameters must be a tuple of integers, got {p!r}")
        row = _KINDS[self.kind]
        if len(p) != row.arity or not row.valid(*p):
            raise InvalidSpec(f"invalid parameters {p} for family {self.kind!r}")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        """Parse a CLI spec string such as ``"dstar:3,2"``."""
        name, sep, rest = text.partition(":")
        kind = next((k for k, row in _KINDS.items() if name.lower() in (k, row.short)), None)
        if not sep or kind is None:
            raise InvalidSpec(f"cannot parse family spec {text!r}")
        try:
            params = tuple(int(part) for part in rest.split(","))
        except ValueError as exc:
            raise InvalidSpec(f"cannot parse family spec {text!r}") from exc
        return cls(kind, params)

    def to_string(self) -> str:
        return f"{_KINDS[self.kind].short}:" + ",".join(str(p) for p in self.params)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical member of a family, in the vertex layout of
    ``_KINDS``.  Sorting the ``(min, max)`` pairs indexes the edges in
    lexicographic order."""
    n, pairs = _KINDS[spec.kind].graph(*spec.params)
    return Graph(n, sorted(pairs))


def _edge_count(spec: FamilySpec) -> int:
    """``generate(spec).m``, read from the parameters without building the graph."""
    return _KINDS[spec.kind].edge_count(*spec.params)


def path_graph(n: int) -> Graph:
    return generate(FamilySpec("path", (n,)))


def cycle_graph(n: int) -> Graph:
    return generate(FamilySpec("cycle", (n,)))


def star_graph(leaves: int) -> Graph:
    return generate(FamilySpec("star", (leaves,)))


def double_star(p: int, q: int) -> Graph:
    return generate(FamilySpec("double_star", (p, q)))


def complete_graph(n: int) -> Graph:
    return generate(FamilySpec("complete", (n,)))


def complete_bipartite(r: int, s: int) -> Graph:
    return generate(FamilySpec("complete_bipartite", (r, s)))


# Small named graphs used by the characterization checks.


def two_disjoint_edges() -> Graph:
    """2K2 (equivalently the complement of C4)."""
    return Graph(4, [(0, 1), (2, 3)])


def net_graph() -> Graph:
    """Triangle with one pendant leaf at each vertex."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])


def diamond_graph() -> Graph:
    """K4 minus one edge."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def bowtie_graph() -> Graph:
    """Two triangles sharing one vertex."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


#: Graphs beyond trees/unicyclic spot-checked to have coalition number m.
SINGLETON_EC_SPOT_CHECKS: dict[str, Graph] = {
    "diamond": diamond_graph(),
    "k4": complete_graph(4),
    "bowtie": bowtie_graph(),
}


def closed_form_ec(spec: FamilySpec) -> int | None:
    """Known exact coalition number for a family member, or None if no
    closed form is covered (e.g. complete graphs beyond order 5)."""
    return _KINDS[spec.kind].closed_form_ec(*spec.params)


# --- recognizers ------------------------------------------------------------


def phi_recognizer(t: Graph) -> bool:
    """Trees whose coalition number equals their size.

    True exactly for trees of diameter at most 3, and diameter-4 trees in
    which the middle vertex of every longest path has degree 2.

    At diameter 4 that middle vertex is always the center, the single
    vertex of eccentricity 2, so the rule reads "the center has degree 2".
    Proof: let v0..v4 be a longest path and let x meet it first at vi.
    Then d(x, vi) <= min(i, 4 - i), or x would end a longer path, so
    d(x, v2) <= min(i, 4 - i) + |i - 2| = 2 and v2 has eccentricity 2.
    Any u with eccentricity 2 has d(u, v0) + d(u, v4) <= 4 = d(v0, v4),
    so u lies on the path at distance 2 from both ends: u = v2.  Hence
    one eccentricity pass gives both the diameter and the center.
    """
    if t.m < 1 or t.m != t.n - 1 or not _is_connected(t):
        raise NotATree(f"expected a tree with at least one edge, got {t!r}")
    eccentricity = _eccentricities(t)
    diameter = max(eccentricity)
    if diameter <= 3:
        return True
    if diameter != 4:
        return False
    return t.degree(eccentricity.index(2)) == 2


def _cycle_vertices(g: Graph) -> list[int]:
    """Vertices on the unique cycle of a unicyclic graph (peel leaves)."""
    adj = g._adj
    degree = [len(row) for row in adj]
    alive = [True] * g.n
    pending = [v for v in range(g.n) if degree[v] == 1]
    while pending:
        v = pending.pop()
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    pending.append(u)
    return [v for v in range(g.n) if alive[v]]


def theta_recognizer(g: Graph) -> bool:
    """Unicyclic graphs whose coalition number equals their size.

    Accepted shapes (calibrated against the exhaustive operational check on
    all unicyclic graphs up to 8 vertices):

    * bare cycles C3..C6;
    * C3 with pendant leaves at any of its vertices;
    * C3 with exactly one depth-two tail: one cycle vertex has a single
      non-cycle neighbor w, every other neighbor of w is a leaf, and nothing
      else is attached anywhere;
    * C4 with pendant leaves at one or two of its vertices;
    * C5 with pendant leaves at exactly one vertex.
    """
    if g.m != g.n or g.n < 3 or not _is_connected(g):
        raise NotUnicyclic(f"expected a connected graph with m = n >= 3, got {g!r}")
    cycle = set(_cycle_vertices(g))
    cycle_len = len(cycle)
    outside = [v for v in range(g.n) if v not in cycle]
    if not outside:
        return 3 <= cycle_len <= 6

    adj = g._adj
    attach_points = {c for c in cycle if any(u not in cycle for u in adj[c])}
    if all(len(adj[v]) == 1 and any(u in cycle for u in adj[v]) for v in outside):
        # Only pendant leaves hang off the cycle.
        return {3: True, 4: len(attach_points) in (1, 2), 5: len(attach_points) == 1}.get(
            cycle_len, False
        )
    if cycle_len != 3:
        return False
    # One depth-two tail: a single inner vertex w adjacent to exactly one
    # cycle vertex, all of w's other neighbors leaves, nothing else.
    inner = [v for v in outside if len(adj[v]) > 1]
    if len(inner) != 1 or len(attach_points) != 1:
        return False
    # With w = inner[0], the {w} test also makes w adjacent to the one
    # attachment point, and every other neighbour of w is then an outside
    # vertex other than w, so a leaf.
    attach = next(iter(attach_points))
    return set(adj[attach]) - cycle == {inner[0]}


class SmallEcClass(enum.Enum):
    """Classification of graphs by very small coalition numbers."""

    EC1 = 1
    EC2 = 2
    EC3 = 3
    OTHER = 0


def small_ec_classifier(g: Graph) -> SmallEcClass:
    """Isomorphism-based classifier for EC in {1, 2, 3}.

    EC1: K2.  EC2: P3 or 2K2.  EC3 (connected graphs): C3, P4 or K_{1,3}.
    Everything else maps to OTHER.  Deliberately independent of the solver
    so the two can cross-check each other.
    """
    for cls, target in _small_ec_targets():
        if are_isomorphic(g, target):
            return cls
    return SmallEcClass.OTHER


@lru_cache(maxsize=None)
def _small_ec_targets() -> tuple[tuple[SmallEcClass, Graph], ...]:
    # Built on first use, since an import-time allocation shifts the GC phase.
    ec1, ec2, ec3 = SmallEcClass.EC1, SmallEcClass.EC2, SmallEcClass.EC3
    return ((ec1, complete_graph(2)), (ec2, path_graph(3)), (ec2, two_disjoint_edges()),
            (ec3, cycle_graph(3)), (ec3, path_graph(4)), (ec3, star_graph(3)))


# --- built-in partitions of K_{2,4} -----------------------------------------

# Edge indices of complete_bipartite(2, 4) in generation order: edges 0..3
# join vertex 0 to 2,3,4,5 and edges 4..7 join vertex 1 to 2,3,4,5.
K24_PARTITION_PRESETS: dict[str, tuple[frozenset[int], ...]] = {
    "pi1": tuple(frozenset((e,)) for e in range(8)),
    "pi2": (frozenset({0, 1}),) + tuple(frozenset((e,)) for e in range(2, 8)),
    "pi3": (frozenset({0, 1, 2}),) + tuple(frozenset((e,)) for e in range(3, 8)),
    "pi4": (
        frozenset({0, 1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4, 5}),
        frozenset({6}),
        frozenset({7}),
    ),
    "pi5": (
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
        frozenset({6}),
        frozenset({7}),
    ),
    "pi6": (
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
        frozenset({6, 7}),
    ),
}
