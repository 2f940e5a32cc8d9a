"""Exception hierarchy for the library.

Every error raised on purpose by eclab derives from :class:`EclabError`,
so callers can catch one type at an API boundary.  The subclasses also
derive from the closest builtin (``ValueError``/``IndexError``/...), which
keeps them unsurprising in generic code.
"""


class EclabError(Exception):
    """Base class for all eclab errors."""


class OutOfRangeVertex(EclabError, ValueError):
    """A vertex, vertex count, edge or edge list is malformed or out of range."""


class SelfLoop(EclabError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(EclabError, ValueError):
    """The same unordered vertex pair occurs twice in an edge list."""


class GraphMismatch(EclabError, ValueError):
    """An edge set references edge indices that do not exist in the graph."""


class SizeLimitExceeded(EclabError, ValueError):
    """A graph is larger than the configured cap for an exhaustive routine."""


class EmptySet(EclabError, ValueError):
    """A coalition operand was empty."""


class InvalidPartition(EclabError, ValueError):
    """Blocks do not form a partition of the edge set (gap/overlap/empty block)."""


class NotAnEcPartition(EclabError, ValueError):
    """A valid edge partition was required to also be an ec-partition, but is not."""


class BlockIndexOutOfRange(EclabError, IndexError):
    """A block index is not valid for the given partition."""


class EmptyGraph(EclabError, ValueError):
    """The edge coalition number is undefined for graphs without edges."""


class BudgetExceeded(EclabError, RuntimeError):
    """The instance exceeds the configured exact-computation budget."""


class NotATree(EclabError, ValueError):
    """A tree was required."""


class NotUnicyclic(EclabError, ValueError):
    """A unicyclic graph (connected, exactly one cycle) was required."""


class InvalidSpec(EclabError, ValueError):
    """A family or corpus spec, or edge-list text, is malformed or not of its type."""


class TooManyEdges(EclabError, ValueError):
    """The brute-force oracle only accepts graphs with few edges."""
