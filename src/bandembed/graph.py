"""Simple undirected graphs on dense integer vertices, plus bandwidth orderings.

Vertices are 0..n-1.  Graphs are immutable after construction and safe to
share across tasks; every operation here is pure.  Named vertices, if any,
belong to the file-format layer, not to the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError

__all__ = [
    "Graph",
    "BandwidthOrdering",
    "vertex_mask",
    "verify_bandwidth_ordering",
    "degree_sequence",
    "neighborhood",
    "induced_subgraph",
    "graph_to_json",
    "graph_from_json",
]


def vertex_mask(vertices) -> int:
    """Bitmask with bit v set for each vertex v in `vertices`."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


class Graph:
    """Immutable simple graph: no loops, no parallel edges, symmetric adjacency."""

    __slots__ = ("n", "_adj", "_masks")

    def __init__(self, n: int, edges):
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
            if u == v:
                raise InvalidInputError(f"loop edge ({u},{v}) is not allowed")
            if v in adj[u]:
                raise InvalidInputError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._masks: list[int] | None = None

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self):
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    @property
    def masks(self) -> list[int]:
        """Adjacency bitmasks, built lazily; mask[v] has bit u set iff uv is an edge."""
        if self._masks is None:
            self._masks = [vertex_mask(s) for s in self._adj]
        return self._masks

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


@dataclass(frozen=True)
class BandwidthOrdering:
    """A labelling of the vertices by positions 0..n-1 with a claimed stretch bound.

    labels[v] is the position of vertex v; the ordering claims that every edge
    uv satisfies |labels[u] - labels[v]| <= claimed_bound.
    """

    labels: tuple[int, ...]
    claimed_bound: int

    def validate_bijection(self, n: int) -> None:
        if len(self.labels) != n or sorted(self.labels) != list(range(n)):
            raise InvalidInputError("labels must be a permutation of 0..n-1")


def verify_bandwidth_ordering(g: Graph, ordering: BandwidthOrdering) -> int:
    """Maximum label stretch over all edges; 0 for edgeless graphs."""
    ordering.validate_bijection(g.n)
    labels = ordering.labels
    stretch = 0
    for u, v in g.edges():
        d = abs(labels[u] - labels[v])
        if d > stretch:
            stretch = d
    return stretch


def degree_sequence(g: Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


def neighborhood(g: Graph, s) -> set[int]:
    """Union of the neighborhoods of the vertices in s; may intersect s."""
    out: set[int] = set()
    for v in s:
        if not 0 <= v < g.n:
            raise InvalidInputError(f"vertex {v} outside [0,{g.n})")
        out |= g.adj(v)
    return out


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Induced subgraph on the given vertices, relabelled 0..k-1.

    Returns (subgraph, old_ids) where old_ids[i] is the original id of new
    vertex i.
    """
    old_ids = sorted(set(vertices))
    index = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph(len(old_ids), edges), old_ids


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def graph_from_json(data) -> Graph:
    """Load {"n": int >= 0, "edges": [[u, v], ...]}; malformed input is an InvalidInputError."""
    try:
        n = data["n"]
        edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"graph JSON needs 'n' and 'edges': {exc}") from exc
    if not _is_int(n) or n < 0:
        raise InvalidInputError(f"graph JSON 'n' must be a nonnegative integer, got {n!r}")
    if not isinstance(edges, list):
        raise InvalidInputError("graph JSON 'edges' must be a list")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e))):
            raise InvalidInputError(f"graph JSON edge {e!r} is not a pair of integer vertices")
    return Graph(n, [tuple(e) for e in edges])
