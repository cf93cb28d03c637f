"""Simple undirected graphs on dense integer vertices, plus bandwidth orderings.

Vertices are 0..n-1.  Graphs are immutable after construction and safe to
share across tasks; every operation here is pure.  Named vertices, if any,
belong to the file-format layer, not to the algorithms.  A graph keeps one
adjacency bitmask per vertex, about n/8 bytes each (1.2 MB at n = 3200), and
derives the rest.  Its edge list is a tuple built on the first `edges()` call
and kept: the pipeline never lists a host's edges, and the tuple of a dense
400-vertex host would cost 0.9 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError

__all__ = [
    "Graph",
    "BandwidthOrdering",
    "vertex_mask",
    "subset_lanes",
    "at_least",
    "verify_bandwidth_ordering",
    "degree_sequence",
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


_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending, read a byte at a time."""
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return [8 * i + j for i, byte in enumerate(data) if byte for j in _BYTE_BITS[byte]]


def subset_lanes(n: int) -> list[int]:
    """Lane vectors over the 2^n subset masks S of range(n): bit S of entry u is set iff u is in S.

    Entry u is 2^u clear bits then 2^u set bits, doubled by shifts up to 2^n bits.
    """
    lanes = []
    for u in range(n):
        vec, span = ((1 << (1 << u)) - 1) << (1 << u), 2 << u
        while span < 1 << n:
            vec |= vec << span
            span *= 2
        lanes.append(vec)
    return lanes


@lru_cache(maxsize=2)
def _subset_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`subset_lanes(n)` and its size ladder `at_least(lanes, n + 1, full)`, built on first use.

    Both depend on n alone, so the exact checks share them across calls.  The
    exact expander uses at most 16 lanes and exact regularity at most 14, and
    the two entries hold about 0.35 MB then (0.43 MB at most, for 16 and 15).
    """
    lanes = subset_lanes(n)
    return tuple(lanes), tuple(at_least(lanes, n + 1, (1 << (1 << n)) - 1))


def at_least(vectors, top: int, full: int) -> list[int]:
    """For k = 0..top, the lanes set in at least k of `vectors`; each must lie within `full`."""
    ge = [full] + [0] * top
    for i, vec in enumerate(filter(None, vectors)):
        for k in range(min(top, i + 1), 1, -1):
            ge[k] |= ge[k - 1] & vec
        if top:  # ge[0] is `full`, so step k = 1 needs no AND
            ge[1] |= vec
    return ge


class Graph:
    """Immutable simple graph: no loops, no parallel edges, symmetric adjacency.

    masks[v] has bit u set iff uv is an edge; it is the only adjacency kept.
    `Graph(n, edges)` checks each edge as it packs it, `Graph.from_masks` the
    masks it is handed.
    """

    __slots__ = ("n", "masks", "_edges", "_hash")

    def __init__(self, n: int, edges):
        if not _is_int(n) or n < 0:
            raise InvalidInputError(f"vertex count {n!r} is not a nonnegative integer")
        try:
            edges = iter(edges)
        except TypeError:
            raise InvalidInputError(f"edge list {edges!r} is not iterable") from None
        bit = [1 << v for v in range(n)]
        masks = [0] * n
        for e in edges:
            try:
                u, v = e
                # False and True pass as 0 and 1, so only edges at 0 or 1 check for them.
                if not (1 < u < n and 1 < v < n):
                    if bool in (type(u), type(v)):
                        raise TypeError("bool endpoint")
                    if not (0 <= u < n and 0 <= v < n):
                        raise InvalidInputError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
                if u == v:
                    raise InvalidInputError(f"loop edge ({u},{v}) is not allowed")
                if masks[u] & bit[v]:
                    raise InvalidInputError(f"duplicate edge ({u},{v})")
                masks[u] |= bit[v]
                masks[v] |= bit[u]
            except InvalidInputError:
                raise
            except (TypeError, ValueError) as exc:  # a bad shape, a bool, a float or a string
                raise InvalidInputError(f"edge {e!r} is not a pair of integer vertices") from exc
        self._keep(masks)

    @classmethod
    def from_masks(cls, masks) -> Graph:
        """The graph on range(len(masks)) whose vertex v has neighbour mask masks[v].

        The masks must be ints within [0, n), loop-free and symmetric; each edge is
        checked from both ends, so the first offending pair is the one named.
        """
        masks = list(masks)
        n = len(masks)
        for v, m in enumerate(masks):
            if not _is_int(m) or m < 0 or m.bit_length() > n:
                raise InvalidInputError(
                    f"adjacency mask of vertex {v} is not a set of vertices in [0,{n})")
        for a, m in enumerate(masks):
            bit = 1 << a
            for b in _bits(m):
                if b == a:
                    raise InvalidInputError(f"loop edge ({a},{a}) is not allowed")
                if not masks[b] & bit:
                    raise InvalidInputError(
                        f"adjacency is not symmetric: {a} lists {b}, {b} does not list {a}")
        g = cls.__new__(cls)
        g._keep(masks)
        return g

    def _keep(self, masks: list[int]) -> None:
        self.n = len(masks)
        self.masks = tuple(masks)
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._hash = hash(self.masks)

    def adj(self, v: int) -> frozenset[int]:
        return frozenset(_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return v >= 0 and self.masks[u] >> v & 1 == 1

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as (u, v), u < v, ascending; a tuple built on the first call and kept."""
        if self._edges is None:
            # Bit j of m >> u is vertex u + j, and bit 0 (u itself) is clear.
            self._edges = tuple((u, u + j) for u, m in enumerate(self.masks) for j in _bits(m >> u))
        return self._edges

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self.masks), default=0)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.masks == other.masks

    def __hash__(self):
        return self._hash

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
    """{"n": n, "edges": [[u, v], ...]} with u < v, ascending, so equal graphs write equal JSON."""
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
