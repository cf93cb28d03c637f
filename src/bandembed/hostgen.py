"""Seeded synthetic instance generators for hosts and targets.

Every generator is a pure function of (parameters, seed): fixed seeds give
bit-identical graphs across platforms.  Generated certificates (sizes,
degrees, bandwidth, class structure) are plain data that the independent
checkers re-verify in the test suite.  A generator stops drawing once no
draw can change its graph.  The super-regular host is drawn straight into
the adjacency masks `Graph` keeps, and handed over whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .graph import BandwidthOrdering, Graph, _bits, graph_to_json
from .partition import ClusterPartition
from .rng import make_rng, shuffled

__all__ = [
    "HostBundle",
    "TargetBundle",
    "gen_cycle_blowup",
    "gen_super_regular_host",
    "gen_extremal_counterexample",
    "gen_random_graph",
    "gen_bandwidth_bipartite_h",
]


@dataclass
class HostBundle:
    graph: Graph
    partition: ClusterPartition

    def to_json(self) -> dict:
        return {"graph": graph_to_json(self.graph), "partition": self.partition.to_json()}


@dataclass
class TargetBundle:
    graph: Graph
    ordering: BandwidthOrdering
    bipartition: tuple[list[int], list[int]]

    def to_json(self) -> dict:
        return {
            "graph": graph_to_json(self.graph),
            "ordering": {
                "labels": list(self.ordering.labels),
                "bound": self.ordering.claimed_bound,
            },
            "bipartition": [list(self.bipartition[0]), list(self.bipartition[1])],
        }


def gen_cycle_blowup(classes: int, size: int) -> Graph:
    """Blow-up of a cycle: complete bipartite between consecutive classes only.

    Every vertex gets degree 2*size.  Deterministic, so it takes no seed.
    """
    if classes < 3 or size < 1:
        raise InvalidInputError("need at least 3 classes of size >= 1")
    blocks = [((1 << size) - 1) << c * size for c in range(classes)]
    return Graph.from_masks(blocks[(u // size - 1) % classes] | blocks[(u // size + 1) % classes]
                            for u in range(classes * size))


def _bernoulli_row(rng, vertices, threshold: int) -> list[int]:
    """The vertices kept by one 30-bit draw each, below `threshold`, in order."""
    return [v for v in vertices if rng.getrandbits(30) < threshold]


def gen_super_regular_host(
    k: int,
    size: int,
    d: float,
    chords: tuple | None = None,
    seed: int = 0,
) -> HostBundle:
    """Blown-up cycle host with random pair interiors and recorded chords.

    Consecutive cycle pairs (A_i, B_i) and (B_i, A_{i+1}) and the two chord
    pairs are independent bipartite graphs at the given density; nothing
    else is present.  Vertices of an (A_i, B_i) pair falling under the
    degree floor 0.6*d*size are resampled (up to 100 rounds, then topped up
    deterministically), so those pairs meet a one-sided minimum degree by
    construction.
    """
    if k < 2 or size < 1:
        raise InvalidInputError("need k >= 2 pairs of size >= 1")
    if not 0 < d <= 1:
        raise InvalidInputError("density must lie in (0, 1]")
    if chords is None:
        chords = ((0, 2), (0, 2)) if k >= 3 else ((0, 1), (0, 1))

    n = 2 * k * size
    classes = [list(range(c * size, (c + 1) * size)) for c in range(2 * k)]
    rng = make_rng(seed)
    threshold = int(d * (1 << 30))
    bit = [1 << v for v in range(n)]
    class_mask = [sum(bit[c * size:(c + 1) * size]) for c in range(2 * k)]
    masks = [0] * n  # the adjacency, as `Graph` keeps it

    def link(u: int, vs: list[int]) -> None:
        masks[u] |= sum(map(bit.__getitem__, vs))
        for v in vs:
            masks[v] |= bit[u]

    def deg(u: int, c: int) -> int:
        return (masks[u] & class_mask[c]).bit_count()

    def top_up(u: int, c: int) -> None:
        # Always shuffles, even when u already meets the floor: the draws it
        # consumes are part of the seeded stream that later rows and top-ups
        # read.  The final sweep stops where no later draw is read (below).
        missing = max(0, floor - deg(u, c))
        link(u, [v for v in shuffled(rng, classes[c]) if not masks[u] >> v & 1][:missing])

    partition = ClusterPartition([set(c) for c in classes], *map(tuple, chords))
    for x, y in partition.skeleton():
        for u in classes[x]:
            link(u, _bernoulli_row(rng, classes[y], threshold))

    if d < 1:
        floor = max(1, int(0.6 * d * size + 0.999999))
        # Each vertex of pair i with the other class of its pair, A_i before B_i.
        sides = [(u, c ^ 1) for c in range(2 * k) for u in classes[c]]
        for u, c in sides:
            for _ in range(100):
                if deg(u, c) >= floor:
                    break
                for v in _bits(masks[u] & class_mask[c]):
                    masks[v] ^= bit[u]
                masks[u] &= ~class_mask[c]
                link(u, _bernoulli_row(rng, classes[c], threshold))
            if deg(u, c) < floor:
                top_up(u, c)
        # Resampling one row can steal an edge from the opposite side, so a
        # final addition-only sweep restores the floor monotonically.  It
        # ends at the last vertex short when it starts: edges are only added,
        # so no later vertex falls short, and the rest of the sweep would
        # link nothing and only draw from rng, which nothing reads after it.
        end = max((i + 1 for i, (u, c) in enumerate(sides) if deg(u, c) < floor), default=0)
        for u, c in sides[:end]:
            top_up(u, c)

    return HostBundle(Graph.from_masks(masks), partition)


def gen_extremal_counterexample(n: int, m: int) -> Graph:
    """Three-class host with all edges except inside the first class and
    between the first and third; it has no perfect matching yet a degree
    sequence that only just misses the certification threshold."""
    if n % 2 != 0:
        raise InvalidInputError("n must be even")
    if not 0 < m < n / 2:
        raise InvalidInputError("need 0 < m < n/2")
    # V1 = [0, m), V2 = [m, 2m - 1) and V3 = [2m - 1, n), as masks.
    v1, v2 = (1 << m) - 1, (1 << 2 * m - 1) - (1 << m)
    v3 = (1 << n) - 1 - v1 - v2
    rows = [v2] * m + [v1 | v2 | v3] * (m - 1) + [v2 | v3] * (n - 2 * m + 1)
    return Graph.from_masks(row & ~(1 << u) for u, row in enumerate(rows))


def gen_random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Uniform edge sampling at probability p, seeded."""
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError("need n >= 0 and p in [0, 1]")
    rng = make_rng(seed)
    threshold = int(p * (1 << 30))
    edges = ((u, v) for u in range(n) for v in _bernoulli_row(rng, range(u + 1, n), threshold))
    return Graph(n, edges)


def gen_bandwidth_bipartite_h(n: int, delta: int, b: int, seed: int = 0) -> TargetBundle:
    """Bounded-degree bipartite target with bandwidth at most b by construction.

    Vertices are labelled 0..n-1 in place; candidate edges join opposite
    parities within label distance b and are taken in seeded random order
    subject to the degree cap.  The identity ordering and the parity
    bipartition are returned as certificates.
    """
    if b < 1 or delta < 1 or n < 1:
        raise InvalidInputError("need n >= 1, delta >= 1, b >= 1")
    candidates = []
    for u in range(n):
        for v in range(u + 1, min(n, u + b + 1)):
            if (u + v) % 2 == 1:
                candidates.append((u, v))
    rng = make_rng(seed)
    degree = [0] * n
    edges = []
    for u, v in shuffled(rng, candidates):
        if degree[u] < delta and degree[v] < delta:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    graph = Graph(n, edges)
    ordering = BandwidthOrdering(tuple(range(n)), b)
    evens = [v for v in range(n) if v % 2 == 0]
    odds = [v for v in range(n) if v % 2 == 1]
    return TargetBundle(graph, ordering, (evens, odds))
