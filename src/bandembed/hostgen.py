"""Seeded synthetic instance generators for hosts and targets.

Every generator is a pure function of (parameters, seed): fixed seeds give
bit-identical graphs across platforms.  Generated certificates (sizes,
degrees, bandwidth, class structure) are plain data that the independent
checkers re-verify in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError
from .graph import BandwidthOrdering, Graph
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
        from .graph import graph_to_json

        return {"graph": graph_to_json(self.graph), "partition": self.partition.to_json()}


@dataclass
class TargetBundle:
    graph: Graph
    ordering: BandwidthOrdering
    bipartition: tuple[list[int], list[int]]

    def to_json(self) -> dict:
        from .graph import graph_to_json

        return {
            "graph": graph_to_json(self.graph),
            "ordering": {
                "labels": list(self.ordering.labels),
                "bound": self.ordering.claimed_bound,
            },
            "bipartition": [list(self.bipartition[0]), list(self.bipartition[1])],
        }


def gen_cycle_blowup(classes: int, size: int, seed: int = 0) -> Graph:
    """Blow-up of a cycle: complete bipartite between consecutive classes only.

    Every vertex gets degree 2*size.  Deterministic; the seed is accepted for
    interface uniformity.
    """
    if classes < 3 or size < 1:
        raise InvalidInputError("need at least 3 classes of size >= 1")
    n = classes * size
    edges = set()
    for c in range(classes):
        nxt = (c + 1) % classes
        for i in range(size):
            for j in range(size):
                u, v = c * size + i, nxt * size + j
                edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def _random_bipartite_edges(rng, left: list[int], right: list[int], density: float) -> set:
    threshold = int(density * (1 << 30))
    out = set()
    for u in left:
        for v in right:
            if rng.getrandbits(30) < threshold:
                out.add((min(u, v), max(u, v)))
    return out


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
    (i1, j1), (i2, j2) = chords
    if i1 == j1 or i2 == j2 or not all(0 <= x < k for x in (i1, j1, i2, j2)):
        raise InvalidInputError("chord pair indices must be distinct and within range")

    n = 2 * k * size
    classes = [list(range(c * size, (c + 1) * size)) for c in range(2 * k)]
    rng = make_rng(seed)
    edge_set: set[tuple[int, int]] = set()

    partition = ClusterPartition(
        [set(c) for c in classes], a_chord=(i1, j1), b_chord=(i2, j2)
    )
    for x, y in partition.skeleton():
        edge_set |= _random_bipartite_edges(rng, classes[x], classes[y], d)

    if d < 1:
        floor = max(1, int(0.6 * d * size + 0.999999))
        for i in range(k):
            a_cls, b_cls = classes[2 * i], classes[2 * i + 1]
            for side, other in ((a_cls, b_cls), (b_cls, a_cls)):
                for u in side:
                    deg = sum(1 for v in other if (min(u, v), max(u, v)) in edge_set)
                    rounds = 0
                    while deg < floor and rounds < 100:
                        rounds += 1
                        for v in other:
                            key = (min(u, v), max(u, v))
                            edge_set.discard(key)
                        deg = 0
                        threshold = int(d * (1 << 30))
                        for v in other:
                            if rng.getrandbits(30) < threshold:
                                edge_set.add((min(u, v), max(u, v)))
                                deg += 1
                    if deg < floor:
                        for v in shuffled(rng, list(other)):
                            if deg >= floor:
                                break
                            key = (min(u, v), max(u, v))
                            if key not in edge_set:
                                edge_set.add(key)
                                deg += 1
        # Resampling one row can steal an edge from the opposite side, so a
        # final addition-only sweep restores the floor monotonically.
        for i in range(k):
            a_cls, b_cls = classes[2 * i], classes[2 * i + 1]
            for side, other in ((a_cls, b_cls), (b_cls, a_cls)):
                for u in side:
                    deg = sum(1 for v in other if (min(u, v), max(u, v)) in edge_set)
                    for v in shuffled(rng, list(other)):
                        if deg >= floor:
                            break
                        key = (min(u, v), max(u, v))
                        if key not in edge_set:
                            edge_set.add(key)
                            deg += 1

    return HostBundle(Graph(n, sorted(edge_set)), partition)


def gen_extremal_counterexample(n: int, m: int) -> Graph:
    """Three-class host with all edges except inside the first class and
    between the first and third; it has no perfect matching yet a degree
    sequence that only just misses the certification threshold."""
    if n % 2 != 0:
        raise InvalidInputError("n must be even")
    if not 0 < m < n / 2:
        raise InvalidInputError("need 0 < m < n/2")
    v1 = list(range(m))
    v2 = list(range(m, 2 * m - 1))
    v3 = list(range(2 * m - 1, n))
    edges = []
    for idx, u in enumerate(v2):
        for v in v2[idx + 1:]:
            edges.append((u, v))
    for idx, u in enumerate(v3):
        for v in v3[idx + 1:]:
            edges.append((u, v))
    for u in v1:
        for v in v2:
            edges.append((u, v))
    for u in v2:
        for v in v3:
            edges.append((u, v))
    return Graph(n, edges)


def gen_random_graph(n: int, p: float, seed: int = 0) -> Graph:
    """Uniform edge sampling at probability p, seeded."""
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError("need n >= 0 and p in [0, 1]")
    rng = make_rng(seed)
    threshold = int(p * (1 << 30))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if p >= 1 or rng.getrandbits(30) < threshold:
                edges.append((u, v))
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
