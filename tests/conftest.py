import itertools

import bandembed.homomorphism
from bandembed.graph import BandwidthOrdering, Graph
from bandembed.homomorphism import choose_h_parameters
from bandembed.hostgen import gen_bandwidth_bipartite_h
from bandembed.partition import ClusterPartition
from bandembed.rng import make_rng, rand_below, shuffled


def pytest_runtest_setup(item):
    """Each test starts with no memoised homomorphism plan, so counts of
    segmentation calls do not depend on which tests ran before.

    A hook rather than an autouse fixture: the criterion-1 check imports this
    module under `python -S`, where pytest is not importable.
    """
    bandembed.homomorphism._memo_plan.cache_clear()


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def two_cliques(size: int) -> Graph:
    edges = list(itertools.combinations(range(size), 2))
    edges += [(u + size, v + size) for u, v in itertools.combinations(range(size), 2)]
    return Graph(2 * size, edges)


def copy_partition(p: ClusterPartition) -> ClusterPartition:
    """The same partition with class sets of its own: the constructor copies them."""
    return ClusterPartition(p.classes, p.a_chord, p.b_chord)


def perfect_matching_graph(n):
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    ordering = BandwidthOrdering(tuple(range(n)), 1)
    bip = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2 == 1])
    return g, ordering, bip


def mc_shape(bandwidth, k, chord):
    """A Monte Carlo benchmark shape: n=1536, max degree 2, xi=0.1, H seed 2024."""
    n = 1536
    target = gen_bandwidth_bipartite_h(n, 2, bandwidth, seed=2024)
    params = choose_h_parameters(n, 2, bandwidth, 0.1, k)
    return (target.graph, target.ordering, target.bipartition,
            [n // (2 * k)] * (2 * k), chord, params)


def strip_seconds(obj):
    """A report with every "seconds" key removed: what seeded runs must reproduce."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, (list, tuple)):
        return [strip_seconds(v) for v in obj]
    return obj


def slot_boundary_pair(seed, na, nb, planted):
    """A seeded pair whose A side sits at a slot-width boundary, labels shuffled.

    Planted pairs join the even and the odd positions of sorted(A) and
    sorted(B) completely and nothing else, so every A-degree is about equal
    and the degree-outlier candidates are balanced; other pairs are random
    at density 1/2.
    """
    rng = make_rng(seed)
    labels = shuffled(rng, list(range(na + nb + 2)))
    a, b = labels[:na], labels[na:na + nb]
    pos_a = {v: i for i, v in enumerate(sorted(a))}
    pos_b = {v: i for i, v in enumerate(sorted(b))}
    edges = [(u, v) for u in a for v in b
             if ((pos_a[u] + pos_b[v]) % 2 == 0 if planted else rand_below(rng, 10) < 5)]
    return Graph(na + nb + 2, edges), a, b
