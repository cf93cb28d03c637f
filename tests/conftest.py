import itertools
from fractions import Fraction

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


CHOP_BETAS = [Fraction(0), Fraction(1, 97), Fraction(1, 10), Fraction(1, 7), Fraction(1, 3),
              Fraction(123457, 1000003), Fraction(999, 1000)]


def chop_window_grid():
    """Edgeless chop inputs (g, ordering, bip, beta, m1) over n, m1 and beta,
    with seeded vertex positions and a seeded coin-flip bipartition each."""
    rng = make_rng(8)
    for n in (1, 5, 12, 40, 97, 256):
        g = Graph(n, [])
        for m1 in (1, 2, 3, 7, 16):
            for beta in CHOP_BETAS:
                labels = tuple(shuffled(rng, list(range(n))))
                class_a = {v for v in range(n) if rng.getrandbits(1)}
                bip = (sorted(class_a), sorted(set(range(n)) - class_a))
                yield g, BandwidthOrdering(labels, n), bip, beta, m1


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


def split_classes(sizes):
    """Consecutive vertex ranges of the given sizes."""
    classes, start = [], 0
    for size in sizes:
        classes.append(list(range(start, start + size)))
        start += size
    return classes


def stuck_instance(spare_edge=True):
    """A pair completion that can fail before placing anything.

    H classes are [s0, v], [t1, w], [s2, pads], [t3, pads], with the cross edge
    s0-s2, so S = {s0, s2} and T = {t1, t3}.  The host classes are the same
    ranges, [a0, a1], [p, q], ...; in G the host p of class 1 sees only a0 of
    class 0.  When s0 takes a0 and t1 takes p, v (on the first side of the
    pair, bound by t1) has no free host: "stuck".  When t1 takes q instead, w
    has no free host on the second side, so the pair re-rolls until its 20
    tries run out.  When s0 takes a1 the pair completes.  Without the spare
    edge a1-q, t1 has no candidate after s0 takes a1, and the budget runs out.
    """
    w = split_classes([2, 2, 9, 9])  # the 16 isolated pads raise the budget to 220
    (s0, v), (t1, wv), (s2, *_), (t3, *_) = w
    h = Graph(sum(map(len, w)), [(s0, t1), (v, t1), (v, wv), (s0, s2), (s2, t3)])
    (a0, a1), (p, q), z, t = w
    edges = [(a0, p), (a0, q)] + ([(a1, q)] if spare_edge else [])
    edges += [(x, y) for x in (a0, a1) for y in z] + [(x, y) for x in z for y in t]
    return h, w, Graph(h.n, edges), w


def hall_instance():
    """A pair whose first side fails Hall's condition while each vertex has a candidate.

    H classes are [s0, v1, v2], [t1, w1, w2], [s2], [t3], with the cross edge
    s0-s2, so S = {s0, s2} and T = {t1, t3}; v1 and v2 see only t1.  The host
    classes are the same ranges, and each host of class 1 sees two of class 0,
    the three pairs in a cycle.  Whatever s0 and t1 take, v1 and v2 share one
    candidate, so every attempt reaches the pair and its first side falls
    short until the budget runs out.
    """
    w = split_classes([3, 3, 1, 1])
    (s0, v1, v2), (t1, *_), (s2,), (t3,) = w
    h = Graph(8, [(s0, t1), (v1, t1), (v2, t1), (s0, s2), (s2, t3)])
    (a0, a1, a2), (p, q, r), (z,), (t,) = w
    edges = [(a0, p), (a1, p), (a1, q), (a2, q), (a2, r), (a0, r)]
    edges += [(z, a0), (z, a1), (z, a2), (z, t)]
    return h, w, Graph(8, edges), w


def poisoned_instance():
    """Boundary placements that sometimes leave an enclosed vertex no host.

    H is the graph of `test_poisoned_boundary_placement_skips_the_pairs`; b1's only
    neighbour is the boundary vertex a0.  In G the host x1 of class 0 sees only y0
    of class 1, so b0 -> y0 with a0 -> x1 poisons the placement and the search
    restarts before any pair; every other boundary placement embeds.
    """
    w = split_classes([3, 3, 3, 3])
    x, y, z, t = w
    a, b, c, d = (cls[0] for cls in w)
    h = Graph(12, [(b, c), (a, b), (c, d), (b + 1, a)])
    edges = [(x[0], u) for u in y] + [(x[1], y[0]), (x[2], y[1]), (x[2], y[2])]
    edges += [(u, v) for u in y for v in z] + [(u, v) for u in z for v in t]
    return h, w, Graph(12, edges), w


def retry_instance(spare_edge=True):
    """One pair, no boundary: vertex 0 sees both of 2 and 3 and is free on the first side.

    Host 1 sees only 2, so the random first-side bijection that sends 0 to 1 fails the
    second side's matching and the pair re-rolls locally.  Without the spare edge 0-3
    every try fails and the budget runs out inside the pair's retries.
    """
    w = [[0, 1], [2, 3]]
    h = Graph(4, [(0, 2), (0, 3)])
    g = Graph(4, [(0, 2), (1, 2)] + ([(0, 3)] if spare_edge else []))
    return h, w, g, w


def search_path_instances():
    """The hand-built embedder inputs that reach every outcome of its restart loop, by name."""
    return {
        "stuck": stuck_instance(),
        "stuck-exhausted": stuck_instance(spare_edge=False),
        "poisoned": poisoned_instance(),
        "retry": retry_instance(),
        "retry-exhausted": retry_instance(spare_edge=False),
    }
