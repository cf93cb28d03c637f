import itertools

from bandembed.graph import Graph


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


def strip_seconds(obj):
    """A report with every "seconds" key removed: what seeded runs must reproduce."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, (list, tuple)):
        return [strip_seconds(v) for v in obj]
    return obj
