import random
import sys
from collections import deque

from bandembed.matching import hopcroft_karp


def recursive_hopcroft_karp(adjacency, n_right):
    """Reference: the textbook recursive form, neighbours tried in list order."""
    inf = float("inf")
    n_left = len(adjacency)
    pair_l, pair_r, dist = [-1] * n_left, [-1] * n_right, [0.0] * n_left

    def bfs():
        queue = deque()
        for u in range(n_left):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = pair_r[v]
                if w == -1:
                    if found == inf:
                        found = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != inf

    def dfs(u):
        for v in adjacency[u]:
            w = pair_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u], pair_r[v] = v, u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1:
                dfs(u)
    return {u: v for u, v in enumerate(pair_l) if v != -1}


def test_long_augmenting_chain():
    # Left i sees rights i and i+1, left n-1 only right 0: the second phase
    # augments along a path through every vertex, far deeper than the
    # interpreter's recursion limit.
    n = 2000
    assert n > sys.getrecursionlimit()
    adjacency = [[i, i + 1] for i in range(n - 1)] + [[0]]
    matching = hopcroft_karp(adjacency, n)
    assert len(matching) == n
    assert sorted(matching.values()) == list(range(n))
    assert all(v in adjacency[u] for u, v in matching.items())


def test_same_matching_as_recursive_reference():
    rng = random.Random(11)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 12), rng.randint(1, 12)
        p = rng.random()
        adjacency = [[v for v in range(n_right) if rng.random() < p] for _ in range(n_left)]
        for adj in adjacency:
            rng.shuffle(adj)
        assert hopcroft_karp(adjacency, n_right) == recursive_hopcroft_karp(adjacency, n_right)
