"""Bipartite maximum matching (Hopcroft-Karp) and a small-graph perfect-matching test."""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .graph import Graph

__all__ = ["hopcroft_karp", "has_perfect_matching_small", "max_matching_size_small"]

_INF = float("inf")


def hopcroft_karp(adjacency: list[list[int]], n_right: int) -> dict[int, int]:
    """Maximum matching of a bipartite graph given as left-to-right adjacency lists.

    Returns a dict mapping matched left indices to right indices.
    """
    n_left = len(adjacency)
    pair_l: list[int] = [-1] * n_left
    pair_r: list[int] = [-1] * n_right
    dist: list[float] = [0.0] * n_left

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in range(n_left):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        found = _INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = pair_r[v]
                if w == -1:
                    if found == _INF:
                        found = dist[u] + 1
                elif dist[w] == _INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != _INF

    def dfs(root: int) -> bool:
        # The textbook recursion, unrolled so augmenting paths may be longer
        # than the interpreter's recursion limit.  Each frame holds a left
        # vertex and the index of the neighbour it is trying; neighbours are
        # tried in the same order as the recursion, so matchings are equal.
        stack = [[root, 0]]
        while stack:
            frame = stack[-1]
            u, i = frame
            if i == len(adjacency[u]):
                dist[u] = _INF
                stack.pop()
                if stack:
                    stack[-1][1] += 1
                continue
            w = pair_r[adjacency[u][i]]
            if w == -1:
                for u, i in stack:
                    v = adjacency[u][i]
                    pair_l[u] = v
                    pair_r[v] = u
                return True
            if dist[w] == dist[u] + 1:
                stack.append([w, 0])
            else:
                frame[1] += 1
        return False

    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1:
                dfs(u)
    return {u: v for u, v in enumerate(pair_l) if v != -1}


def max_matching_size_small(g: Graph) -> int:
    """Exact maximum matching size of a general graph, n <= 24 (bitmask DP)."""
    if g.n > 24:
        raise ValueError("exact general matching supported only for n <= 24")
    masks = g.masks

    @lru_cache(maxsize=None)
    def best(remaining: int) -> int:
        if remaining == 0:
            return 0
        v = (remaining & -remaining).bit_length() - 1
        # Either v stays unmatched, or it matches a remaining neighbor.
        score = best(remaining & ~(1 << v))
        nbrs = masks[v] & remaining
        while nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            score = max(score, 1 + best(remaining & ~(1 << v) & ~(1 << u)))
        return score

    result = best((1 << g.n) - 1)
    best.cache_clear()
    return result


def has_perfect_matching_small(g: Graph) -> bool:
    if g.n % 2 == 1:
        return False
    return max_matching_size_small(g) == g.n // 2
