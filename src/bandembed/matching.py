"""Bipartite maximum matching (Hopcroft-Karp)."""

from __future__ import annotations

from collections import deque

__all__ = ["hopcroft_karp"]

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

