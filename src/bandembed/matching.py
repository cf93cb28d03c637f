"""Bipartite maximum matching (Hopcroft-Karp) on candidate masks.

Left vertex u's candidates are the set bits of masks[u], so right ids may be
any sparse set, such as one class's vacant hosts.  Candidates are tried lowest
id first, which gives the textbook list form's matching on ascending lists,
pair for pair and in the same item order.  Masks replace its scans: `free`
holds the unmatched right ids, and `layers[d]` the matched ones whose partner
is at BFS distance d.  The first phase from the empty matching is the greedy
one, each left vertex in order taking its lowest free candidate, so it runs as
that loop, and the search ends there when nobody is left short.
"""

from __future__ import annotations

__all__ = ["hopcroft_karp"]


def hopcroft_karp(masks: list[int]) -> dict[int, int]:
    """Maximum matching of left vertex u to a set bit of masks[u].

    Returns a dict mapping matched left indices, ascending, to right ids.
    """
    pair_l = [-1] * len(masks)
    pair_r: dict[int, int] = {}
    free = 0
    for m in masks:
        free |= m
    for u, m in enumerate(masks):
        low = m & free
        if low:
            low &= -low
            free ^= low
            pair_l[u] = c = low.bit_length() - 1
            pair_r[c] = u
    roots = [u for u, c in enumerate(pair_l) if c < 0]
    while roots:
        # BFS a layer at a time, stopping one layer after the first free id
        # is reached: the DFS takes a free id at any depth, as the list does.
        layers, seen, frontier = [0], 0, roots
        while True:
            reach = 0
            for u in frontier:
                reach |= masks[u]
            matched = reach & ~(free | seen)
            layers.append(matched)
            if reach & free:
                break
            if not matched:
                return {u: c for u, c in enumerate(pair_l) if c >= 0}
            seen |= matched
            frontier = []
            while matched:
                low = matched & -matched
                frontier.append(pair_r[low.bit_length() - 1])
                matched ^= low
        layers.append(0)
        for root in roots:
            # Unrolled, so augmenting paths may be longer than the recursion
            # limit.  Frame d holds a left vertex (us), its untried candidates
            # (rests) and, below the top, the id through which frame d + 1 was
            # entered (ids); it tries the lowest of free | layers[d + 1].  A
            # dead end takes its own id out of layers[d], and an augmenting
            # path moves the id frame i takes from layers[i + 1] to layers[i].
            us, rests, ids = [root], [masks[root]], []
            while us:
                d = len(us) - 1
                cands = rests[d] & (free | layers[d + 1])
                if not cands:
                    if d:
                        layers[d] ^= 1 << pair_l[us[d]]
                        ids.pop()
                    us.pop()
                    rests.pop()
                    continue
                low = cands & -cands
                rests[d] &= -(low << 1)
                c = low.bit_length() - 1
                ids.append(c)
                if low & free:
                    free ^= low
                    for i, (u, c) in enumerate(zip(us, ids)):
                        pair_l[u] = c
                        pair_r[c] = u
                        layers[i] |= 1 << c
                        if i < d:
                            layers[i + 1] ^= 1 << c
                    break
                us.append(pair_r[c])
                rests.append(masks[pair_r[c]])
        roots = [u for u in roots if pair_l[u] < 0]
    return {u: c for u, c in enumerate(pair_l) if c >= 0}
