"""Compatibility certification and the desk-scale pair-by-pair embedder.

The embedder replaces a far stronger existence guarantee with an honest
search: boundary vertices (those with edges leaving their cluster pair, plus
their neighbors) are placed first by a most-constrained-first greedy, then
each super-regular cluster pair is completed one side at a time with a
maximum bipartite matching, where a host vertex is a candidate for an H
vertex iff it is adjacent to the images of all already-placed neighbors.
Completing the first side before the second means every edge inside the
pair is constrained when the second side is matched, so a perfect matching
on both sides embeds every remaining edge.  Failure after the reassignment
budget is a first-class outcome, never a silent success.

Candidates are host-id masks: each class keeps a mask of its vacant hosts,
and each H vertex the mask of hosts adjacent to its placed neighbours' images
(-1 while none is placed).  The map phi is a list of hosts, -1 while unplaced.
Phase 1 scores a candidate mask as it stands, and phase 2 hands each bound
vertex's candidate mask to Hopcroft-Karp, which matches straight to host ids,
so phase 2 builds no candidate list.  Both place through one routine, which
sets phi, takes the host from its class's vacant mask and narrows each
neighbour's mask; a failed pair try restores the map and the masks it saved
when the pair began, in one step.

Of the blow-up lemma's three compatibility conditions, `check_compatibility`
certifies only the boundary bound, from the homomorphism's map f and the
class sizes, and returns the classes that break it.  S and T are two vertex
sets over all classes, computed there and again for phase 1's plan.  In the
pipeline the other two are certified before it: equal class sizes by
verify-partition's `sizes_exact` (the final sizes are the homomorphism's
loads), and H-edges on reduced edges by the homomorphism recheck's
`homomorphism_valid` (every H-edge lands on a cycle edge or the B-chord).

Only `embed_blowup` reads the classes, through one layout, and raises
InvalidInputError unless the class count is even (classes 2i and 2i+1 form
cluster pair i, the only restricted graph), there is one host class per H
class of the same size, the H classes partition V(H) with no H-edge inside
one class, and the host classes are pairwise disjoint and inside V(G).  This
gives the per-side invariant the pair completion relies on: each side has
one free host for each unplaced vertex.
"""

from __future__ import annotations

from collections import Counter

from .errors import EmbeddingNotFoundError, InvalidInputError
from .graph import Graph, _bits, _is_int_list, vertex_mask
from .matching import hopcroft_karp
from .rng import as_fraction, derive_seed, make_rng, shuffled

__all__ = [
    "check_compatibility",
    "embed_blowup",
    "verify_embedding",
    "embedding_respects_partition",
]

BUDGET_FACTOR = 10


def _class_layout(
    h: Graph, w_classes: list, g: Graph, v_classes: list
) -> tuple[list[list[int]], list[list[int]], dict[int, int]]:
    """Sorted H and host classes, and the class index of every H vertex.

    The class count must be even, the H classes must partition V(H) with no
    H-edge inside one class, and the host classes must be pairwise disjoint
    inside V(G), with one host class of the same size per H class.
    """
    if len(w_classes) != len(v_classes):
        raise InvalidInputError("need equally many H and host classes")
    if len(w_classes) % 2:
        raise InvalidInputError(f"{len(w_classes)} classes do not form cluster pairs (2i, 2i+1)")
    w_sets = [sorted(set(c)) for c in w_classes]
    v_sets = [sorted(set(c)) for c in v_classes]
    cluster_of = {v: i for i, ws in enumerate(w_sets) for v in ws}
    if len(cluster_of) != sum(map(len, w_sets)) or cluster_of.keys() != set(range(h.n)):
        raise InvalidInputError("the H classes must partition the vertices of H")
    if len(set().union(*v_sets)) != sum(map(len, v_sets)):
        raise InvalidInputError("the host classes must be pairwise disjoint")
    outside = [v for vs in v_sets for v in vs[:1] + vs[-1:] if not 0 <= v < g.n]
    if outside:
        raise InvalidInputError(f"host vertex {outside[0]} lies outside [0,{g.n})")
    for i, (ws, vs) in enumerate(zip(w_sets, v_sets)):
        if len(ws) != len(vs):
            raise InvalidInputError(f"class {i}: |W| = {len(ws)} != |V| = {len(vs)}")
    for u, v in h.edges():
        if cluster_of[u] == cluster_of[v]:
            raise InvalidInputError(
                f"edge ({u},{v}) stays inside class {cluster_of[u]}; the input is incompatible"
            )
    return w_sets, v_sets, cluster_of


def _boundary(h: Graph, cluster_of: list[int] | dict[int, int]) -> tuple[set[int], set[int]]:
    """S and T of `check_compatibility`, over all classes; cluster_of[v] is v's class.

    S holds the vertices with an H-edge leaving their class and its partner, so
    an H-edge inside one class or one cluster pair adds nothing; T is N(S) \\ S.
    """
    s: set[int] = set()
    for u, v in h.edges():
        if cluster_of[u] // 2 != cluster_of[v] // 2:
            s.update((u, v))
    reach = 0
    for v in s:
        reach |= h.masks[v]
    return s, set(_bits(reach & ~vertex_mask(s)))


def _boundary_plan(
    h: Graph, cluster_of: dict[int, int], num: int
) -> tuple[list[int], dict[int, list[int]], list[int]]:
    """Phase 1's fixed plan, computed once outside the restarts.

    Returns the boundary vertices (S and T) in placement order, most
    constrained first; each one's same-class peers placed after it; and the
    other vertices whose neighbors are all boundary vertices.
    """
    s, t = _boundary(h, cluster_of)
    constrained = s | t
    inside = vertex_mask(constrained)
    masks = h.masks
    order = sorted(constrained, key=lambda v: (-(masks[v] & inside).bit_count(), v))
    by_class = [[v for v in order if cluster_of[v] == c] for c in range(num)]
    later = {v: vs[i + 1:] for vs in by_class for i, v in enumerate(vs)}
    enclosed = [v for v, m in enumerate(masks) if m and not (m & ~inside or inside >> v & 1)]
    return order, later, enclosed


def check_compatibility(h: Graph, f: list, sizes: list, eps) -> list[int]:
    """Exact evaluation of the boundary bound, the one condition no earlier stage certifies.

    W_i = f^-1(i), S_i = S & W_i and T_i = T & W_i for `_boundary`'s S and
    T.  Returns the classes i, ascending, with |S_i| > eps sizes[i] or |T_i| >
    eps min(sizes[i], sizes[i^1]); an empty list certifies the bound.  The
    module docstring says which stages certify the other two conditions.
    Sizes that are not an even number of integers, or an f that is not a list
    of h.n classes, are input errors.
    """
    if not _is_int_list(sizes) or len(sizes) % 2:
        raise InvalidInputError("the class sizes must be an even number of integers")
    num = len(sizes)
    if not (_is_int_list(f) and len(f) == h.n and all(0 <= c < num for c in f)):
        raise InvalidInputError(f"f must send all {h.n} vertices of H to classes 0..{num - 1}")
    eps = as_fraction(eps)
    s, t = _boundary(h, f)
    s_count, t_count = Counter(f[v] for v in s), Counter(f[v] for v in t)
    return [i for i in range(num) if s_count[i] > eps * sizes[i]
            or t_count[i] > eps * min(sizes[i], sizes[i ^ 1])]


def embed_blowup(
    h: Graph,
    w_classes: list,
    g: Graph,
    v_classes: list,
    seed: int = 0,
) -> list[int]:
    """Injective edge-preserving placement phi of H into G along the class partition.

    The cluster pairs (2i, 2i+1) are completed in order of i.  The
    reassignment budget is BUDGET_FACTOR * |H|; exceeding it raises
    EmbeddingNotFoundError, which is a legitimate certified failure.
    """
    w_sets, v_sets, cluster_of = _class_layout(h, w_classes, g, v_classes)
    order, later, enclosed = _boundary_plan(h, cluster_of, len(w_sets))

    gmasks = g.masks
    nbrs: list[list[int]] = [[] for _ in range(h.n)]  # H's neighbour lists, for placement
    for u, v in h.edges():
        nbrs[u].append(v)
        nbrs[v].append(u)
    class_masks = [vertex_mask(vs) for vs in v_sets]
    budget = BUDGET_FACTOR * h.n
    spent = 0
    attempt = 0
    phi: list[int] = []  # per H vertex, its host, -1 while unplaced
    vacant: list[int] = []  # per class, the hosts no vertex holds yet, as a mask
    allowed: list[int] = []  # per H vertex, the hosts adjacent to its placed neighbours' images

    def place_boundary(rng) -> bool:
        """Phase 1: boundary vertices, most-constrained-by-structure first."""
        for v in order:
            cands = allowed[v] & vacant[cluster_of[v]]
            if not cands:
                return False
            # Prefer the host vertex that blocks the fewest later peers in
            # the same cluster; random tie-break so restarts explore.
            best = _least_blocked(cands, shuffled(rng, _bits(cands)), [allowed[u] for u in later[v]])
            _place(nbrs, gmasks, phi, vacant, allowed, cluster_of[v], v, best)
        # An enclosed vertex has a candidate list no pair-level retry can
        # change; if any such list is empty the boundary placement itself is
        # poisoned.
        return all(allowed[v] & vacant[cluster_of[v]] for v in enclosed)

    while spent <= budget:
        attempt += 1
        rng = make_rng(derive_seed(seed, attempt))
        phi[:] = [-1] * h.n
        vacant[:] = class_masks
        allowed[:] = [-1] * h.n
        if not place_boundary(rng):
            spent += len(order)
            continue
        # Phase 2: pairs are host-disjoint and share no unplaced edges, so a
        # failed completion re-rolls locally (the first side's free bijection
        # reshapes the second side's candidate lists); a "stuck" pair, or one
        # out of local tries, sends us back to phase 1.
        for x in range(0, len(w_sets), 2):
            status, tries = "retry", 0
            while status == "retry" and tries < 20 and spent <= budget:
                tries += 1
                spent += len(w_sets[x]) + len(w_sets[x + 1])
                status = _complete_pair(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng)
            if status != "ok":
                break
        else:
            return phi
    raise EmbeddingNotFoundError(
        f"no embedding within the reassignment budget ({budget} placements)"
    )


def _least_blocked(fewest: int, cands: list[int], allowed: list[int]) -> int:
    """`min(cands, key=lambda c: sum(m >> c & 1 for m in allowed))`, all counted at once.

    fewest is the mask of cands.  Plane i holds bit i of every candidate's
    count; the minimum is narrowed from the top plane.  A mask that holds all
    of cands or none adds the same count to each, so it is skipped.
    """
    planes: list[int] = []
    for m in allowed:
        carry = m & fewest
        if not carry or carry == fewest:
            continue
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    for plane in reversed(planes):
        if fewest & ~plane:
            fewest &= ~plane
    return next(c for c in cands if fewest >> c & 1)


def _place(nbrs, gmasks, phi, vacant, allowed, cls, v, host) -> None:
    """Place v on host: host leaves class cls's vacant mask, and each H-neighbour's mask narrows."""
    phi[v] = host
    vacant[cls] ^= 1 << host
    for u in nbrs[v]:
        allowed[u] &= gmasks[host]


def _complete_pair(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng) -> str:
    """Fill the cluster pair (x, x+1), one side at a time.

    On each side Hopcroft-Karp matches the bound vertices (those with a placed
    neighbour, so a mask other than -1) to host ids, from their candidate
    masks with no list built.  The side has one vacant host per unplaced
    vertex, so the hosts left in the vacant mask, shuffled, take the free
    vertices exactly.  Returns 'ok', 'retry', or 'stuck'.  Both failures leave
    through one exit when a matching falls short, restoring the map and the
    masks saved on entry.  'stuck' means a re-roll cannot change the outcome:
    the short side is the first, whose inputs are the saved ones and which
    draws nothing before its matching, or a vertex has no candidate and no
    neighbour placed during this pair.
    """
    saved = phi[:], vacant[x], vacant[x + 1], allowed[:]
    for side in (x, x + 1):
        unplaced = [v for v in w_sets[side] if phi[v] < 0]
        free = [v for v in unplaced if allowed[v] == -1]
        bound = [v for v in unplaced if allowed[v] != -1]
        cands = [allowed[v] & vacant[side] for v in bound]
        matching = hopcroft_karp(cands)
        if len(matching) < len(bound):
            stuck = side == x or any(not mask and not any(saved[0][u] < 0 <= phi[u] for u in nbrs[v])
                                     for v, mask in zip(bound, cands))
            phi[:], vacant[x], vacant[x + 1], allowed[:] = saved
            return "stuck" if stuck else "retry"
        placement = {bound[vi]: c for vi, c in matching.items()}
        leftover = vacant[side] & ~vertex_mask(placement.values())
        placement.update(zip(free, shuffled(rng, _bits(leftover))))
        for v, c in placement.items():
            _place(nbrs, gmasks, phi, vacant, allowed, side, v, c)
    return "ok"


def verify_embedding(h: Graph, g: Graph, phi) -> bool:
    """Injectivity plus edge preservation, independent of how phi was built.

    A phi that is not a list, or an entry that is not an int (a bool included),
    makes phi no embedding.
    """
    if not isinstance(phi, list) or len(phi) != h.n or not all(type(x) is int for x in phi):
        return False
    if any(not 0 <= x < g.n for x in phi):
        return False
    if len(set(phi)) != len(phi):
        return False
    return all(g.has_edge(phi[u], phi[v]) for u, v in h.edges())


def embedding_respects_partition(phi, w_classes, v_classes) -> bool:
    """Whether phi sends every vertex of each H class into the host class of its index.

    phi and both class lists must be lists, each class a list, tuple or set, and each
    entry of phi or of a class an int (a bool is not); anything else makes the answer False.
    """
    if not (isinstance(phi, list) and isinstance(w_classes, list) and isinstance(v_classes, list)
            and all(isinstance(c, (list, tuple, set, frozenset)) for c in w_classes + v_classes)):
        return False
    return len(w_classes) == len(v_classes) and all(
        type(x) is int for xs in (phi, *w_classes, *v_classes) for x in xs
    ) and all(
        all(0 <= v < len(phi) for v in ws) and {phi[v] for v in ws} <= set(vs)
        for ws, vs in zip(w_classes, v_classes)
    )
