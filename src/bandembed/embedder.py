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

Both entry points read the classes through one layout, and raise
InvalidInputError unless there is one host class per H class, the H classes
partition V(H), the host classes are pairwise disjoint and every reduced or
restricted edge joins two class indices in range.  With equal class sizes
this gives the per-side invariant the pair completion relies on: each side
has one free host for each unplaced vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmbeddingNotFoundError, InvalidInputError
from .graph import Graph, vertex_mask
from .matching import hopcroft_karp
from .rng import as_fraction, derive_seed, make_rng, shuffled

__all__ = [
    "CompatibilityReport",
    "Embedding",
    "check_compatibility",
    "embed_blowup",
    "verify_embedding",
    "embedding_respects_partition",
]

BUDGET_FACTOR = 10


@dataclass
class CompatibilityReport:
    s_sets: list[set[int]] = field(repr=False, default_factory=list)
    t_sets: list[set[int]] = field(repr=False, default_factory=list)
    offending_sizes: list[int] = field(default_factory=list)
    offending_edges: list[tuple[int, int]] = field(default_factory=list)
    offending_bounds: list[int] = field(default_factory=list)

    def all_ok(self) -> bool:
        return not (self.offending_sizes or self.offending_edges or self.offending_bounds)

    def to_json(self) -> dict:
        return {
            "sizes_match": not self.offending_sizes,
            "edges_respect_reduced": not self.offending_edges,
            "boundary_bounded": not self.offending_bounds,
            "offending_sizes": self.offending_sizes,
            "offending_edges": [list(e) for e in self.offending_edges],
            "offending_bounds": self.offending_bounds,
            "all_ok": self.all_ok(),
        }


@dataclass
class Embedding:
    phi: list[int]


def _normalize_edges(edges, num: int) -> set[tuple[int, int]]:
    """Edges between class indices as (min, max) pairs; each index must name a class."""
    out = set()
    for e in edges:
        u, v = e
        if not (0 <= u < num and 0 <= v < num):
            raise InvalidInputError(f"edge ({u},{v}) names a class outside [0,{num})")
        out.add((min(u, v), max(u, v)))
    return out


def _components(num: int, edges: set[tuple[int, int]]) -> list[int]:
    comp = list(range(num))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            comp[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(num)]


def _class_layout(
    h: Graph, w_classes: list, v_classes: list
) -> tuple[list[list[int]], list[list[int]], dict[int, int]]:
    """Sorted H and host classes, and the class index of every H vertex.

    The H classes must partition V(H) and the host classes must be pairwise
    disjoint, with one host class per H class.
    """
    if len(w_classes) != len(v_classes):
        raise InvalidInputError("need equally many H and host classes")
    w_sets = [sorted(set(c)) for c in w_classes]
    v_sets = [sorted(set(c)) for c in v_classes]
    cluster_of = {v: i for i, ws in enumerate(w_sets) for v in ws}
    if len(cluster_of) != sum(map(len, w_sets)) or cluster_of.keys() != set(range(h.n)):
        raise InvalidInputError("the H classes must partition the vertices of H")
    if len(set().union(*v_sets)) != sum(map(len, v_sets)):
        raise InvalidInputError("the host classes must be pairwise disjoint")
    return w_sets, v_sets, cluster_of


def _boundary(
    h: Graph, cluster_of: dict[int, int], num: int, rp: set[tuple[int, int]]
) -> tuple[list[set[int]], list[set[int]]]:
    """The per-class S and T sets of `check_compatibility` for the restricted edges `rp`.

    `rp` holds (min, max) pairs.  An H-edge inside one class adds nothing to S.
    """
    s_sets: list[set[int]] = [set() for _ in range(num)]
    for u, v in h.edges():
        iu, iv = cluster_of[u], cluster_of[v]
        if iu != iv and (min(iu, iv), max(iu, iv)) not in rp:
            s_sets[iu].add(u)
            s_sets[iv].add(v)
    s_all = set().union(*s_sets)
    t_sets: list[set[int]] = [set() for _ in range(num)]
    for v in s_all:
        for u in h.adj(v):
            if u not in s_all:
                t_sets[cluster_of[u]].add(u)
    return s_sets, t_sets


def _boundary_plan(
    h: Graph, cluster_of: dict[int, int], num: int, rp: set[tuple[int, int]]
) -> tuple[list[int], dict[int, list[int]], list[int]]:
    """Phase 1's fixed plan, computed once outside the restarts.

    Returns the boundary vertices (S and T of every class) in placement
    order, most constrained first; each one's same-class peers placed after
    it; and the other vertices whose neighbors are all boundary vertices.
    """
    s_sets, t_sets = _boundary(h, cluster_of, num, rp)
    constrained = set().union(*s_sets, *t_sets)
    order = sorted(constrained, key=lambda v: (-len(h.adj(v) & constrained), v))
    by_class = [[v for v in order if cluster_of[v] == c] for c in range(num)]
    later = {v: vs[i + 1:] for vs in by_class for i, v in enumerate(vs)}
    enclosed = [
        v for v in range(h.n)
        if v not in constrained and h.degree(v) > 0 and h.adj(v) <= constrained
    ]
    return order, later, enclosed


def check_compatibility(
    h: Graph,
    w_classes: list,
    g: Graph,
    v_classes: list,
    r_edges,
    rprime_edges,
    eps,
) -> CompatibilityReport:
    """Exact evaluation of the three compatibility conditions.

    For each index i, S_i holds the W_i vertices with neighbors in some W_j
    where ij is not an edge of the restricted graph; T_i holds the
    neighbors of S inside W_i \\ S.  An H-edge inside a single class counts
    against the reduced-edge condition since the reduced graph has no loops.
    """
    w_sets, v_sets, cluster_of = _class_layout(h, w_classes, v_classes)
    num = len(w_sets)
    eps = as_fraction(eps)
    r = _normalize_edges(r_edges, num)
    rp = _normalize_edges(rprime_edges, num)
    if not rp <= r:
        raise InvalidInputError("the restricted graph must be a subgraph of the reduced graph")

    offending_sizes = [i for i in range(num) if len(w_sets[i]) != len(v_sets[i])]
    offending_edges: list[tuple[int, int]] = []
    for u, v in h.edges():
        iu, iv = cluster_of[u], cluster_of[v]
        key = (min(iu, iv), max(iu, iv))
        if (iu == iv or key not in r) and key not in offending_edges:
            offending_edges.append(key)
    s_sets, t_sets = _boundary(h, cluster_of, num, rp)

    comp = _components(num, rp)
    comp_min: dict[int, int] = {}
    for i in range(num):
        c = comp[i]
        size = len(v_sets[i])
        comp_min[c] = min(comp_min.get(c, size), size)
    offending_bounds = [
        i for i in range(num)
        if Fraction(len(s_sets[i])) > eps * len(v_sets[i])
        or Fraction(len(t_sets[i])) > eps * comp_min[comp[i]]
    ]

    return CompatibilityReport(s_sets, t_sets, offending_sizes, offending_edges, offending_bounds)


def embed_blowup(
    h: Graph,
    w_classes: list,
    g: Graph,
    v_classes: list,
    rprime_edges,
    seed: int = 0,
) -> Embedding:
    """Injective edge-preserving placement of H into G along the class partition.

    Restricted-graph components must be single edges (cluster pairs), and
    every non-empty class must lie in one.  The reassignment budget is
    BUDGET_FACTOR * |H|; exceeding it raises EmbeddingNotFoundError, which
    is a legitimate certified failure.
    """
    w_sets, v_sets, cluster_of = _class_layout(h, w_classes, v_classes)
    rp = sorted(_normalize_edges(rprime_edges, len(w_sets)))
    ends = [i for edge in rp for i in edge]
    if len(set(ends)) < len(ends):
        raise InvalidInputError("restricted-graph components must be single edges")
    for i, (ws, vs) in enumerate(zip(w_sets, v_sets)):
        if len(ws) != len(vs):
            raise InvalidInputError(f"class {i}: |W| = {len(ws)} != |V| = {len(vs)}")
        if ws and i not in ends:
            raise InvalidInputError(f"class {i} is in no restricted edge, so no pair places it")
    for u, v in h.edges():
        if cluster_of[u] == cluster_of[v]:
            raise InvalidInputError(
                f"edge ({u},{v}) stays inside class {cluster_of[u]}; the input is incompatible"
            )
    order, later, enclosed = _boundary_plan(h, cluster_of, len(w_sets), set(rp))

    gmasks = g.masks
    class_masks = [vertex_mask(vs) for vs in v_sets]
    budget = BUDGET_FACTOR * h.n
    spent = 0
    attempt = 0
    phi: dict[int, int] = {}
    used: set[int] = set()

    def admissible(v: int) -> int:
        """Hosts adjacent to the images of v's placed neighbours, as a mask (-1: none placed)."""
        mask = -1
        for u in h.adj(v):
            if u in phi:
                mask &= gmasks[phi[u]]
        return mask

    def candidates(v: int) -> list[int]:
        """The free hosts in v's class that `admissible` allows, in ascending order."""
        mask, out = admissible(v) & class_masks[cluster_of[v]], []
        while mask:
            x = (mask & -mask).bit_length() - 1
            if x not in used:
                out.append(x)
            mask &= mask - 1
        return out

    def place_boundary(rng) -> bool:
        """Phase 1: boundary vertices, most-constrained-by-structure first."""
        for v in order:
            cands = candidates(v)
            if not cands:
                return False
            # Prefer the host vertex that blocks the fewest later peers in
            # the same cluster; random tie-break so restarts explore.
            best = _least_blocked(shuffled(rng, cands), [admissible(u) for u in later[v]])
            phi[v] = best
            used.add(best)
        # An enclosed vertex has a candidate list no pair-level retry can
        # change; if any such list is empty the boundary placement itself is
        # poisoned.
        return all(candidates(v) for v in enclosed)

    while spent <= budget:
        attempt += 1
        rng = make_rng(derive_seed(seed, attempt))
        phi.clear()
        used.clear()
        if not place_boundary(rng):
            spent += len(order)
            continue
        # Phase 2: pairs are host-disjoint and share no unplaced edges, so a
        # failed completion re-rolls locally (the first side's free bijection
        # reshapes the second side's candidate lists); a "stuck" pair, or one
        # out of local tries, sends us back to phase 1.
        for x, y in rp:
            status, tries = "retry", 0
            while status == "retry" and tries < 20 and spent <= budget:
                tries += 1
                spent += len(w_sets[x]) + len(w_sets[y])
                status = _complete_pair(h, phi, used, w_sets, v_sets, x, y, rng, candidates)
            if status != "ok":
                break
        else:
            return Embedding([phi[v] for v in range(h.n)])
    raise EmbeddingNotFoundError(
        f"no embedding within the reassignment budget ({budget} placements)"
    )


def _least_blocked(cands: list[int], allowed: list[int]) -> int:
    """`min(cands, key=lambda c: sum(m >> c & 1 for m in allowed))`, all counted at once.

    Plane i holds bit i of every candidate's count; the minimum is narrowed from the top plane.
    """
    fewest = vertex_mask(cands)
    planes: list[int] = []
    for m in allowed:
        carry = m & fewest
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    for plane in reversed(planes):
        if fewest & ~plane:
            fewest &= ~plane
    return next(c for c in cands if fewest >> c & 1)


def _complete_pair(h, phi, used, w_sets, v_sets, x, y, rng, candidates) -> str:
    """Fill one cluster pair, one side at a time.

    Returns 'ok', 'retry', or 'stuck'; on 'retry' and 'stuck' the pair's own
    placements are taken back.  'stuck' means a vertex failed whose placed
    neighbors were all placed before this pair began, so re-rolling the pair
    cannot change anything.  Each side has one free host for each unplaced
    vertex, so once every bound vertex is matched the leftover hosts take the
    free vertices exactly.
    """
    placed: set[int] = set()

    def undo(status: str) -> str:
        for v in placed:
            used.discard(phi.pop(v))
        return status

    for side in (x, y):
        unplaced = [v for v in w_sets[side] if v not in phi]
        hosts = [c for c in v_sets[side] if c not in used]
        host_index = {c: i for i, c in enumerate(hosts)}
        # Unconstrained vertices take a random bijection slot; constrained
        # ones go through maximum matching on their candidate lists.
        free = [v for v in unplaced if not any(u in phi for u in h.adj(v))]
        free_set = set(free)
        bound = [v for v in unplaced if v not in free_set]
        adjacency = []
        for v in bound:
            cands = candidates(v)
            if not cands and not any(u in placed for u in h.adj(v)):
                return undo("stuck")
            adjacency.append(sorted(host_index[c] for c in cands))
        matching = hopcroft_karp(adjacency, len(hosts))
        if len(matching) < len(bound):
            return undo("retry")
        taken = set(matching.values())
        leftover = shuffled(rng, [c for i, c in enumerate(hosts) if i not in taken])
        placement = {bound[vi]: hosts[ci] for vi, ci in matching.items()}
        placement.update(zip(free, leftover))
        phi.update(placement)
        used.update(placement.values())
        placed.update(placement)
    return "ok"


def verify_embedding(h: Graph, g: Graph, phi) -> bool:
    """Injectivity plus edge preservation, independent of how phi was built."""
    phi = list(phi)
    if len(phi) != h.n:
        return False
    if any(not 0 <= x < g.n for x in phi):
        return False
    if len(set(phi)) != len(phi):
        return False
    return all(g.has_edge(phi[u], phi[v]) for u, v in h.edges())


def embedding_respects_partition(phi, w_classes, v_classes) -> bool:
    for ws, vs in zip(w_classes, v_classes):
        vset = set(vs)
        if any(phi[v] not in vset for v in ws):
            return False
    return True
