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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import EmbeddingNotFoundError, InvalidInputError
from .graph import Graph
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
    sizes_match: bool
    edges_respect_reduced: bool
    boundary_bounded: bool
    s_sets: list[set[int]] = field(repr=False, default_factory=list)
    t_sets: list[set[int]] = field(repr=False, default_factory=list)
    offending_sizes: list[int] = field(default_factory=list)
    offending_edges: list[tuple[int, int]] = field(default_factory=list)
    offending_bounds: list[int] = field(default_factory=list)

    def all_ok(self) -> bool:
        return self.sizes_match and self.edges_respect_reduced and self.boundary_bounded

    def to_json(self) -> dict:
        return {
            "sizes_match": self.sizes_match,
            "edges_respect_reduced": self.edges_respect_reduced,
            "boundary_bounded": self.boundary_bounded,
            "offending_sizes": self.offending_sizes,
            "offending_edges": [list(e) for e in self.offending_edges],
            "offending_bounds": self.offending_bounds,
            "all_ok": self.all_ok(),
        }


@dataclass
class Embedding:
    phi: list[int]


def _normalize_edges(edges) -> set[tuple[int, int]]:
    out = set()
    for e in edges:
        u, v = e
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
    if len(w_classes) != len(v_classes):
        raise InvalidInputError("need equally many H and host classes")
    num = len(w_classes)
    eps = as_fraction(eps)
    w_sets = [set(c) for c in w_classes]
    v_sets = [set(c) for c in v_classes]
    r = _normalize_edges(r_edges)
    rp = _normalize_edges(rprime_edges)
    if not rp <= r:
        raise InvalidInputError("the restricted graph must be a subgraph of the reduced graph")

    cluster_of = {}
    for i, ws in enumerate(w_sets):
        for v in ws:
            cluster_of[v] = i

    sizes_ok = True
    offending_sizes = []
    for i in range(num):
        if len(w_sets[i]) != len(v_sets[i]):
            sizes_ok = False
            offending_sizes.append(i)

    offending_edges: list[tuple[int, int]] = []
    for u, v in h.edges():
        iu, iv = cluster_of[u], cluster_of[v]
        key = (min(iu, iv), max(iu, iv))
        if (iu == iv or key not in r) and key not in offending_edges:
            offending_edges.append(key)
    edges_ok = not offending_edges
    s_sets, t_sets = _boundary(h, cluster_of, num, rp)

    comp = _components(num, rp)
    comp_min: dict[int, int] = {}
    for i in range(num):
        c = comp[i]
        size = len(v_sets[i])
        comp_min[c] = min(comp_min.get(c, size), size)

    bounds_ok = True
    offending_bounds = []
    for i in range(num):
        n_i = len(v_sets[i])
        if Fraction(len(s_sets[i])) > eps * n_i:
            bounds_ok = False
            offending_bounds.append(i)
        elif Fraction(len(t_sets[i])) > eps * comp_min[comp[i]]:
            bounds_ok = False
            offending_bounds.append(i)

    return CompatibilityReport(
        sizes_ok, edges_ok, bounds_ok,
        s_sets, t_sets, offending_sizes, offending_edges, offending_bounds,
    )


def embed_blowup(
    h: Graph,
    w_classes: list,
    g: Graph,
    v_classes: list,
    rprime_edges,
    seed: int = 0,
) -> Embedding:
    """Injective edge-preserving placement of H into G along the class partition.

    Restricted-graph components must be single edges (cluster pairs).  The
    reassignment budget is BUDGET_FACTOR * |H|; exceeding it raises
    EmbeddingNotFoundError, which is a legitimate certified failure.
    """
    num = len(w_classes)
    w_sets = [sorted(set(c)) for c in w_classes]
    v_sets = [sorted(set(c)) for c in v_classes]
    rp = sorted(_normalize_edges(rprime_edges))
    touched: set[int] = set()
    for x, y in rp:
        if x in touched or y in touched:
            raise InvalidInputError("restricted-graph components must be single edges")
        touched.add(x)
        touched.add(y)
    for i in range(num):
        if len(w_sets[i]) != len(v_sets[i]):
            raise InvalidInputError(f"class {i}: |W| = {len(w_sets[i])} != |V| = {len(v_sets[i])}")

    cluster_of = {}
    for i, ws in enumerate(w_sets):
        for v in ws:
            cluster_of[v] = i

    for u, v in h.edges():
        if cluster_of[u] == cluster_of[v]:
            raise InvalidInputError(
                f"edge ({u},{v}) stays inside class {cluster_of[u]}; the input is incompatible"
            )
    # Boundary vertices (S and T of every class) are placed first.
    s_sets, t_sets = _boundary(h, cluster_of, num, set(rp))
    constrained = sorted(set().union(*s_sets, *t_sets))

    gmasks = g.masks
    budget = BUDGET_FACTOR * h.n
    spent = 0
    attempt = 0
    constrained_set = set(constrained)
    order = sorted(
        constrained,
        key=lambda v: (-sum(1 for u in h.adj(v) if u in constrained_set), v),
    )
    # Fixed once the boundary is known, so computed outside the restarts:
    # each boundary vertex's same-class peers placed after it, and the other
    # vertices whose neighbors are all boundary vertices.
    by_class = [[v for v in order if cluster_of[v] == c] for c in range(num)]
    later = {v: vs[i + 1:] for vs in by_class for i, v in enumerate(vs)}
    enclosed = [
        v for v in range(h.n)
        if v not in constrained_set and h.degree(v) > 0 and h.adj(v) <= constrained_set
    ]

    while spent <= budget:
        attempt += 1
        rng = make_rng(derive_seed(seed, attempt))
        phi: dict[int, int] = {}
        used: set[int] = set()

        def admissible(v: int) -> int:
            """Hosts adjacent to the images of v's placed neighbours, as a mask (-1: none placed)."""
            mask = -1
            for u in h.adj(v):
                if u in phi:
                    mask &= gmasks[phi[u]]
            return mask

        def candidates(v: int, pool: list[int]) -> list[int]:
            mask = admissible(v)
            return [x for x in pool if x not in used and mask >> x & 1]

        # Phase 1: boundary vertices, most-constrained-by-structure first.
        ok = True
        for v in order:
            cands = candidates(v, v_sets[cluster_of[v]])
            if not cands:
                ok = False
                break
            # Prefer the host vertex that blocks the fewest later peers in
            # the same cluster; random tie-break so restarts explore.
            allowed = [admissible(u) for u in later[v]]
            best = min(shuffled(rng, cands), key=lambda c: sum(m >> c & 1 for m in allowed))
            phi[v] = best
            used.add(best)
        # An enclosed vertex has a candidate list no pair-level retry can
        # change; if any such list is empty the boundary placement itself is
        # poisoned.
        if not ok or not all(candidates(v, v_sets[cluster_of[v]]) for v in enclosed):
            spent += len(constrained)
            continue

        # Phase 2: pairs are host-disjoint and share no unplaced edges, so a
        # failed completion re-rolls locally (the first side's free bijection
        # reshapes the second side's candidate lists); a failure that does
        # not involve this pair's own placements sends us back to phase 1.
        ok = True
        for x, y in rp:
            pair_cost = len(w_sets[x]) + len(w_sets[y])
            done = False
            local_tries = 0
            while spent <= budget and local_tries < 20:
                local_tries += 1
                spent += pair_cost
                placed: set[int] = set()
                status = _complete_pair(h, phi, used, placed, w_sets, v_sets, x, y, rng,
                                        candidates)
                if status == "ok":
                    done = True
                    break
                # A failed try takes back its own placements and nothing else.
                for v in placed:
                    used.discard(phi.pop(v))
                if status == "stuck":
                    break
            if not done:
                ok = False
                break
        if ok:
            break
    else:
        raise EmbeddingNotFoundError(
            f"no embedding within the reassignment budget ({budget} placements)"
        )
    return Embedding([phi[v] for v in range(h.n)])


def _complete_pair(h, phi, used, placed_here, w_sets, v_sets, x, y, rng, candidates) -> str:
    """Fill one cluster pair, adding each H vertex it places to `placed_here`.

    Returns 'ok', 'retry', or 'stuck'.  'stuck' means a vertex failed whose
    placed neighbors were all placed before this pair began, so re-rolling
    the pair cannot change anything.
    """
    for side in (x, y):
        unplaced = [v for v in w_sets[side] if v not in phi]
        hosts = [c for c in v_sets[side] if c not in used]
        if len(unplaced) > len(hosts):
            return "stuck"
        host_index = {c: i for i, c in enumerate(hosts)}
        # Unconstrained vertices take a random bijection slot; constrained
        # ones go through maximum matching on their candidate lists.
        free = [v for v in unplaced if not any(u in phi for u in h.adj(v))]
        free_set = set(free)
        bound = [v for v in unplaced if v not in free_set]
        adjacency = []
        for v in bound:
            cands = candidates(v, v_sets[side])
            if not cands and not any(u in placed_here for u in h.adj(v)):
                return "stuck"
            adjacency.append(sorted(host_index[c] for c in cands))
        matching = hopcroft_karp(adjacency, len(hosts))
        if len(matching) < len(bound):
            return "retry"
        taken = set(matching.values())
        for vi, ci in matching.items():
            phi[bound[vi]] = hosts[ci]
            used.add(hosts[ci])
            placed_here.add(bound[vi])
        leftover = [hosts[i] for i in range(len(hosts)) if i not in taken]
        leftover = shuffled(rng, leftover)
        if len(free) > len(leftover):
            return "retry"
        for v, c in zip(free, leftover):
            phi[v] = c
            used.add(c)
            placed_here.add(v)
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
