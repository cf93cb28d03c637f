"""Reference implementations and helpers that only the tests use.

Each oracle is a plain, slow restatement of a rule the library computes
faster, or a fact the source paper needs only in its proofs (the Bin(n, 1/2)
residue law, the perturbation bound for regular pairs, a small-graph
perfect-matching test).  They live beside the tests rather than beside the
code they check, so the two cannot drift together; no library code calls
anything here.  Standard library only: the CI imports this module under
`python -S`.
"""

from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace
from fractions import Fraction
from functools import lru_cache
from math import sqrt

from bandembed.embedder import BUDGET_FACTOR, _boundary_plan, _class_layout, _least_blocked
from bandembed.errors import (
    DecompositionError,
    EmbeddingNotFoundError,
    InvalidInputError,
    ParameterError,
    RetryBudgetError,
)
from bandembed.graph import BandwidthOrdering, Graph, _subset_tables, at_least, vertex_mask
from bandembed.homomorphism import (
    MAX_RETRIES,
    AttemptDiagnostics,
    Homomorphism,
    _walk_phase,
    chop_into_segments,
)
from bandembed.hostgen import HostBundle
from bandembed.partition import _CONFIG_FIELDS, ClusterPartition, Config
from bandembed.regularity import (
    _extreme_violation,
    _flagged,
    _lanes,
    _random_candidates,
    _slot_width,
    pair_density,
)
from bandembed.rng import as_fraction, ceil_frac, derive_seed, make_rng, shuffled
from bandembed.walks import Matching, _require_perfect


def verify_homomorphism_certificate_reference(
    h: Graph,
    f: list[int],
    boundary: set[int],
    sizes: list[int],
    xi,
    chord: tuple[int, int],
) -> dict:
    """The certificate recheck judged edge by edge: one `on_cycle` call per edge.

    Same result as `homomorphism.verify_homomorphism_certificate` on every
    map whose entries are all ints; an entry of another type may raise here.
    """
    n = h.n
    two_k = len(sizes)
    xi_n = as_fraction(xi) * n
    chord_set = {min(chord), max(chord)}
    hom_valid = len(f) == n
    if not hom_valid:
        f = (list(f) + [two_k] * n)[:n]

    def on_cycle(x: int, y: int) -> bool:
        if x == y:
            return False
        a, b = min(x, y), max(x, y)
        if b - a == 1:
            return True
        if a == 0 and b == two_k - 1:
            return True
        return {a, b} == chord_set

    edges_on_pairs = True
    for u, v in h.edges():
        if not on_cycle(f[u], f[v]):
            hom_valid = False
        if not (u in boundary and v in boundary):
            a, b = min(f[u], f[v]), max(f[u], f[v])
            if not (b - a == 1 and a % 2 == 0):
                edges_on_pairs = False

    counts = [0] * two_k
    for v in range(n):
        if not 0 <= f[v] < two_k:
            hom_valid = False
        else:
            counts[f[v]] += 1

    boundary_small = Fraction(len(boundary)) <= xi_n
    loads_bounded = all(Fraction(counts[i]) <= sizes[i] + xi_n for i in range(two_k))
    return {
        "homomorphism_valid": hom_valid,
        "boundary_small": boundary_small,
        "loads_bounded": loads_bounded,
        "edges_on_pairs": edges_on_pairs,
        "all_ok": hom_valid and boundary_small and loads_bounded and edges_on_pairs,
        "loads": counts,
    }


def edges_reference(edge_list):
    """`Graph(n, edge_list).edges()` from the input list: each edge once, (u, v), u < v, sorted."""
    return tuple(sorted({(min(e), max(e)) for e in edge_list}))


class FrozensetGraph:
    """`Graph` as it was when it kept one frozenset per vertex, built edge by edge.

    Same vertex count, adjacency, degrees, edges, masks, equality and error
    messages as `bandembed.graph.Graph`; `from_sets` restates
    `Graph.from_masks` on neighbour sets.  Its edges list each vertex's
    neighbours in set order, so only their set is comparable.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidInputError(f"vertex count {n!r} is not a nonnegative integer")
        adj: list[set[int]] = [set() for _ in range(n)]
        try:
            edges = iter(edges)
        except TypeError:
            raise InvalidInputError(f"edge list {edges!r} is not iterable") from None
        for e in edges:
            try:
                u, v = e
                if not (1 < u < n and 1 < v < n):
                    if bool in (type(u), type(v)):
                        raise TypeError("bool endpoint")
                    if not (0 <= u < n and 0 <= v < n):
                        raise InvalidInputError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
                if u == v:
                    raise InvalidInputError(f"loop edge ({u},{v}) is not allowed")
                if v in adj[u]:
                    raise InvalidInputError(f"duplicate edge ({u},{v})")
                adj[u].add(v)
                adj[v].add(u)
            except InvalidInputError:
                raise
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"edge {e!r} is not a pair of integer vertices") from exc
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)

    @classmethod
    def from_sets(cls, sets):
        """Per-vertex neighbour sets: each in range, then each listed neighbour in order,
        which must not be the vertex itself and must list it back."""
        n = len(sets)
        for v, s in enumerate(sets):
            if not all(isinstance(u, int) and 0 <= u < n for u in s):
                raise InvalidInputError(
                    f"adjacency mask of vertex {v} is not a set of vertices in [0,{n})")
        for u in range(n):
            for v in sorted(sets[u]):
                if u == v:
                    raise InvalidInputError(f"loop edge ({u},{u}) is not allowed")
                if u not in sets[v]:
                    raise InvalidInputError(
                        f"adjacency is not symmetric: {u} lists {v}, {v} does not list {u}")
        g = cls(n, [])
        g._adj = tuple(frozenset(s) for s in sets)
        return g

    def adj(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def max_degree(self) -> int:
        return max((len(s) for s in self._adj), default=0)

    @property
    def masks(self) -> list[int]:
        return [vertex_mask(s) for s in self._adj]

    def __eq__(self, other):
        return isinstance(other, FrozensetGraph) and self.n == other.n and self._adj == other._adj

    def __hash__(self):
        return hash((self.n, self._adj))


def chop_reference(
    h: Graph,
    ordering: BandwidthOrdering,
    bipartition: tuple,
    beta,
    m1: int,
    delta: int,
) -> SimpleNamespace:
    """Window the ordering into m1 segment pairs and certify the cut structure.

    The list-based chop: per-segment vertex lists, each repair a rescan for
    the smallest movable vertex, and side codes rebuilt from the lists.  Same
    boundary, crossing edges, side of every vertex and errors as
    `homomorphism.chop_into_segments`; the result also holds the sorted
    `a_segments` and `b_segments`.

    A-class vertices are windowed with a beta*n offset, B-class vertices
    without; the boundary set S collects the positions within 2*beta*n below
    or beta*n above a window edge.  Undersized segments are repaired by
    reassigning isolated vertices from their partner segment.  The four
    structural properties (pair sizes, boundary size, edges confined to
    pairs, boundary edges confined to adjacent pairs) are checked exactly
    and failure names the property.
    """
    n = h.n
    ordering.validate_bijection(n)
    beta = as_fraction(beta)
    if m1 < 1 or not 0 <= beta < 1:
        raise ParameterError("need m1 >= 1 and 0 <= beta < 1")
    class_a, class_b = set(bipartition[0]), set(bipartition[1])
    if class_a & class_b or class_a | class_b != set(range(n)):
        raise InvalidInputError("bipartition must split the vertex set")
    for u, v in h.edges():
        if (u in class_a) == (v in class_a):
            raise InvalidInputError(f"edge ({u},{v}) stays inside one class")

    # With beta*n = bnum/bden, ceil((s + c*beta*n)*m1/n) is the integer
    # ceiling of (s*bden + c*bnum)*m1 / (n*bden).
    bn = beta * n
    bnum, bden = bn.numerator, bn.denominator
    nden = n * bden
    a_segments: list[list[int]] = [[] for _ in range(m1)]
    b_segments: list[list[int]] = [[] for _ in range(m1)]
    boundary: set[int] = set()

    for v in range(n):
        s = ordering.labels[v] + 1  # positions are 1-based in the windowing
        sd = s * bden
        if v in class_a:
            if sd > nden - bnum:
                i = m1
            else:
                i = -((-(sd + bnum) * m1) // nden)
            a_segments[i - 1].append(v)
        else:
            j = -((-s * m1) // n)
            b_segments[j - 1].append(v)
        i_lo = -((-(sd - bnum) * m1) // nden)
        i_hi = -((-(sd + 2 * bnum) * m1) // nden) - 1
        if max(1, i_lo) <= min(m1, i_hi):
            boundary.add(v)

    min_size = Fraction(n, 4 * delta * m1) if delta > 0 else Fraction(0)

    def repair(into: list[list[int]], partner: list[list[int]], i: int) -> None:
        while len(into[i]) < min_size:
            v = min((u for u in partner[i] if u not in boundary and h.degree(u) == 0),
                    default=None)
            if v is None:
                raise DecompositionError(
                    f"segment {i} cannot reach size {min_size}: "
                    "no isolated vertices left to reassign"
                )
            partner[i].remove(v)
            into[i].append(v)
            # v changes color class; being isolated, it keeps the bipartition valid.

    for i in range(m1):
        repair(a_segments, b_segments, i)
        repair(b_segments, a_segments, i)

    sides = [side for pair in zip(a_segments, b_segments) for side in pair]
    side_of = {v: code for code, side in enumerate(sides) for v in side}
    decomp = SimpleNamespace(
        a_segments=[sorted(s) for s in a_segments], b_segments=[sorted(s) for s in b_segments],
        boundary=boundary, beta=beta, m1=m1, segment_of=[side_of[v] for v in range(n)],
    )
    decomp.crossing = _certify_chop_reference(h, decomp)
    return decomp


def _certify_chop_reference(h: Graph, decomp: SimpleNamespace) -> list[tuple[int, int]]:
    """Check the four cut properties; return the crossing edges B_i -- A_{i+1}."""
    n = h.n
    m1 = decomp.m1
    bn = decomp.beta * n
    # n/m1 - beta*n <= size <= n/m1 + beta*n, times m1 * bn.denominator.
    lo = n * bn.denominator - m1 * bn.numerator
    hi = n * bn.denominator + m1 * bn.numerator
    for i in range(m1):
        size = len(decomp.a_segments[i]) + len(decomp.b_segments[i])
        if not lo <= size * m1 * bn.denominator <= hi:
            raise DecompositionError(f"pair size property fails at segment {i}: {size}")
    if len(decomp.boundary) * bn.denominator > 3 * m1 * bn.numerator:
        raise DecompositionError(
            f"boundary property fails: |S| = {len(decomp.boundary)} > 3*m1*beta*n"
        )
    role = [("AB"[side % 2], side // 2) for side in decomp.segment_of]
    s = decomp.boundary
    crossing = []
    for u, v in h.edges():
        ru, rv = role[u], role[v]
        if ru[1] == rv[1] and ru[0] != rv[0]:
            continue  # inside one segment pair
        if not (u in s and v in s):
            raise DecompositionError(
                f"interior-edge property fails at edge ({u},{v}): {ru} vs {rv}"
            )
        if not ((ru[0] == "B" and rv[0] == "A" and rv[1] == (ru[1] + 1) % m1)
                or (rv[0] == "B" and ru[0] == "A" and ru[1] == (rv[1] + 1) % m1)):
            raise DecompositionError(
                f"boundary-edge property fails at edge ({u},{v}): {ru} vs {rv}"
            )
        crossing.append((u, v))
    return crossing


def eager_plan(plan, shape) -> SimpleNamespace:
    """The library plan of `shape` = (h, ordering, bipartition, sizes, chord,
    params), plus what `sample_reference` reads and the plan no longer keeps.

    The crossing edges are the chop's, in place of the plan's side pairs: the
    chop is rerun with the plan's arguments, the larger class in the A role.
    The segment lists are read back from the plan's segment sides; the spread
    bounds are recomputed as Fractions from their formula in
    `homomorphism._memo_plan`: each phase's even share of its blocks, tilted
    by (|A| - |B|)/(4k') up for A and down for B, plus xi*n/(6k') of slack.
    """
    h, ordering, bipartition, _, _, params = shape
    n, kprime = len(plan.segment_of), plan.kprime
    classes = bipartition[::-1] if plan.roles_swapped else bipartition
    chop = chop_into_segments(h, ordering, classes, Fraction(ordering.claimed_bound, n),
                              params.m1, max(1, h.max_degree()))
    sides = [[v for v in range(n) if plan.segment_of[v] == code]
             for code in range(len(plan.segment_sizes))]
    a_segments, b_segments = sides[0::2], sides[1::2]
    xi_n = as_fraction(params.xi) * n
    slack = xi_n / (6 * kprime)
    tilt = Fraction(sum(map(len, a_segments)) - sum(map(len, b_segments)), 4 * kprime)
    m3, m2 = len(plan.phases[0]), params.m2
    shares = [Fraction(count * n, m2 * 2 * kprime) for count in (m3, m2 - m3)]
    return SimpleNamespace(
        **dict(vars(plan), crossing=chop.crossing),
        n=n,
        params=params,
        a_segments=a_segments,
        b_segments=b_segments,
        spread_bounds=[(share + tilt + slack, share - tilt + slack) for share in shares],
    )


def sample_reference(plan, seed: int) -> Homomorphism:
    """The sampler that judges each draw from its full map, vertex by vertex.

    Every draw builds f2 and f, judges every crossing edge, counts loads one
    vertex at a time and compares them and the spreads with Fraction bounds.
    `plan` is `eager_plan(p, shape)` for the library plan p of `shape`; the
    result equals `homomorphism._sample(p, seed)`, every attempt's diagnostics
    and coin logs included.
    """
    n, kprime = plan.n, plan.kprime
    xi = as_fraction(plan.params.xi)
    draws = max(MAX_RETRIES, 8 * kprime)
    diagnostics: list[AttemptDiagnostics] = []

    for attempt in range(1, MAX_RETRIES + 1):
        rng = make_rng(derive_seed(seed, attempt))
        coin_logs: list[list[int]] = []
        walks = []
        for phase in (0, 1):
            walk = _walk_phase(plan, phase, rng, draws)
            if walk is None:
                break
            start, slots, logs = walk
            coin_logs.extend(logs)
            walks.append((start, slots))
        if len(walks) < 2:
            start = walks[0][0] if walks else None
            diagnostics.append(AttemptDiagnostics(start, None, coin_logs, True,
                                                  None, None, None, None))
            continue

        # Phase 0 puts A segments on even cycle vertices, phase 1 on odd ones.
        f2 = [0] * n
        for phase, (_, slots) in enumerate(walks):
            for t, p in slots.items():
                for v in plan.a_segments[t]:
                    f2[v] = 2 * p + phase
                for v in plan.b_segments[t]:
                    f2[v] = 2 * p + 1 - phase
        f = [plan.f1[x] for x in f2]

        # An edge inside segment pair t lands on 2p and 2p+1, p = slots[t],
        # which f1 maps onto a host pair: on the cycle and on a pair under
        # every schedule.  So edges_on_pairs holds and only crossing edges
        # can break validity.
        valid = all(plan.cycle.has_edge(f2[u], f2[v]) for u, v in plan.crossing)
        loads = [0] * len(plan.sizes)
        for c in f:
            loads[c] += 1
        loads_bounded = all(load <= size + xi * n for load, size in zip(loads, plan.sizes))

        spread: list[bool | None] = [None, None]
        if valid:
            for phase, (_, slots) in enumerate(walks):
                a_counts = [0] * kprime
                b_counts = [0] * kprime
                for sober, _ in plan.phases[phase]:
                    for t in sober:
                        a_counts[slots[t]] += len(plan.a_segments[t])
                        b_counts[slots[t]] += len(plan.b_segments[t])
                a_bound, b_bound = plan.spread_bounds[phase]
                spread[phase] = (all(x <= a_bound for x in a_counts)
                                 and all(x <= b_bound for x in b_counts))

        diag = AttemptDiagnostics(walks[0][0], walks[1][0], coin_logs, False,
                                  valid, loads_bounded, spread[0], spread[1])
        diagnostics.append(diag)
        if diag.accepted:
            return Homomorphism(
                f=f,
                boundary=set(plan.boundary),
                chord=plan.chord,
                sizes=list(plan.sizes),
                kprime=kprime,
                roles_swapped=plan.roles_swapped,
                attempts=attempt,
                diagnostics=diagnostics,
            )

    raise RetryBudgetError(
        f"no accepted assignment in {MAX_RETRIES} attempts "
        f"(last diagnostics: {diagnostics[-1] if diagnostics else None})"
    )


def degrees_by_lanes(nbrs, a_list, lanes):
    """Each B-vertex's degree into every candidate as the random block summed
    it before its byte tables: one lane added per A-neighbour.  Same ints as
    `regularity._degrees`."""
    lane_of = dict(zip(a_list, lanes))
    return [sum(map(lane_of.__getitem__, nb)) for nb in nbrs]


def first_refuted_by_lanes(nbrs, a_list, xs, lanes, q: int, bounds):
    """The lane kernel as every block used it before the popcount kernel: all
    X's summed at once, each flagged slot read with one big-int shift per
    B-vertex.  Same (X, Y) as `regularity._first_refuted`."""
    width = _slot_width(len(a_list))
    degrees = degrees_by_lanes(nbrs, a_list, lanes)
    slot = (1 << width) - 1
    for s in _flagged(degrees, [len(x) for x in xs], width, *bounds):
        y = _extreme_violation([deg >> s * width & slot for deg in degrees], len(xs[s]), q, *bounds)
        if y is not None:
            return xs[s], y
    return None


def first_violating_x_by_ladders(nbrs, a_list, p_min: int, q: int,
                                 hi_num: int, hi_den: int, lo_num: int, lo_den: int):
    """The exact pair kernel as it was before its bit planes: the top-q and
    bottom-q sums are two `at_least` ladders up to |A|*q + 1, read at clamped
    thresholds.  Same least violating X as `regularity._first_violating_x`."""
    na, nb = len(a_list), len(nbrs)
    if p_min > na:
        return None
    lanes, size = _subset_tables(na)
    lane_of = dict(zip(a_list, lanes))
    full = (1 << (1 << na)) - 1
    degree = [at_least(list(map(lane_of.__getitem__, nb_j)), na, full) for nb_j in nbrs]
    cnt = [at_least([deg[t] for deg in degree], nb, full) for t in range(1, na + 1)]
    # top[k] / bottom[k]: lanes whose q largest / smallest X-degrees sum to at least k.
    cap = na * q + 1
    top = at_least([c[j] for c in cnt for j in range(1, q + 1)], cap, full)
    bottom = at_least([c[j] for c in cnt for j in range(nb - q + 1, nb + 1)], cap, full)
    bad = 0
    for p in range(p_min, na + 1):
        high = min(max(-(-p * q * hi_num // hi_den), 0), cap)
        low = min(max(p * q * lo_num // lo_den + 1, 0), cap)
        bad |= size[p] & ~size[p + 1] & (top[high] | ~bottom[low])
    return (bad & -bad).bit_length() - 1 if bad else None


def heuristic_verdict_by_lanes(g: Graph, a_side, b_side, eps, d, budget: int):
    """(regular, witness) of a heuristic `check_regular_pair`, both candidate
    blocks decided by `first_refuted_by_lanes`.

    The degree outliers are the heuristic's documented rule, with the
    A-degrees counted from adjacency sets; the random block is the library's
    fixed family.
    """
    eps, d = as_fraction(eps), as_fraction(d)
    a, b = sorted(set(a_side)), sorted(set(b_side))
    dens = pair_density(g, a, b)
    if dens < d:
        return False, None
    na, nb = len(a), len(b)
    p_min, q_min = max(1, ceil_frac(eps * na)), max(1, ceil_frac(eps * nb))
    if p_min > na:
        return True, None
    a_set, b_set = frozenset(a), frozenset(b)
    nbrs = [g.adj(v) & a_set for v in b]
    hi, lo = dens + eps, dens - eps
    bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)
    degs = [len(g.adj(v) & b_set) for v in a]
    by_deg = sorted(range(na), key=degs.__getitem__)
    sizes = sorted({p_min, max(p_min, na // 4), max(p_min, na // 2), na})
    ends = [tuple(x) for p in sizes for x in (by_deg[:p], by_deg[-p:])]
    outliers = [x for i, x in enumerate(ends) if x not in ends[:i]][:budget]
    hit = first_refuted_by_lanes(nbrs, a, outliers, _lanes(na, outliers), q_min, bounds)
    if hit is None and budget > len(outliers):
        xs = _random_candidates(na, p_min, budget - len(outliers))[0]
        hit = first_refuted_by_lanes(nbrs, a, xs, _lanes(na, xs), q_min, bounds)
    if hit is None:
        return True, None
    return False, (frozenset(a[i] for i in hit[0]), frozenset(b[j] for j in hit[1]))


def boundary_reference(
    h: Graph, cluster_of: list[int] | dict[int, int], num: int
) -> tuple[list[set[int]], list[set[int]]]:
    """The per-class S and T sets of `check_compatibility`; cluster_of[v] is v's class.

    An H-edge inside one class or one cluster pair adds nothing to S.
    `embedder._boundary` intersected with each class gives the same sets.
    """
    s_sets: list[set[int]] = [set() for _ in range(num)]
    for u, v in h.edges():
        iu, iv = cluster_of[u], cluster_of[v]
        if iu != iv and iu ^ 1 != iv:
            s_sets[iu].add(u)
            s_sets[iv].add(v)
    s_all = set().union(*s_sets)
    t_sets: list[set[int]] = [set() for _ in range(num)]
    for v in s_all:
        for u in h.adj(v):
            if u not in s_all:
                t_sets[cluster_of[u]].add(u)
    return s_sets, t_sets


def offending_classes_reference(h: Graph, f: list[int], sizes: list[int], eps) -> list[int]:
    """The classes breaking the boundary bound, counted from the per-class sets
    of `boundary_reference`.  Same list as `embedder.check_compatibility` on
    every input that function accepts."""
    num = len(sizes)
    eps = as_fraction(eps)
    s_sets, t_sets = boundary_reference(h, f, num)
    return [i for i in range(num) if len(s_sets[i]) > eps * sizes[i]
            or len(t_sets[i]) > eps * min(sizes[i], sizes[i ^ 1])]


def least_blocked_unfiltered(fewest: int, cands: list[int], allowed: list[int]) -> int:
    """`embedder._least_blocked` before it skipped uniform masks: every mask is counted."""
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


def hopcroft_karp_lists(adjacency: list[list[int]], n_right: int) -> dict[int, int]:
    """`matching.hopcroft_karp` as it was on adjacency lists over right
    indices 0..n_right-1, neighbours tried in list order.

    On ascending lists it gives the mask kernel's dict, in the same item
    order; on any order it gives the textbook recursive form's.
    """
    inf = float("inf")
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

    def dfs(root: int) -> bool:
        # The recursion unrolled, so augmenting paths may be longer than the
        # interpreter's recursion limit: each frame holds a left vertex and
        # the index of the neighbour it is trying.
        stack = [[root, 0]]
        while stack:
            frame = stack[-1]
            u, i = frame
            if i == len(adjacency[u]):
                dist[u] = inf
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


def embed_blowup_reference(h: Graph, w_classes: list, g: Graph, v_classes: list,
                           seed: int = 0) -> list[int]:
    """`embedder.embed_blowup` as it was before its masks were narrowed in
    place: in both phases every candidate list and every later peer's mask is
    rebuilt from phi, a pair re-roll takes back only its placements, and a
    set of used hosts stands for the vacant masks.  A short first side is
    'stuck', as in the library.

    Same map, or the same `EmbeddingNotFoundError`, on every input.
    """
    w_sets, v_sets, cluster_of = _class_layout(h, w_classes, g, v_classes)
    order, later, enclosed = _boundary_plan(h, cluster_of, len(w_sets))
    gmasks = g.masks
    class_masks = [vertex_mask(vs) for vs in v_sets]
    budget = BUDGET_FACTOR * h.n
    spent = 0
    attempt = 0
    phi: dict[int, int] = {}
    used: set[int] = set()

    def admissible(v: int) -> int:
        mask = -1
        for u in h.adj(v):
            if u in phi:
                mask &= gmasks[phi[u]]
        return mask

    def candidates(v: int) -> list[int]:
        mask, out = admissible(v) & class_masks[cluster_of[v]], []
        while mask:
            x = (mask & -mask).bit_length() - 1
            if x not in used:
                out.append(x)
            mask &= mask - 1
        return out

    def place_boundary(rng) -> bool:
        for v in order:
            cands = candidates(v)
            if not cands:
                return False
            best = _least_blocked(vertex_mask(cands), shuffled(rng, cands),
                                 [admissible(u) for u in later[v]])
            phi[v] = best
            used.add(best)
        return all(candidates(v) for v in enclosed)

    def complete_pair(x: int, rng) -> str:
        placed: set[int] = set()

        def undo(status: str) -> str:
            for v in placed:
                used.discard(phi.pop(v))
            return status

        for side in (x, x + 1):
            unplaced = [v for v in w_sets[side] if v not in phi]
            hosts = [c for c in v_sets[side] if c not in used]
            host_index = {c: i for i, c in enumerate(hosts)}
            free = [v for v in unplaced if not any(u in phi for u in h.adj(v))]
            bound = [v for v in unplaced if v not in set(free)]
            adjacency = []
            for v in bound:
                cands = candidates(v)
                if not cands and not any(u in placed for u in h.adj(v)):
                    return undo("stuck")
                adjacency.append(sorted(host_index[c] for c in cands))
            matching = hopcroft_karp_lists(adjacency, len(hosts))
            if len(matching) < len(bound):
                # The first side's inputs are those on entry, and nothing
                # random is drawn before its matching: a re-roll repeats it.
                return undo("stuck" if side == x else "retry")
            taken = set(matching.values())
            leftover = shuffled(rng, [c for i, c in enumerate(hosts) if i not in taken])
            placement = {bound[vi]: hosts[ci] for vi, ci in matching.items()}
            placement.update(zip(free, leftover))
            phi.update(placement)
            used.update(placement.values())
            placed.update(placement)
        return "ok"

    while spent <= budget:
        attempt += 1
        rng = make_rng(derive_seed(seed, attempt))
        phi.clear()
        used.clear()
        if not place_boundary(rng):
            spent += len(order)
            continue
        for x in range(0, len(w_sets), 2):
            status, tries = "retry", 0
            while status == "retry" and tries < 20 and spent <= budget:
                tries += 1
                spent += len(w_sets[x]) + len(w_sets[x + 1])
                status = complete_pair(x, rng)
            if status != "ok":
                break
        else:
            return [phi[v] for v in range(h.n)]
    raise EmbeddingNotFoundError(
        f"no embedding within the reassignment budget ({budget} placements)"
    )


# The two seeded generators as they were before the final top-up sweep stopped
# at its last short vertex and before their edges were streamed into Graph,
# copied verbatim.  `hostgen` must give the same graphs, adjacency iteration
# order and partitions.

def _bernoulli_row(rng, vertices, threshold: int) -> list[int]:
    """The vertices kept by one 30-bit draw each, below `threshold`, in order."""
    return [v for v in vertices if rng.getrandbits(30) < threshold]


def gen_super_regular_host_reference(
    k: int,
    size: int,
    d: float,
    chords: tuple | None = None,
    seed: int = 0,
) -> HostBundle:
    """Blown-up cycle host with random pair interiors and recorded chords.

    Consecutive cycle pairs (A_i, B_i) and (B_i, A_{i+1}) and the two chord
    pairs are independent bipartite graphs at the given density; nothing
    else is present.  Vertices of an (A_i, B_i) pair falling under the
    degree floor 0.6*d*size are resampled (up to 100 rounds, then topped up
    deterministically), so those pairs meet a one-sided minimum degree by
    construction.
    """
    if k < 2 or size < 1:
        raise InvalidInputError("need k >= 2 pairs of size >= 1")
    if not 0 < d <= 1:
        raise InvalidInputError("density must lie in (0, 1]")
    if chords is None:
        chords = ((0, 2), (0, 2)) if k >= 3 else ((0, 1), (0, 1))

    n = 2 * k * size
    classes = [list(range(c * size, (c + 1) * size)) for c in range(2 * k)]
    rng = make_rng(seed)
    threshold = int(d * (1 << 30))
    adj: list[set[int]] = [set() for _ in range(n)]

    def link(u: int, vs: list[int]) -> None:
        adj[u].update(vs)
        for v in vs:
            adj[v].add(u)

    def deg(u: int, other: list[int]) -> int:
        return len(adj[u].intersection(other))

    def top_up(u: int, other: list[int]) -> None:
        # Always shuffles, even when u already meets the floor: the draws it
        # consumes are part of the seeded stream that later rows depend on.
        missing = max(0, floor - deg(u, other))
        link(u, [v for v in shuffled(rng, other) if v not in adj[u]][:missing])

    partition = ClusterPartition([set(c) for c in classes], *map(tuple, chords))
    for x, y in partition.skeleton():
        for u in classes[x]:
            link(u, _bernoulli_row(rng, classes[y], threshold))

    if d < 1:
        floor = max(1, int(0.6 * d * size + 0.999999))
        sides = []
        for i in range(k):
            a_cls, b_cls = classes[2 * i], classes[2 * i + 1]
            sides += [(u, b_cls) for u in a_cls] + [(u, a_cls) for u in b_cls]
        for u, other in sides:
            for _ in range(100):
                if deg(u, other) >= floor:
                    break
                adj[u].difference_update(other)
                for v in other:
                    adj[v].discard(u)
                link(u, _bernoulli_row(rng, other, threshold))
            if deg(u, other) < floor:
                top_up(u, other)
        # Resampling one row can steal an edge from the opposite side, so a
        # final addition-only sweep restores the floor monotonically.
        for u, other in sides:
            top_up(u, other)

    edges = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    return HostBundle(Graph(n, edges), partition)


def gen_random_graph_reference(n: int, p: float, seed: int = 0) -> Graph:
    """Uniform edge sampling at probability p, seeded."""
    if n < 0 or not 0 <= p <= 1:
        raise InvalidInputError("need n >= 0 and p in [0, 1]")
    rng = make_rng(seed)
    threshold = int(p * (1 << 30))
    edges = [(u, v) for u in range(n) for v in _bernoulli_row(rng, range(u + 1, n), threshold)]
    return Graph(n, edges)


def cycle_edge_ok(x: int, y: int, two_k: int, chord: tuple[int, int]) -> bool:
    """Whether x and y are consecutive, the wrap (2k-1, 0) or the chord on a 2k-cycle."""
    if x == y:
        return False
    lo, hi = min(x, y), max(x, y)
    if hi - lo == 1 and lo % 2 == 0:
        return True  # cluster pair edge (2i, 2i+1)
    if hi - lo == 1 and lo % 2 == 1:
        return True  # consecutive cross edge (2i+1, 2i+2)
    if lo == 0 and hi == two_k - 1:
        return True  # wrap edge (2k-1, 0)
    return (lo, hi) == (min(chord), max(chord))


def binomial_mod_distribution(n: int, p, k: int) -> list[Fraction]:
    """Exact distribution of Bin(n, p) mod k by residue dynamic programming."""
    if n < 0 or k < 1:
        raise InvalidInputError("need n >= 0 and k >= 1")
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise InvalidInputError("p must lie in [0, 1]")
    a, b = p.numerator, p.denominator
    # Integer DP over numerators scaled by b^n.
    num = [0] * k
    num[0] = 1
    for _ in range(n):
        nxt = [0] * k
        for r in range(k):
            if num[r]:
                nxt[r] += num[r] * (b - a)
                nxt[(r + 1) % k] += num[r] * a
        num = nxt
    denom = b ** n
    return [Fraction(x, denom) for x in num]


@dataclass(frozen=True)
class PerturbedParams:
    eps: float
    d: float
    clamped: bool


def perturbation_bound(eps, d, alpha, beta) -> PerturbedParams:
    """Parameters surviving a symmetric-difference perturbation of a regular pair.

    eps' = eps + 3(sqrt(alpha) + sqrt(beta)), d' = d - 2(alpha + beta),
    clamped into [0, 1] with a flag.
    """
    for name, x in (("eps", eps), ("d", d), ("alpha", alpha), ("beta", beta)):
        if not 0 <= float(x) <= 1:
            raise InvalidInputError(f"{name} must lie in [0,1]")
    eps_out = float(eps) + 3.0 * (sqrt(float(alpha)) + sqrt(float(beta)))
    d_out = float(d) - 2.0 * (float(alpha) + float(beta))
    clamped = False
    if eps_out > 1.0:
        eps_out, clamped = 1.0, True
    if d_out < 0.0:
        d_out, clamped = 0.0, True
    return PerturbedParams(eps_out, d_out, clamped)


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


def neighborhood(g: Graph, s) -> set[int]:
    """Union of the neighborhoods of the vertices in s; may intersect s."""
    out: set[int] = set()
    for v in s:
        if not 0 <= v < g.n:
            raise InvalidInputError(f"vertex {v} outside [0,{g.n})")
        out |= g.adj(v)
    return out


def shifted_neighborhood(g: Graph, m: Matching, a_set) -> set[int]:
    """Partners of the neighborhood: {partner(v) : v in N(A)}."""
    out = set()
    for v in a_set:
        for u in g.adj(v):
            out.add(m.partner(u))
    return out


def shifted_neighborhood_iterate(g: Graph, m: Matching, a_set, r: int) -> set[int]:
    if r < 1:
        raise InvalidInputError("depth must be at least 1")
    _require_perfect(g, m)
    current = set(a_set)
    for _ in range(r):
        current = shifted_neighborhood(g, m, current)
    return current


def dump_config(cfg: Config) -> str:
    return "".join(f"{k} = {getattr(cfg, k)}\n" for k in _CONFIG_FIELDS)
