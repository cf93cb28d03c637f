"""Density, regular and super-regular pair checks, reduced graphs, perturbation arithmetic.

A bipartite pair (A, B) is (eps, d)-regular when its density is at least d
and every sub-pair (X, Y) with |X| >= eps|A|, |Y| >= eps|B| has density
within eps of the whole; super-regular additionally requires every vertex to
have at least d times the opposite class size as cross-degree.

Exact verdicts range over the subsets X of one side and use the fact that,
for a fixed X and fixed |Y|, the extreme values of e(X, Y) are attained by
taking the |Y| largest (or smallest) X-degrees in B.  That makes the search
exact at a cost of 2^|A| instead of 2^|A|+|B|.  Density comparisons are
exact integer cross-multiplication throughout.

Single-size lemma: for a fixed X, the mean of the q largest X-degrees in B
never rises as q grows and the mean of the q smallest never falls.  So if
|Y| = max(1, ceil(eps|B|)) violates eps at neither extreme, no larger |Y|
does, and each X is scanned at that one size.

Exact mode decides every X at once, X being bit X (a "lane") of Python
ints: with cnt_t(X) = #{j in B : |N(j) & X| >= t}, the q largest X-degrees
sum to sum_t min(q, cnt_t) and the q smallest to
sum_t max(0, cnt_t - (|B| - q)).  Only the least violating X is rescanned,
for its witness Y, so an exact verdict costs about the same either way.

Heuristic mode takes candidate X's a block at a time: degree outliers, then
one fixed family of random X's per (|A|, p_min, count), drawn from a private
stream and cached, so a heuristic verdict depends on no seed.  Summing lane i
(a 1 in the byte slot of every X holding A-vertex i) over B-vertex j's
neighbours gives j's degree into every X; top-q sums are at most q*max and
bottom-q sums at least q*min, so only X's with max >= ceil(p*hi) or
min <= floor(p*lo) get the one-X scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import sqrt
from operator import and_, or_

from .errors import FeasibilityError, InvalidInputError
from .graph import Graph, at_least, subset_lanes, vertex_mask
from .rng import as_fraction, ceil_frac, make_rng, rand_below, sample_indices

__all__ = [
    "RegularityVerdict",
    "ReducedGraph",
    "PerturbedParams",
    "pair_density",
    "check_regular_pair",
    "check_super_regular_pair",
    "build_reduced_graph",
    "perturbation_bound",
    "EXACT_REGULARITY_CAP",
]

EXACT_REGULARITY_CAP = 14


@dataclass
class RegularityVerdict:
    regular: bool
    density: Fraction
    mode: str  # "exact" | "heuristic"
    eps: Fraction
    d: Fraction
    witness: tuple[frozenset[int], frozenset[int]] | None = None
    degree_failure: tuple[str, int] | None = None  # ("A"|"B", vertex)
    min_cross_degree: tuple[int, int] | None = None  # super-regularity only: (A min, B min)

    @property
    def degree_ok(self) -> bool | None:
        return None if self.min_cross_degree is None else self.degree_failure is None

    def to_json(self) -> dict:
        out = {
            "regular": self.regular,
            "density": str(self.density),
            "mode": self.mode,
            "params": {"eps": str(self.eps), "d": str(self.d)},
        }
        if self.witness is not None:
            out["witness"] = [sorted(self.witness[0]), sorted(self.witness[1])]
        if self.degree_ok is not None:
            out["degree_ok"] = self.degree_ok
            out["min_cross_degree"] = list(self.min_cross_degree)
            if self.degree_failure is not None:
                out["degree_failure"] = list(self.degree_failure)
        return out


@dataclass
class ReducedGraph:
    """Cluster-level graph whose edges certify regular pairs at (eps, d)."""

    clusters: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]
    eps: Fraction
    d: Fraction

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    @property
    def size(self) -> int:
        return len(self.clusters)

    def as_graph(self) -> Graph:
        return Graph(len(self.clusters), sorted(self.edges))


@dataclass(frozen=True)
class PerturbedParams:
    eps: float
    d: float
    clamped: bool


def pair_density(g: Graph, a_side, b_side) -> Fraction:
    a = set(a_side)
    b = set(b_side)
    if not a or not b:
        raise InvalidInputError("both classes must be nonempty")
    if a & b:
        raise InvalidInputError("classes must be disjoint")
    bmask = vertex_mask(b)
    masks = g.masks
    e = sum((masks[v] & bmask).bit_count() for v in a)
    return Fraction(e, len(a) * len(b))


def _extreme_violation(deg_of: list[int], p: int, q: int,
                       hi_num: int, hi_den: int, lo_num: int, lo_den: int):
    """B-indices of a |Y| = q extreme set violating eps against a p-vertex X, or None.

    `deg_of[j]` is B-vertex j's degree into X and q is the smallest allowed
    |Y| (the single-size lemma).  Violation means e(X,Y)/(pq) >= hi =
    d(A,B) + eps at the high extreme, or <= lo = d(A,B) - eps at the low
    one; both are integer comparisons on hi and lo in lowest terms.
    q > |B| (eps > 1) fails both.
    """
    nb = len(deg_of)
    degs = sorted(deg_of)
    pq = p * q
    if sum(degs[nb - q:]) * hi_den >= pq * hi_num:
        # Stable, so equal degrees keep index order.
        return sorted(range(nb), key=deg_of.__getitem__)[nb - q:]
    if sum(degs[:q]) * lo_den <= pq * lo_num:
        return sorted(range(nb), key=deg_of.__getitem__)[:q]
    return None


def _first_violating_x(nbrs: list[frozenset], a_list: list[int], p_min: int, q: int,
                       hi_num: int, hi_den: int, lo_num: int, lo_den: int) -> int | None:
    """Least X index mask with |X| >= p_min that `_extreme_violation` refutes, or None."""
    na, nb = len(a_list), len(nbrs)
    if p_min > na:
        return None
    lanes = subset_lanes(na)
    lane_of = dict(zip(a_list, lanes))
    full = (1 << (1 << na)) - 1
    degree = [at_least(list(map(lane_of.__getitem__, nb_j)), na, full) for nb_j in nbrs]
    cnt = [at_least([deg[t] for deg in degree], nb, full) for t in range(1, na + 1)]
    # top[k] / bottom[k]: lanes whose q largest / smallest X-degrees sum to at least k.
    cap = na * q + 1
    top = at_least([c[j] for c in cnt for j in range(1, q + 1)], cap, full)
    bottom = at_least([c[j] for c in cnt for j in range(nb - q + 1, nb + 1)], cap, full)
    size = at_least(lanes, na + 1, full)
    bad = 0
    for p in range(p_min, na + 1):
        high = min(max(-(-p * q * hi_num // hi_den), 0), cap)
        low = min(max(p * q * lo_num // lo_den + 1, 0), cap)
        bad |= size[p] & ~size[p + 1] & (top[high] | ~bottom[low])
    return (bad & -bad).bit_length() - 1 if bad else None


def _slot_width(na: int) -> int:
    """Bits per candidate slot: whole bytes holding degrees 0..na plus a headroom bit."""
    return 8 * ((na.bit_length() + 8) // 8)


def _lanes(na: int, xs) -> tuple[int, ...]:
    """Lane i: a 1 in the slot of every candidate (an A-index tuple in `xs`) holding i."""
    step = _slot_width(na) // 8
    bufs = [bytearray(len(xs) * step) for _ in range(na)]
    for s, idx in enumerate(xs):
        for i in idx:
            bufs[i][s * step] = 1
    return tuple(int.from_bytes(buf, "little") for buf in bufs)


def _flagged(degrees: list[int], sizes: list[int], width: int,
             hi_num: int, hi_den: int, lo_num: int, lo_den: int) -> list[int]:
    """Slots whose largest degree is >= ceil(p*hi) or smallest <= floor(p*lo), ascending.

    Adding half - t sets a slot's top bit iff its degree is >= t; t is clamped, so none carries.
    """
    step, half, nbytes = width // 8, 1 << width - 1, len(sizes) * width // 8
    hi_key = {p: (half - min(max(-(-p * hi_num // hi_den), 0), half)).to_bytes(step, "little")
              for p in set(sizes)}
    lo_key = {p: (half - 1 - min(max(p * lo_num // lo_den, -1), half - 1)).to_bytes(step, "little")
              for p in set(sizes)}
    k_hi = int.from_bytes(b"".join(map(hi_key.__getitem__, sizes)), "little")
    k_lo = int.from_bytes(b"".join(map(lo_key.__getitem__, sizes)), "little")
    # The byte holding each slot's top bit, from the OR and the AND over B.
    hi = reduce(or_, [deg + k_hi for deg in degrees]).to_bytes(nbytes, "little")[step - 1::step]
    lo = reduce(and_, [deg + k_lo for deg in degrees]).to_bytes(nbytes, "little")[step - 1::step]
    return [s for s in range(len(sizes)) if hi[s] & 0x80 or not lo[s] & 0x80]


def _first_refuted(nbrs: list[frozenset], a_list: list[int], xs, lanes, q: int, bounds):
    """(X, Y) index lists for the first X in `xs` that `_extreme_violation` refutes, or None."""
    width = _slot_width(len(a_list))
    lane_of = dict(zip(a_list, lanes))
    degrees = [sum(map(lane_of.__getitem__, nb)) for nb in nbrs]
    slot = (1 << width) - 1
    for s in _flagged(degrees, [len(x) for x in xs], width, *bounds):
        y = _extreme_violation([deg >> s * width & slot for deg in degrees], len(xs[s]), q, *bounds)
        if y is not None:
            return xs[s], y
    return None


_CANDIDATE_SEED = 0  # the one stream every random candidate family is drawn from


@lru_cache(maxsize=16)
def _random_candidates(na: int, p_min: int, count: int):
    """The heuristic's `count` random X's as A-index tuples, with their lanes; no graph needed."""
    rng = make_rng(_CANDIDATE_SEED)
    xs = tuple(tuple(sample_indices(rng, na, p_min + rand_below(rng, na - p_min + 1)))
               for _ in range(count))
    return xs, _lanes(na, xs)


def check_regular_pair(
    g: Graph,
    a_side,
    b_side,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
) -> RegularityVerdict:
    """Ground-truth (exact) or budgeted (heuristic) regularity verdict.

    Exact mode is capped at EXACT_REGULARITY_CAP vertices per side.  Density
    below d refutes immediately with no witness.  Heuristic mode tries up to
    `budget` X's, the degree outliers and then the fixed random family, so its
    verdict depends on no seed.  A heuristic 'regular' result is a
    non-refutation; a heuristic witness is exact by construction since
    densities are recomputed exactly.
    """
    if mode not in ("exact", "heuristic"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if budget < 0:
        raise InvalidInputError(f"budget must be nonnegative, got {budget}")
    eps = as_fraction(eps)
    d = as_fraction(d)
    a_list = sorted(set(a_side))
    b_list = sorted(set(b_side))
    dens = pair_density(g, a_list, b_list)
    if dens < d:
        return RegularityVerdict(False, dens, mode, eps, d, witness=None)
    na, nb = len(a_list), len(b_list)
    p_min = max(1, ceil_frac(eps * na))
    q_min = max(1, ceil_frac(eps * nb))

    # Each B-vertex's neighbours in A, shared by every X.
    a_set = frozenset(a_list)
    nbrs = [g.adj(v) & a_set for v in b_list]
    hi, lo = dens + eps, dens - eps
    bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)

    hit = None
    if mode == "exact":
        if na > EXACT_REGULARITY_CAP or nb > EXACT_REGULARITY_CAP:
            raise FeasibilityError(
                f"exact regularity capped at {EXACT_REGULARITY_CAP} per side "
                f"(got {na}x{nb}); use mode='heuristic'"
            )
        first = _first_violating_x(nbrs, a_list, p_min, q_min, *bounds)
        if first is not None:
            xs = [tuple(i for i in range(na) if first >> i & 1)]
            hit = _first_refuted(nbrs, a_list, xs, _lanes(na, xs), q_min, bounds)
    elif p_min <= na:
        # (p_min > |A| when eps > 1: no X, as in exact mode.)  Outliers go first.
        bmask = vertex_mask(b_list)
        masks = g.masks
        deg_a = [(masks[v] & bmask).bit_count() for v in a_list]
        by_deg = sorted(range(na), key=deg_a.__getitem__)
        sizes = sorted({p_min, max(p_min, na // 4), max(p_min, na // 2), na})
        outliers = [idx for p in sizes for idx in (by_deg[:p], by_deg[-p:])][:budget]
        hit = _first_refuted(nbrs, a_list, outliers, _lanes(na, outliers), q_min, bounds)
        if hit is None and budget > len(outliers):
            xs, lanes = _random_candidates(na, p_min, budget - len(outliers))
            hit = _first_refuted(nbrs, a_list, xs, lanes, q_min, bounds)
    if hit is None:
        return RegularityVerdict(True, dens, mode, eps, d)
    xs, y = hit
    return RegularityVerdict(False, dens, mode, eps, d, witness=(
        frozenset(a_list[i] for i in xs), frozenset(b_list[j] for j in y)))


def check_super_regular_pair(
    g: Graph,
    a_side,
    b_side,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
) -> RegularityVerdict:
    """Regularity plus both one-sided minimum cross-degree floors (always exact)."""
    d_f = as_fraction(d)
    a_list = sorted(set(a_side))
    b_list = sorted(set(b_side))
    verdict = check_regular_pair(g, a_list, b_list, eps, d, mode=mode, budget=budget)
    masks = g.masks
    amask, bmask = vertex_mask(a_list), vertex_mask(b_list)
    deg_a = [(masks[v] & bmask).bit_count() for v in a_list]
    deg_b = [(masks[v] & amask).bit_count() for v in b_list]
    verdict.min_cross_degree = (min(deg_a), min(deg_b))
    # An integer degree is below d*|B| iff it is below ceil(d*|B|).
    floors = (("A", a_list, deg_a, ceil_frac(d_f * len(b_list))),
              ("B", b_list, deg_b, ceil_frac(d_f * len(a_list))))
    for side, own, degs, need in floors:
        failing = next((v for v, deg in zip(own, degs) if deg < need), None)
        if failing is not None:
            verdict.regular = False
            verdict.degree_failure = (side, failing)
            break
    return verdict


def build_reduced_graph(
    g: Graph,
    classes: list,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
) -> ReducedGraph:
    """Reduced graph with the maximal edge set among pairs passing the check.

    Classes must be pairwise disjoint; covering V(G) is not required.
    """
    clusters = [frozenset(c) for c in classes]
    seen: set[int] = set()
    for c in clusters:
        if seen & c:
            raise InvalidInputError("cluster classes must be pairwise disjoint")
        seen |= c
    eps = as_fraction(eps)
    d = as_fraction(d)
    edges = set()
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if not clusters[i] or not clusters[j]:
                continue
            if check_regular_pair(g, clusters[i], clusters[j], eps, d, mode, budget).regular:
                edges.add((i, j))
    return ReducedGraph(tuple(clusters), frozenset(edges), eps, d)


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
