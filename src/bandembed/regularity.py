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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import sqrt

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
    degree_ok: bool | None = None  # super-regularity only
    degree_failure: tuple[str, int] | None = None  # ("A"|"B", vertex)
    min_cross_degree: tuple[int, int] | None = None  # (min over A, min over B)

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


def _extreme_violation(cols: list[int], xmask: int, q: int,
                       hi_num: int, hi_den: int, lo_num: int, lo_den: int):
    """B-indices of a |Y| = q extreme set violating eps against the X of `xmask`, or None.

    `cols[j]` is B-vertex j's neighbourhood as an A-index mask and q is the
    smallest allowed |Y| (the single-size lemma).  Violation means
    e(X,Y)/(pq) >= hi = d(A,B) + eps at the high extreme, or <= lo = d(A,B) - eps
    at the low one; both are integer comparisons on hi and lo in lowest terms.
    q > |B| (eps > 1) fails both.
    """
    nb = len(cols)
    deg_of = [(c & xmask).bit_count() for c in cols]
    degs = sorted(deg_of)
    pq = xmask.bit_count() * q
    if sum(degs[nb - q:]) * hi_den >= pq * hi_num:
        # Stable, so equal degrees keep index order.
        return sorted(range(nb), key=deg_of.__getitem__)[nb - q:]
    if sum(degs[:q]) * lo_den <= pq * lo_num:
        return sorted(range(nb), key=deg_of.__getitem__)[:q]
    return None


def _first_violating_x(cols: list[int], na: int, p_min: int, q: int,
                       hi_num: int, hi_den: int, lo_num: int, lo_den: int) -> int | None:
    """Least X index mask with |X| >= p_min that `_extreme_violation` refutes, or None."""
    if p_min > na:
        return None
    nb = len(cols)
    lanes = subset_lanes(na)
    full = (1 << (1 << na)) - 1
    degree = [at_least([lanes[i] for i in range(na) if col >> i & 1], na, full) for col in cols]
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


@lru_cache(maxsize=16)
def _random_candidates(seed: int, na: int, p_min: int, count: int) -> tuple[int, ...]:
    """The heuristic's `count` random X index masks; they depend on no graph."""
    rng = make_rng(seed)
    out = []
    for _ in range(count):
        p = p_min + rand_below(rng, na - p_min + 1)
        out.append(vertex_mask(sample_indices(rng, na, p)))
    return tuple(out)


def check_regular_pair(
    g: Graph,
    a_side,
    b_side,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
    seed: int = 0,
) -> RegularityVerdict:
    """Ground-truth (exact) or budgeted (heuristic) regularity verdict.

    Exact mode is capped at EXACT_REGULARITY_CAP vertices per side.  Density
    below d refutes immediately with no witness.  A heuristic 'regular'
    result is a non-refutation; a heuristic witness is exact by construction
    since densities are recomputed exactly.
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

    # Each B-vertex's neighbourhood as an A-index mask, shared by every X.
    bit = {v: 1 << i for i, v in enumerate(a_list)}
    a_set = frozenset(a_list)
    cols = [sum(map(bit.__getitem__, g.adj(v) & a_set)) for v in b_list]
    hi, lo = dens + eps, dens - eps
    bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)

    if mode == "exact":
        if na > EXACT_REGULARITY_CAP or nb > EXACT_REGULARITY_CAP:
            raise FeasibilityError(
                f"exact regularity capped at {EXACT_REGULARITY_CAP} per side "
                f"(got {na}x{nb}); use mode='heuristic'"
            )
        first = _first_violating_x(cols, na, p_min, q_min, *bounds)
        candidates = [] if first is None else [first]
    elif p_min > na:
        # No X holds ceil(eps|A|) > |A| vertices (eps > 1), as in exact mode.
        candidates = []
    else:
        # Degree-outlier seeds: extremal subsets witness irregularity in the
        # standard constructions.
        bmask = vertex_mask(b_list)
        masks = g.masks
        deg_a = [(masks[v] & bmask).bit_count() for v in a_list]
        by_deg = sorted(range(na), key=deg_a.__getitem__)
        sizes = sorted({p_min, max(p_min, na // 4), max(p_min, na // 2), na})
        candidates = [vertex_mask(idx) for p in sizes for idx in (by_deg[:p], by_deg[-p:])]
        candidates += _random_candidates(seed, na, p_min, max(0, budget - len(candidates)))
        candidates = candidates[:budget]
    for xmask in candidates:
        y = _extreme_violation(cols, xmask, q_min, *bounds)
        if y is not None:
            xs = frozenset(v for i, v in enumerate(a_list) if xmask >> i & 1)
            return RegularityVerdict(False, dens, mode, eps, d,
                                     witness=(xs, frozenset(b_list[j] for j in y)))
    return RegularityVerdict(True, dens, mode, eps, d)


def check_super_regular_pair(
    g: Graph,
    a_side,
    b_side,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
    seed: int = 0,
) -> RegularityVerdict:
    """Regularity plus both one-sided minimum cross-degree floors (always exact)."""
    d_f = as_fraction(d)
    a_list = sorted(set(a_side))
    b_list = sorted(set(b_side))
    verdict = check_regular_pair(g, a_list, b_list, eps, d, mode=mode, budget=budget, seed=seed)
    masks = g.masks
    amask, bmask = vertex_mask(a_list), vertex_mask(b_list)
    deg_a = [(masks[v] & bmask).bit_count() for v in a_list]
    deg_b = [(masks[v] & amask).bit_count() for v in b_list]
    verdict.min_cross_degree = (min(deg_a), min(deg_b))
    # An integer degree is below d*|B| iff it is below ceil(d*|B|).
    floors = (("A", a_list, deg_a, ceil_frac(d_f * len(b_list))),
              ("B", b_list, deg_b, ceil_frac(d_f * len(a_list))))
    verdict.degree_ok = True
    for side, own, degs, need in floors:
        failing = next((v for v, deg in zip(own, degs) if deg < need), None)
        if failing is not None:
            verdict.degree_ok = False
            verdict.degree_failure = (side, failing)
            break
    if not verdict.degree_ok:
        verdict.regular = False
    return verdict


def build_reduced_graph(
    g: Graph,
    classes: list,
    eps,
    d,
    mode: str = "exact",
    budget: int = 120,
    seed: int = 0,
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
            verdict = check_regular_pair(
                g, clusters[i], clusters[j], eps, d, mode=mode, budget=budget, seed=seed
            )
            if verdict.regular:
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
