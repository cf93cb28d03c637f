"""Density, regular and super-regular pair checks, and reduced graphs on the class indices.

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
sum_t max(0, cnt_t - (|B| - q)).  Both sums are bit planes (plane i holds
bit i of every lane's sum), compared MSB first with each size's thresholds.
The subset lanes and their size ladder depend on |A| alone and are cached.
Only the least violating X is rescanned, for its witness Y, so an exact
verdict costs about the same either way.

Heuristic mode takes candidate X's a block at a time: at most 7 distinct
degree outliers, then one fixed family of random X's per (|A|, p_min,
count), drawn from a private stream and cached, so a heuristic verdict
depends on no seed.
An outlier's degrees into B are popcounts of the B-vertices' host masks
against X's mask, and so is exact mode's one-X witness rescan.  The random
block is decided together: lane i has a 1 in the byte slot of every X
holding A-vertex i, so the lanes of B-vertex j's A-neighbours sum to j's
degree into every X.  The family keeps, per block of 8 A-indices, the 256
sums of that block's lanes (the "Four Russians" table), so j's degrees are
one entry per byte of its A-pattern, its host mask cut to A: ceil(|A|/8)
adds, not one per neighbour.  Top-q sums are at most q*max and bottom-q sums
at least q*min, so only X's with max >= ceil(p*hi) or min <= floor(p*lo) are
read back, from each degree's bytes, for the one-X scan; which slots hold
each size is cached.
The A-side cross degrees are counted once per check: the density and the
outlier order both read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_, getitem, or_

from .errors import FeasibilityError, InvalidInputError
from .graph import Graph, _subset_tables, at_least, vertex_mask
from .rng import as_fraction, ceil_frac, make_rng, rand_below, sample_indices

__all__ = [
    "RegularityVerdict",
    "pair_density",
    "check_regular_pair",
    "check_super_regular_pair",
    "build_reduced_graph",
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


def _cross_degrees(g: Graph, a_list: list[int], b_list: list[int]) -> list[int]:
    """Each A-vertex's degree into B, as popcounts; A and B are sorted vertex lists.

    Empty, overlapping or out-of-range classes are input errors.
    """
    if not a_list or not b_list:
        raise InvalidInputError("both classes must be nonempty")
    if not set(a_list).isdisjoint(b_list):
        raise InvalidInputError("classes must be disjoint")
    for v in (a_list[0], a_list[-1], b_list[0], b_list[-1]):
        if not 0 <= v < g.n:
            raise InvalidInputError(f"vertex {v} lies outside [0,{g.n})")
    bmask = vertex_mask(b_list)
    masks = g.masks
    return [(masks[v] & bmask).bit_count() for v in a_list]


def pair_density(g: Graph, a_side, b_side) -> Fraction:
    a_list, b_list = sorted(set(a_side)), sorted(set(b_side))
    return Fraction(sum(_cross_degrees(g, a_list, b_list)), len(a_list) * len(b_list))


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


def _first_violating_x(b_masks: list[int], a_list: list[int], p_min: int, q: int,
                       hi_num: int, hi_den: int, lo_num: int, lo_den: int) -> int | None:
    """Least X index mask with |X| >= p_min that `_extreme_violation` refutes, or None.

    b_masks are the B-vertices' adjacency masks.  Each lane's top-q and bottom-q
    X-degree sums are bit planes, read at each size's thresholds."""
    na, nb = len(a_list), len(b_masks)
    if p_min > na:
        return None
    lanes, size = _subset_tables(na)
    full = (1 << (1 << na)) - 1
    degree = [at_least([lane for a, lane in zip(a_list, lanes) if m >> a & 1], na, full)
              for m in b_masks]
    cnt = [at_least([deg[t] for deg in degree], nb, full) for t in range(1, na + 1)]
    top = _planes([c[j] for c in cnt for j in range(1, q + 1)])
    bottom = _planes([c[j] for c in cnt for j in range(nb - q + 1, nb + 1)])
    bad = 0
    for p in range(p_min, na + 1):
        high = _count_at_least(top, -(-p * q * hi_num // hi_den), full)
        low = _count_at_least(bottom, p * q * lo_num // lo_den + 1, full)
        bad |= size[p] & ~size[p + 1] & (high | ~low)
    return (bad & -bad).bit_length() - 1 if bad else None


def _planes(vectors) -> list[int]:
    """Bit planes of each lane's count of `vectors`: plane i holds bit i, added by ripple carry."""
    planes = []
    for carry in filter(None, vectors):
        for i, plane in enumerate(planes):
            planes[i], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def _count_at_least(planes: list[int], k: int, full: int) -> int:
    """The lanes within `full` whose count in `planes` is at least k, compared MSB first."""
    if k <= 0:
        return full
    if k >> len(planes):
        return 0
    above, equal = 0, full
    for i in range(len(planes) - 1, -1, -1):
        if k >> i & 1:
            equal &= planes[i]
        else:
            above |= equal & planes[i]
    return above | equal


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


def _tables(na: int, xs) -> tuple[tuple[int, ...], ...]:
    """Per block b of 8 A-indices, entry x: the sum of the lanes 8b + k over the bits k of x."""
    lanes = _lanes(na, xs)
    tables = []
    for lo in range(0, na, 8):
        block = lanes[lo:lo + 8]
        table = [0] * (1 << len(block))
        for x in range(1, len(table)):
            table[x] = table[x & x - 1] + block[(x & -x).bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _patterns(b_masks: list[int], a_list: list[int]) -> list[bytes]:
    """Each B-vertex's neighbours in A as little-endian bytes, bit i meaning a_list[i].

    A row is a host mask cut to A's span of ids.  When A is not one run of
    consecutive ids (redistribution moves vertices in), the rows are stacked
    into one int, and each run is one shift and mask of the whole stack.
    """
    lo = a_list[0]
    span = a_list[-1] - lo + 1
    step = (span + 7) // 8
    full = (1 << span) - 1
    rows = [(m >> lo & full).to_bytes(step, "little") for m in b_masks]
    starts = [i for i in range(1, len(a_list)) if a_list[i] != a_list[i - 1] + 1]
    if not starts:
        return rows
    stack = int.from_bytes(b"".join(rows), "little")
    ones = int.from_bytes((b"\1" + bytes(step - 1)) * len(rows), "little")
    packed = 0
    for s, e in zip([0, *starts], [*starts, len(a_list)]):
        packed |= (stack >> a_list[s] - lo & ones * ((1 << e - s) - 1)) << s
    buf = packed.to_bytes(len(rows) * step, "little")
    return [buf[at:at + step] for at in range(0, len(buf), step)]


def _degrees(b_masks: list[int], a_list: list[int], tables) -> list[int]:
    """Each B-vertex's degree into every candidate, in slots: a table entry per pattern byte."""
    return [sum(map(getitem, tables, row)) for row in _patterns(b_masks, a_list)]


@lru_cache(maxsize=16)
def _slot_layout(sizes: tuple[int, ...], width: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """(p, a 1 at the bottom of every slot of size p) per distinct size p, and every slot's top bit."""
    units: dict[int, int] = {}
    for s, p in enumerate(sizes):
        units[p] = units.get(p, 0) | 1 << s * width
    return tuple(units.items()), sum(units.values()) << width - 1


def _flagged(degrees: list[int], sizes: list[int], width: int,
             hi_num: int, hi_den: int, lo_num: int, lo_den: int) -> list[int]:
    """Slots whose largest degree is >= ceil(p*hi) or smallest <= floor(p*lo), ascending.

    Adding half - t sets a slot's top bit iff its degree is >= t; t is clamped
    to [0, half], so none carries.  The smallest is <= floor(p*lo) iff not
    every degree is >= floor(p*lo) + 1.
    """
    units, top = _slot_layout(tuple(sizes), width)
    half = 1 << width - 1
    k_hi = k_lo = 0
    for p, unit in units:
        t = -(-p * hi_num // hi_den)
        k_hi += (half - t if 0 <= t <= half else half if t < 0 else 0) * unit
        t = p * lo_num // lo_den + 1
        k_lo += (half - t if 0 <= t <= half else half if t < 0 else 0) * unit
    # The top bits of the OR and the AND over B.
    bits = (reduce(or_, [deg + k_hi for deg in degrees])
            | ~reduce(and_, [deg + k_lo for deg in degrees])) & top
    if not bits:
        return []
    step = width // 8
    flags = bits.to_bytes(len(sizes) * step, "little")[step - 1::step]
    return [s for s, flag in enumerate(flags) if flag]


def _first_refuted(b_masks: list[int], a_list: list[int], xs, tables, q: int, bounds):
    """(X, Y) index lists for the first X in `xs` that `_extreme_violation` refutes, or None.

    The table kernel: every X's degrees are summed at once, one `_tables`
    entry per byte of a B-vertex's A-pattern, and a flagged slot is read
    from each degree's bytes (one byte each below |A| = 128).
    """
    width = _slot_width(len(a_list))
    degrees = _degrees(b_masks, a_list, tables)
    flagged = _flagged(degrees, [len(x) for x in xs], width, *bounds)
    step = width // 8
    rows = [deg.to_bytes(len(xs) * step, "little") for deg in degrees] if flagged else []
    for s in flagged:
        at = s * step
        if step == 1:
            deg_of = [row[at] for row in rows]
        else:
            deg_of = [int.from_bytes(row[at:at + step], "little") for row in rows]
        y = _extreme_violation(deg_of, len(xs[s]), q, *bounds)
        if y is not None:
            return xs[s], y
    return None


def _first_refuted_by_popcount(b_masks: list[int], a_list: list[int], xs, q: int, bounds):
    """`_first_refuted` for a few X's: X's degree into B-vertex j is a popcount of j's host mask."""
    for x in xs:
        xmask = vertex_mask([a_list[i] for i in x])
        y = _extreme_violation([(m & xmask).bit_count() for m in b_masks], len(x), q, *bounds)
        if y is not None:
            return x, y
    return None


_CANDIDATE_SEED = 0  # the one stream every random candidate family is drawn from


@lru_cache(maxsize=16)
def _random_candidates(na: int, p_min: int, count: int):
    """The heuristic's `count` random X's as A-index tuples, with their `_tables`; no graph needed."""
    rng = make_rng(_CANDIDATE_SEED)
    xs = tuple(tuple(sample_indices(rng, na, p_min + rand_below(rng, na - p_min + 1)))
               for _ in range(count))
    return xs, _tables(na, xs)


def _thresholds(eps, d, mode: str, budget: int) -> tuple[Fraction, Fraction]:
    """eps and d as fractions, once they and the mode and the budget are checked."""
    if mode not in ("exact", "heuristic"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise InvalidInputError(f"budget must be nonnegative and an int, got {budget!r}")
    try:
        eps, d = as_fraction(eps), as_fraction(d)
    except InvalidInputError:  # a NaN or an infinity, named as everywhere else
        raise
    except (TypeError, ValueError, ZeroDivisionError):
        raise InvalidInputError(
            f"need eps > 0 and 0 <= d <= 1 as numbers, got eps = {eps!r}, d = {d!r}") from None
    if not (eps > 0 and 0 <= d <= 1):
        raise InvalidInputError(f"need eps > 0 and 0 <= d <= 1, got eps = {eps}, d = {d}")
    return eps, d


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

    It needs eps > 0 and 0 <= d <= 1.  Exact mode is capped at
    EXACT_REGULARITY_CAP vertices per side.  Density below d refutes at once
    with no witness.  Heuristic mode tries up to `budget` X's, the degree
    outliers and then the fixed random family, so its verdict depends on no
    seed.  A heuristic 'regular' result is a non-refutation; a heuristic
    witness is exact by construction since densities are recomputed exactly.
    """
    eps, d = _thresholds(eps, d, mode, budget)
    a_list = sorted(set(a_side))
    b_list = sorted(set(b_side))
    deg_a = _cross_degrees(g, a_list, b_list)
    return _regular_pair(g, a_list, b_list, deg_a, eps, d, mode, budget)


def _regular_pair(g: Graph, a_list: list[int], b_list: list[int], deg_a: list[int], eps: Fraction,
                  d: Fraction, mode: str, budget: int) -> RegularityVerdict:
    """`check_regular_pair` on sorted sides, checked thresholds and A's degrees into B."""
    na, nb = len(a_list), len(b_list)
    dens = Fraction(sum(deg_a), na * nb)
    if dens < d:
        return RegularityVerdict(False, dens, mode, eps, d, witness=None)
    p_min = max(1, ceil_frac(eps * na))
    q_min = max(1, ceil_frac(eps * nb))
    hi, lo = dens + eps, dens - eps
    bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)
    masks = g.masks
    b_masks = [masks[v] for v in b_list]
    hit = None
    if mode == "exact":
        if na > EXACT_REGULARITY_CAP or nb > EXACT_REGULARITY_CAP:
            raise FeasibilityError(
                f"exact regularity capped at {EXACT_REGULARITY_CAP} per side "
                f"(got {na}x{nb}); use mode='heuristic'"
            )
        first = _first_violating_x(b_masks, a_list, p_min, q_min, *bounds)
        if first is not None:
            xs = [tuple(i for i in range(na) if first >> i & 1)]
            hit = _first_refuted_by_popcount(b_masks, a_list, xs, q_min, bounds)
    elif p_min <= na:
        # (p_min > |A| when eps > 1: no X, as in exact mode.)  Outliers go first.
        by_deg = sorted(range(na), key=deg_a.__getitem__)
        sizes = sorted({p_min, max(p_min, na // 4), max(p_min, na // 2), na})
        ends = [tuple(x) for p in sizes for x in (by_deg[:p], by_deg[-p:])]
        outliers = list(dict.fromkeys(ends))[:budget]  # at p = |A| both ends are X = A
        hit = _first_refuted_by_popcount(b_masks, a_list, outliers, q_min, bounds)
        if hit is None and budget > len(outliers):
            xs, tables = _random_candidates(na, p_min, budget - len(outliers))
            hit = _first_refuted(b_masks, a_list, xs, tables, q_min, bounds)
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
    eps_f, d_f = _thresholds(eps, d, mode, budget)
    a_list = sorted(set(a_side))
    b_list = sorted(set(b_side))
    deg_a = _cross_degrees(g, a_list, b_list)
    verdict = _regular_pair(g, a_list, b_list, deg_a, eps_f, d_f, mode, budget)
    deg_b = _cross_degrees(g, b_list, a_list)
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
) -> Graph:
    """Reduced graph on the class indices, with an edge for every pair regular at (eps, d).

    Classes must be pairwise disjoint; covering V(G) is not required.  The
    thresholds, mode and budget are checked before any class is read.
    """
    eps, d = _thresholds(eps, d, mode, budget)
    clusters = [frozenset(c) for c in classes]
    seen: set[int] = set()
    for c in clusters:
        if seen & c:
            raise InvalidInputError("cluster classes must be pairwise disjoint")
        seen |= c
    edges = []
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            if not clusters[i] or not clusters[j]:
                continue
            if check_regular_pair(g, clusters[i], clusters[j], eps, d, mode, budget).regular:
                edges.append((i, j))
    return Graph(len(clusters), edges)
