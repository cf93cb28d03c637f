"""Bandwidth segmentation of H and the randomized cycle-assignment schedule.

The target graph H is chopped along its bandwidth ordering into small
segment pairs (A_i, B_i) whose edges stay inside pairs except near the
boundary set S.  Segments are grouped into large blocks and walked around an
intermediate cycle on 2k' vertices by three per-block procedures: a sober
march (one cycle pair per segment pair), a drunken walk (stay or advance on
a fair coin), and a target-homing march that pins the block's last segment
onto a chord endpoint.  The two phases meet across the chord with the color
roles exchanged, which balances how much of each color class lands on odd
and even cycle positions.  Composing with a block map onto the host cycle
gives the final homomorphism f, which a build stores together with k' and
its certificate:

  * boundary_small:   |S| <= xi * n
  * loads_bounded:    every cluster receives at most its size + xi * n
  * edges_on_pairs:   every edge outside H[S] lands on a cluster pair

The segmentation is computed once per input (repeated builds share it
through a bounded per-process memo keyed by value), and its certificate
settles what no schedule can change: every edge except the crossing edges
from B_i to A_{i+1} lies inside one segment pair, which any schedule puts on
one cycle pair, so each such edge is on the cycle and edges_on_pairs holds.
No schedule changes S either, so boundary_small is judged once per plan,
before any draw, and a plan that breaks it is a DecompositionError.  Only
the randomized schedule is re-drawn, with fresh randomness, until the
certificate holds; each draw checks that both phases home onto their chord
ends (seeking), that loads are bounded, and that the crossing edges land on
the cycle or the chord.  A crossing edge's image depends only on the two
segment sides it joins, so each distinct such pair is judged once per draw.
A homing miss is an ordinary outcome of a draw, returned as None and
recorded as a seek-miss attempt.  The two internal spread inequalities that
imply loads_bounded in the asymptotic analysis are evaluated and reported
per attempt; at coarse segmentations they can be unsatisfiable even though
the certificate itself holds, so they gate nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DecompositionError,
    InvalidInputError,
    ParameterError,
    RetryBudgetError,
)
from .graph import BandwidthOrdering, Graph, verify_bandwidth_ordering
from .rng import as_fraction, ceil_frac, derive_seed, floor_frac, make_rng, rand_below

__all__ = [
    "SegmentDecomposition",
    "HomomorphismParams",
    "Homomorphism",
    "chop_into_segments",
    "group_and_split",
    "sober_assign",
    "drunken_assign",
    "seeking_assign",
    "build_homomorphism",
    "verify_homomorphism_certificate",
    "choose_h_parameters",
    "balance_trial_stats",
]

MAX_RETRIES = 50
# Plans kept per process, least recently used dropped first.
PLAN_MEMO_SIZE = 8


# ---------------------------------------------------------------------------
# Segment decomposition
# ---------------------------------------------------------------------------


@dataclass
class SegmentDecomposition:
    """Segment pairs (A_i, B_i) as side codes and sizes, the boundary set and crossing edges."""

    # Vertex v lies on segment side segment_of[v]: 2i for A_i, 2i + 1 for B_i.
    segment_of: list[int]
    # sizes[c] vertices lie on side c, for each of the 2*m1 side codes.
    sizes: list[int]
    boundary: set[int]
    beta: Fraction
    m1: int
    # The edges from B_i to A_{i+1}, both ends in the boundary; every other
    # edge lies inside one segment pair.
    crossing: list[tuple[int, int]] = field(default_factory=list)


def chop_into_segments(
    h: Graph,
    ordering: BandwidthOrdering,
    bipartition: tuple,
    beta,
    m1: int,
    delta: int,
) -> SegmentDecomposition:
    """Window the ordering into m1 segment pairs and certify the cut structure.

    A-class vertices are windowed with a beta*n offset, B-class vertices
    without, and each vertex gets its side code straight from its window:
    2(i-1) for A_i, 2(j-1)+1 for B_j.  The boundary set S collects the
    positions within 2*beta*n below or beta*n above a window edge.  An
    undersized side c is repaired, in code order, by moving the lowest-id
    isolated vertices outside S from its partner side c ^ 1 to c.  The four
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
    segment_of = [0] * n
    sizes = [0] * (2 * m1)
    boundary: set[int] = set()

    for v in range(n):
        s = ordering.labels[v] + 1  # positions are 1-based in the windowing
        sd = s * bden
        if v not in class_a:
            code = 2 * -((-s * m1) // n) - 1
        elif sd > nden - bnum:
            code = 2 * m1 - 2
        else:
            code = 2 * -((-(sd + bnum) * m1) // nden) - 2
        segment_of[v] = code
        sizes[code] += 1
        i_lo = -((-(sd - bnum) * m1) // nden)
        i_hi = -((-(sd + 2 * bnum) * m1) // nden) - 1
        if max(1, i_lo) <= min(m1, i_hi):
            boundary.add(v)

    min_size = Fraction(n, 4 * delta * m1) if delta > 0 else Fraction(0)
    for code in range(2 * m1):
        # One ascending scan of the partner side; a moved vertex changes
        # color class, and being isolated it keeps the bipartition valid.
        movable = (v for v in range(n)
                   if segment_of[v] == code ^ 1 and v not in boundary and h.degree(v) == 0)
        while sizes[code] < min_size:
            v = next(movable, None)
            if v is None:
                raise DecompositionError(
                    f"segment {code // 2} cannot reach size {min_size}: "
                    "no isolated vertices left to reassign"
                )
            segment_of[v] = code
            sizes[code] += 1
            sizes[code ^ 1] -= 1

    decomp = SegmentDecomposition(segment_of, sizes, boundary, beta, m1)
    decomp.crossing = _certify_chop(h, decomp)
    return decomp


def _certify_chop(h: Graph, decomp: SegmentDecomposition) -> list[tuple[int, int]]:
    """Check the four cut properties; return the crossing edges B_i -- A_{i+1}."""
    n = h.n
    m1 = decomp.m1
    bn = decomp.beta * n
    # n/m1 - beta*n <= size <= n/m1 + beta*n, times m1 * bn.denominator.
    lo = n * bn.denominator - m1 * bn.numerator
    hi = n * bn.denominator + m1 * bn.numerator
    for i in range(m1):
        size = decomp.sizes[2 * i] + decomp.sizes[2 * i + 1]
        if not lo <= size * m1 * bn.denominator <= hi:
            raise DecompositionError(f"pair size property fails at segment {i}: {size}")
    if len(decomp.boundary) * bn.denominator > 3 * m1 * bn.numerator:
        raise DecompositionError(
            f"boundary property fails: |S| = {len(decomp.boundary)} > 3*m1*beta*n"
        )

    def role(code: int) -> tuple[str, int]:
        return "AB"[code % 2], code // 2

    side = decomp.segment_of
    s = decomp.boundary
    crossing = []
    for u, v in h.edges():
        su, sv = side[u], side[v]
        if su ^ sv == 1:
            continue  # inside one segment pair
        if not (u in s and v in s):
            raise DecompositionError(
                f"interior-edge property fails at edge ({u},{v}): {role(su)} vs {role(sv)}"
            )
        # B_i has code 2i + 1 and A_{i+1} the next code, mod 2*m1.
        if not ((su % 2 and sv == (su + 1) % (2 * m1))
                or (sv % 2 and su == (sv + 1) % (2 * m1))):
            raise DecompositionError(
                f"boundary-edge property fails at edge ({u},{v}): {role(su)} vs {role(sv)}"
            )
        crossing.append((u, v))
    return crossing


def group_and_split(decomp: SegmentDecomposition, m2: int, xi, k2: int) -> int:
    """Group segment pairs into m2 blocks and return the split index m3.

    m3 is the smallest index in the admissible window whose prefix of block
    imbalances lands within xi*n/20 of half the total color imbalance; k2,
    the drift length, must leave each block a sober pair.  Callers put the
    larger color class in the A role; the window arithmetic itself is
    sign-agnostic.
    """
    xi = as_fraction(xi)
    m1, n = decomp.m1, sum(decomp.sizes)
    if m2 < 1 or m1 % m2 != 0:
        raise ParameterError(f"m2 must divide m1 (got m1={m1}, m2={m2})")
    if not 1 <= k2 < m1 // m2:
        raise ParameterError(f"need 1 <= k2 < m1/m2 (got k2={k2}, m1/m2={m1 // m2})")
    w = m1 // m2
    imbalances = []
    for j in range(m2):
        block = decomp.sizes[2 * j * w:2 * (j + 1) * w]
        a, b = sum(block[0::2]), sum(block[1::2])
        # |a + b - n/m2| <= sqrt(beta)*n, squared so that it is exact.
        if (a + b - Fraction(n, m2)) ** 2 > decomp.beta * n * n:
            raise DecompositionError(f"block size property fails at block {j}: {a + b}")
        imbalances.append(a - b)

    diff = sum(decomp.sizes[0::2]) - sum(decomp.sizes[1::2])
    target = Fraction(diff, 2)
    window = xi * n / 20
    lo = max(1, ceil_frac(xi * m2 / 20))
    hi = min(m2 - 1, floor_frac((1 - xi / 20) * m2))
    prefix = 0
    for m3 in range(1, m2 + 1):
        prefix += imbalances[m3 - 1]
        if lo <= m3 <= hi and abs(prefix - target) <= window:
            return m3
    raise ParameterError(
        f"no split index in [{lo},{hi}] puts the prefix within {window} of {target}"
    )


# ---------------------------------------------------------------------------
# The three per-block assignment procedures (cycle-pair level)
# ---------------------------------------------------------------------------


def sober_assign(pairs, start_pair: int, kprime: int) -> tuple[list[int], int]:
    """Consecutive segment pairs onto consecutive cycle pairs, mod k'."""
    count = len(pairs)
    out = [(start_pair + t) % kprime for t in range(count)]
    return out, out[-1] if out else (start_pair - 1) % kprime


def drunken_assign(pairs, start_pair: int, kprime: int, rng) -> tuple[list[int], int, list[int]]:
    """First pair at the start; each later pair stays or advances on a fair coin."""
    count = len(pairs)
    if count == 0:
        return [], (start_pair - 1) % kprime, []
    coins = [rng.getrandbits(1) for _ in range(count - 1)]
    out = [start_pair % kprime]
    for c in coins:
        out.append((out[-1] + c) % kprime)
    return out, out[-1], coins


def seeking_assign(pairs, start_pair: int, target_pair: int,
                   kprime: int) -> tuple[list[int], int] | None:
    """Advance every step until the target cycle pair is reached, then hold.

    Guaranteed to finish on the target when the segment has at least k'
    pairs; otherwise it misses, returning None, whenever the start is more
    than len(pairs)-1 steps short of the target.
    """
    count = len(pairs)
    if count == 0:
        raise ParameterError("target-homing needs at least one segment pair")
    if (target_pair - start_pair) % kprime > count - 1:
        return None
    out = [start_pair % kprime]
    for _ in range(count - 1):
        out.append(out[-1] if out[-1] == target_pair % kprime else (out[-1] + 1) % kprime)
    return out, out[-1]


# ---------------------------------------------------------------------------
# Full construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomomorphismParams:
    m1: int
    m2: int
    k1: int
    k2: int
    xi: float


def choose_h_parameters(n: int, delta: int, bandwidth: int, xi, k: int) -> HomomorphismParams:
    """Desk-scale segmentation defaults for the given instance shape.

    The segment count m1 is capped by three constraints: windows must be
    wider than three bandwidths, the boundary set must fit under xi*n, and
    segments must be large enough to repair.  When those caps leave room for
    drift segments of at least k' pairs, the intermediate cycle gets k1 = 8
    blocks per host pair group; otherwise the cycle collapses to k' = k and
    the schedule relies on retries to hit the chord targets.
    """
    xi_f = as_fraction(xi)
    b = max(1, bandwidth)
    caps = {
        "window n/(3b+1)": floor_frac(Fraction(n, 3 * b + 1)),
        "boundary xi*n/(3b)": floor_frac(xi_f * n / (3 * b)),
    }
    if delta > 0:
        caps["repair n/(4*delta)"] = n // (4 * delta)
    binding = min(caps, key=caps.get)
    m1_max = caps[binding]
    # Segment counts divide n so window integer counts stay within beta*n of
    # n/m1 for any color split.
    candidates = [m for m in range(4, m1_max + 1) if n % m == 0 and m % 2 == 0]
    if not candidates:
        raise ParameterError(
            f"no admissible segmentation: the {binding} cap allows at most {m1_max} "
            f"segments, and {n} has no even divisor in [4, {m1_max}] (n={n}, b={b}, xi={xi})"
        )
    k_upper = 8 + k
    by_four = [m for m in candidates if m % 4 == 0]
    if candidates[-1] >= 2 * (k_upper + 1):
        if by_four and by_four[-1] >= 4 * (k_upper + 2):
            m2, m1 = 4, by_four[-1]
        else:
            m2, m1 = 2, candidates[-1]
        want = max(k_upper, ceil_frac(Fraction(k_upper ** 3, 6)))
        k2 = min(m1 // m2 - 1, want)
        k1 = 8
    else:
        m2 = 2
        m1 = candidates[-1]
        k2 = max(1, m1 // m2 - 1)
        k1 = k
    return HomomorphismParams(m1=m1, m2=m2, k1=k1, k2=k2, xi=float(xi_f))


@dataclass
class AttemptDiagnostics:
    """What one attempt's draw decided; a seek-miss records None for what it never reached."""

    start_pair_phase1: int | None
    start_pair_phase2: int | None
    coin_logs: list[list[int]]
    seek_miss: bool
    valid: bool | None
    loads_bounded: bool | None
    spread_phase1_ok: bool | None
    spread_phase2_ok: bool | None

    @property
    def balance_pass(self) -> bool:
        return bool(self.spread_phase1_ok and self.spread_phase2_ok)

    @property
    def accepted(self) -> bool:
        return bool(self.valid and self.loads_bounded)


@dataclass
class Homomorphism:
    """Total map of V(H) into the host cycle clusters with its certificate."""

    f: list[int]
    boundary: set[int]
    chord: tuple[int, int]
    sizes: list[int]
    kprime: int
    roles_swapped: bool
    attempts: int
    diagnostics: list[AttemptDiagnostics] = field(repr=False, default_factory=list)

    @property
    def k(self) -> int:
        return len(self.sizes) // 2

    @property
    def first_attempt_balance_pass(self) -> bool:
        return bool(self.diagnostics) and self.diagnostics[0].balance_pass

    def loads(self) -> list[int]:
        out = [0] * (2 * self.k)
        for c in self.f:
            out[c] += 1
        return out

    def to_json(self) -> dict:
        return {
            "f": list(self.f),
            "boundary": sorted(self.boundary),
            "k": self.k,
            "kprime": self.kprime,
            "chord": list(self.chord),
            "attempts": self.attempts,
            "roles_swapped": self.roles_swapped,
            "loads": self.loads(),
        }


@dataclass(frozen=True)
class _Plan:
    """The deterministic part of a build; immutable, so attempts, seeds and builds share it."""

    sizes: tuple[int, ...]
    chord: tuple[int, int]
    roles_swapped: bool
    boundary: frozenset[int]
    # The distinct segment-side pairs (x, y), x < y, that the chop's crossing
    # edges join: the only pairs a schedule can put off the cycle.
    crossing: tuple[tuple[int, int], ...]
    kprime: int
    f1: tuple[int, ...]
    targets: tuple[int, int]  # chord ends on the intermediate cycle, per phase
    # The intermediate cycle on 2k' vertices plus the chord between the targets' B sides.
    cycle: Graph
    # Per phase, each block's (sober, drifting) small pairs in walking order:
    # phase 0 walks blocks 1..m3 forwards, phase 1 blocks m2..m3+1 backwards.
    phases: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]
    # Vertex v lies on segment side segment_of[v]: 2t for A_t, 2t + 1 for B_t.
    segment_of: tuple[int, ...]
    segment_sizes: tuple[int, ...]
    # Counts are integers, so their bounds are exact at the floor: size + xi*n
    # per cluster load, per phase the spread bounds on a cycle pair's sober A and B.
    load_caps: tuple[int, ...]
    spread_caps: tuple[tuple[int, int], ...]


def _plan(h: Graph, ordering: BandwidthOrdering, bipartition: tuple, sizes: list[int],
          chord: tuple[int, int], params: HomomorphismParams) -> _Plan:
    """The memoised plan, keyed by value on copies: a caller's later list change misses it."""
    return _memo_plan(h, BandwidthOrdering(tuple(ordering.labels), ordering.claimed_bound),
                      tuple(map(tuple, bipartition)), tuple(sizes), tuple(chord), params)


@lru_cache(maxsize=PLAN_MEMO_SIZE)
def _memo_plan(h: Graph, ordering: BandwidthOrdering, bipartition: tuple, sizes: tuple,
               chord: tuple, params: HomomorphismParams) -> _Plan:
    """Check the inputs, segment H and lay out both phases' walking order."""
    n = h.n
    if sum(sizes) != n or len(sizes) % 2 != 0 or len(sizes) < 4:
        raise InvalidInputError("sizes must partition n over 2k >= 4 clusters")
    k = len(sizes) // 2
    xi_f = as_fraction(params.xi)
    for i, s in enumerate(sizes):
        if Fraction(s) <= Fraction(n, 3 * k):
            raise ParameterError(f"cluster {i} has size {s} <= n/(3k)")
    for i in range(k):
        if abs(sizes[2 * i] - sizes[2 * i + 1]) > xi_f * n:
            raise ParameterError(f"pair {i} sizes differ by more than xi*n")
    c1, c2 = chord
    if c1 == c2 or c1 % 2 != 1 or c2 % 2 != 1:
        raise InvalidInputError("chord must join two distinct odd cluster indices")
    if not (0 <= c1 < 2 * k and 0 <= c2 < 2 * k):
        raise InvalidInputError("chord indices out of range")

    stretch = verify_bandwidth_ordering(h, ordering)
    if stretch > ordering.claimed_bound:
        raise InvalidInputError(
            f"ordering stretch {stretch} exceeds claimed bound {ordering.claimed_bound}"
        )
    beta = Fraction(ordering.claimed_bound, n)

    # The larger color class takes the A role.
    roles_swapped = len(bipartition[0]) < len(bipartition[1])
    classes = (bipartition[1], bipartition[0]) if roles_swapped else bipartition

    decomp = chop_into_segments(h, ordering, classes, beta, params.m1, max(1, h.max_degree()))
    m2, k2 = params.m2, params.k2
    m3 = group_and_split(decomp, m2, params.xi, k2)
    # No schedule changes S, so its bound is judged here, before any draw.
    if len(decomp.boundary) > xi_f * n:
        raise DecompositionError(
            f"boundary |S| = {len(decomp.boundary)} exceeds xi*n = {xi_f * n}"
        )

    # Intermediate cycle on 2k' vertices and the block map onto the host cycle.
    block_sizes = [
        ceil_frac(Fraction((sizes[2 * i] + sizes[2 * i + 1]) * params.k1, n))
        for i in range(k)
    ]
    kprime = sum(block_sizes)
    g_of_pair = [i for i, width in enumerate(block_sizes) for _ in range(width)]
    f1 = tuple(2 * g + side for g in g_of_pair for side in (0, 1))

    w = decomp.m1 // m2
    blocks = [tuple(range(j * w, (j + 1) * w)) for j in range(m2)]
    # Phase 0 drifts on each block's last k2 pairs, phase 1 on its first k2.
    phases = (
        tuple((pairs[:-k2], pairs[-k2:]) for pairs in blocks[:m3]),
        tuple((pairs[k2:][::-1], pairs[:k2][::-1]) for pairs in reversed(blocks[m3:])),
    )
    # Each phase's even share of its blocks, tilted up by diff/(4k') for the
    # A class and down for the B class, plus slack.
    slack = xi_f * n / (6 * kprime)
    tilt = Fraction(sum(decomp.sizes[0::2]) - sum(decomp.sizes[1::2]), 4 * kprime)
    shares = [Fraction(count * n, m2 * 2 * kprime) for count in (m3, m2 - m3)]
    targets = (g_of_pair.index((c1 - 1) // 2), g_of_pair.index((c2 - 1) // 2))
    cycle = Graph(2 * kprime, [(x, (x + 1) % (2 * kprime)) for x in range(2 * kprime)]
                  + [(2 * targets[0] + 1, 2 * targets[1] + 1)])
    side_of = decomp.segment_of
    return _Plan(
        sizes=sizes,
        chord=(c1, c2),
        roles_swapped=roles_swapped,
        boundary=frozenset(decomp.boundary),
        crossing=tuple(sorted({tuple(sorted((side_of[u], side_of[v])))
                               for u, v in decomp.crossing})),
        kprime=kprime,
        f1=f1,
        targets=targets,
        cycle=cycle,
        phases=phases,
        segment_of=tuple(side_of),
        segment_sizes=tuple(decomp.sizes),
        load_caps=tuple(size + floor_frac(xi_f * n) for size in sizes),
        spread_caps=tuple((floor_frac(share + tilt + slack), floor_frac(share - tilt + slack))
                          for share in shares),
    )


def _walk_phase(plan: _Plan, phase: int, rng, draws: int):
    """Walk one phase's blocks; return its start pair, pair slots and coin logs.

    Each block marches its sober pairs and drifts the rest on fair coins; the
    last block instead homes onto the phase's chord end.  Homing can miss when
    a drift segment is shorter than k', so the phase redraws its (uniform)
    start, independently of the other phase, and returns None once all
    `draws` draws have missed.
    """
    kprime = plan.kprime
    blocks = plan.phases[phase]
    for _ in range(draws):
        start = rand_below(rng, kprime)
        slots: dict[int, int] = {}  # small-pair index -> intermediate cycle pair
        logs: list[list[int]] = []
        current = start
        for j, (sober, drifting) in enumerate(blocks, start=1):
            out, final = sober_assign(sober, current, kprime)
            slots.update(zip(sober, out))
            current = (final + 1) % kprime
            if j < len(blocks):
                out, final, coins = drunken_assign(drifting, current, kprime, rng)
                logs.append(coins)
            else:
                homed = seeking_assign(drifting, current, plan.targets[phase], kprime)
                if homed is None:
                    break
                out, final = homed
            slots.update(zip(drifting, out))
            current = (final + 1) % kprime
        else:
            return start, slots, logs
    return None


def _sample(plan: _Plan, seed: int) -> Homomorphism:
    """Draw schedules from child seeds of `seed` until one passes the certificate.

    A draw is judged from per-segment counts alone: each segment side gets
    one cycle vertex and one cluster, validity reads the cycle vertices once
    per crossing side pair, and loads and spreads sum segment sizes.  An
    attempt whose phase misses its chord end on every draw is recorded as a
    seek-miss, with only the start and coin logs it reached: phase 1's, when
    only phase 2 missed.  The map f is built once, for the accepted draw.
    """
    kprime, side_sizes = plan.kprime, plan.segment_sizes
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
            coin_logs.extend(walk[2])
            walks.append(walk)
        if len(walks) < 2:
            start = walks[0][0] if walks else None  # phase 1's start, if only phase 2 missed
            diagnostics.append(AttemptDiagnostics(start, None, coin_logs, True,
                                                  None, None, None, None))
            continue

        # Phase 0 puts A segments on even cycle vertices, phase 1 on odd ones.
        code = [0] * len(side_sizes)
        for phase, (_, slots, _) in enumerate(walks):
            for t, p in slots.items():
                code[2 * t] = 2 * p + phase
                code[2 * t + 1] = 2 * p + 1 - phase

        # An edge inside segment pair t lands on 2p and 2p+1, p = slots[t],
        # which the block map sends onto a host pair: on the cycle and on a
        # pair under every schedule.  So edges_on_pairs holds and only the
        # side pairs of crossing edges can break validity.
        valid = all(plan.cycle.has_edge(code[x], code[y]) for x, y in plan.crossing)
        cluster = [plan.f1[x] for x in code]
        loads = [0] * len(plan.sizes)
        for c, size in zip(cluster, side_sizes):
            loads[c] += size
        loads_bounded = all(load <= cap for load, cap in zip(loads, plan.load_caps))

        spread: list[bool | None] = [None, None]
        if valid:
            for phase, (_, slots, _) in enumerate(walks):
                a_counts = [0] * kprime
                b_counts = [0] * kprime
                for sober, _ in plan.phases[phase]:
                    for t in sober:
                        a_counts[slots[t]] += side_sizes[2 * t]
                        b_counts[slots[t]] += side_sizes[2 * t + 1]
                a_cap, b_cap = plan.spread_caps[phase]
                spread[phase] = (all(x <= a_cap for x in a_counts)
                                 and all(x <= b_cap for x in b_counts))

        diag = AttemptDiagnostics(walks[0][0], walks[1][0], coin_logs, False,
                                  valid, loads_bounded, spread[0], spread[1])
        diagnostics.append(diag)
        if diag.accepted:
            return Homomorphism(
                f=list(map(cluster.__getitem__, plan.segment_of)),
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


def build_homomorphism(
    h: Graph,
    ordering: BandwidthOrdering,
    bipartition: tuple,
    sizes: list[int],
    chord: tuple[int, int],
    params: HomomorphismParams,
    seed: int = 0,
) -> Homomorphism:
    """Construct f: V(H) -> [2k] mapping almost all edges onto cluster pairs.

    sizes lists the 2k cluster capacities in cycle order; chord names two
    distinct odd (B-side) cluster indices.  The color class with more
    vertices takes the A role (recorded in roles_swapped).  Each attempt
    draws fresh phase starts and coins from a child seed; an attempt is
    accepted when the composed map is a valid homomorphism onto the cycle
    plus chord and the certificate holds.
    """
    return _sample(_plan(h, ordering, bipartition, sizes, chord, params), seed)


# ---------------------------------------------------------------------------
# Independent certificate checker (deliberately shares no code with the builder)
# ---------------------------------------------------------------------------


def verify_homomorphism_certificate(
    h: Graph,
    f: list[int],
    boundary: set[int],
    sizes: list[int],
    xi,
    chord: tuple[int, int],
) -> dict:
    """Recompute the three certificate conditions and homomorphism validity.

    Everything is rederived from (h, f, boundary, sizes, chord) by direct
    counting so a builder bug cannot vouch for itself.  Both edge rules read
    only the two classes of an edge and whether both ends lie in the
    boundary, so each distinct such triple is judged once.  A map whose
    length is not h.n is invalid, and is read cut or padded with the class
    len(sizes); an entry that is not an int (a bool included) reads as that
    class too, so the map is invalid.
    """
    n = h.n
    two_k = len(sizes)
    xi_n = as_fraction(xi) * n
    chord_set = {min(chord), max(chord)}
    hom_valid = len(f) == n
    if not hom_valid:
        f = (list(f) + [two_k] * n)[:n]
    if set(map(type, f)) != {int}:
        f = [c if type(c) is int else two_k for c in f]

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
    for x, y, inside in {(f[u], f[v], u in boundary and v in boundary) for u, v in h.edges()}:
        if not on_cycle(x, y):
            hom_valid = False
        if not inside:
            a, b = min(x, y), max(x, y)
            if not (b - a == 1 and a % 2 == 0):
                edges_on_pairs = False

    per_class = Counter(f)
    counts = [per_class[i] for i in range(two_k)]
    if sum(counts) != n:
        hom_valid = False

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


# ---------------------------------------------------------------------------
# Seeded trial statistics (Monte Carlo over fresh builds)
# ---------------------------------------------------------------------------


def balance_trial_stats(
    h: Graph,
    ordering: BandwidthOrdering,
    bipartition: tuple,
    sizes: list[int],
    chord: tuple[int, int],
    params: HomomorphismParams,
    root_seed: int,
    runs: int,
) -> dict:
    """Run seeded builds; report successes, first-try spread passes, retries, recheck failures.

    The builds share one memoised plan, fetched first so bad inputs fail at
    runs = 0.  A build that exhausts its retries is a failed trial; the
    other counts are taken over the accepted builds.
    """
    if runs < 0:
        raise InvalidInputError(f"runs must be nonnegative, got {runs}")
    _plan(h, ordering, bipartition, sizes, chord, params)
    first_try = recheck_failures = 0
    attempts: list[int] = []
    for trial in range(runs):
        try:
            hom = build_homomorphism(h, ordering, bipartition, sizes, chord, params,
                                     seed=derive_seed(root_seed, trial))
        except RetryBudgetError:
            continue
        attempts.append(hom.attempts)
        first_try += hom.first_attempt_balance_pass
        recheck_failures += not verify_homomorphism_certificate(
            h, hom.f, hom.boundary, sizes, params.xi, chord)["all_ok"]
    return {
        "runs": runs,
        "successes": len(attempts),
        "first_try_balance_pass": first_try,
        "first_try_fraction": first_try / runs if runs else 0.0,
        "max_attempts": max(attempts) if attempts else 0,
        "mean_attempts": sum(attempts) / len(attempts) if attempts else 0.0,
        "recheck_failures": recheck_failures,
    }
