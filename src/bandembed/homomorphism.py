"""Bandwidth segmentation of H and the randomized cycle-assignment schedule.

The target graph H is chopped along its bandwidth ordering into small
segment pairs (A_i, B_i) whose edges stay inside pairs except near the
boundary set S.  Segments are grouped into large blocks and walked around an
intermediate cycle on 2k' vertices by three per-block procedures: a sober
march (one cycle pair per segment pair), a drunken walk (stay or advance on
a fair coin), and a target-homing march that pins the block's last segment
onto a chord endpoint.  The two phases meet across the chord with the color
roles exchanged, which balances how much of each color class lands on odd
and even cycle positions.  Composing with a block map f1 onto the host
cycle gives the final homomorphism together with its certificate:

  * boundary_small:   |S| <= xi * n
  * loads_bounded:    every cluster receives at most its size + xi * n
  * edges_on_pairs:   every edge outside H[S] lands on a cluster pair

The segmentation is computed once per input; only the randomized schedule
is re-drawn, with fresh randomness, until the certificate holds.  The two
internal spread inequalities that imply loads_bounded in the asymptotic
analysis are evaluated and reported per attempt; at coarse segmentations
they can be unsatisfiable even though the certificate itself holds, so they
gate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, sqrt

from .errors import (
    DecompositionError,
    InvalidInputError,
    ParameterError,
    RetryBudgetError,
    SeekMissError,
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
    "binomial_mod_distribution",
    "verify_homomorphism_certificate",
    "choose_h_parameters",
    "balance_trial_stats",
]

MAX_RETRIES = 50


# ---------------------------------------------------------------------------
# Segment decomposition
# ---------------------------------------------------------------------------


@dataclass
class SegmentDecomposition:
    """Small segment pairs (A_i, B_i), the boundary set, and the block split."""

    a_segments: list[list[int]]
    b_segments: list[list[int]]
    boundary: set[int]
    beta: Fraction
    m1: int
    delta: int
    m2: int | None = None
    m3: int | None = None
    k2: int | None = None
    imbalances: list[int] | None = None

    @property
    def total_a(self) -> int:
        return sum(len(s) for s in self.a_segments)

    @property
    def total_b(self) -> int:
        return sum(len(s) for s in self.b_segments)

    def pairs_per_block(self) -> int:
        return self.m1 // self.m2

    def block_pairs(self, j: int) -> range:
        """Small-pair indices (0-based) of large block j (1-based)."""
        w = self.pairs_per_block()
        return range((j - 1) * w, j * w)

    def sober_pairs(self, j: int) -> list[int]:
        pairs = list(self.block_pairs(j))
        return pairs[: -self.k2] if j <= self.m3 else pairs[self.k2:]

    def drifting_pairs(self, j: int) -> list[int]:
        """The k2 pairs assigned by the drunken or target-homing procedure."""
        pairs = list(self.block_pairs(j))
        return pairs[-self.k2:] if j <= self.m3 else pairs[: self.k2]


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
            movable = sorted(
                v for v in partner[i]
                if v not in boundary and h.degree(v) == 0
            )
            if not movable:
                raise DecompositionError(
                    f"segment {i} cannot reach size {min_size}: "
                    "no isolated vertices left to reassign"
                )
            v = movable[0]
            partner[i].remove(v)
            into[i].append(v)
            # Reassigned vertices change color class; isolation keeps the
            # bipartition valid.
            if v in class_b:
                class_b.discard(v)
                class_a.add(v)
            else:
                class_a.discard(v)
                class_b.add(v)

    for i in range(m1):
        repair(a_segments, b_segments, i)
        repair(b_segments, a_segments, i)

    decomp = SegmentDecomposition(
        [sorted(s) for s in a_segments],
        [sorted(s) for s in b_segments],
        boundary,
        beta,
        m1,
        delta,
    )
    _certify_chop(h, decomp)
    return decomp


def _certify_chop(h: Graph, decomp: SegmentDecomposition) -> None:
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
    role: dict[int, tuple[str, int]] = {}
    for i in range(m1):
        for v in decomp.a_segments[i]:
            role[v] = ("A", i)
        for v in decomp.b_segments[i]:
            role[v] = ("B", i)
    s = decomp.boundary
    for u, v in h.edges():
        ru, rv = role[u], role[v]
        same_pair = ru[1] == rv[1] and ru[0] != rv[0]
        if u in s and v in s:
            crossing = (
                (ru[0] == "B" and rv[0] == "A" and rv[1] == (ru[1] + 1) % m1)
                or (rv[0] == "B" and ru[0] == "A" and ru[1] == (rv[1] + 1) % m1)
            )
            if not (same_pair or crossing):
                raise DecompositionError(
                    f"boundary-edge property fails at edge ({u},{v}): {ru} vs {rv}"
                )
        elif not same_pair:
            raise DecompositionError(
                f"interior-edge property fails at edge ({u},{v}): {ru} vs {rv}"
            )


def group_and_split(decomp: SegmentDecomposition, m2: int, xi, k2: int) -> SegmentDecomposition:
    """Group segment pairs into m2 blocks, pick the split index, fix drift length k2.

    The split index m3 is the smallest index in the admissible window whose
    prefix of block imbalances lands within xi*n/20 of half the total color
    imbalance.  Callers put the larger color class in the A role; the window
    arithmetic itself is sign-agnostic.
    """
    xi = as_fraction(xi)
    m1, n = decomp.m1, decomp.total_a + decomp.total_b
    if m2 < 1 or m1 % m2 != 0:
        raise ParameterError(f"m2 must divide m1 (got m1={m1}, m2={m2})")
    if not 1 <= k2 < m1 // m2:
        raise ParameterError(f"need 1 <= k2 < m1/m2 (got k2={k2}, m1/m2={m1 // m2})")
    decomp.m2 = m2
    decomp.k2 = k2
    w = m1 // m2
    sizes = []
    imbalances = []
    for j in range(m2):
        block = range(j * w, (j + 1) * w)
        a = sum(len(decomp.a_segments[t]) for t in block)
        b = sum(len(decomp.b_segments[t]) for t in block)
        sizes.append(a + b)
        imbalances.append(a - b)
    slack = sqrt(float(decomp.beta)) * n
    for j, size in enumerate(sizes):
        if not n / m2 - slack <= size <= n / m2 + slack:
            raise DecompositionError(f"block size property fails at block {j}: {size}")
    decomp.imbalances = imbalances

    diff = decomp.total_a - decomp.total_b
    target = Fraction(diff, 2)
    window = xi * n / 20
    lo = max(1, ceil_frac(xi * m2 / 20))
    hi = min(m2 - 1, floor_frac((1 - xi / 20) * m2))
    prefix = 0
    chosen = None
    for m3 in range(1, m2 + 1):
        prefix += imbalances[m3 - 1]
        if lo <= m3 <= hi and abs(prefix - target) <= window:
            chosen = m3
            break
    if chosen is None:
        raise ParameterError(
            f"no split index in [{lo},{hi}] puts the prefix within {window} of {target}"
        )
    decomp.m3 = chosen
    return decomp


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


def seeking_assign(pairs, start_pair: int, target_pair: int, kprime: int) -> tuple[list[int], int]:
    """Advance every step until the target cycle pair is reached, then hold.

    Guaranteed to finish on the target when the segment has at least k'
    pairs; otherwise the run fails whenever the start is more than
    len(pairs)-1 steps short of the target.
    """
    count = len(pairs)
    if count == 0:
        raise ParameterError("target-homing needs at least one segment pair")
    distance = (target_pair - start_pair) % kprime
    if distance > count - 1:
        raise SeekMissError(
            f"distance {distance} to target exceeds segment length {count} - 1"
        )
    out = [start_pair % kprime]
    for _ in range(count - 1):
        out.append(out[-1] if out[-1] == target_pair % kprime else (out[-1] + 1) % kprime)
    return out, out[-1]


# ---------------------------------------------------------------------------
# Exact binomial residue distribution
# ---------------------------------------------------------------------------


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
        want = max(k_upper, ceil(k_upper ** 3 / 6))
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
    start_pair_phase1: int
    start_pair_phase2: int | None
    coin_logs: list[list[int]]
    seek_miss: bool
    valid: bool
    boundary_small: bool
    loads_bounded: bool
    edges_on_pairs: bool
    spread_phase1_ok: bool | None
    spread_phase2_ok: bool | None

    @property
    def balance_pass(self) -> bool:
        return bool(self.spread_phase1_ok and self.spread_phase2_ok)

    @property
    def accepted(self) -> bool:
        return (
            self.valid
            and self.boundary_small
            and self.loads_bounded
            and self.edges_on_pairs
        )


@dataclass
class Homomorphism:
    """Total map of V(H) into the host cycle clusters with its certificate."""

    f: list[int]
    boundary: set[int]
    k: int
    kprime: int
    f1: list[int]
    f2: list[int]
    chord: tuple[int, int]
    chord_intermediate: tuple[int, int]
    sizes: list[int]
    xi: float
    roles_swapped: bool
    attempts: int
    diagnostics: list[AttemptDiagnostics] = field(repr=False, default_factory=list)

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


def _cycle_edge_ok(x: int, y: int, two_k: int, chord: tuple[int, int]) -> bool:
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


@dataclass(frozen=True)
class _Plan:
    """The deterministic part of a build; immutable, so attempts and seeds share it."""

    h: Graph
    sizes: tuple[int, ...]
    chord: tuple[int, int]
    params: HomomorphismParams
    roles_swapped: bool
    a_segments: tuple[tuple[int, ...], ...]
    b_segments: tuple[tuple[int, ...], ...]
    boundary: frozenset[int]
    kprime: int
    f1: tuple[int, ...]
    targets: tuple[int, int]  # chord ends on the intermediate cycle, per phase
    # Per phase, each block's (sober, drifting) small pairs in walking order:
    # phase 0 walks blocks 1..m3 forwards, phase 1 blocks m2..m3+1 backwards.
    phases: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]
    # Per phase, the spread bounds on one cycle pair's sober A and B vertices.
    spread_bounds: tuple[tuple[Fraction, Fraction], ...]


def _plan(h: Graph, ordering: BandwidthOrdering, bipartition: tuple, sizes: list[int],
          chord: tuple[int, int], params: HomomorphismParams) -> _Plan:
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

    class_a, class_b = list(bipartition[0]), list(bipartition[1])
    roles_swapped = len(class_a) < len(class_b)
    if roles_swapped:
        class_a, class_b = class_b, class_a

    delta = h.max_degree()
    decomp = chop_into_segments(h, ordering, (class_a, class_b), beta, params.m1, max(1, delta))
    group_and_split(decomp, params.m2, params.xi, params.k2)

    # Intermediate cycle on 2k' vertices and the block map onto the host cycle.
    block_sizes = [
        ceil_frac(Fraction((sizes[2 * i] + sizes[2 * i + 1]) * params.k1, n))
        for i in range(k)
    ]
    kprime = sum(block_sizes)
    g_of_pair = [i for i, width in enumerate(block_sizes) for _ in range(width)]
    f1 = tuple(2 * g + side for g in g_of_pair for side in (0, 1))

    m2, m3 = decomp.m2, decomp.m3
    blocks = [(decomp.sober_pairs(j), decomp.drifting_pairs(j)) for j in range(1, m2 + 1)]
    phases = (
        tuple((tuple(sober), tuple(drift)) for sober, drift in blocks[:m3]),
        tuple((tuple(sober[::-1]), tuple(drift[::-1])) for sober, drift in reversed(blocks[m3:])),
    )
    # Each phase's even share of its blocks, tilted up by diff/(4k') for the
    # A class and down for the B class, plus slack.
    slack = xi_f * n / (6 * kprime)
    tilt = Fraction(decomp.total_a - decomp.total_b, 4 * kprime)
    shares = [Fraction(count * n, m2 * 2 * kprime) for count in (m3, m2 - m3)]
    return _Plan(
        h=h,
        sizes=tuple(sizes),
        chord=(c1, c2),
        params=params,
        roles_swapped=roles_swapped,
        a_segments=tuple(tuple(s) for s in decomp.a_segments),
        b_segments=tuple(tuple(s) for s in decomp.b_segments),
        boundary=frozenset(decomp.boundary),
        kprime=kprime,
        f1=f1,
        targets=(g_of_pair.index((c1 - 1) // 2), g_of_pair.index((c2 - 1) // 2)),
        phases=phases,
        spread_bounds=tuple((share + tilt + slack, share - tilt + slack) for share in shares),
    )


def _walk_phase(plan: _Plan, phase: int, rng, draws: int):
    """Walk one phase's blocks; return its start pair, pair slots and coin logs.

    Each block marches its sober pairs and drifts the rest on fair coins; the
    last block instead homes onto the phase's chord end.  Homing can miss when
    a drift segment is shorter than k', so the phase redraws its (uniform)
    start, independently of the other phase, up to `draws` times.
    """
    kprime = plan.kprime
    blocks = plan.phases[phase]
    for _ in range(draws):
        start = rand_below(rng, kprime)
        slots: dict[int, int] = {}  # small-pair index -> intermediate cycle pair
        logs: list[list[int]] = []
        current = start
        try:
            for j, (sober, drifting) in enumerate(blocks, start=1):
                out, final = sober_assign(sober, current, kprime)
                slots.update(zip(sober, out))
                current = (final + 1) % kprime
                if j < len(blocks):
                    out, final, coins = drunken_assign(drifting, current, kprime, rng)
                    logs.append(coins)
                else:
                    out, final = seeking_assign(drifting, current, plan.targets[phase], kprime)
                slots.update(zip(drifting, out))
                current = (final + 1) % kprime
        except SeekMissError:
            continue
        return start, slots, logs
    raise SeekMissError(f"phase {phase + 1} never reached its chord target in {draws} draws")


def _sample(plan: _Plan, seed: int) -> Homomorphism:
    """Draw schedules from child seeds of `seed` until one passes the certificate."""
    h, n, kprime = plan.h, plan.h.n, plan.kprime
    xi = as_fraction(plan.params.xi)
    draws = max(MAX_RETRIES, 8 * kprime)
    intermediate_chord = (2 * plan.targets[0] + 1, 2 * plan.targets[1] + 1)
    boundary_small = Fraction(len(plan.boundary)) <= xi * n
    diagnostics: list[AttemptDiagnostics] = []

    for attempt in range(1, MAX_RETRIES + 1):
        rng = make_rng(derive_seed(seed, attempt))
        coin_logs: list[list[int]] = []
        walks = []
        try:
            for phase in (0, 1):
                start, slots, logs = _walk_phase(plan, phase, rng, draws)
                coin_logs.extend(logs)
                walks.append((start, slots))
        except SeekMissError:
            diagnostics.append(
                AttemptDiagnostics(-1, None, coin_logs, True, False, False, False, False, None, None)
            )
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

        valid = all(
            _cycle_edge_ok(f2[u], f2[v], 2 * kprime, intermediate_chord)
            for u, v in h.edges()
        )
        loads = [0] * len(plan.sizes)
        for c in f:
            loads[c] += 1
        loads_bounded = all(load <= size + xi * n for load, size in zip(loads, plan.sizes))
        edges_on_pairs = all(
            (u in plan.boundary and v in plan.boundary)
            or (abs(f[u] - f[v]) == 1 and min(f[u], f[v]) % 2 == 0)
            for u, v in h.edges()
        )

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

        diag = AttemptDiagnostics(
            walks[0][0], walks[1][0], coin_logs, False, valid,
            boundary_small, loads_bounded, edges_on_pairs, spread[0], spread[1],
        )
        diagnostics.append(diag)
        if diag.accepted:
            return Homomorphism(
                f=f,
                boundary=set(plan.boundary),
                k=len(plan.sizes) // 2,
                kprime=kprime,
                f1=list(plan.f1),
                f2=f2,
                chord=plan.chord,
                chord_intermediate=intermediate_chord,
                sizes=list(plan.sizes),
                xi=float(xi),
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
    counting so a builder bug cannot vouch for itself.
    """
    n = h.n
    two_k = len(sizes)
    xi_n = as_fraction(xi) * n
    chord_set = {min(chord), max(chord)}

    def on_cycle(x: int, y: int) -> bool:
        if x == y:
            return False
        a, b = min(x, y), max(x, y)
        if b - a == 1:
            return True
        if a == 0 and b == two_k - 1:
            return True
        return {a, b} == chord_set

    hom_valid = True
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
    """Run seeded builds and report first-try spread passes, retries, recheck failures.

    H is segmented once; each trial draws only a fresh schedule.
    """
    plan = _plan(h, ordering, bipartition, sizes, chord, params)
    first_try = 0
    attempts: list[int] = []
    recheck_failures = 0
    for trial in range(runs):
        hom = _sample(plan, derive_seed(root_seed, trial))
        attempts.append(hom.attempts)
        if hom.first_attempt_balance_pass:
            first_try += 1
        recheck = verify_homomorphism_certificate(
            h, hom.f, hom.boundary, sizes, params.xi, chord
        )
        if not recheck["all_ok"]:
            recheck_failures += 1
    return {
        "runs": runs,
        "successes": len(attempts),
        "first_try_balance_pass": first_try,
        "first_try_fraction": first_try / runs if runs else 0.0,
        "max_attempts": max(attempts) if attempts else 0,
        "mean_attempts": sum(attempts) / len(attempts) if attempts else 0.0,
        "recheck_failures": recheck_failures,
    }
