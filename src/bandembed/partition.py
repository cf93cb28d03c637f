"""Cluster partitions of a host graph and the redistribution machinery.

The host pipeline turns an injected clustering into a partition
A_1, B_1, ..., A_k, B_k whose reduced graph carries the Hamilton cycle
A_1 B_1 A_2 ... B_k A_1 plus one A-side and one B-side chord, with
(A_i, B_i) super-regular.  The vertices no class holds are absorbed greedily,
pair sizes are balanced along closed shifted walks in the reduced graph, and
exact demanded sizes are then hit by cycling single vertices around the
cluster cycle.  Every vertex move is logged with the neighbor count that
justified it.  A reduced graph is a `Graph` with one vertex per class, and a
size mismatch is an InvalidInputError.  Only balancing takes the reduced
graph; redistribution takes demanded sizes, walks the cycle and chords found in
it and checks only the sizes, by the four rules of `_check_sizes`, before any
vertex moves.  A class vertex outside V(G) is an InvalidInputError.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from .errors import (
    AssignmentError,
    BalancingError,
    FeasibilityError,
    InvalidInputError,
    ParameterError,
    RedistributionError,
    StructuralError,
    WalkNotFoundError,
)
from .graph import Graph, _bits, _is_int_list, induced_subgraph, vertex_mask
from .regularity import (
    EXACT_REGULARITY_CAP,
    RegularityVerdict,
    build_reduced_graph,
    check_regular_pair,
    check_super_regular_pair,
)
from .rng import as_fraction, ceil_frac, floor_frac
from .walks import Matching, find_closed_shifted_walk, purify_walk

__all__ = [
    "ClusterPartition",
    "Config",
    "CycleStructure",
    "MoveRecord",
    "BalanceStep",
    "BalanceLedger",
    "MobilityLedger",
    "StructureReport",
    "HostPartitionReport",
    "find_hamilton_cycle_and_chords",
    "relabel_partition",
    "assign_exceptional_vertices",
    "balance_partition",
    "redistribute_to_sizes",
    "prepare_host_partition",
    "verify_partition_structure",
    "load_config",
]


@dataclass
class ClusterPartition:
    """Ordered classes [A_1, B_1, ..., A_k, B_k] plus optional chord indices.

    Chords are pair indices: a_chord=(i1, j1) names the A-side pair
    (A_{i1}, A_{j1}), b_chord the B-side pair.  Indices are 0-based.
    """

    classes: list[set[int]]
    a_chord: tuple[int, int] | None = None
    b_chord: tuple[int, int] | None = None

    def __post_init__(self):
        if len(self.classes) % 2 != 0 or not self.classes:
            raise InvalidInputError("partition needs an even, positive number of classes")
        for i, j in filter(None, (self.a_chord, self.b_chord)):
            if i == j or not (0 <= i < self.k and 0 <= j < self.k):
                raise InvalidInputError("chord pair indices must be distinct and within range")
        seen: set[int] = set()
        for c in self.classes:
            cs = set(c)
            if seen & cs:
                raise InvalidInputError("partition classes must be pairwise disjoint")
            seen |= cs
        self.classes = [set(c) for c in self.classes]

    @property
    def k(self) -> int:
        return len(self.classes) // 2

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def covered(self) -> set[int]:
        out: set[int] = set()
        for c in self.classes:
            out |= c
        return out

    def skeleton(self) -> list[tuple[int, int]]:
        """Class-index edges of the cluster cycle A_1 B_1 ... A_k B_k and its chords.

        In walking order: (2i, 2i+1) then (2i+1, 2i+2 mod 2k) for each i, then
        the A-side chord (2i1, 2j1) and the B-side chord (2i2+1, 2j2+1) that
        are set.
        """
        k = self.k
        out = []
        for i in range(k):
            out += [(2 * i, 2 * i + 1), (2 * i + 1, (2 * i + 2) % (2 * k))]
        if self.a_chord:
            out.append((2 * self.a_chord[0], 2 * self.a_chord[1]))
        if self.b_chord:
            out.append((2 * self.b_chord[0] + 1, 2 * self.b_chord[1] + 1))
        return out

    def to_json(self) -> dict:
        return {
            "classes": [sorted(c) for c in self.classes],
            "a_chord": list(self.a_chord) if self.a_chord else None,
            "b_chord": list(self.b_chord) if self.b_chord else None,
        }

    @classmethod
    def from_json(cls, data) -> "ClusterPartition":
        """Load partition JSON; malformed input is an InvalidInputError."""
        classes = data.get("classes") if isinstance(data, dict) else None
        if not (isinstance(classes, list) and all(map(_is_int_list, classes))):
            raise InvalidInputError('partition JSON needs "classes", a list of integer lists')
        chords = [data.get("a_chord"), data.get("b_chord")]
        if not all(c is None or (_is_int_list(c) and len(c) == 2) for c in chords):
            raise InvalidInputError("partition JSON chords must be null or two integers")
        return cls([set(c) for c in classes], *(tuple(c) if c else None for c in chords))


@dataclass(frozen=True)
class Config:
    """Explicit numeric constants replacing the asymptotic parameter hierarchy.

    Two ordering chains are validated at load:

        0 < lam < xi < eps_prime < eps < 1
        0 < d < d_prime < nu <= tau < eta < 1

    eps_prime / d_prime are the working regularity parameters used while
    vertices are still being moved; eps / d are the final certification
    level.  At desk scale eps exceeds d (loose regularity over a low density
    floor), so no eps-versus-d relation is enforced.
    """

    n0: int = 64
    lam: float = 0.02
    xi: float = 0.30
    eps_prime: float = 0.35
    eps: float = 0.40
    d: float = 0.20
    d_prime: float = 0.25
    nu: float = 0.45
    tau: float = 0.45
    eta: float = 0.55

    def __post_init__(self):
        # Every comparison with NaN is false, so the chains below cannot catch it.
        bad = [f"{k}={v}" for k, v in asdict(self).items() if not math.isfinite(v)]
        if bad:
            raise ParameterError(f"config values must be finite, got {', '.join(bad)}")
        chain1 = [0.0, self.lam, self.xi, self.eps_prime, self.eps, 1.0]
        if any(x >= y for x, y in zip(chain1, chain1[1:])):
            raise ParameterError(
                "need 0 < lam < xi < eps_prime < eps < 1, got "
                f"lam={self.lam}, xi={self.xi}, eps_prime={self.eps_prime}, eps={self.eps}"
            )
        if not 0.0 < self.d < self.d_prime < self.nu:
            raise ParameterError(
                f"need 0 < d < d_prime < nu, got d={self.d}, "
                f"d_prime={self.d_prime}, nu={self.nu}"
            )
        if not self.nu <= self.tau < self.eta < 1.0:
            raise ParameterError(
                f"need nu <= tau < eta < 1, got nu={self.nu}, tau={self.tau}, eta={self.eta}"
            )
        if self.n0 < 1:
            raise ParameterError("n0 must be positive")

    def to_json(self) -> dict:
        return asdict(self)


_CONFIG_FIELDS = tuple(f.name for f in fields(Config))


def load_config(text: str) -> Config:
    """Parse a `key = value` config; '#' starts a comment; unknown keys error."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ParameterError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = int(val) if key == "n0" else float(val)
        except ValueError:
            raise ParameterError(
                f"config line {lineno}: {key} = {val.strip()!r} is not a number"
            ) from None
    return Config(**values)


# ---------------------------------------------------------------------------
# Hamilton cycle and chords in the reduced graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleStructure:
    """A Hamilton cycle of the reduced graph with one chord on each side.

    order[2i] is the cluster playing A_{i+1}; order[2i+1] plays B_{i+1}.
    Chords are pair indices into the relabeled partition.
    """

    order: tuple[int, ...]
    a_chord: tuple[int, int]
    b_chord: tuple[int, int]


HAMILTON_CAP = 32


def _hamilton_cycles(reduced: Graph):
    """Backtracking enumeration of Hamilton cycles anchored at vertex 0; each step tries
    the unvisited neighbours in ascending order."""
    masks = reduced.masks

    def extend(path: list[int], unvisited: int):
        if not unvisited:
            if masks[path[-1]] & 1:
                yield tuple(path)
            return
        for v in _bits(masks[path[-1]] & unvisited):
            yield from extend(path + [v], unvisited ^ 1 << v)

    yield from extend([0], (1 << reduced.n) - 2)


def find_hamilton_cycle_and_chords(reduced: Graph) -> CycleStructure:
    """First Hamilton cycle (deterministic order) carrying both same-side chords.

    A chord is any reduced-graph edge joining two clusters of equal cycle
    parity; one is needed among the A-positions and one among the
    B-positions.  An odd cluster count, or one below 4, is an input error;
    above the backtracking cap of 32 clusters FeasibilityError decides
    nothing.  StructuralError means only: no Hamilton cycle, or none with both chords.
    """
    n = reduced.n
    if n % 2 != 0 or n < 4:
        raise InvalidInputError(f"need an even number >= 4 of clusters, got {n}")
    if n > HAMILTON_CAP:
        raise FeasibilityError(f"Hamilton search capped at {HAMILTON_CAP} clusters")
    saw_cycle = False
    for order in _hamilton_cycles(reduced):
        saw_cycle = True
        pos = {c: p for p, c in enumerate(order)}
        # The first chord among A-positions (even) and among B-positions (odd).
        chords: dict[int, tuple[int, int]] = {}
        for u, v in reduced.edges():
            pu, pv = sorted((pos[u], pos[v]))
            if pu % 2 == pv % 2:
                chords.setdefault(pu % 2, (pu // 2, pv // 2))
        if len(chords) == 2:
            return CycleStructure(order, chords[0], chords[1])
    if saw_cycle:
        raise StructuralError("no Hamilton cycle of the reduced graph has both chords")
    raise StructuralError("reduced graph has no Hamilton cycle")


def relabel_partition(
    partition: ClusterPartition, structure: CycleStructure
) -> ClusterPartition:
    classes = [set(partition.classes[c]) for c in structure.order]
    return ClusterPartition(classes, structure.a_chord, structure.b_chord)


def relabel_reduced(reduced: Graph, structure: CycleStructure) -> Graph:
    pos = {c: p for p, c in enumerate(structure.order)}
    return Graph(reduced.n, [(pos[u], pos[v]) for u, v in reduced.edges()])


# ---------------------------------------------------------------------------
# Moving host vertices between classes
# ---------------------------------------------------------------------------


class _LivePartition:
    """Classes that vertices move between, next to the classes they started as.

    Every host-side move follows one rule: a vertex joins class c because it
    has enough neighbours in the original partner class c ^ 1, so witness
    counts are always taken against the starting partition, never the live one.
    """

    def __init__(self, g: Graph, partition: ClusterPartition):
        outside = next((v for c in partition.classes for v in c if not 0 <= v < g.n), None)
        if outside is not None:
            raise InvalidInputError(f"class vertex {outside} lies outside [0,{g.n})")
        self.partition = partition
        self.gmasks = g.masks
        self.cur = [set(c) for c in partition.classes]
        self.orig = [frozenset(c) for c in partition.classes]
        self.orig_masks = [vertex_mask(c) for c in self.orig]
        # m' is the cluster scale; the mean stays meaningful when classes are
        # momentarily imbalanced.
        self.m_prime = Fraction(sum(map(len, self.orig)), len(self.orig))

    def witnesses(self, v: int, c: int) -> int:
        """Neighbours of v in original class c."""
        return (self.gmasks[v] & self.orig_masks[c]).bit_count()

    def drift(self, c: int) -> tuple[int, int]:
        """(vertices gained, vertices lost) by class c since the start."""
        return len(self.cur[c] - self.orig[c]), len(self.orig[c] - self.cur[c])

    def move_best(self, src: int, dst: int, count: int, threshold: Fraction,
                  sink: list[MoveRecord], error: type[Exception], wanted: str,
                  skip=frozenset()) -> None:
        """Move the `count` vertices of `src` with most neighbours in original class
        dst ^ 1 to `dst`, ties to the lowest id, logging each move in `sink`.

        Only vertices outside `skip` with at least `threshold` such neighbours
        qualify; too few raise `error`, naming how many of the `wanted` kind exist.
        """
        # Witness counts are integers, so comparing with the ceiling is exact.
        need, gmasks, witness_mask = ceil_frac(threshold), self.gmasks, self.orig_masks[dst ^ 1]
        ranked = []
        for v in self.cur[src]:
            wc = (gmasks[v] & witness_mask).bit_count()
            if wc >= need and v not in skip:
                ranked.append((-wc, v))
        if len(ranked) < count:
            raise error(f"class {src} holds only {len(ranked)} {wanted}")
        ranked.sort()
        for negc, v in ranked[:count]:
            self.cur[src].discard(v)
            self.cur[dst].add(v)
            sink.append(MoveRecord(v, src, dst, -negc, threshold))

    def result(self) -> ClusterPartition:
        return ClusterPartition(self.cur, self.partition.a_chord, self.partition.b_chord)


def assign_exceptional_vertices(
    g: Graph, partition: ClusterPartition, cfg: Config
) -> ClusterPartition:
    """Greedily absorb the leftover vertices, those no class holds, into partner classes.

    In ascending order, a leftover vertex joins the partner of a cluster
    where it has at least eta*m'/4 neighbors; a class stops receiving once
    8*eps_prime*m'/eta vertices have been added to it.  The admissible
    cluster with the most neighbors wins, ties to the lowest index.
    """
    part = _LivePartition(g, partition)
    eta = as_fraction(cfg.eta)
    threshold = eta * part.m_prime / 4
    cap = floor_frac(8 * as_fraction(cfg.eps_prime) * part.m_prime / eta)
    for v in sorted(set(range(g.n)) - partition.covered()):
        best = None
        for c in range(len(part.cur)):
            # The partner class within the pair receives v.
            if part.drift(c ^ 1)[0] >= cap:
                continue
            count = part.witnesses(v, c)
            if count >= threshold and (best is None or count > best[0]):
                best = (count, c)
        if best is None:
            raise AssignmentError(
                f"vertex {v} has no admissible cluster (threshold {threshold})"
            )
        part.cur[best[1] ^ 1].add(v)
    return part.result()


# ---------------------------------------------------------------------------
# Balancing along shifted walks
# ---------------------------------------------------------------------------


@dataclass
class MoveRecord:
    vertex: int
    src: int  # class index
    dst: int
    witness_count: int
    threshold: Fraction


@dataclass
class BalanceStep:
    walk_classes: tuple[int, ...]
    moved_per_hop: int
    sigma_before: int
    sigma_after: int
    retired_pairs: list[int]
    moves: list[MoveRecord]


@dataclass
class BalanceLedger:
    steps: list[BalanceStep] = field(default_factory=list)

    @property
    def step_count(self) -> int:
        return len(self.steps)


def balance_partition(
    g: Graph,
    partition: ClusterPartition,
    reduced: Graph,
    cfg: Config,
) -> tuple[ClusterPartition, BalanceLedger]:
    """Drive every pair to ||A_i| - |B_i|| <= lam*n using closed shifted walks.

    Each step finds a closed walk at an oversized class in the live part of
    the reduced graph, purifies it against the oversized set, and slides
    well-connected vertices one hop along both alternating chains, which
    shrinks the imbalance at the walk's endpoints and leaves interior pairs
    untouched.  The search's walks are already simple, so balancing purifies
    them directly.  Pairs that drift too far from their original classes
    retire from the live reduced graph; if the live part falls below the
    (1 - nu/12) fraction floor the run aborts.  A BalancingError carries the ledger so far.
    """
    k = partition.k
    if reduced.n != 2 * k:
        raise InvalidInputError(f"the reduced graph has {reduced.n} vertices for {2 * k} classes")
    lam_n = as_fraction(cfg.lam) * g.n
    nu = as_fraction(cfg.nu)
    eta = as_fraction(cfg.eta)

    part = _LivePartition(g, partition)
    cur = part.cur
    wc_threshold = as_fraction(cfg.d_prime) * part.m_prime / 8
    per_hop = max(1, ceil_frac(lam_n / 2))
    # A pair retires at drift + lam*n >= eps_prime^(1/3) m', both sides >= 0, so compared cubed.
    drift_cap_cubed = as_fraction(cfg.eps_prime) * part.m_prime ** 3
    floor_live = (1 - nu / 12) * (2 * k)
    max_steps = max(1, ceil_frac(4 * as_fraction(cfg.eps_prime) / (eta * as_fraction(cfg.lam)))) + 4

    live = set(range(k))
    ledger = BalanceLedger()

    def gaps() -> dict[int, int]:
        """|A_i| - |B_i| for each pair i, live or retired, imbalanced past lam*n."""
        diffs = ((i, len(cur[2 * i]) - len(cur[2 * i + 1])) for i in range(k))
        return {i: gap for i, gap in diffs if abs(gap) > lam_n}

    try:
        over = gaps()
        for _ in range(max_steps):
            # The larger class of each oversized live pair, in pair order.
            heavy = [2 * i + (gap < 0) for i, gap in over.items() if i in live]
            if not heavy:
                break
            start = heavy[0]

            live_classes = sorted(c for i in live for c in (2 * i, 2 * i + 1))
            sub, old_ids = induced_subgraph(reduced, live_classes)
            to_sub = {c: s for s, c in enumerate(old_ids)}
            m_star = Matching([(to_sub[2 * i], to_sub[2 * i + 1]) for i in sorted(live)])
            try:
                walk = find_closed_shifted_walk(sub, m_star, to_sub[start], nu / 4)
            except WalkNotFoundError as exc:
                raise BalancingError(f"no guiding walk at class {start}: {exc}") from exc
            walk = purify_walk(m_star, {to_sub[c] for c in heavy}, walk)
            seq = [old_ids[s] for s in walk.vertices]

            # c ^ 1 is the partner of class c within its pair.
            u_chain = seq[0::2] + [seq[-1] ^ 1]
            w_chain = [seq[0] ^ 1] + seq[1::2]

            # Both endpoints are heavy, so their pairs are in `over`.
            shrink = 4 if seq[0] == seq[-1] else 2
            step_moves = min(per_hop, *(
                max(1, ceil_frac((abs(over[c // 2]) - lam_n) / shrink)) for c in (seq[0], seq[-1])
            ))
            sigma_before = sum(map(abs, over.values()))
            records: list[MoveRecord] = []
            # The u-chain slides forward and the w-chain backward; no vertex
            # moves twice in one step.
            w_back = w_chain[::-1]
            for src, dst in [*zip(u_chain, u_chain[1:]), *zip(w_back, w_back[1:])]:
                part.move_best(
                    src, dst, step_moves, wc_threshold, records, BalancingError,
                    f"well-connected unmoved vertices (< {step_moves})",
                    skip={m.vertex for m in records},
                )

            retired = [i for i in sorted(live)
                       if any((max(part.drift(c)) + lam_n) ** 3 >= drift_cap_cubed
                              for c in (2 * i, 2 * i + 1))]
            live.difference_update(retired)
            if 2 * len(live) < floor_live:
                raise BalancingError(
                    f"live reduced graph fell to {2 * len(live)} clusters "
                    f"(floor {float(floor_live):.2f})"
                )
            over = gaps()
            ledger.steps.append(BalanceStep(
                tuple(seq), step_moves, sigma_before, sum(map(abs, over.values())), retired, records
            ))
        else:
            raise BalancingError(f"balancing did not converge within {max_steps} steps")

        if over:
            i = next(iter(over))  # the lowest-numbered imbalanced pair
            raise BalancingError(
                f"pair {i} still imbalanced after balancing "
                f"({len(cur[2*i])} vs {len(cur[2*i+1])})"
            )
    except BalancingError as exc:
        exc.ledger = ledger
        raise
    return part.result(), ledger


# ---------------------------------------------------------------------------
# Exact-size redistribution around the cycle
# ---------------------------------------------------------------------------


@dataclass
class MobilityLedger:
    chord_moves: list[MoveRecord] = field(default_factory=list)
    a_moves: list[MoveRecord] = field(default_factory=list)
    b_moves: list[MoveRecord] = field(default_factory=list)
    churn: list[int] = field(default_factory=list)  # |current delta original| per class
    mirrored: bool = False

    def all_moves(self) -> list[MoveRecord]:
        return self.chord_moves + self.a_moves + self.b_moves


def _check_sizes(have: list[int], want: list[int], xi_n: Fraction, error: type[Exception]):
    """Raise `error`, naming the numbers, unless sizes `want` keep redistribution's four rules.

    A class's target is want - have.  Every |target| is below xi*n; the targets sum
    to 0; the net A-side flow |sum of A_i targets| is at most xi*n; every want is >= 1.
    """
    diff = [w - h for w, h in zip(want, have)]
    largest = max(map(abs, diff))
    if largest >= xi_n:
        raise error(f"a target of size {largest} is not below xi*n = {xi_n}")
    if sum(diff) != 0:
        raise error(f"the targets sum to {sum(diff)}, not 0")
    total_a = sum(diff[0::2])
    if abs(total_a) > xi_n:
        raise error(f"the net A-side flow {total_a} exceeds xi*n = {xi_n}")
    if min(want) < 1:
        raise error("targets leave a class empty")


def redistribute_to_sizes(
    g: Graph,
    partition: ClusterPartition,
    sizes: list[int],
    cfg: Config,
) -> tuple[ClusterPartition, MobilityLedger]:
    """Hit the class sizes |A'_i| = sizes[2i] and |B'_i| = sizes[2i+1] exactly.

    The partition's cluster cycle and chords are the ones
    `prepare_host_partition` found in the reduced graph, so they are not
    checked again here.  Before any vertex moves, the sizes must keep the
    four rules of `_check_sizes` against the partition's own (no class left
    empty among them), each a RedistributionError.  A wrong size count or a
    partition without both chords is an InvalidInputError.

    When the A-side must grow on net, the surplus crosses over the B-side
    chord first (vertices of B_{i2} with enough neighbors across the chord
    join A_{j2}); the mirrored case uses the A-side chord.  Then single
    vertices cycle between A-classes in one direction and between B-classes
    in the other, each move justified by a recorded cross-degree of at least
    (d_prime - eps_prime)|C| into the next pair's partner class C.
    """
    k = partition.k
    if len(sizes) != 2 * k:
        raise InvalidInputError("need one size per class")
    if partition.a_chord is None or partition.b_chord is None:
        raise InvalidInputError("redistribution needs both an A-side and a B-side chord")
    have = partition.sizes()
    _check_sizes(have, sizes, as_fraction(cfg.xi) * g.n, RedistributionError)
    total_a = sum(sizes[0::2]) - sum(have[0::2])

    slack = as_fraction(cfg.d_prime) - as_fraction(cfg.eps_prime)
    part = _LivePartition(g, partition)
    cur, orig = part.cur, part.orig
    ledger = MobilityLedger()

    def take_best(src: int, dst: int, count: int, sink: list[MoveRecord]):
        threshold = slack * len(orig[dst ^ 1])
        part.move_best(src, dst, count, threshold, sink, RedistributionError,
                       f"vertices with >= {threshold} neighbors in class {dst ^ 1}")

    if total_a > 0:
        i2, j2 = partition.b_chord
        take_best(2 * i2 + 1, 2 * j2, total_a, ledger.chord_moves)
    elif total_a < 0:
        ledger.mirrored = True
        i1, j1 = partition.a_chord
        take_best(2 * i1, 2 * j1 + 1, -total_a, ledger.chord_moves)

    def run_side(goals: list[int], side: int, step: int, sink: list[MoveRecord]):
        # side 0 = A-classes, 1 = B. step -1 cycles A_t -> A_{t-1},
        # step +1 cycles B_t -> B_{t+1}.  The chord step moved the net A-side
        # flow and the targets sum to 0, so this side's sizes sum to its
        # goals: a deficit has a surplus among the other k - 1 classes.  Each
        # round moves one vertex per hop from the first surplus upstream to the
        # first deficit: the total deficit falls by one, no class drops below its goal.
        def size(i: int) -> int:
            return len(cur[2 * i + side])

        for i in range(k):
            while size(i) < goals[i]:
                upstream = ((i - step * d) % k for d in range(1, k))
                t = next(t for t in upstream if size(t) > goals[t])
                while t != i:
                    nxt = (t + step) % k
                    take_best(2 * t + side, 2 * nxt + side, 1, sink)
                    t = nxt

    run_side(sizes[0::2], side=0, step=-1, sink=ledger.a_moves)
    run_side(sizes[1::2], side=1, step=+1, sink=ledger.b_moves)

    ledger.churn = [sum(part.drift(c)) for c in range(2 * k)]
    return part.result(), ledger


# ---------------------------------------------------------------------------
# Host-side pipeline
# ---------------------------------------------------------------------------


@dataclass
class StructureReport:
    sizes_exact: bool
    super_pairs: list[RegularityVerdict]
    cycle_pairs: list[RegularityVerdict]
    chord_a: RegularityVerdict | None
    chord_b: RegularityVerdict | None

    def all_ok(self) -> bool:
        return (
            self.sizes_exact
            and all(v.regular for v in self.super_pairs)
            and all(v.regular for v in self.cycle_pairs)
            and self.chord_a is not None
            and self.chord_a.regular
            and self.chord_b is not None
            and self.chord_b.regular
        )

    def to_json(self) -> dict:
        return {
            "sizes_exact": self.sizes_exact,
            "super_pairs": [v.to_json() for v in self.super_pairs],
            "cycle_pairs": [v.to_json() for v in self.cycle_pairs],
            "chord_a": self.chord_a.to_json() if self.chord_a else None,
            "chord_b": self.chord_b.to_json() if self.chord_b else None,
            "all_ok": self.all_ok(),
        }


@dataclass
class HostPartitionReport:
    partition: ClusterPartition
    reduced: Graph
    balance_ledger: BalanceLedger


def _auto_mode(*class_sizes: int) -> str:
    return "exact" if max(class_sizes) <= EXACT_REGULARITY_CAP else "heuristic"


def verify_partition_structure(
    g: Graph,
    partition: ClusterPartition,
    demanded: list[int],
    cfg: Config,
) -> StructureReport:
    """Certify the sizes against `demanded` and the five structural conditions at (eps, d)."""
    k = partition.k
    eps, d = as_fraction(cfg.eps), as_fraction(cfg.d)
    sizes_exact = partition.sizes() == demanded

    def check(checker, x: int, y: int) -> RegularityVerdict:
        cx, cy = partition.classes[x], partition.classes[y]
        return checker(g, cx, cy, eps, d, mode=_auto_mode(len(cx), len(cy)))

    skeleton = partition.skeleton()
    cycle, chords = skeleton[:2 * k], skeleton[2 * k:]
    supers = [check(check_super_regular_pair, x, y) for x, y in cycle[0::2]]
    cycles = [check(check_regular_pair, x, y) for x, y in cycle[1::2]]
    # A chord joins two A-classes (even indices) or two B-classes (odd).
    chord = {x % 2: check(check_regular_pair, x, y) for x, y in chords}
    return StructureReport(sizes_exact, supers, cycles, chord.get(0), chord.get(1))


def prepare_host_partition(
    g: Graph,
    partition: ClusterPartition,
    cfg: Config,
) -> HostPartitionReport:
    """Host-side baseline: an injected clustering turned into a balanced partition.

    Absorbs leftover vertices, builds the working reduced graph, finds the
    Hamilton cycle and chords, and balances pair sizes to within lam*n.  The
    host graph itself serves as the pure subgraph: hosts are generated
    pair-pure and every certificate is a pair-level check.  The baseline is
    neither redistributed nor certified here: callers hit demanded sizes with
    `redistribute_to_sizes` and certify the partition they keep, once, with
    `verify_partition_structure`.  Raises InvalidInputError below k = 2
    cluster pairs, FeasibilityError above the Hamilton search's cap,
    ParameterError below n0, and else the failing step's error.
    """
    if partition.k < 2:
        raise InvalidInputError(f"a host partition needs k >= 2 cluster pairs, got k = {partition.k}")
    if 2 * partition.k > HAMILTON_CAP:
        raise FeasibilityError(
            f"Hamilton search capped at {HAMILTON_CAP} clusters (got 2k = {2 * partition.k})"
        )
    if g.n < cfg.n0:
        raise ParameterError(f"host has {g.n} < n0 = {cfg.n0} vertices")
    part1 = assign_exceptional_vertices(g, partition, cfg)
    reduced1 = build_reduced_graph(g, part1.classes, cfg.eps_prime, cfg.d_prime,
                                   mode=_auto_mode(*(len(c) for c in part1.classes)))
    structure = find_hamilton_cycle_and_chords(reduced1)
    part2 = relabel_partition(part1, structure)
    reduced2 = relabel_reduced(reduced1, structure)
    part3, balance_ledger = balance_partition(g, part2, reduced2, cfg)
    if any(Fraction(s) <= Fraction(g.n, 3 * part3.k) for s in part3.sizes()):
        exc = BalancingError("a class fell to n/(3k) or below")
        exc.ledger = balance_ledger
        raise exc
    return HostPartitionReport(
        partition=part3,
        reduced=reduced2,
        balance_ledger=balance_ledger,
    )
