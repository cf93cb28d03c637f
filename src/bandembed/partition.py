"""Cluster partitions of a host graph and the redistribution machinery.

The host pipeline turns an injected clustering into a partition
A_1, B_1, ..., A_k, B_k whose reduced graph carries the Hamilton cycle
A_1 B_1 A_2 ... B_k A_1 plus one A-side and one B-side chord, with
(A_i, B_i) super-regular.  Leftover vertices are absorbed greedily, pair
sizes are balanced along closed shifted walks in the reduced graph, and
exact demanded sizes are then hit by cycling single vertices around the
cluster cycle.  Every vertex move is logged with the neighbor count that
justified it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

from .errors import (
    AssignmentError,
    BalancingError,
    InvalidInputError,
    ParameterError,
    RedistributionError,
    StructuralError,
    WalkNotFoundError,
)
from .graph import Graph, _is_int_list, induced_subgraph, vertex_mask
from .regularity import (
    EXACT_REGULARITY_CAP,
    RegularityVerdict,
    ReducedGraph,
    build_reduced_graph,
    check_regular_pair,
    check_super_regular_pair,
)
from .rng import as_fraction, ceil_frac, floor_frac
from .walks import Matching, find_closed_shifted_walk, purify_walk, simplify_walk

__all__ = [
    "ClusterPartition",
    "Config",
    "CycleStructure",
    "MoveRecord",
    "BalanceStep",
    "BalanceLedger",
    "HypothesisReport",
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
    "check_mobility_hypotheses",
    "load_config",
    "dump_config",
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

    def a_class(self, i: int) -> set[int]:
        return self.classes[2 * i]

    def b_class(self, i: int) -> set[int]:
        return self.classes[2 * i + 1]

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

    def copy(self) -> "ClusterPartition":
        return ClusterPartition(
            [set(c) for c in self.classes], self.a_chord, self.b_chord
        )

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


def dump_config(cfg: Config) -> str:
    return "".join(f"{k} = {getattr(cfg, k)}\n" for k in _CONFIG_FIELDS)


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


def _hamilton_cycles(adj: list[set[int]], n: int):
    """Backtracking enumeration of Hamilton cycles anchored at vertex 0."""
    path = [0]
    used = [False] * n
    used[0] = True

    def extend():
        if len(path) == n:
            if 0 in adj[path[-1]]:
                yield tuple(path)
            return
        for v in sorted(adj[path[-1]]):
            if not used[v]:
                used[v] = True
                path.append(v)
                yield from extend()
                path.pop()
                used[v] = False

    yield from extend()


def find_hamilton_cycle_and_chords(reduced: ReducedGraph) -> CycleStructure:
    """First Hamilton cycle (deterministic order) carrying both same-side chords.

    A chord is any reduced-graph edge joining two clusters of equal cycle
    parity; one is needed among the A-positions and one among the
    B-positions.  Backtracking is capped at 32 clusters.
    """
    n = reduced.size
    if n % 2 != 0 or n < 4:
        raise StructuralError(f"need an even number >= 4 of clusters, got {n}")
    if n > HAMILTON_CAP:
        raise StructuralError(f"Hamilton search capped at {HAMILTON_CAP} clusters")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in reduced.edges:
        adj[u].add(v)
        adj[v].add(u)
    saw_cycle = False
    for order in _hamilton_cycles(adj, n):
        saw_cycle = True
        pos = {c: p for p, c in enumerate(order)}
        a_chord = None
        b_chord = None
        for u, v in sorted(reduced.edges):
            pu, pv = pos[u], pos[v]
            if pu % 2 == 0 and pv % 2 == 0 and a_chord is None:
                pair = (min(pu, pv) // 2, max(pu, pv) // 2)
                a_chord = pair
            elif pu % 2 == 1 and pv % 2 == 1 and b_chord is None:
                pair = (min(pu, pv) // 2, max(pu, pv) // 2)
                b_chord = pair
        if a_chord is not None and b_chord is not None:
            return CycleStructure(order, a_chord, b_chord)
    if saw_cycle:
        raise StructuralError("no Hamilton cycle of the reduced graph has both chords")
    raise StructuralError("reduced graph has no Hamilton cycle")


def relabel_partition(
    partition: ClusterPartition, structure: CycleStructure
) -> ClusterPartition:
    classes = [set(partition.classes[c]) for c in structure.order]
    return ClusterPartition(classes, structure.a_chord, structure.b_chord)


def relabel_reduced(reduced: ReducedGraph, structure: CycleStructure) -> ReducedGraph:
    pos = {c: p for p, c in enumerate(structure.order)}
    clusters = tuple(reduced.clusters[c] for c in structure.order)
    edges = frozenset(
        (min(pos[u], pos[v]), max(pos[u], pos[v])) for u, v in reduced.edges
    )
    return ReducedGraph(clusters, edges, reduced.eps, reduced.d)


# ---------------------------------------------------------------------------
# Leftover-vertex assignment
# ---------------------------------------------------------------------------


def assign_exceptional_vertices(
    g: Graph, partition: ClusterPartition, v0, cfg: Config
) -> ClusterPartition:
    """Greedily absorb leftover vertices into partner classes.

    A vertex joins the partner of a cluster where it has at least
    eta*m'/4 neighbors; a class stops receiving once 8*eps_prime*m'/eta
    vertices have been added to it.  The admissible cluster with the most
    neighbors wins, ties to the lowest index.
    """
    leftovers = sorted(set(v0))
    if not leftovers:
        return partition.copy()
    covered = partition.covered()
    for v in leftovers:
        if v in covered:
            raise InvalidInputError(f"vertex {v} is already in a class")
    out = partition.copy()
    # m' is the cluster scale; the mean stays meaningful when classes are
    # momentarily imbalanced.
    m_prime = Fraction(sum(len(c) for c in out.classes), len(out.classes))
    eta = as_fraction(cfg.eta)
    eps_p = as_fraction(cfg.eps_prime)
    threshold = eta * m_prime / 4
    cap = floor_frac(8 * eps_p * m_prime / eta)
    received = [0] * len(out.classes)
    snapshot = [frozenset(c) for c in out.classes]
    for v in leftovers:
        best = None
        for c, members in enumerate(snapshot):
            target = c ^ 1  # partner class within the pair
            if received[target] >= cap:
                continue
            count = len(g.adj(v) & members)
            if count >= threshold and (best is None or count > best[0]):
                best = (count, c)
        if best is None:
            raise AssignmentError(
                f"vertex {v} has no admissible cluster (threshold {threshold})"
            )
        _, c = best
        out.classes[c ^ 1].add(v)
        received[c ^ 1] += 1
    return out


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

    def to_json(self) -> dict:
        return {
            "vertex": self.vertex,
            "src": self.src,
            "dst": self.dst,
            "witness_count": self.witness_count,
            "threshold": str(self.threshold),
        }


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


def _sigma_star(classes: list[set[int]], k: int, lam_n: Fraction) -> int:
    total = 0
    for i in range(k):
        d = abs(len(classes[2 * i]) - len(classes[2 * i + 1]))
        if d > lam_n:
            total += d
    return total


def balance_partition(
    g: Graph,
    partition: ClusterPartition,
    reduced: ReducedGraph,
    cfg: Config,
) -> tuple[ClusterPartition, BalanceLedger]:
    """Drive every pair to ||A_i| - |B_i|| <= lam*n using closed shifted walks.

    Each step finds a closed walk at an oversized class in the live part of
    the reduced graph, simplifies and purifies it against the oversized set,
    and slides well-connected vertices one hop along both alternating chains,
    which shrinks the imbalance at the walk's endpoints and leaves interior
    pairs untouched.  Pairs that drift too far from their original classes
    retire from the live reduced graph; if the live part falls below the
    (1 - nu/12) fraction floor the run aborts.
    """
    k = partition.k
    n = g.n
    lam_n = as_fraction(cfg.lam) * n
    nu = as_fraction(cfg.nu)
    d_prime = as_fraction(cfg.d_prime)
    eta = as_fraction(cfg.eta)
    eps_p = float(cfg.eps_prime)

    cur = [set(c) for c in partition.classes]
    orig = [frozenset(c) for c in partition.classes]
    orig_masks = [vertex_mask(c) for c in orig]
    m_prime = Fraction(sum(len(c) for c in orig), len(orig))
    wc_threshold = d_prime * m_prime / 8
    per_hop = max(1, ceil_frac(lam_n / 2))
    drift_cap = (eps_p ** (1.0 / 3.0)) * float(m_prime) - float(lam_n)
    floor_live = (1 - nu / 12) * (2 * k)
    max_steps = max(1, ceil_frac(4 * as_fraction(cfg.eps_prime) / (eta * as_fraction(cfg.lam)))) + 4

    live = set(range(k))
    ledger = BalanceLedger()
    gmasks = g.masks

    def oversized() -> list[int]:
        out = []
        for i in sorted(live):
            da = len(cur[2 * i]) - len(cur[2 * i + 1])
            if da > lam_n:
                out.append(2 * i)
            elif -da > lam_n:
                out.append(2 * i + 1)
        return out

    def wc_count(v: int, target_class: int) -> int:
        return (gmasks[v] & orig_masks[target_class]).bit_count()

    for _ in range(max_steps):
        heavy = oversized()
        if not heavy:
            break
        start = heavy[0]

        live_classes = sorted(c for i in live for c in (2 * i, 2 * i + 1))
        sub, old_ids = induced_subgraph(reduced.as_graph(), live_classes)
        to_sub = {c: s for s, c in enumerate(old_ids)}
        m_star = Matching([(to_sub[2 * i], to_sub[2 * i + 1]) for i in sorted(live)])
        try:
            walk = find_closed_shifted_walk(sub, m_star, to_sub[start], nu / 4)
        except WalkNotFoundError as exc:
            raise BalancingError(f"no guiding walk at class {start}: {exc}") from exc
        walk = simplify_walk(sub, m_star, walk)
        heavy_sub = {to_sub[c] for c in heavy}
        walk = purify_walk(m_star, heavy_sub, walk)
        seq = [old_ids[s] for s in walk.vertices]
        length = len(seq) // 2

        def partner(c: int) -> int:
            return c ^ 1

        u_chain = [seq[2 * i] for i in range(length)] + [partner(seq[-1])]
        w_chain = [partner(seq[0])] + [seq[2 * i + 1] for i in range(length)]

        ep1, ep2 = seq[0], seq[-1]
        shrink = 4 if ep1 == ep2 else 2

        def exit_amount(c: int) -> int:
            d = abs(len(cur[c]) - len(cur[partner(c)]))
            return max(1, ceil_frac((Fraction(d) - lam_n) / shrink))

        step_moves = min(per_hop, exit_amount(ep1), exit_amount(ep2))
        sigma_before = _sigma_star(cur, k, lam_n)
        moved_now: set[int] = set()
        records: list[MoveRecord] = []

        def do_move(src: int, dst: int, wc_target: int) -> None:
            candidates = [
                (-wc_count(v, wc_target), v)
                for v in cur[src]
                if v not in moved_now and wc_count(v, wc_target) >= wc_threshold
            ]
            if len(candidates) < step_moves:
                raise BalancingError(
                    f"class {src} holds only {len(candidates)} well-connected "
                    f"unmoved vertices (< {step_moves})"
                )
            candidates.sort()
            for negc, v in candidates[:step_moves]:
                cur[src].discard(v)
                cur[dst].add(v)
                moved_now.add(v)
                records.append(MoveRecord(v, src, dst, -negc, wc_threshold))

        for i in range(len(u_chain) - 1):
            do_move(u_chain[i], u_chain[i + 1], wc_target=partner(u_chain[i + 1]))
        for j in range(len(w_chain) - 1, 0, -1):
            do_move(w_chain[j], w_chain[j - 1], wc_target=partner(w_chain[j - 1]))

        retired = []
        for i in sorted(live):
            drifted = False
            for c in (2 * i, 2 * i + 1):
                grown = len(cur[c] - orig[c])
                lost = len(orig[c] - cur[c])
                if grown >= drift_cap or lost >= drift_cap:
                    drifted = True
            if drifted:
                live.discard(i)
                retired.append(i)
        if 2 * len(live) < floor_live:
            raise BalancingError(
                f"live reduced graph fell to {2 * len(live)} clusters "
                f"(floor {float(floor_live):.2f})"
            )
        sigma_after = _sigma_star(cur, k, lam_n)
        ledger.steps.append(
            BalanceStep(tuple(seq), step_moves, sigma_before, sigma_after, retired, records)
        )
    else:
        raise BalancingError(f"balancing did not converge within {max_steps} steps")

    for i in range(k):
        if abs(len(cur[2 * i]) - len(cur[2 * i + 1])) > lam_n:
            raise BalancingError(
                f"pair {i} still imbalanced after balancing "
                f"({len(cur[2*i])} vs {len(cur[2*i+1])})"
            )
    out = ClusterPartition(cur, partition.a_chord, partition.b_chord)
    return out, ledger


# ---------------------------------------------------------------------------
# Exact-size redistribution around the cycle
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    cycle_in_reduced: bool
    a_chord_in_reduced: bool
    b_chord_in_reduced: bool
    targets_small: bool
    totals_cancel: bool
    net_flow_small: bool
    details: dict = field(default_factory=dict)

    def all_ok(self) -> bool:
        return (
            self.cycle_in_reduced
            and self.a_chord_in_reduced
            and self.b_chord_in_reduced
            and self.targets_small
            and self.totals_cancel
            and self.net_flow_small
        )

    def to_json(self) -> dict:
        out = dict(self.__dict__)
        out.pop("details")
        out["details"] = {k: str(v) for k, v in self.details.items()}
        return out


@dataclass
class MobilityLedger:
    chord_moves: list[MoveRecord] = field(default_factory=list)
    a_moves: list[MoveRecord] = field(default_factory=list)
    b_moves: list[MoveRecord] = field(default_factory=list)
    churn: list[int] = field(default_factory=list)  # |current delta original| per class
    mirrored: bool = False

    def all_moves(self) -> list[MoveRecord]:
        return self.chord_moves + self.a_moves + self.b_moves


def check_mobility_hypotheses(
    g: Graph,
    partition: ClusterPartition,
    reduced: ReducedGraph,
    a_targets: list[int],
    b_targets: list[int],
    cfg: Config,
) -> HypothesisReport:
    """Reduced-graph and target hypotheses; callers certify the pairs themselves."""
    k = partition.k
    xi_n = as_fraction(cfg.xi) * g.n

    skeleton = partition.skeleton()
    cycle_ok = all(reduced.has_edge(x, y) for x, y in skeleton[:2 * k])
    # A chord joins two A-classes (even indices) or two B-classes (odd).
    chord_ok = {x % 2: reduced.has_edge(x, y) for x, y in skeleton[2 * k:]}
    small_ok = all(abs(x) < xi_n for x in a_targets) and all(
        abs(x) < xi_n for x in b_targets
    )
    total_a, total_b = sum(a_targets), sum(b_targets)
    cancel_ok = total_a + total_b == 0
    flow_ok = abs(total_a) <= xi_n and abs(total_b) <= xi_n
    return HypothesisReport(
        cycle_ok, chord_ok.get(0, False), chord_ok.get(1, False), small_ok, cancel_ok, flow_ok,
        details={"total_a": total_a, "total_b": total_b, "xi_n": xi_n},
    )


def redistribute_to_sizes(
    g: Graph,
    partition: ClusterPartition,
    reduced: ReducedGraph,
    a_targets: list[int],
    b_targets: list[int],
    cfg: Config,
    *,
    eps=None,
    d=None,
) -> tuple[ClusterPartition, MobilityLedger]:
    """Hit |A'_i| = |A_i| + a_i and |B'_i| = |B_i| + b_i exactly.

    When the A-side must grow on net, the surplus crosses over the B-side
    chord first (vertices of B_{i2} with enough neighbors across the chord
    join A_{j2}); the mirrored case uses the A-side chord.  Then single
    vertices cycle between A-classes in one direction and between B-classes
    in the other, each move justified by a recorded cross-degree into the
    next pair's partner class.
    """
    k = partition.k
    if len(a_targets) != k or len(b_targets) != k:
        raise InvalidInputError("need one target per pair on each side")
    report = check_mobility_hypotheses(g, partition, reduced, a_targets, b_targets, cfg)
    if not report.all_ok():
        raise RedistributionError(f"hypotheses violated: {report.to_json()}")

    eps_f = as_fraction(cfg.eps_prime if eps is None else eps)
    d_f = as_fraction(cfg.d_prime if d is None else d)
    cur = [set(c) for c in partition.classes]
    orig = [frozenset(c) for c in partition.classes]
    orig_masks = [vertex_mask(c) for c in orig]
    gmasks = g.masks
    ledger = MobilityLedger()

    def wc_count(v: int, target_class: int) -> int:
        return (gmasks[v] & orig_masks[target_class]).bit_count()

    def take_best(src: int, target_class: int, count: int, sink: list[MoveRecord], dst: int):
        threshold = (d_f - eps_f) * len(orig[target_class])
        candidates = sorted(
            ((-wc_count(v, target_class), v) for v in cur[src]
             if wc_count(v, target_class) >= threshold),
        )
        if len(candidates) < count:
            raise RedistributionError(
                f"class {src} holds only {len(candidates)} vertices with "
                f">= {threshold} neighbors in class {target_class}"
            )
        for negc, v in candidates[:count]:
            cur[src].discard(v)
            cur[dst].add(v)
            sink.append(MoveRecord(v, src, dst, -negc, threshold))

    total_a = sum(a_targets)
    if total_a > 0:
        i2, j2 = partition.b_chord
        take_best(2 * i2 + 1, 2 * j2 + 1, total_a, ledger.chord_moves, dst=2 * j2)
    elif total_a < 0:
        ledger.mirrored = True
        i1, j1 = partition.a_chord
        take_best(2 * i1, 2 * j1, -total_a, ledger.chord_moves, dst=2 * j1 + 1)

    goal_a = [len(orig[2 * i]) + a_targets[i] for i in range(k)]
    goal_b = [len(orig[2 * i + 1]) + b_targets[i] for i in range(k)]
    if any(x < 1 for x in goal_a + goal_b):
        raise RedistributionError("targets leave a class empty")

    max_rounds = sum(abs(x) for x in a_targets + b_targets) + abs(total_a) + 2 * k + 4

    def run_side(goals: list[int], side: int, step: int, sink: list[MoveRecord]):
        # side 0 = A-classes, 1 = B. step -1 cycles A_t -> A_{t-1},
        # step +1 cycles B_t -> B_{t+1}.
        def size(i: int) -> int:
            return len(cur[2 * i + side])

        for _ in range(max_rounds):
            deficits = [i for i in range(k) if size(i) < goals[i]]
            if not deficits:
                break
            i = deficits[0]
            j = None
            t = i
            for _ in range(k - 1):
                t = (t - step) % k
                if size(t) > goals[t]:
                    j = t
                    break
            if j is None:
                raise RedistributionError("no surplus class available for a deficit")
            t = j
            while t != i:
                nxt = (t + step) % k
                src = 2 * t + side
                dst = 2 * nxt + side
                take_best(src, dst ^ 1, 1, sink, dst=dst)
                t = nxt
        else:
            raise RedistributionError("redistribution did not converge")
        if any(size(i) != goals[i] for i in range(k)):
            raise RedistributionError("sizes missed their targets")

    run_side(goal_a, side=0, step=-1, sink=ledger.a_moves)
    run_side(goal_b, side=1, step=+1, sink=ledger.b_moves)

    ledger.churn = [
        len(cur[c] - orig[c]) + len(orig[c] - cur[c]) for c in range(2 * k)
    ]
    out = ClusterPartition(cur, partition.a_chord, partition.b_chord)
    return out, ledger


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
    k: int
    baseline_sizes: list[int]
    partition: ClusterPartition
    reduced: ReducedGraph
    balance_ledger: BalanceLedger


def _auto_mode(*class_sizes: int) -> str:
    return "exact" if max(class_sizes) <= EXACT_REGULARITY_CAP else "heuristic"


def verify_partition_structure(
    g: Graph,
    partition: ClusterPartition,
    demanded: list[int] | None,
    cfg: Config,
    *,
    seed: int = 0,
) -> StructureReport:
    """Certify the five structural conditions of a finished partition at (eps, d)."""
    k = partition.k
    eps, d = as_fraction(cfg.eps), as_fraction(cfg.d)
    sizes_exact = True
    if demanded is not None:
        sizes_exact = partition.sizes() == list(demanded)

    def check(checker, x: int, y: int) -> RegularityVerdict:
        cx, cy = partition.classes[x], partition.classes[y]
        return checker(g, cx, cy, eps, d, mode=_auto_mode(len(cx), len(cy)), seed=seed)

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
    *,
    seed: int = 0,
) -> HostPartitionReport:
    """Host-side baseline: an injected clustering turned into a balanced partition.

    Absorbs leftover vertices, builds the working reduced graph, finds the
    Hamilton cycle and chords, and balances pair sizes to within lam*n.  The
    host graph itself serves as the pure subgraph: hosts are generated
    pair-pure and every certificate is a pair-level check.  The baseline is
    neither redistributed nor certified here: callers hit demanded sizes with
    `redistribute_to_sizes` and certify the partition they keep, once, with
    `verify_partition_structure`.  Raises ParameterError below n0 and the
    failing step's own error otherwise.
    """
    if g.n < cfg.n0:
        raise ParameterError(f"host has {g.n} < n0 = {cfg.n0} vertices")
    leftover = set(range(g.n)) - partition.covered()
    part1 = assign_exceptional_vertices(g, partition, leftover, cfg)
    reduced1 = build_reduced_graph(
        g, part1.classes, cfg.eps_prime, cfg.d_prime,
        mode=_auto_mode(*(len(c) for c in part1.classes)), seed=seed,
    )
    structure = find_hamilton_cycle_and_chords(reduced1)
    part2 = relabel_partition(part1, structure)
    reduced2 = relabel_reduced(reduced1, structure)
    part3, balance_ledger = balance_partition(g, part2, reduced2, cfg)
    baseline = part3.sizes()
    if any(Fraction(s) <= Fraction(g.n, 3 * part3.k) for s in baseline):
        raise BalancingError("a class fell to n/(3k) or below")
    return HostPartitionReport(
        k=part3.k,
        baseline_sizes=baseline,
        partition=part3,
        reduced=reduced2,
        balance_ledger=balance_ledger,
    )
