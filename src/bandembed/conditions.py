"""Certification of the three host hypotheses.

A graph is a robust (nu,tau)-expander when every vertex set S with
tau*n <= |S| <= (1-tau)*n has a nu-robust neighborhood of size at least
|S| + nu*n, where the nu-robust neighborhood collects the vertices with at
least nu*n neighbors inside S.  Exact mode decides every admissible S at
once, S being bit S (a "lane") of Python ints: the lanes where each vertex
has at least ceil(nu*n) neighbors in S are counted per lane against
|S| + ceil(nu*n), and the lowest failing lane, the first failing mask in
ascending order, is the witness.  Lanes come in ascending blocks of 2^16,
within which the vertices above the 16th are fixed.  Sampled mode only
tries to refute.

Threshold comparisons (nu*n, gamma*n, ...) are exact rational throughout.
Index offsets such as n - i - gamma*n are floored; floor is the conservative
integerization and the choice is recorded in verdict metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import FeasibilityError, InvalidInputError
from .graph import Graph, _subset_tables, at_least, vertex_mask
from .rng import as_fraction, ceil_frac, floor_frac, make_rng, rand_range, sample_indices

__all__ = [
    "ExpanderVerdict",
    "DegreeSequenceVerdict",
    "OreVerdict",
    "robust_neighborhood",
    "check_robust_expander",
    "verify_expander_witness",
    "check_degree_sequence_condition",
    "check_ore_condition",
    "EXACT_EXPANDER_CAP",
]

EXACT_EXPANDER_CAP = 20
_BLOCK_BITS = 16


@dataclass
class ExpanderVerdict:
    holds: bool
    mode: str  # "exact" | "sampled"
    nu: Fraction
    tau: Fraction
    witness: frozenset[int] | None = None
    trials: int | None = None

    def to_json(self) -> dict:
        out = {
            "holds": self.holds,
            "mode": self.mode,
            "params": {"nu": str(self.nu), "tau": str(self.tau)},
        }
        if self.witness is not None:
            out["witness"] = sorted(self.witness)
        if self.trials is not None:
            out["trials"] = self.trials
        return out


@dataclass
class DegreeSequenceVerdict:
    holds: bool
    first_violation: int | None = None  # least violating i (1-based), if any
    index_rounding: ClassVar[str] = "floor"

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "first_violation": self.first_violation,
            "index_rounding": self.index_rounding,
        }


@dataclass
class OreVerdict:
    holds: bool
    witness: tuple[int, int] | None = None

    def to_json(self) -> dict:
        out: dict = {"holds": self.holds}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def robust_neighborhood(g: Graph, s, nu) -> set[int]:
    """Vertices with at least nu*n neighbors inside s (s itself not excluded)."""
    nu = as_fraction(nu)
    if not 0 < nu < 1:
        raise InvalidInputError("nu must satisfy 0 < nu < 1")
    s = set(s)
    for v in s:
        if not 0 <= v < g.n:
            raise InvalidInputError(f"vertex {v} outside [0,{g.n})")
    if not s:
        return set()
    threshold = ceil_frac(nu * g.n)
    smask = vertex_mask(s)
    masks = g.masks
    return {v for v in range(g.n) if (masks[v] & smask).bit_count() >= threshold}


def _size_window(n: int, tau: Fraction) -> tuple[int, int]:
    lo = ceil_frac(tau * n)
    hi = floor_frac((1 - tau) * n)
    return lo, hi


def check_robust_expander(
    g: Graph,
    nu,
    tau,
    mode: str = "exact",
    seed: int = 0,
    trials: int = 200,
) -> ExpanderVerdict:
    """Certify (exact) or probe (sampled) the robust expansion property.

    Exact mode enumerates all S in the size window and is a ground truth
    verdict; it requires n <= EXACT_EXPANDER_CAP.  Sampled mode draws |S|
    uniformly in the window and then a uniform subset of that size, so
    holds=True is only a non-refutation claim.
    """
    nu = as_fraction(nu)
    tau = as_fraction(tau)
    if not 0 < nu <= tau < 1:
        raise InvalidInputError("need 0 < nu <= tau < 1")
    if trials < 0:
        raise InvalidInputError(f"trials must be nonnegative, got {trials}")
    n = g.n
    lo, hi = _size_window(n, tau)
    # |S| is an integer, so ceil(|S| + nu*n) = |S| + ceil(nu*n).
    nu_n = ceil_frac(nu * n)
    threshold = max(1, nu_n)
    masks = g.masks

    if mode == "exact":
        if n > EXACT_EXPANDER_CAP:
            raise FeasibilityError(
                f"exact expander check capped at n <= {EXACT_EXPANDER_CAP} (got {n}); "
                "use mode='sampled'"
            )
        if lo > hi:
            return ExpanderVerdict(True, "exact", nu, tau)
        low = min(n, _BLOCK_BITS)
        lanes, low_size = _subset_tables(low)
        full = (1 << (1 << low)) - 1
        # reach[v][k]: lanes where v has at least k neighbours among the low vertices of S.
        reach = [at_least([lane for u, lane in enumerate(lanes) if m >> u & 1], threshold, full)
                 for m in masks]
        for block in range(1 << (n - low)):
            high, base = block << low, block.bit_count()
            # The high vertices of S are fixed in a block, so is each v's count of them.
            robust = [reach[v][max(0, threshold - (masks[v] & high).bit_count())]
                      for v in range(n)]
            enough = at_least(robust, hi + nu_n, full)
            bad = 0
            for size in range(max(lo, base), min(hi, base + low) + 1):
                bad |= low_size[size - base] & ~low_size[size - base + 1] & ~enough[size + nu_n]
            if bad:
                smask = high | ((bad & -bad).bit_length() - 1)
                witness = frozenset(v for v in range(n) if smask >> v & 1)
                return ExpanderVerdict(False, "exact", nu, tau, witness=witness)
        return ExpanderVerdict(True, "exact", nu, tau)

    if mode == "sampled":
        if lo > hi:
            return ExpanderVerdict(True, "sampled", nu, tau, trials=0)
        rng = make_rng(seed)
        for _ in range(trials):
            size = rand_range(rng, lo, hi)
            chosen = sample_indices(rng, n, size)
            if len(robust_neighborhood(g, chosen, nu)) < size + nu_n:
                return ExpanderVerdict(
                    False, "sampled", nu, tau, witness=frozenset(chosen), trials=trials
                )
        return ExpanderVerdict(True, "sampled", nu, tau, trials=trials)

    raise InvalidInputError(f"unknown mode {mode!r}")


def verify_expander_witness(g: Graph, verdict: ExpanderVerdict) -> bool:
    """Recompute a refutation witness from scratch (independent of the search)."""
    if verdict.holds or verdict.witness is None:
        return False
    s = set(verdict.witness)
    n = g.n
    lo, hi = _size_window(n, verdict.tau)
    if not lo <= len(s) <= hi:
        return False
    rn = robust_neighborhood(g, s, verdict.nu)
    return Fraction(len(rn)) < len(s) + verdict.nu * n


def check_degree_sequence_condition(d: list[int], gamma) -> DegreeSequenceVerdict:
    """For every i with 1 <= i < n/2: d_i >= i + gamma*n or d_{n-i-gamma*n} >= n-i.

    d must be nondecreasing (1-based in the statement, 0-based in storage).
    The offset index n - i - gamma*n is floored; an index below 1 counts as a
    failed disjunct.
    """
    gamma = as_fraction(gamma)
    if not 0 < gamma < Fraction(1, 2):
        raise InvalidInputError("gamma must satisfy 0 < gamma < 1/2")
    n = len(d)
    if any(d[i] > d[i + 1] for i in range(n - 1)):
        raise InvalidInputError("degree sequence must be nondecreasing")
    gn = gamma * n
    i = 1
    while 2 * i < n:
        if not (d[i - 1] >= i + gn):
            j = floor_frac(n - i - gn)
            if j < 1 or not (d[j - 1] >= n - i):
                return DegreeSequenceVerdict(False, first_violation=i)
        i += 1
    return DegreeSequenceVerdict(True)


def check_ore_condition(g: Graph, gamma) -> OreVerdict:
    """Every non-adjacent pair x != y must satisfy d(x) + d(y) >= (1+gamma)*n."""
    gamma = as_fraction(gamma)
    if not 0 < gamma < 1:
        raise InvalidInputError("gamma must satisfy 0 < gamma < 1")
    n = g.n
    bound = (1 + gamma) * n
    degs = [g.degree(v) for v in range(n)]
    order = sorted(range(n), key=lambda v: degs[v])
    for ai, x in enumerate(order):
        # Pairs are scanned in degree order so a failing pair is found early.
        for y in order[ai + 1:]:
            if degs[x] + degs[y] >= bound:
                break
            if not g.has_edge(x, y):
                return OreVerdict(False, witness=(x, y))
    return OreVerdict(True)
