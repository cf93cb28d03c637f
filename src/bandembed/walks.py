"""Shifted walks relative to a perfect matching.

A shifted M-walk v_1 v_2 ... v_{2l} alternates non-matching steps
v_{2i-1} v_{2i} in E(G) \\ M with matching steps v_{2i} v_{2i+1} in M.  It is
simple if it uses each matching edge at most twice, and pure relative to a
set A if only its endpoints lie in A.  These walks guide vertex
redistribution between clusters downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, WalkNotFoundError, WalkValidationError
from .graph import Graph, _is_int_list
from .rng import as_fraction, floor_frac

__all__ = [
    "Matching",
    "ShiftedWalk",
    "validate_shifted_walk",
    "simplify_walk",
    "purify_walk",
    "shifted_neighborhood",
    "shifted_neighborhood_iterate",
    "find_closed_shifted_walk",
]


class Matching:
    """A set of pairwise disjoint edges with partner lookup."""

    __slots__ = ("pairs", "_partner")

    def __init__(self, pairs):
        partner: dict[int, int] = {}
        norm = set()
        for e in pairs:
            u, v = e
            if u == v:
                raise InvalidInputError(f"matching edge ({u},{v}) is a loop")
            if u in partner or v in partner:
                raise InvalidInputError(f"matching edges overlap at ({u},{v})")
            partner[u] = v
            partner[v] = u
            norm.add((min(u, v), max(u, v)))
        self.pairs = frozenset(norm)
        self._partner = partner

    def partner(self, v: int) -> int:
        try:
            return self._partner[v]
        except KeyError:
            raise InvalidInputError(f"vertex {v} is not covered by the matching") from None

    def covers(self, v: int) -> bool:
        return v in self._partner

    def is_perfect_on(self, g: Graph) -> bool:
        return len(self._partner) == g.n and all(self.covers(v) for v in range(g.n))

    def contains_edge(self, u: int, v: int) -> bool:
        return self._partner.get(u) == v

    def to_json(self) -> dict:
        return {"pairs": [list(p) for p in sorted(self.pairs)]}

    @classmethod
    def from_json(cls, data) -> "Matching":
        """Load {"pairs": [[u, v], ...]}; malformed input is an InvalidInputError."""
        pairs = data.get("pairs") if isinstance(data, dict) else None
        if not (isinstance(pairs, list) and all(_is_int_list(p) and len(p) == 2 for p in pairs)):
            raise InvalidInputError('matching JSON needs "pairs", a list of integer pairs')
        return cls([tuple(p) for p in pairs])


@dataclass(frozen=True)
class ShiftedWalk:
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) // 2

    @property
    def endpoints(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    @property
    def is_closed(self) -> bool:
        return self.vertices[0] == self.vertices[-1]


def _require_perfect(g: Graph, m: Matching) -> None:
    if not m.is_perfect_on(g):
        raise InvalidInputError("matching must be perfect on V(G)")
    for u, v in m.pairs:
        if not g.has_edge(u, v):
            raise InvalidInputError(f"matching edge ({u},{v}) is not an edge of G")


def validate_shifted_walk(g: Graph, m: Matching, w) -> ShiftedWalk:
    """Validate a vertex sequence as a shifted M-walk.

    A single non-matching edge is a valid walk of length 1.  Errors name the
    first offending position (1-based).
    """
    _require_perfect(g, m)
    seq = tuple(w)
    if len(seq) < 2 or len(seq) % 2 != 0:
        raise WalkValidationError(
            f"walk must have positive even length, got {len(seq)}", position=len(seq)
        )
    for v in seq:
        if not 0 <= v < g.n:
            raise WalkValidationError(f"vertex {v} outside [0,{g.n})")
    ell = len(seq) // 2
    for i in range(1, ell + 1):
        a, b = seq[2 * i - 2], seq[2 * i - 1]
        if not g.has_edge(a, b):
            raise WalkValidationError(
                f"positions {2*i-1}-{2*i}: ({a},{b}) is not an edge", position=2 * i - 1
            )
        if m.contains_edge(a, b):
            raise WalkValidationError(
                f"positions {2*i-1}-{2*i}: ({a},{b}) is a matching edge on an odd step",
                position=2 * i - 1,
            )
    for i in range(1, ell):
        a, b = seq[2 * i - 1], seq[2 * i]
        if not m.contains_edge(a, b):
            raise WalkValidationError(
                f"positions {2*i}-{2*i+1}: ({a},{b}) is not a matching edge",
                position=2 * i,
            )
    return ShiftedWalk(seq)


def _matching_edge_uses(m: Matching, seq: tuple[int, ...]):
    """Positions (0-based index of the even slot) where each M-edge occurs."""
    uses: dict[tuple[int, int], list[int]] = {}
    ell = len(seq) // 2
    for i in range(1, ell):
        a, b = seq[2 * i - 1], seq[2 * i]
        key = (min(a, b), max(a, b))
        uses.setdefault(key, []).append(2 * i - 1)
    return uses


def simplify_walk(g: Graph, m: Matching, w: ShiftedWalk) -> ShiftedWalk:
    """Splice out repeats until each matching edge is used at most twice.

    Among the first three uses of an overused edge, two enter at the same
    vertex; the span between those two entries is removed.  Endpoints are
    preserved and the result revalidates.
    """
    seq = validate_shifted_walk(g, m, w.vertices).vertices
    while True:
        uses = _matching_edge_uses(m, seq)
        overused = sorted(
            (positions[0], key) for key, positions in uses.items() if len(positions) >= 3
        )
        if not overused:
            return ShiftedWalk(seq)
        _, key = overused[0]
        first_three = uses[key][:3]
        splice = None
        for ai in range(3):
            for bi in range(ai + 1, 3):
                if seq[first_three[ai]] == seq[first_three[bi]]:
                    splice = (first_three[ai], first_three[bi])
                    break
            if splice:
                break
        i1, i2 = splice  # guaranteed by pigeonhole on two endpoints
        seq = seq[: i1 + 1] + seq[i2 + 1:]


def purify_walk(m: Matching, a_set, w: ShiftedWalk) -> ShiftedWalk:
    """Extract a sub-walk whose endpoints lie in a_set and whose interior avoids it.

    a_set may contain at most one vertex per matching edge, and both endpoints
    of w must lie in a_set.
    """
    a = set(a_set)
    for v in a:
        if m.covers(v) and m.partner(v) in a:
            raise InvalidInputError(
                f"set contains both ends of matching edge ({v},{m.partner(v)})"
            )
    seq = w.vertices
    if seq[0] not in a or seq[-1] not in a:
        raise InvalidInputError("both walk endpoints must lie in the given set")
    ell = len(seq) // 2
    i1 = next(i for i in range(1, ell + 1) if seq[2 * i - 1] in a)
    i2 = max(i for i in range(1, i1 + 1) if seq[2 * i - 2] in a)
    return ShiftedWalk(seq[2 * i2 - 2: 2 * i1])


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


def find_closed_shifted_walk(g: Graph, m: Matching, a: int, nu) -> ShiftedWalk:
    """Shortest closed shifted M-walk at `a` found by layered search, length <= 3/nu.

    Layer r holds the vertices reachable at odd position 2r-1; a walk of
    length l closes at `a` when some layer-l vertex has a non-matching edge
    back to `a`.  Ties break toward the lowest-index vertex so results are
    reproducible.  Raises WalkNotFoundError past the layer budget, which is a
    legitimate outcome on non-expanders.
    """
    _require_perfect(g, m)
    if not 0 <= a < g.n:
        raise InvalidInputError(f"start vertex {a} outside [0,{g.n})")
    nu = as_fraction(nu)
    if not 0 < nu < 1:
        raise InvalidInputError("nu must satisfy 0 < nu < 1")
    max_len = floor_frac(as_fraction(3) / nu)

    # parent[x] = (u, w): reached x = partner(w) by stepping u -> w.
    parent: dict[int, tuple[int, int]] = {}
    layer_of = {a: 1}
    frontier = [a]
    depth = 1

    def closes(u: int) -> bool:
        return a in g.adj(u) and not m.contains_edge(u, a)

    while depth <= max_len:
        for u in sorted(frontier):
            if closes(u):
                walk: list[int] = [u, a]
                x = u
                while layer_of[x] > 1:
                    pu, pw = parent[x]
                    walk = [pu, pw] + walk
                    x = pu
                return validate_shifted_walk(g, m, walk)
        nxt = []
        for u in sorted(frontier):
            for w in sorted(g.adj(u)):
                if m.contains_edge(u, w):
                    continue
                x = m.partner(w)
                if x not in layer_of:
                    layer_of[x] = depth + 1
                    parent[x] = (u, w)
                    nxt.append(x)
        if not nxt:
            break
        frontier = nxt
        depth += 1

    raise WalkNotFoundError(
        f"no closed shifted walk at {a} within length {max_len} (nu={nu})"
    )
