"""Reference implementations that the tests compare the library against.

Each oracle is a plain, slow restatement of a rule the library computes
faster.  It lives beside the tests rather than beside the code it checks,
so the two cannot drift together.  Standard library only: the CI runs the
differential checks under `python -S`.
"""

from fractions import Fraction

from bandembed.graph import Graph
from bandembed.rng import as_fraction


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
