"""Differential checks of the independent checkers against their reference oracles.

Standard library only, so the CI can run each check under `python -S`
before pytest is installed:

    PYTHONPATH=src:tests python -S -c "import test_checker_oracles as t; t.test_homomorphism_checker_matches_oracle()"
"""

from bandembed.homomorphism import (
    build_homomorphism,
    choose_h_parameters,
    verify_homomorphism_certificate,
)
from bandembed.rng import make_rng, rand_below

from conftest import mc_shape, perfect_matching_graph
from oracles import verify_homomorphism_certificate_reference


def matching_shape(n=240, k=3):
    """A perfect matching on n vertices, cut into 2k equal classes."""
    g, ordering, bip = perfect_matching_graph(n)
    return g, ordering, bip, [n // (2 * k)] * (2 * k), (1, 3), choose_h_parameters(n, 1, 1, 0.25, k)


def corrupted_maps(rng, f, two_k, count):
    """`count` maps near f: reassigned, out-of-range, negative, cut and padded."""
    n = len(f)
    maps = []
    for i in range(count):
        g = list(f)
        kind = i % 5
        for _ in range(1 + rand_below(rng, 4)):
            v = rand_below(rng, n)
            if kind == 0:
                g[v] = rand_below(rng, two_k)
            elif kind == 1:
                g[v] = two_k + rand_below(rng, 3)
            elif kind == 2:
                g[v] = -1 - rand_below(rng, 3)
        if kind == 3:
            g = g[:n - 1 - rand_below(rng, 3)]
        elif kind == 4:
            g += [rand_below(rng, two_k) for _ in range(1 + rand_below(rng, 3))]
        maps.append(g)
    return maps


def other_boundaries(rng, n):
    """A random subset of V(H), the empty set and all of V(H)."""
    return [{v for v in range(n) if rng.getrandbits(3) == 0}, set(), set(range(n))]


def chords(chord):
    """The chord in both orders, an odd pair that is not the chord, and equal ends."""
    a, b = chord
    return [(a, b), (b, a), (a, b + 2), (a, a)]


def test_homomorphism_checker_matches_oracle():
    """The fast checker returns the oracle's full dict on valid and corrupted maps."""
    rng = make_rng(22)
    checks = 0
    # The oracle walks every edge, so each n = 1536 build is checked on its
    # own map and boundary only; each n = 240 build also on 16 corrupted maps
    # and on three more boundaries.
    for shape, corrupted in [(mc_shape(1, 2, (1, 3)), 0), (mc_shape(2, 4, (1, 5)), 0),
                             (matching_shape(), 16)]:
        g, ordering, bip, sizes, chord, params = shape
        for seed in range(25):
            hom = build_homomorphism(g, ordering, bip, sizes, chord, params, seed=seed)
            for f in [hom.f] + corrupted_maps(rng, hom.f, len(sizes), corrupted):
                extra = other_boundaries(rng, g.n) if corrupted else []
                for boundary in [hom.boundary] + extra:
                    for c in chords(chord):
                        for xi in (params.xi, 0.01, 0.5):
                            args = (g, f, boundary, sizes, xi, c)
                            expected = verify_homomorphism_certificate_reference(*args)
                            assert verify_homomorphism_certificate(*args) == expected, args[1:]
                            checks += 1
    assert checks >= 20000, checks
