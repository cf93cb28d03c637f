import itertools
from fractions import Fraction

import pytest

from bandembed.errors import FeasibilityError, InvalidInputError
from bandembed.graph import Graph
from bandembed.hostgen import gen_random_graph, gen_super_regular_host
from bandembed.regularity import (
    build_reduced_graph,
    check_regular_pair,
    check_super_regular_pair,
    pair_density,
    perturbation_bound,
)
from bandembed.rng import as_fraction, make_rng, sample_indices

from conftest import complete_graph


def complete_pair(a_size, b_size):
    n = a_size + b_size
    a = list(range(a_size))
    b = list(range(a_size, n))
    return Graph(n, [(u, v) for u in a for v in b]), a, b


def brute_force_regular(g, a, b, eps, d):
    """Reference oracle: enumerate every subset pair on both sides."""
    eps = as_fraction(eps)
    d = as_fraction(d)
    dens = pair_density(g, a, b)
    if dens < d:
        return False
    pa = max(1, -(-(eps * len(a)).numerator // (eps * len(a)).denominator))
    pb = max(1, -(-(eps * len(b)).numerator // (eps * len(b)).denominator))
    for p in range(pa, len(a) + 1):
        for xs in itertools.combinations(a, p):
            for q in range(pb, len(b) + 1):
                for ys in itertools.combinations(b, q):
                    if abs(dens - pair_density(g, xs, ys)) >= eps:
                        return False
    return True


class TestPairDensity:
    def test_complete(self):
        g, a, b = complete_pair(3, 3)
        assert pair_density(g, a, b) == 1

    def test_empty_edges(self):
        g = Graph(6, [])
        assert pair_density(g, [0, 1, 2], [3, 4, 5]) == 0

    def test_half(self):
        g = Graph(4, [(0, 2), (1, 3)])
        assert pair_density(g, [0, 1], [2, 3]) == Fraction(1, 2)

    def test_overlap_rejected(self):
        g = complete_graph(4)
        with pytest.raises(InvalidInputError):
            pair_density(g, [0, 1], [1, 2])

    def test_empty_class_rejected(self):
        g = complete_graph(4)
        with pytest.raises(InvalidInputError):
            pair_density(g, [], [1, 2])


class TestRegularPair:
    def test_complete_pair_regular(self):
        g, a, b = complete_pair(5, 5)
        assert check_regular_pair(g, a, b, 0.2, 0.9).regular

    def test_density_gate(self):
        g = Graph(6, [(0, 3)])
        verdict = check_regular_pair(g, [0, 1, 2], [3, 4, 5], 0.3, 0.5)
        assert not verdict.regular and verdict.witness is None
        assert verdict.density == Fraction(1, 9)

    def test_split_halves_witnessed(self):
        # Two complete 4x4 blocks on an 8+8 pair: overall density 1/2, the
        # matched halves have density 1, the crossed halves 0.
        a = list(range(8))
        b = list(range(8, 16))
        edges = [(u, v) for u in a[:4] for v in b[:4]]
        edges += [(u, v) for u in a[4:] for v in b[4:]]
        g = Graph(16, edges)
        verdict = check_regular_pair(g, a, b, 0.4, 0.3)
        assert not verdict.regular
        x, y = verdict.witness
        gap = abs(pair_density(g, a, b) - pair_density(g, sorted(x), sorted(y)))
        assert gap >= Fraction(2, 5)
        assert Fraction(len(x)) >= as_fraction(0.4) * 8
        assert Fraction(len(y)) >= as_fraction(0.4) * 8

    def test_exact_matches_brute_force(self):
        rng = make_rng(99)
        for seed in range(12):
            g = gen_random_graph(12, 0.5, seed=seed)
            a = sample_indices(rng, 12, 6)
            b = [v for v in range(12) if v not in set(a)]
            for eps, d in ((0.3, 0.2), (0.45, 0.3)):
                if pair_density(g, a, b) == 0:
                    continue
                mine = check_regular_pair(g, a, b, eps, d).regular
                assert mine == brute_force_regular(g, a, b, eps, d)

    def test_cap_enforced(self):
        g, a, b = complete_pair(15, 15)
        with pytest.raises(FeasibilityError):
            check_regular_pair(g, a, b, 0.3, 0.3)

    def test_heuristic_witness_reverifies(self):
        a = list(range(8))
        b = list(range(8, 16))
        edges = [(u, v) for u in a[:4] for v in b[:4]]
        edges += [(u, v) for u in a[4:] for v in b[4:]]
        g = Graph(16, edges)
        verdict = check_regular_pair(g, a, b, 0.4, 0.3, mode="heuristic", budget=60)
        assert not verdict.regular
        x, y = verdict.witness
        gap = abs(pair_density(g, a, b) - pair_density(g, sorted(x), sorted(y)))
        assert gap >= as_fraction(0.4)

    def test_heuristic_never_contradicts_exact(self):
        for seed in range(8):
            g = gen_random_graph(14, 0.5, seed=seed)
            a = list(range(7))
            b = list(range(7, 14))
            exact = check_regular_pair(g, a, b, 0.35, 0.25)
            heuristic = check_regular_pair(g, a, b, 0.35, 0.25, mode="heuristic", budget=80)
            if not heuristic.regular:
                assert not exact.regular


class TestSuperRegularPair:
    def test_complete_pair(self):
        g, a, b = complete_pair(5, 5)
        verdict = check_super_regular_pair(g, a, b, 0.2, 0.9)
        assert verdict.regular and verdict.degree_ok
        assert verdict.min_cross_degree == (5, 5)

    def test_isolated_vertex_reported(self):
        g, a, b = complete_pair(5, 5)
        edges = [(u, v) for u, v in g.edges() if u != 0]
        g2 = Graph(10, edges)
        verdict = check_super_regular_pair(g2, a, b, 0.2, 0.2)
        assert not verdict.regular
        assert verdict.degree_failure == ("A", 0)

    def test_random_dense_pair_super_regular(self):
        g = gen_random_graph(24, 0.5, seed=11)
        a = list(range(12))
        b = list(range(12, 24))
        verdict = check_super_regular_pair(g, a, b, 0.3, 0.3, mode="exact")
        # The sampled instance is checked exhaustively; both properties are
        # instance-level facts, not probabilistic claims.
        assert verdict.regular == (verdict.degree_ok and check_regular_pair(
            g, a, b, 0.3, 0.3).regular)


class TestReducedGraph:
    def test_edgeless(self):
        g = Graph(6, [])
        reduced = build_reduced_graph(g, [[0, 1], [2, 3], [4, 5]], 0.3, 0.2)
        assert reduced.edges == frozenset()

    def test_complete(self):
        g = complete_graph(6)
        reduced = build_reduced_graph(g, [[0, 1], [2, 3], [4, 5]], 0.3, 0.2)
        assert reduced.edges == {(0, 1), (0, 2), (1, 2)}

    def test_synthetic_host_contains_cycle(self):
        # At class size 10, 4x4 extreme sub-pairs of a density-0.5 pair
        # deviate by more than 0.35, so exhaustive verification needs the
        # wider eps = 0.5 (checked by enumeration; 0.35 is refuted below).
        bundle = gen_super_regular_host(k=3, size=10, d=0.5, seed=4)
        reduced = build_reduced_graph(
            bundle.graph, bundle.partition.classes, 0.5, 0.3, mode="exact"
        )
        for i in range(3):
            assert reduced.has_edge(2 * i, 2 * i + 1)
            assert reduced.has_edge(2 * i + 1, (2 * i + 2) % 6)

    def test_synthetic_host_small_eps_refuted_consistently(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.5, seed=4)
        cls = bundle.partition.classes
        exact = check_regular_pair(bundle.graph, cls[0], cls[1], 0.35, 0.3)
        assert not exact.regular
        x, y = exact.witness
        gap = abs(
            pair_density(bundle.graph, cls[0], cls[1])
            - pair_density(bundle.graph, sorted(x), sorted(y))
        )
        assert gap >= as_fraction(0.35)

    def test_overlapping_classes_rejected(self):
        g = complete_graph(4)
        with pytest.raises(InvalidInputError):
            build_reduced_graph(g, [[0, 1], [1, 2]], 0.3, 0.2)


class TestPerturbationBound:
    def test_identity(self):
        out = perturbation_bound(0.1, 0.4, 0, 0)
        assert (out.eps, out.d, out.clamped) == (0.1, 0.4, False)

    def test_formula(self):
        out = perturbation_bound(0.1, 0.4, 0.01, 0.01)
        assert out.eps == pytest.approx(0.7)
        assert out.d == pytest.approx(0.36)
        assert not out.clamped

    def test_clamped(self):
        out = perturbation_bound(0.5, 0.2, 0.25, 0.25)
        assert out.eps == 1.0 and out.d == 0.0 and out.clamped

    def test_range_validated(self):
        with pytest.raises(InvalidInputError):
            perturbation_bound(1.5, 0.2, 0, 0)


class TestRegularDegreeFact:
    def test_low_degree_vertices_are_few(self):
        # In a verified (eps,d)-regular pair, at most eps|A| vertices of A
        # have fewer than (d-eps)|B'| neighbors in any large B'.
        eps, d = as_fraction(0.35), as_fraction(0.25)
        rng = make_rng(5)
        for seed in range(6):
            g = gen_random_graph(20, 0.5, seed=seed)
            a = list(range(10))
            b = list(range(10, 20))
            verdict = check_regular_pair(g, a, b, eps, d)
            if not verdict.regular:
                continue
            for _ in range(8):
                size = 4 + sample_indices(rng, 3, 1)[0] * 2
                bprime = [b[i] for i in sample_indices(rng, 10, size)]
                if Fraction(len(bprime)) < eps * len(b):
                    continue
                low = sum(
                    1 for v in a
                    if Fraction(len(g.adj(v) & set(bprime))) < (d - eps) * len(bprime)
                )
                assert Fraction(low) <= eps * len(a)


class TestPerturbationPreservesRegularity:
    def test_executable_check(self):
        eps, d = 0.3, 0.25
        rng = make_rng(17)
        for seed in range(5):
            g = gen_random_graph(20, 0.55, seed=seed)
            a = list(range(10))
            b = list(range(10, 20))
            if not check_regular_pair(g, a, b, eps, d).regular:
                continue
            # Swap one vertex out of each side: alpha = beta = 1/10.
            a2 = a[1:] + [b[0]] if False else a[1:]
            b2 = b[1:]
            out = perturbation_bound(eps, d, 0.1, 0.1)
            if out.eps >= 1 or not a2 or not b2:
                continue
            verdict = check_regular_pair(g, a2, b2, out.eps, out.d)
            assert verdict.regular
