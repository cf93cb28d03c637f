import itertools
from fractions import Fraction

import pytest

import bandembed.regularity
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
from bandembed.regularity import _extreme_violation, _random_candidates
from bandembed.rng import as_fraction, make_rng, rand_below, sample_indices

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


def extreme_violation_reference(g, x_vertices, b_list, q_min, e_ab, ab, eps):
    """The Fraction form of the greedy-extreme scan, kept as an oracle."""
    p = len(x_vertices)
    xset = set(x_vertices)
    deg_of = [len(g.adj(b) & xset) for b in b_list]
    nb = len(b_list)
    order = sorted(range(nb), key=lambda i: (deg_of[i], i))
    prefix = [0]
    for i in order:
        prefix.append(prefix[-1] + deg_of[i])
    total = prefix[-1]
    for q in range(max(1, q_min), nb + 1):
        denom = p * q * ab
        low_e = prefix[q]
        high_e = total - prefix[nb - q]
        if Fraction(high_e * ab - e_ab * p * q, denom) >= eps:
            return frozenset(b_list[i] for i in order[nb - q:])
        if Fraction(e_ab * p * q - low_e * ab, denom) >= eps:
            return frozenset(b_list[i] for i in order[:q])
    return None


def extreme_gaps(g, x_vertices, b_list, q_min, e_ab, ab):
    """(high, low) density gaps of every extreme Y with |Y| >= q_min."""
    xset = set(x_vertices)
    degs = sorted(len(g.adj(b) & xset) for b in b_list)
    p, nb = len(x_vertices), len(b_list)
    dens = Fraction(e_ab, ab)
    high = [Fraction(sum(degs[nb - q:]), p * q) - dens for q in range(max(1, q_min), nb + 1)]
    low = [dens - Fraction(sum(degs[:q]), p * q) for q in range(max(1, q_min), nb + 1)]
    return high, low


def random_scan_case(rng, seed):
    """A seeded pair, an X inside A and the scan arguments besides eps."""
    na, nb = 2 + rand_below(rng, 9), 2 + rand_below(rng, 9)
    g = gen_random_graph(na + nb, Fraction(1 + rand_below(rng, 9), 10), seed=seed)
    a, b = list(range(na)), list(range(na, na + nb))
    xs = [a[i] for i in sample_indices(rng, na, 1 + rand_below(rng, na))]
    e_ab = sum(len(g.adj(v) & set(b)) for v in a)
    return g, xs, b, 1 + rand_below(rng, nb), e_ab, na * nb


class TestIntegerScan:
    """The integer kernel against the Fraction form it replaced."""

    EPSILONS = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7),
                Fraction(1, 2), Fraction(99999, 100000), Fraction(1), Fraction(-1, 5)]

    def test_matches_fraction_form_on_random_pairs(self):
        rng = make_rng(5)
        for seed in range(300):
            g, xs, b, q_min, e_ab, ab = random_scan_case(rng, seed)
            for eps in self.EPSILONS:
                assert _extreme_violation(g, xs, b, q_min, e_ab, ab, eps) == \
                    extreme_violation_reference(g, xs, b, q_min, e_ab, ab, eps)

    def test_gap_equal_to_eps_is_a_violation(self):
        rng = make_rng(6)
        sides_hit = set()
        for seed in range(300):
            g, xs, b, q_min, e_ab, ab = random_scan_case(rng, seed)
            high, low = extreme_gaps(g, xs, b, q_min, e_ab, ab)
            eps = max(high + low)
            if eps <= 0:
                continue
            sides_hit.add("high" if eps in high and eps not in low else
                          "low" if eps in low and eps not in high else "both")
            at = _extreme_violation(g, xs, b, q_min, e_ab, ab, eps)
            assert at is not None
            assert at == extreme_violation_reference(g, xs, b, q_min, e_ab, ab, eps)
            above = eps + Fraction(1, 10**9)
            assert _extreme_violation(g, xs, b, q_min, e_ab, ab, above) is None
            assert extreme_violation_reference(g, xs, b, q_min, e_ab, ab, above) is None
        assert {"high", "low"} <= sides_hit

    def test_exact_gap_on_each_side(self):
        # A 2x2 pair with one edge (density 1/4): X = {0} sees Y = {2} at
        # density 1, a gap of exactly 3/4 above.  With three edges (density
        # 3/4), X = {1} sees Y = {3} at density 0, exactly 3/4 below.
        sparse = Graph(4, [(0, 2)])
        dense = Graph(4, [(0, 2), (0, 3), (1, 2)])
        eps = Fraction(3, 4)
        for g, xs, e_ab, y in ((sparse, [0], 1, {2}), (dense, [1], 3, {3})):
            assert _extreme_violation(g, xs, [2, 3], 1, e_ab, 4, eps) == y
            assert _extreme_violation(g, xs, [2, 3], 1, e_ab, 4, eps + Fraction(1, 10**12)) is None


class TestRandomCandidatesDrawnOnce:
    def _count_draws(self, monkeypatch):
        calls = []
        real = bandembed.regularity.sample_indices

        def counting(rng, n, k):
            calls.append((n, k))
            return real(rng, n, k)

        monkeypatch.setattr(bandembed.regularity, "sample_indices", counting)
        _random_candidates.cache_clear()
        return calls

    def test_reduced_graph_draws_each_candidate_once(self, monkeypatch):
        # Eight clusters of 12 in a dense random graph: 28 pairs, every one
        # above the density floor and none refuted, so every pair scans its
        # full budget of candidates.
        g = gen_random_graph(96, 0.7, seed=1)
        classes = [list(range(12 * i, 12 * i + 12)) for i in range(8)]
        calls = self._count_draws(monkeypatch)
        check_regular_pair(g, classes[0], classes[1], 0.5, 0.3, mode="heuristic", budget=40)
        one_pair = len(calls)
        calls = self._count_draws(monkeypatch)
        reduced = build_reduced_graph(g, classes, 0.5, 0.3, mode="heuristic", budget=40)
        assert len(reduced.edges) == 28
        assert 0 < len(calls) == one_pair <= 40

    def test_cache_is_bounded_and_immutable(self):
        for seed in range(40):
            drawn = _random_candidates(seed, 12, 3, 10)
            assert isinstance(drawn, tuple) and all(isinstance(x, tuple) for x in drawn)
        assert _random_candidates.cache_info().currsize <= 16

    def test_draws_match_a_fresh_stream(self):
        rng = make_rng(17)
        fresh = []
        for _ in range(30):
            p = 4 + rand_below(rng, 20 - 4 + 1)
            fresh.append(tuple(sample_indices(rng, 20, p)))
        assert _random_candidates(17, 20, 4, 30) == tuple(fresh)


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

    @pytest.mark.parametrize("checker", [check_regular_pair, check_super_regular_pair])
    @pytest.mark.parametrize("edges", [[(0, 3)], [(u, v) for u in range(3) for v in range(3, 6)]],
                             ids=["below-d", "complete"])
    def test_unknown_mode_rejected(self, checker, edges):
        # Checked before the density shortcut, so a sparse pair cannot hide it.
        with pytest.raises(InvalidInputError, match="unknown mode 'bogus'"):
            checker(Graph(6, edges), [0, 1, 2], [3, 4, 5], 0.3, 0.5, mode="bogus")

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

    def test_degree_floor_is_the_ceiling_of_d_times_size(self):
        # d * |B| = 0.3 * 5 = 1.5: a cross-degree of 2 passes, 1 fails.  With
        # d = 0.4, d * |B| = 2 exactly and a cross-degree of 2 passes.
        a, b = [0, 1], [2, 3, 4, 5, 6]
        g = Graph(7, [(0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        for d, ok in ((0.3, True), (0.4, True), (Fraction(2, 5) + Fraction(1, 10**9), False)):
            verdict = check_super_regular_pair(g, a, b, 0.5, d)
            assert verdict.min_cross_degree[0] == 2
            assert (verdict.degree_failure != ("A", 0)) == ok
        g2 = Graph(7, [(0, 2), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
        assert check_super_regular_pair(g2, a, b, 0.5, 0.3).degree_failure == ("A", 0)

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
