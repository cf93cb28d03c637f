from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandembed.conditions import (
    check_degree_sequence_condition,
    check_ore_condition,
    check_robust_expander,
    robust_neighborhood,
    verify_expander_witness,
)
from bandembed.errors import FeasibilityError, InvalidInputError
from bandembed.graph import Graph, degree_sequence
from bandembed.hostgen import gen_cycle_blowup, gen_extremal_counterexample, gen_random_graph
from bandembed.rng import as_fraction, ceil_frac

from conftest import complete_graph, cycle_graph, path_graph, two_cliques


def brute_robust_neighborhood(g, s, nu):
    """Set-based reference, no bitmask tricks."""
    out = set()
    threshold = as_fraction(nu) * g.n
    for v in range(g.n):
        if Fraction(len(g.adj(v) & set(s))) >= threshold:
            out.add(v)
    return out


def expander_reference(g, nu, tau):
    """First failing S in mask order, with need = ceil(|S| + nu*n) in Fractions."""
    nu, tau, n = as_fraction(nu), as_fraction(tau), g.n
    lo, hi = ceil_frac(tau * n), (1 - tau) * n
    for smask in range(1 << n):
        s = [v for v in range(n) if smask >> v & 1]
        if lo <= len(s) <= hi:
            rn = brute_robust_neighborhood(g, s, nu) if s else set()
            if len(rn) < ceil_frac(len(s) + nu * n):
                return frozenset(s)
    return None


class TestExpanderNeed:
    NUS = [Fraction(1, 20), Fraction(1, 10), Fraction(1, 7), Fraction(1, 4), Fraction(1, 3),
           Fraction(12347, 100003)]

    def test_need_is_size_plus_ceiling(self):
        for n in range(1, 41):
            for nu in self.NUS:
                for size in range(n + 1):
                    assert size + ceil_frac(nu * n) == ceil_frac(size + nu * n)

    def test_exact_verdict_matches_fraction_form(self):
        outcomes = set()
        for seed in range(24):
            n = 4 + seed % 7
            g = gen_random_graph(n, Fraction(2 + seed % 6, 8), seed=seed)
            for nu in self.NUS:
                for tau in (Fraction(1, 3), Fraction(2, 5)):
                    if nu > tau:
                        continue
                    verdict = check_robust_expander(g, nu, tau)
                    assert verdict.witness == expander_reference(g, nu, tau)
                    assert verdict.holds == (verdict.witness is None)
                    outcomes.add(verdict.holds)
        assert outcomes == {True, False}


class TestRobustNeighborhood:
    def test_complete_small_threshold(self):
        assert robust_neighborhood(complete_graph(4), {0, 1}, 0.25) == {0, 1, 2, 3}

    def test_path(self):
        assert robust_neighborhood(path_graph(4), {0}, 0.25) == {1}

    def test_empty_set(self):
        assert robust_neighborhood(complete_graph(6), set(), 0.3) == set()

    @settings(max_examples=30)
    @given(st.integers(2, 7), st.data())
    def test_matches_brute_force(self, n, draw):
        g = gen_random_graph(n, 0.5, seed=draw.draw(st.integers(0, 100)))
        s = draw.draw(st.sets(st.integers(0, n - 1)))
        nu = draw.draw(st.sampled_from([0.1, 0.25, 0.5]))
        assert robust_neighborhood(g, s, nu) == brute_robust_neighborhood(g, s, nu)


class TestRobustExpander:
    def test_two_cliques_fail_with_verifying_witness(self):
        g = two_cliques(7)
        verdict = check_robust_expander(g, 0.1, 0.3)
        assert not verdict.holds
        assert verify_expander_witness(g, verdict)
        # The witness sits inside a single clique.
        assert max(verdict.witness) < 7 or min(verdict.witness) >= 7

    def test_k12_holds(self):
        verdict = check_robust_expander(complete_graph(12), 0.1, 0.3)
        assert verdict.holds and verdict.mode == "exact"

    def test_cycle_blowup_holds(self):
        g = gen_cycle_blowup(5, 3)
        assert check_robust_expander(g, 0.05, 0.21).holds

    def test_cap_enforced(self):
        with pytest.raises(FeasibilityError, match="sampled"):
            check_robust_expander(complete_graph(25), 0.1, 0.3)

    def test_sampled_mode_refutes_cliques(self):
        g = two_cliques(12)
        verdict = check_robust_expander(g, 0.1, 0.3, mode="sampled", seed=5, trials=300)
        assert not verdict.holds
        assert verify_expander_witness(g, verdict)

    def test_sampled_mode_non_refutation(self):
        verdict = check_robust_expander(
            complete_graph(30), 0.1, 0.3, mode="sampled", seed=1, trials=50
        )
        assert verdict.holds and verdict.trials == 50

    def test_monotone_in_nu_and_tau(self):
        g = gen_random_graph(10, 0.7, seed=3)
        base = check_robust_expander(g, 0.2, 0.3)
        if base.holds:
            assert check_robust_expander(g, 0.1, 0.3).holds
            assert check_robust_expander(g, 0.2, 0.4).holds

    def test_deletion_stability(self):
        # Removing alpha*n vertices keeps expansion at (nu - alpha, tau + alpha),
        # over every verified instance and several deleted sets.
        nu, tau = as_fraction(0.25), as_fraction(0.3)
        verified = 0
        for g in [complete_graph(12)] + [gen_random_graph(12, 0.85, seed=s) for s in range(4)]:
            if not check_robust_expander(g, nu, tau).holds:
                continue
            verified += 1
            for removed in ({4}, {0, 7}):
                alpha = Fraction(len(removed), g.n)
                keep = [v for v in range(g.n) if v not in removed]
                index = {v: i for i, v in enumerate(keep)}
                sub = Graph(len(keep), [(index[u], index[v]) for u, v in g.edges()
                                        if u in index and v in index])
                assert check_robust_expander(sub, nu - alpha, tau + alpha).holds
        assert verified >= 2


class TestDegreeSequenceCondition:
    def test_complete(self):
        for gamma in (0.05, 0.2, 0.4):
            assert check_degree_sequence_condition(degree_sequence(complete_graph(12)), gamma).holds

    def test_extremal_host_fails(self):
        g = gen_extremal_counterexample(20, 8)
        d = degree_sequence(g)
        verdict = check_degree_sequence_condition(d, 0.1)
        assert not verdict.holds
        # Brute-force the least violating index with exact rationals.
        gn = Fraction(1, 10) * 20
        first = None
        for i in range(1, 10):
            ok = Fraction(d[i - 1]) >= i + gn
            j = (20 - i - ceil_frac(gn))
            ok = ok or (j >= 1 and d[j - 1] >= 20 - i)
            if not ok:
                first = i
                break
        assert verdict.first_violation == first

    def test_edgeless_fails_at_one(self):
        verdict = check_degree_sequence_condition([0] * 10, 0.1)
        assert not verdict.holds and verdict.first_violation == 1

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInputError):
            check_degree_sequence_condition([3, 1, 2], 0.1)

    def test_rounding_flagged(self):
        assert check_degree_sequence_condition([5] * 6, 0.1).index_rounding == "floor"


class TestOreCondition:
    def test_complete_vacuous(self):
        assert check_ore_condition(complete_graph(9), 0.5).holds

    def test_clique_plus_isolated_fails_with_isolated_witness(self):
        g = Graph(10, [(u, v) for u in range(9) for v in range(u + 1, 9)])
        verdict = check_ore_condition(g, 0.1)
        assert not verdict.holds
        assert 9 in verdict.witness

    def test_five_cycle_fails(self):
        assert not check_ore_condition(cycle_graph(5), 0.1).holds

    def test_witness_is_nonadjacent_low_sum(self):
        g = cycle_graph(6)
        verdict = check_ore_condition(g, 0.1)
        x, y = verdict.witness
        assert not g.has_edge(x, y)
        assert g.degree(x) + g.degree(y) < (1 + 0.1) * 6


class TestOreImpliesDegreeSequence:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 24), st.integers(0, 10_000), st.sampled_from([0.05, 0.1, 0.2]))
    def test_implication_random(self, n, seed, gamma):
        g = gen_random_graph(n, 0.8, seed=seed)
        if check_ore_condition(g, 2 * gamma).holds:
            assert check_degree_sequence_condition(degree_sequence(g), gamma).holds

    def test_implication_adversarial(self):
        instances = [
            complete_graph(10),
            two_cliques(6),
            gen_extremal_counterexample(16, 6),
            cycle_graph(12),
            gen_random_graph(30, 0.9, seed=7),
        ]
        for g in instances:
            for gamma in (0.05, 0.1, 0.2):
                if check_ore_condition(g, 2 * gamma).holds:
                    assert check_degree_sequence_condition(
                        degree_sequence(g), gamma
                    ).holds
