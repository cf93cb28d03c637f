import dataclasses
import hashlib
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandembed.homomorphism
from bandembed.errors import (
    DecompositionError,
    InvalidInputError,
    ParameterError,
    RetryBudgetError,
)
from bandembed.graph import BandwidthOrdering, Graph
from bandembed.homomorphism import (
    AttemptDiagnostics,
    HomomorphismParams,
    SegmentDecomposition,
    balance_trial_stats,
    build_homomorphism,
    choose_h_parameters,
    chop_into_segments,
    drunken_assign,
    group_and_split,
    seeking_assign,
    sober_assign,
    verify_homomorphism_certificate,
)
from bandembed.hostgen import gen_bandwidth_bipartite_h
from bandembed.rng import ceil_frac, derive_seed, make_rng

from conftest import chop_window_grid, mc_shape, perfect_matching_graph
from oracles import binomial_mod_distribution, cycle_edge_ok


def roles(decomp):
    """Each vertex's segment side as a role ("A", i) or ("B", i), read from its side code."""
    return [("AB"[code % 2], code // 2) for code in decomp.segment_of]


class TestChop:
    def test_perfect_matching_n80(self):
        g, ordering, bip = perfect_matching_graph(80)
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 80), 4, 1)
        assert len(decomp.sizes[0::2]) == 4
        assert len(decomp.boundary) <= 3 * 4 * 1
        role = roles(decomp)
        for u, v in g.edges():
            assert role[u][1] == role[v][1] and role[u][0] != role[v][0]

    def test_edgeless_repairs_freely(self):
        g = Graph(40, [])
        ordering = BandwidthOrdering(tuple(range(40)), 1)
        # A lopsided split: the repair pass must rebalance segments using
        # isolated vertices.
        bip = (list(range(4)), list(range(4, 40)))
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 40), 4, 2)
        minsize = Fraction(40, 4 * 2 * 4)
        assert decomp.sizes == [decomp.segment_of.count(code) for code in range(8)]
        for i in range(4):
            assert decomp.sizes[2 * i] >= minsize
            assert decomp.sizes[2 * i + 1] >= minsize

    def test_hamilton_path_crossings_in_boundary(self):
        n = 100
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        ordering = BandwidthOrdering(tuple(range(n)), 1)
        bip = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2 == 1])
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 100), 5, 2)
        seg_of = roles(decomp)
        crossing = []
        for u, v in g.edges():
            if seg_of[u][1] != seg_of[v][1]:
                assert u in decomp.boundary and v in decomp.boundary
                (role_b, i), (role_a, j) = sorted((seg_of[u], seg_of[v]), reverse=True)
                assert (role_b, role_a, j) == ("B", "A", (i + 1) % 5)
                crossing.append((u, v))
        # The chop hands exactly these edges on as its crossing edges.
        assert crossing and decomp.crossing == crossing

    def test_boundary_matches_window_rule(self):
        g, ordering, bip = perfect_matching_graph(80)
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 80), 4, 1)
        # Independent recount: s within (i*20 - 2, i*20 + 1] for some i.
        expected = set()
        for v in range(80):
            s = v + 1
            for i in range(1, 5):
                if i * 20 - 2 < s <= i * 20 + 1:
                    expected.add(v)
        assert decomp.boundary == expected

    @pytest.mark.parametrize("m1, beta", [(0, Fraction(1, 80)), (4, Fraction(-1, 80)), (4, 1)],
                             ids=repr)
    def test_segment_count_and_beta_ranges(self, m1, beta):
        g, ordering, bip = perfect_matching_graph(80)
        with pytest.raises(ParameterError, match=r"^need m1 >= 1 and 0 <= beta < 1$"):
            chop_into_segments(g, ordering, bip, beta, m1, 1)

    @pytest.mark.parametrize("bip", [([0], [1, 3]), ([0, 1, 2], [2, 3]), ([0, 2, 4], [1, 3])],
                             ids=["short", "overlap", "outside"])
    def test_bipartition_must_split_the_vertex_set(self, bip):
        g, ordering, _ = perfect_matching_graph(4)
        with pytest.raises(InvalidInputError, match="^bipartition must split the vertex set$"):
            chop_into_segments(g, ordering, bip, Fraction(1, 4), 1, 1)

    def test_an_edge_inside_one_class_is_rejected(self):
        g, ordering, _ = perfect_matching_graph(4)
        with pytest.raises(InvalidInputError, match=r"^edge \(0,1\) stays inside one class$"):
            chop_into_segments(g, ordering, ([0, 1], [2, 3]), Fraction(1, 4), 1, 1)

    def test_repair_failure_reported(self):
        # No isolated vertices and an empty segment class: unrepairable.
        g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        ordering = BandwidthOrdering(tuple(range(8)), 1)
        bip = ([0, 2, 4, 6], [1, 3, 5, 7])
        with pytest.raises(DecompositionError):
            chop_into_segments(g, ordering, bip, Fraction(1, 8), 8, 1)


def chop_windows_reference(n, labels, class_a, beta, m1):
    """The Fraction windowing and size checks of the chop, kept as an oracle.

    Returns (a_segments, b_segments, boundary), or the DecompositionError
    message the size or boundary check gives.
    """
    bn = beta * n
    a_segments = [[] for _ in range(m1)]
    b_segments = [[] for _ in range(m1)]
    boundary = set()
    for v in range(n):
        s = labels[v] + 1
        if v in class_a:
            i = m1 if s > n - bn else ceil_frac((s + bn) * m1 / n)
            a_segments[i - 1].append(v)
        else:
            b_segments[ceil_frac(Fraction(s) * m1 / n) - 1].append(v)
        i_lo = ceil_frac((s - bn) * m1 / n)
        i_hi = ceil_frac((s + 2 * bn) * m1 / n) - 1
        if max(1, i_lo) <= min(m1, i_hi):
            boundary.add(v)
    for i in range(m1):
        size = len(a_segments[i]) + len(b_segments[i])
        if not Fraction(n, m1) - bn <= size <= Fraction(n, m1) + bn:
            return f"pair size property fails at segment {i}: {size}"
    if len(boundary) > 3 * m1 * bn:
        return f"boundary property fails: |S| = {len(boundary)} > 3*m1*beta*n"
    return a_segments, b_segments, boundary


class TestChopWindowing:
    def test_integer_windows_match_fraction_form(self):
        # Edgeless targets with delta = 0: no edge property and no repair
        # step can fail, so the outcome is the windowing and the two size
        # checks alone.
        outcomes = set()
        for g, ordering, bip, beta, m1 in chop_window_grid():
            n = g.n
            expected = chop_windows_reference(n, ordering.labels, set(bip[0]), beta, m1)
            if isinstance(expected, str):
                outcomes.add(expected.split(" property")[0])
                with pytest.raises(DecompositionError) as info:
                    chop_into_segments(g, ordering, bip, beta, m1, 0)
                assert str(info.value) == expected
            else:
                outcomes.add("ok")
                decomp = chop_into_segments(g, ordering, bip, beta, m1, 0)
                sides = [[v for v in range(n) if decomp.segment_of[v] == code]
                         for code in range(2 * m1)]
                assert decomp.sizes == list(map(len, sides))
                assert (sides[0::2], sides[1::2], decomp.boundary) == expected
        assert outcomes == {"ok", "pair size", "boundary"}


def synthetic_decomposition(a_sizes, b_sizes, beta=Fraction(0)):
    """Sides A_0, B_0, A_1, ... of the given sizes, on consecutive vertex ids."""
    sizes = [size for pair in zip(a_sizes, b_sizes) for size in pair]
    segment_of = [code for code, size in enumerate(sizes) for _ in range(size)]
    return SegmentDecomposition(segment_of, sizes, set(), beta, len(a_sizes))


class TestGroupAndSplit:
    def test_balanced_takes_smallest_index(self):
        decomp = synthetic_decomposition([5] * 8, [5] * 8)
        assert group_and_split(decomp, 4, 0.1, 1) == 1

    def test_prefix_scan_matches_hand_computation(self):
        # Block imbalances (+4, -4, +4, -4); half the total is 0, and the
        # prefix first lands within the window at index 2.
        decomp = synthetic_decomposition(
            [5, 5, 3, 3, 5, 5, 3, 3], [3, 3, 5, 5, 3, 3, 5, 5]
        )
        assert group_and_split(decomp, 4, 0.1, 1) == 2

    def test_unreachable_target_errors(self):
        decomp = synthetic_decomposition(
            [12, 4, 4, 4, 4, 4, 4, 4], [4, 4, 4, 4, 4, 4, 4, 4],
            beta=Fraction(1, 4),
        )
        with pytest.raises(ParameterError, match="split index"):
            group_and_split(decomp, 4, 0.1, 1)

    def test_divisibility_enforced(self):
        decomp = synthetic_decomposition([5] * 6, [5] * 6)
        with pytest.raises(ParameterError, match="divide"):
            group_and_split(decomp, 4, 0.1, 1)

    def test_drift_length_bounds(self):
        decomp = synthetic_decomposition([5] * 8, [5] * 8)
        with pytest.raises(ParameterError, match="k2"):
            group_and_split(decomp, 4, 0.1, 2)


class TestAssignments:
    def test_sober_consecutive(self):
        # Two segment pairs starting at cycle pair 1 of 4 march to pairs 1, 2.
        slots, final = sober_assign([("A5", "B5"), ("A6", "B6")], 1, 4)
        assert slots == [1, 2] and final == 2

    def test_sober_single_pair_at_last(self):
        slots, final = sober_assign([("A", "B")], 3, 4)
        assert slots == [3] and final == 3

    def test_sober_wraps(self):
        slots, final = sober_assign([1, 2], 3, 4)
        assert slots == [3, 0] and final == 0

    def test_drunken_replay(self):
        rng = make_rng(123)
        slots, final, coins = drunken_assign(list(range(10)), 2, 4, rng)
        assert len(coins) == 9
        assert final == (2 + sum(coins)) % 4
        replay = [2]
        for c in coins:
            replay.append((replay[-1] + c) % 4)
        assert slots == replay

    def test_drunken_forced_extremes(self):
        class AllStay:
            def getrandbits(self, _):
                return 0

        class AllAdvance:
            def getrandbits(self, _):
                return 1

        slots, final, _ = drunken_assign(list(range(6)), 1, 8, AllStay())
        assert final == 1 and set(slots) == {1}
        slots, final, _ = drunken_assign(list(range(6)), 1, 8, AllAdvance())
        assert final == (1 + 5) % 8 and slots == [1, 2, 3, 4, 5, 6]

    def test_seeking_already_at_target(self):
        slots, final = seeking_assign(list(range(5)), 3, 3, 8)
        assert final == 3 and set(slots) == {3}

    def test_seeking_arrives_then_holds(self):
        slots, final = seeking_assign(list(range(8)), 1, 4, 8)
        assert final == 4
        assert slots == [1, 2, 3, 4, 4, 4, 4, 4]

    def test_seeking_too_short_errors(self):
        assert seeking_assign(list(range(3)), 0, 5, 8) is None

    def test_seeking_needs_a_segment_pair(self):
        with pytest.raises(ParameterError, match="^target-homing needs at least one segment pair$"):
            seeking_assign([], 0, 0, 8)


class TestBinomialModDistribution:
    def test_four_flips_mod_two(self):
        assert binomial_mod_distribution(4, Fraction(1, 2), 2) == [
            Fraction(1, 2), Fraction(1, 2)
        ]

    def test_zero_trials(self):
        assert binomial_mod_distribution(0, 0.7, 3) == [1, 0, 0]

    def test_matches_direct_binomial_sum(self):
        for n, k in ((7, 3), (10, 4), (12, 5)):
            dist = binomial_mod_distribution(n, Fraction(1, 2), k)
            for r in range(k):
                direct = sum(math.comb(n, j) for j in range(r, n + 1, k))
                assert dist[r] == Fraction(direct, 2 ** n)

    def test_large_case_concentrates(self):
        dist = binomial_mod_distribution(5000, 0.5, 7)
        lo, hi = Fraction(99, 700), Fraction(101, 700)
        assert all(lo <= p <= hi for p in dist)

    @settings(max_examples=25)
    @given(st.integers(0, 30), st.integers(1, 6),
           st.fractions(min_value=0, max_value=1, max_denominator=8))
    def test_sums_to_one(self, n, k, p):
        assert sum(binomial_mod_distribution(n, p, k)) == 1


class TestBuildHomomorphism:
    def test_perfect_matching_certificate(self):
        g, ordering, bip = perfect_matching_graph(240)
        sizes = [60, 60, 60, 60]
        chord = (1, 3)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, bip, sizes, chord, params, seed=7)
        recheck = verify_homomorphism_certificate(
            g, hom.f, hom.boundary, sizes, 0.25, chord
        )
        assert recheck["all_ok"]
        for u, v in g.edges():
            assert abs(hom.f[u] - hom.f[v]) == 1
            assert min(hom.f[u], hom.f[v]) % 2 == 0

    def test_loads_match_recount(self):
        g, ordering, bip = perfect_matching_graph(240)
        sizes = [60, 60, 60, 60]
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, bip, sizes, (1, 3), params, seed=3)
        recount = [0] * 4
        for c in hom.f:
            recount[c] += 1
        assert recount == hom.loads()

    def test_edgeless_target(self):
        g = Graph(240, [])
        ordering = BandwidthOrdering(tuple(range(240)), 1)
        bip = ([v for v in range(240) if v % 2 == 0], [v for v in range(240) if v % 2 == 1])
        sizes = [60, 60, 60, 60]
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, bip, sizes, (1, 3), params, seed=1)
        assert verify_homomorphism_certificate(
            g, hom.f, hom.boundary, sizes, 0.25, (1, 3)
        )["all_ok"]

    def test_chord_must_be_odd_indices(self):
        g, ordering, bip = perfect_matching_graph(240)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        with pytest.raises(Exception, match="odd"):
            build_homomorphism(g, ordering, bip, [60] * 4, (0, 2), params, seed=0)

    @pytest.mark.parametrize("sizes, chord, error, message", [
        ([60, 60, 60, 59], (1, 3), InvalidInputError,
         "sizes must partition n over 2k >= 4 clusters"),
        ([120, 120], (1, 3), InvalidInputError, "sizes must partition n over 2k >= 4 clusters"),
        # n/(3k) = 40 and xi*n = 60 here.
        ([40, 80, 60, 60], (1, 3), ParameterError, "cluster 0 has size 40 <= n/(3k)"),
        ([60, 60, 80, 40], (1, 3), ParameterError, "cluster 3 has size 40 <= n/(3k)"),
        ([41, 102, 48, 49], (1, 3), ParameterError, "pair 0 sizes differ by more than xi*n"),
        ([60] * 4, (1, 5), InvalidInputError, "chord indices out of range"),
        ([60] * 4, (-1, 1), InvalidInputError, "chord indices out of range"),
    ], ids=["sum", "two-clusters", "small", "small-later", "pair-gap", "chord-high",
            "chord-low"])
    def test_plan_size_and_chord_rules(self, sizes, chord, error, message):
        g, ordering, bip = perfect_matching_graph(240)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_homomorphism(g, ordering, bip, sizes, chord, params, seed=0)

    def test_role_swap_recorded(self):
        # Slightly more vertices in the second class: it takes the A role
        # and the flag records the swap.
        n = 240
        g = Graph(n, [])
        ordering = BandwidthOrdering(tuple(range(n)), 1)
        evens = [v for v in range(n) if v % 2 == 0 and v not in (0, 2)]
        odds = sorted(set(range(n)) - set(evens))
        params = choose_h_parameters(n, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, (evens, odds), [60] * 4, (1, 3), params, seed=0)
        assert hom.roles_swapped

    def test_independent_checker_catches_corruption(self):
        g, ordering, bip = perfect_matching_graph(240)
        sizes = [60, 60, 60, 60]
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, bip, sizes, (1, 3), params, seed=3)
        bad = list(hom.f)
        u, v = next(iter(g.edges()))
        bad[u] = (bad[v] + 2) % 4  # break the edge across the cycle
        recheck = verify_homomorphism_certificate(
            g, bad, hom.boundary, sizes, 0.25, (1, 3)
        )
        assert not recheck["homomorphism_valid"] or not recheck["edges_on_pairs"]

    @pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
    def test_independent_checker_rejects_a_map_of_the_wrong_length(self, cut):
        g, ordering, bip = perfect_matching_graph(240)
        sizes = [60, 60, 60, 60]
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        hom = build_homomorphism(g, ordering, bip, sizes, (1, 3), params, seed=3)
        assert verify_homomorphism_certificate(g, hom.f, hom.boundary, sizes, 0.25, (1, 3))["all_ok"]
        f = hom.f[:cut] if cut < 0 else hom.f + [0] * cut
        recheck = verify_homomorphism_certificate(g, f, hom.boundary, sizes, 0.25, (1, 3))
        assert not recheck["homomorphism_valid"] and not recheck["all_ok"]

    def test_drift_bound_oracle_inequality(self):
        # At the drift parameters used by the randomized schedule's analysis,
        # the exact residue distribution stays within (1 + xi/20)/k'.
        kprime, coins, xi = 8, 128, 0.2
        dist = binomial_mod_distribution(coins, Fraction(1, 2), kprime)
        bound = Fraction(1 + Fraction(str(xi)) / 20, kprime)
        assert max(dist) <= bound

    def test_sum_of_bounded_martingale_tail(self):
        # Tail sanity for the concentration bound used by the analysis:
        # empirical frequency of exceeding (1+delta)*mu stays below
        # exp(-delta^2 mu / 3) plus sampling slack.
        rng = make_rng(42)
        n, trials, delta = 60, 4000, 0.3
        mu = n / 2
        bound = math.exp(-(delta ** 2) * mu / 3)
        exceed = 0
        for _ in range(trials):
            total = sum(rng.getrandbits(20) / (1 << 20) for _ in range(n))
            if total > (1 + delta) * mu:
                exceed += 1
        assert exceed / trials <= bound + 0.02


def recheck_small(edges, f, boundary=(), xi=0, chord=(1, 3)):
    """The independent checker on a hand-built H over len(f) vertices and six
    classes of size 1."""
    return verify_homomorphism_certificate(Graph(len(f), edges), f, set(boundary),
                                           [1] * 6, xi, chord)


class TestIndependentChecker:
    PAIRS = [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("entry", [1.0, True, None, "1", [1], -1, 6],
                             ids=["float", "bool", "none", "str", "list", "negative", "2k"])
    def test_an_entry_that_is_not_a_class_is_invalid(self, entry):
        f = [0, 1, 2, 3, 4, 5]
        assert recheck_small(self.PAIRS, f)["all_ok"]
        f[1] = entry
        recheck = recheck_small(self.PAIRS, f)
        assert not recheck["homomorphism_valid"] and not recheck["all_ok"]
        assert recheck["loads"] == [1, 0, 1, 1, 1, 1]

    @pytest.mark.parametrize("f", [[0, 5], [5, 0]], ids=["up", "down"])
    def test_the_wrap_edge_is_on_the_cycle(self, f):
        recheck = recheck_small([(0, 1)], f, boundary={0, 1}, xi=1)
        assert recheck["homomorphism_valid"] and recheck["all_ok"]

    @pytest.mark.parametrize("chord", [(1, 3), (3, 1)], ids=["ascending", "descending"])
    @pytest.mark.parametrize("f", [[1, 3], [3, 1]], ids=["up", "down"])
    def test_the_chord_is_on_the_cycle_in_either_order(self, f, chord):
        recheck = recheck_small([(0, 1)], f, boundary={0, 1}, xi=1, chord=chord)
        assert recheck["homomorphism_valid"] and recheck["all_ok"]

    def test_an_odd_pair_off_the_chord_is_not_on_the_cycle(self):
        recheck = recheck_small([(0, 1)], [3, 5], boundary={0, 1}, xi=1)
        assert not recheck["homomorphism_valid"] and not recheck["all_ok"]
        assert recheck["edges_on_pairs"]

    def test_an_off_pair_edge_needs_both_ends_in_the_boundary(self):
        inside = recheck_small([(0, 1)], [1, 2], boundary={0, 1}, xi=1)
        assert inside["edges_on_pairs"] and inside["all_ok"]
        half = recheck_small([(0, 1)], [1, 2], boundary={0}, xi=1)
        assert half["homomorphism_valid"] and not half["edges_on_pairs"]

    def test_the_load_and_boundary_bounds_are_inclusive(self):
        # n = 10 and xi = 1/10: each class may take 1 + 1 vertices, S one.
        f = [0, 1, 0, 1, 2, 3, 2, 3, 4, 5]
        edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        recheck = recheck_small(edges, f, boundary={0}, xi=0.1)
        assert recheck["loads"] == [2, 2, 2, 2, 1, 1] and recheck["all_ok"]
        assert not recheck_small(edges, f, boundary={0, 1}, xi=0.1)["boundary_small"]
        assert not recheck_small(edges, f[:-1] + [0], boundary={0}, xi=0.1)["loads_bounded"]


# Shape A walks drunken segments (coin logs); shape B goes through retries.
SHAPE_A = (1, 2, (1, 3))
SHAPE_B = (2, 4, (1, 5))


def counting_chops(monkeypatch) -> list:
    """Patch chop_into_segments to record each call; return the record."""
    calls, original = [], bandembed.homomorphism.chop_into_segments

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bandembed.homomorphism, "chop_into_segments", counting)
    return calls


class TestTrialPlanReuse:
    def test_segments_once_per_call(self, monkeypatch):
        calls = counting_chops(monkeypatch)
        g, ordering, bip = perfect_matching_graph(240)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        stats = balance_trial_stats(g, ordering, bip, [60] * 4, (1, 3), params,
                                    root_seed=5, runs=5)
        assert stats["successes"] == 5
        assert len(calls) == 1

    def test_stats_match_independent_builds(self):
        h, ordering, bip, sizes, chord, params = mc_shape(*SHAPE_B)
        runs, root = 8, 616
        homs = [build_homomorphism(h, ordering, bip, sizes, chord, params,
                                   seed=derive_seed(root, trial)) for trial in range(runs)]
        attempts = [hom.attempts for hom in homs]
        assert max(attempts) > 1
        first_try = sum(hom.first_attempt_balance_pass for hom in homs)
        assert balance_trial_stats(h, ordering, bip, sizes, chord, params,
                                   root_seed=root, runs=runs) == {
            "runs": runs,
            "successes": runs,
            "first_try_balance_pass": first_try,
            "first_try_fraction": first_try / runs,
            "max_attempts": max(attempts),
            "mean_attempts": sum(attempts) / runs,
            "recheck_failures": 0,
        }

    @pytest.mark.parametrize("shape, pin", [
        (SHAPE_A, "97a3200964f047c66a59a683f270d0e8869d624ac36661e9b3d76931a79b6716"),
        (SHAPE_B, "5d0570eb01eec3ea0e5bca63cadaaed33727942971b5d1c11181267f4fc1845c"),
    ], ids=["A", "B"])
    def test_seeded_outputs_pinned(self, shape, pin):
        # Maps and every attempt's diagnostics (coin logs included) for ten
        # seeds, hashed; any change to the draw order shows.
        h, ordering, bip, sizes, chord, params = mc_shape(*shape)
        digest = hashlib.sha256()
        for trial in range(10):
            hom = build_homomorphism(h, ordering, bip, sizes, chord, params,
                                     seed=derive_seed(616, trial))
            digest.update(json.dumps({
                "hom": hom.to_json(),
                "diagnostics": [dataclasses.asdict(d) for d in hom.diagnostics],
            }, sort_keys=True).encode())
        assert digest.hexdigest() == pin

    def test_result_shares_nothing_with_plan(self):
        shape = mc_shape(*SHAPE_A)
        plan = bandembed.homomorphism._plan(*shape)
        first = bandembed.homomorphism._sample(plan, 1)
        expected = (set(first.boundary), list(first.sizes))
        first.boundary.clear()
        first.sizes.clear()
        again = bandembed.homomorphism._sample(plan, 1)
        assert (again.boundary, again.sizes) == expected
        # Two builds through the memo share the plan, and still nothing mutable.
        built = build_homomorphism(*shape, seed=1)
        expected = (list(built.f), set(built.boundary),
                    list(built.sizes), [dataclasses.asdict(d) for d in built.diagnostics])
        for part in (built.f, built.boundary, built.sizes,
                     built.diagnostics[0].coin_logs, built.diagnostics):
            part.clear()
        again = build_homomorphism(*shape, seed=1)
        assert bandembed.homomorphism._memo_plan.cache_info().hits == 2
        assert (again.f, again.boundary, again.sizes,
                [dataclasses.asdict(d) for d in again.diagnostics]) == expected

    def test_runs_zero_still_checks_the_inputs(self):
        g, ordering, bip = perfect_matching_graph(240)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        with pytest.raises(InvalidInputError, match="odd"):
            balance_trial_stats(g, ordering, bip, [60] * 4, (0, 2), params,
                                root_seed=5, runs=0)

    def test_crossing_edges_gate_acceptance(self, monkeypatch):
        # The vertices of one A segment share an image under every schedule,
        # so an edge between two of them is never on the cycle: listed as a
        # crossing side pair, (0, 0) must fail every drawn schedule.
        plan = bandembed.homomorphism._plan(*mc_shape(*SHAPE_A))
        assert bandembed.homomorphism._sample(plan, 1).attempts == 1
        broken = dataclasses.replace(plan, crossing=plan.crossing + ((0, 0),))
        original, seen = bandembed.homomorphism.AttemptDiagnostics, []

        def recording(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(bandembed.homomorphism, "AttemptDiagnostics", recording)
        with pytest.raises(RetryBudgetError):
            bandembed.homomorphism._sample(broken, 1)
        drawn = [d for d in seen if not d.seek_miss]
        assert len(seen) == bandembed.homomorphism.MAX_RETRIES and drawn
        assert not any(d.valid for d in drawn)

    @pytest.mark.parametrize("shape", ["A", "B", "matching"])
    def test_cycle_graph_matches_the_rule_it_replaced(self, shape):
        # The plan's cycle is the intermediate cycle plus the chord between
        # the targets, edge for edge the rule the builder used to apply.
        if shape == "matching":
            g, ordering, bip = perfect_matching_graph(240)
            args = (g, ordering, bip, [60] * 4, (1, 3), choose_h_parameters(240, 1, 1, 0.25, 2))
        else:
            args = mc_shape(*{"A": SHAPE_A, "B": SHAPE_B}[shape])
        plan = bandembed.homomorphism._plan(*args)
        two_k = 2 * plan.kprime
        chord = (2 * plan.targets[0] + 1, 2 * plan.targets[1] + 1)
        assert plan.cycle.n == two_k
        assert [plan.cycle.has_edge(x, y) for x in range(two_k) for y in range(two_k)] == [
            cycle_edge_ok(x, y, two_k, chord) for x in range(two_k) for y in range(two_k)]

    def test_seek_miss_attempt_records_only_what_it_reached(self, monkeypatch):
        # Homing misses on every draw of attempt 1, so phase 1 gives up before
        # any start, validity or load is decided; attempt 2 homes normally.
        plan = bandembed.homomorphism._plan(*mc_shape(*SHAPE_A))
        misses = max(bandembed.homomorphism.MAX_RETRIES, 8 * plan.kprime)
        original, calls = bandembed.homomorphism.seeking_assign, []

        def missing(*args):
            calls.append(args)
            if len(calls) <= misses:
                return None
            return original(*args)

        monkeypatch.setattr(bandembed.homomorphism, "seeking_assign", missing)
        hom = bandembed.homomorphism._sample(plan, 1)
        assert hom.attempts == 2
        first, second = hom.diagnostics
        assert first == AttemptDiagnostics(None, None, [], True, None, None, None, None)
        assert not first.accepted and second.accepted and not second.seek_miss

        # Now only phase 2's target misses, on every draw of attempt 1: phase 1
        # homed as drawn, so the attempt keeps its start and coins.
        start, _, logs = bandembed.homomorphism._walk_phase(
            plan, 0, make_rng(derive_seed(1, 1)), misses)
        assert plan.targets[0] != plan.targets[1]
        calls.clear()

        def missing_phase_2(pairs, start_pair, target_pair, kprime):
            if target_pair == plan.targets[1]:
                calls.append(start_pair)
                if len(calls) <= misses:
                    return None
            return original(pairs, start_pair, target_pair, kprime)

        monkeypatch.setattr(bandembed.homomorphism, "seeking_assign", missing_phase_2)
        hom = bandembed.homomorphism._sample(plan, 1)
        assert hom.attempts == 2 and len(calls) > misses
        first, second = hom.diagnostics
        assert first == AttemptDiagnostics(start, None, logs, True, None, None, None, None)
        assert not first.accepted and second.accepted and not second.seek_miss

    def test_oversized_boundary_fails_before_any_draw(self, monkeypatch):
        # Hand-picked parameters, outside choose_h_parameters' m1 cap, leave a
        # boundary no schedule can shrink: 92 vertices against xi*n = 48.
        target = gen_bandwidth_bipartite_h(480, 2, 4, seed=1)
        params = HomomorphismParams(m1=8, m2=2, k1=2, k2=1, xi=0.1)
        draws = []
        monkeypatch.setattr(bandembed.homomorphism, "_walk_phase",
                            lambda *args: draws.append(args))
        with pytest.raises(DecompositionError, match=r"boundary \|S\| = 92 exceeds xi\*n = 48"):
            build_homomorphism(target.graph, target.ordering, target.bipartition,
                               [120] * 4, (1, 3), params)
        assert draws == []


def edgeless_shape(n=240):
    g = Graph(n, [])
    ordering = BandwidthOrdering(tuple(range(n)), 1)
    bip = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2 == 1])
    return g, ordering, bip, [n // 4] * 4, [1, 3], choose_h_parameters(n, 1, 1, 0.25, 2)


def build_record(hom) -> dict:
    return {"hom": hom.to_json(), "diagnostics": [dataclasses.asdict(d) for d in hom.diagnostics]}


class TestPlanMemo:
    def test_repeat_build_reuses_the_plan(self, monkeypatch):
        calls = counting_chops(monkeypatch)
        shape = mc_shape(*SHAPE_B)
        cold = build_homomorphism(*shape, seed=2)
        assert len(calls) == 1 and cold.attempts > 1
        warm = build_homomorphism(*shape, seed=2)
        assert len(calls) == 1
        assert build_record(warm) == build_record(cold)

    def test_caller_list_changes_miss_the_memo(self, monkeypatch):
        calls = counting_chops(monkeypatch)
        g, ordering, bip, sizes, chord, params = edgeless_shape()
        first = build_homomorphism(g, ordering, bip, sizes, chord, params)
        assert (first.sizes, first.chord, first.roles_swapped) == ([60] * 4, (1, 3), False)
        sizes[0], sizes[1] = 61, 59
        assert build_homomorphism(g, ordering, bip, sizes, chord, params).sizes == sizes
        chord.reverse()
        assert build_homomorphism(g, ordering, bip, sizes, chord, params).chord == (3, 1)
        bip[1].extend([0, 2])
        bip[0].remove(0)
        bip[0].remove(2)
        assert build_homomorphism(g, ordering, bip, sizes, chord, params).roles_swapped
        assert len(calls) == 4

    def test_list_labels_build(self, monkeypatch):
        calls = counting_chops(monkeypatch)
        g, ordering, bip = perfect_matching_graph(240)
        listed = BandwidthOrdering(list(ordering.labels), ordering.claimed_bound)
        params = choose_h_parameters(240, 1, 1, 0.25, 2)
        homs = [build_homomorphism(g, o, bip, [60] * 4, (1, 3), params, seed=2)
                for o in (listed, listed, ordering)]
        assert len(calls) == 1
        assert build_record(homs[0]) == build_record(homs[2])

    @pytest.mark.parametrize("case", ["chord", "boundary", "stretch"])
    def test_failed_plan_raises_again(self, monkeypatch, case):
        calls = counting_chops(monkeypatch)
        g, ordering, bip = perfect_matching_graph(240)
        args = (g, ordering, bip, [60] * 4, (1, 3), choose_h_parameters(240, 1, 1, 0.25, 2))
        if case == "chord":
            args = args[:4] + ((0, 2),) + args[5:]
            error, message = InvalidInputError, "odd"
        elif case == "boundary":
            target = gen_bandwidth_bipartite_h(480, 2, 4, seed=1)
            args = (target.graph, target.ordering, target.bipartition, [120] * 4, (1, 3),
                    HomomorphismParams(m1=8, m2=2, k1=2, k2=1, xi=0.1))
            error, message = DecompositionError, "exceeds xi"
        else:
            labels = list(range(240))
            labels[1], labels[5] = 5, 1
            args = (g, BandwidthOrdering(tuple(labels), 1)) + args[2:]
            error, message = InvalidInputError, "exceeds claimed bound"
        for _ in range(2):
            with pytest.raises(error, match=message):
                build_homomorphism(*args)
        assert len(calls) == (2 if case == "boundary" else 0)
        assert bandembed.homomorphism._memo_plan.cache_info().currsize == 0

    def test_memo_stays_at_its_bound(self):
        bound = bandembed.homomorphism.PLAN_MEMO_SIZE
        g, ordering, bip, sizes, chord, params = edgeless_shape()
        for shift in range(bound + 2):
            build_homomorphism(g, ordering, bip, [60 + shift, 60 - shift, 60, 60],
                               chord, params)
        info = bandembed.homomorphism._memo_plan.cache_info()
        assert (info.misses, info.maxsize, info.currsize) == (bound + 2, bound, bound)


class TestChooseParameters:
    def test_degenerate_regime(self):
        params = choose_h_parameters(400, 3, 10, 0.3, 4)
        assert params.m1 == 4 and params.m2 == 2 and params.k2 == 1
        assert params.k1 == 4

    def test_drift_regime(self):
        params = choose_h_parameters(1536, 2, 1, 0.1, 2)
        assert params.k1 == 8
        assert params.k2 >= 8  # target-homing always lands
        assert params.m1 % params.m2 == 0

    def test_infeasible_rejected(self):
        with pytest.raises(ParameterError):
            choose_h_parameters(40, 3, 10, 0.1, 2)

    def test_two_block_drift_regime(self):
        # The boundary cap leaves m1 = 24: room to drift (24 >= 2*(k+9)) but
        # not for four blocks (24 < 4*(k+10)), so two blocks of 12 pairs.
        params = choose_h_parameters(240, 2, 1, 0.3, 2)
        assert (params.m1, params.m2, params.k1, params.k2) == (24, 2, 8, 11)
        target = gen_bandwidth_bipartite_h(240, 2, 1, seed=0)
        sizes, chord = [60] * 4, (1, 3)
        hom = build_homomorphism(target.graph, target.ordering, target.bipartition,
                                 sizes, chord, params, seed=0)
        assert verify_homomorphism_certificate(
            target.graph, hom.f, hom.boundary, sizes, params.xi, chord)["all_ok"]

    @pytest.mark.parametrize("n, delta, b, xi, cap", [
        (240, 3, 10, 0.3, "boundary xi*n/(3b) cap allows at most 2 segments"),
        (100, 10, 1, 0.3, "repair n/(4*delta) cap allows at most 2 segments"),
        (20, 1, 2, 0.9, "window n/(3b+1) cap allows at most 2 segments"),
    ])
    def test_segmentation_error_names_the_binding_cap(self, n, delta, b, xi, cap):
        with pytest.raises(ParameterError, match=re.escape(cap)):
            choose_h_parameters(n, delta, b, xi, 3)
