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
from bandembed.errors import DecompositionError, ParameterError, SeekMissError
from bandembed.graph import BandwidthOrdering, Graph
from bandembed.homomorphism import (
    HomomorphismParams,
    SegmentDecomposition,
    balance_trial_stats,
    binomial_mod_distribution,
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
from bandembed.rng import ceil_frac, derive_seed, make_rng, shuffled


def perfect_matching_graph(n):
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    ordering = BandwidthOrdering(tuple(range(n)), 1)
    bip = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2 == 1])
    return g, ordering, bip


class TestChop:
    def test_perfect_matching_n80(self):
        g, ordering, bip = perfect_matching_graph(80)
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 80), 4, 1)
        assert len(decomp.a_segments) == 4
        assert len(decomp.boundary) <= 3 * 4 * 1
        role = {}
        for i in range(4):
            for v in decomp.a_segments[i]:
                role[v] = ("A", i)
            for v in decomp.b_segments[i]:
                role[v] = ("B", i)
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
        for i in range(4):
            assert len(decomp.a_segments[i]) >= minsize
            assert len(decomp.b_segments[i]) >= minsize

    def test_hamilton_path_crossings_in_boundary(self):
        n = 100
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        ordering = BandwidthOrdering(tuple(range(n)), 1)
        bip = ([v for v in range(n) if v % 2 == 0], [v for v in range(n) if v % 2 == 1])
        decomp = chop_into_segments(g, ordering, bip, Fraction(1, 100), 5, 2)
        seg_of = {}
        for i in range(5):
            for v in decomp.a_segments[i]:
                seg_of[v] = ("A", i)
            for v in decomp.b_segments[i]:
                seg_of[v] = ("B", i)
        for u, v in g.edges():
            if seg_of[u][1] != seg_of[v][1]:
                assert u in decomp.boundary and v in decomp.boundary

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
    BETAS = [Fraction(0), Fraction(1, 97), Fraction(1, 10), Fraction(1, 7), Fraction(1, 3),
             Fraction(123457, 1000003), Fraction(999, 1000)]

    def test_integer_windows_match_fraction_form(self):
        # Edgeless targets with delta = 0: no edge property and no repair
        # step can fail, so the outcome is the windowing and the two size
        # checks alone.
        rng = make_rng(8)
        outcomes = set()
        for n in (1, 5, 12, 40, 97, 256):
            g = Graph(n, [])
            for m1 in (1, 2, 3, 7, 16):
                for beta in self.BETAS:
                    labels = tuple(shuffled(rng, list(range(n))))
                    class_a = {v for v in range(n) if rng.getrandbits(1)}
                    bip = (sorted(class_a), sorted(set(range(n)) - class_a))
                    ordering = BandwidthOrdering(labels, n)
                    expected = chop_windows_reference(n, labels, class_a, beta, m1)
                    if isinstance(expected, str):
                        outcomes.add(expected.split(" property")[0])
                        with pytest.raises(DecompositionError) as info:
                            chop_into_segments(g, ordering, bip, beta, m1, 0)
                        assert str(info.value) == expected
                    else:
                        outcomes.add("ok")
                        decomp = chop_into_segments(g, ordering, bip, beta, m1, 0)
                        assert (decomp.a_segments, decomp.b_segments, decomp.boundary) == expected
        assert outcomes == {"ok", "pair size", "boundary"}


def synthetic_decomposition(a_sizes, b_sizes, beta=Fraction(0)):
    a_segments = []
    b_segments = []
    nxt = 0
    for sa, sb in zip(a_sizes, b_sizes):
        a_segments.append(list(range(nxt, nxt + sa)))
        nxt += sa
        b_segments.append(list(range(nxt, nxt + sb)))
        nxt += sb
    return SegmentDecomposition(
        a_segments, b_segments, set(), beta, len(a_sizes), 1
    )


class TestGroupAndSplit:
    def test_balanced_takes_smallest_index(self):
        decomp = synthetic_decomposition([5] * 8, [5] * 8)
        group_and_split(decomp, 4, 0.1, 1)
        assert decomp.m3 == 1
        assert decomp.imbalances == [0, 0, 0, 0]

    def test_prefix_scan_matches_hand_computation(self):
        # Block imbalances (+4, -4, +4, -4); half the total is 0, and the
        # prefix first lands within the window at index 2.
        decomp = synthetic_decomposition(
            [5, 5, 3, 3, 5, 5, 3, 3], [3, 3, 5, 5, 3, 3, 5, 5]
        )
        group_and_split(decomp, 4, 0.1, 1)
        assert decomp.imbalances == [4, -4, 4, -4]
        assert decomp.m3 == 2

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
        with pytest.raises(SeekMissError):
            seeking_assign(list(range(3)), 0, 5, 8)


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


def mc_shape(bandwidth, k, chord):
    """A Monte Carlo benchmark shape: n=1536, max degree 2, xi=0.1, H seed 2024."""
    n = 1536
    target = gen_bandwidth_bipartite_h(n, 2, bandwidth, seed=2024)
    params = choose_h_parameters(n, 2, bandwidth, 0.1, k)
    return (target.graph, target.ordering, target.bipartition,
            [n // (2 * k)] * (2 * k), chord, params)


# Shape A walks drunken segments (coin logs); shape B goes through retries.
SHAPE_A = (1, 2, (1, 3))
SHAPE_B = (2, 4, (1, 5))


class TestTrialPlanReuse:
    def test_segments_once_per_call(self, monkeypatch):
        calls = []
        original = bandembed.homomorphism.chop_into_segments

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bandembed.homomorphism, "chop_into_segments", counting)
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
        (SHAPE_A, "cd94d6392d711da79ebd7885c170464948da43ffe6d589f272597f750ea99cce"),
        (SHAPE_B, "87177a6f36239e6f49b04c5a946e40e308d17347978120614d72f20deec1e0d1"),
    ], ids=["A", "B"])
    def test_seeded_outputs_pinned(self, shape, pin):
        # Maps, intermediate maps and every attempt's diagnostics (coin logs
        # included) for ten seeds, hashed; any change to the draw order shows.
        h, ordering, bip, sizes, chord, params = mc_shape(*shape)
        digest = hashlib.sha256()
        for trial in range(10):
            hom = build_homomorphism(h, ordering, bip, sizes, chord, params,
                                     seed=derive_seed(616, trial))
            digest.update(json.dumps({
                "hom": hom.to_json(),
                "f2": hom.f2,
                "diagnostics": [dataclasses.asdict(d) for d in hom.diagnostics],
            }, sort_keys=True).encode())
        assert digest.hexdigest() == pin

    def test_result_shares_nothing_with_plan(self):
        plan = bandembed.homomorphism._plan(*mc_shape(*SHAPE_A))
        first = bandembed.homomorphism._sample(plan, 1)
        expected = (list(first.f1), set(first.boundary), list(first.sizes))
        first.f1.clear()
        first.boundary.clear()
        first.sizes.clear()
        again = bandembed.homomorphism._sample(plan, 1)
        assert (again.f1, again.boundary, again.sizes) == expected


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

    @pytest.mark.parametrize("n, delta, b, xi, cap", [
        (240, 3, 10, 0.3, "boundary xi*n/(3b) cap allows at most 2 segments"),
        (100, 10, 1, 0.3, "repair n/(4*delta) cap allows at most 2 segments"),
        (20, 1, 2, 0.9, "window n/(3b+1) cap allows at most 2 segments"),
    ])
    def test_segmentation_error_names_the_binding_cap(self, n, delta, b, xi, cap):
        with pytest.raises(ParameterError, match=re.escape(cap)):
            choose_h_parameters(n, delta, b, xi, 3)
