import hashlib
import itertools
import json
from fractions import Fraction

import pytest

import bandembed.regularity
from bandembed.cli import run_full_pipeline
from bandembed.errors import FeasibilityError, InvalidInputError
from bandembed.graph import Graph
from bandembed.hostgen import gen_bandwidth_bipartite_h, gen_random_graph, gen_super_regular_host
from bandembed.partition import Config
from bandembed.regularity import (
    build_reduced_graph,
    check_regular_pair,
    check_super_regular_pair,
    pair_density,
    perturbation_bound,
)
from bandembed.regularity import _first_refuted, _flagged, _lanes, _random_candidates, _slot_width
from bandembed.rng import as_fraction, make_rng, rand_below, sample_indices, shuffled

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
    """A seeded pair (A, B), an X inside A and the scan arguments besides eps."""
    na, nb = 2 + rand_below(rng, 9), 2 + rand_below(rng, 9)
    g = gen_random_graph(na + nb, Fraction(1 + rand_below(rng, 9), 10), seed=seed)
    a, b = list(range(na)), list(range(na, na + nb))
    xs = [a[i] for i in sample_indices(rng, na, 1 + rand_below(rng, na))]
    e_ab = sum(len(g.adj(v) & set(b)) for v in a)
    return g, a, xs, b, 1 + rand_below(rng, nb), e_ab, na * nb


def scan(g, a, xs, b, q_min, e_ab, ab, eps):
    """The kernel's witness as B-vertices, called with the reference's arguments.

    X goes through the heuristic's own path: its lanes, the slot pre-filter
    and the per-slot sorted check.
    """
    index = {v: i for i, v in enumerate(a)}
    x = tuple(sorted(index[v] for v in xs))
    nbrs = [g.adj(v) & set(a) for v in b]
    hi, lo = Fraction(e_ab, ab) + eps, Fraction(e_ab, ab) - eps
    hit = _first_refuted(nbrs, a, [x], _lanes(len(a), [x]), max(1, q_min),
                         (hi.numerator, hi.denominator, lo.numerator, lo.denominator))
    return None if hit is None else frozenset(b[j] for j in hit[1])


class TestIntegerScan:
    """The single-size per-slot kernel against the Fraction form that scans every |Y|."""

    EPSILONS = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(2, 7),
                Fraction(1, 2), Fraction(99999, 100000), Fraction(1), Fraction(-1, 5)]

    def test_matches_fraction_form_on_random_pairs(self):
        rng = make_rng(5)
        for seed in range(300):
            g, a, xs, b, q_min, e_ab, ab = random_scan_case(rng, seed)
            for eps in self.EPSILONS:
                assert scan(g, a, xs, b, q_min, e_ab, ab, eps) == \
                    extreme_violation_reference(g, xs, b, q_min, e_ab, ab, eps)

    def test_only_the_smallest_size_can_violate_first(self):
        # The lemma behind the kernel: for a fixed X the mean of the top q
        # degrees never rises with q and the mean of the bottom q never falls,
        # so the first violating |Y| is max(1, q_min) or there is none.
        rng = make_rng(5)
        violated = 0
        for seed in range(300):
            g, _, xs, b, q_min, e_ab, ab = random_scan_case(rng, seed)
            for eps in self.EPSILONS:
                # The reference scans |Y| upward and returns its first violating Y.
                y = extreme_violation_reference(g, xs, b, q_min, e_ab, ab, eps)
                assert y is None or len(y) == max(1, q_min)
                violated += y is not None
        assert 0 < violated < 300 * len(self.EPSILONS)

    def test_gap_equal_to_eps_is_a_violation(self):
        rng = make_rng(6)
        sides_hit = set()
        for seed in range(300):
            g, a, xs, b, q_min, e_ab, ab = random_scan_case(rng, seed)
            high, low = extreme_gaps(g, xs, b, q_min, e_ab, ab)
            eps = max(high + low)
            if eps <= 0:
                continue
            sides_hit.add("high" if eps in high and eps not in low else
                          "low" if eps in low and eps not in high else "both")
            at = scan(g, a, xs, b, q_min, e_ab, ab, eps)
            assert at is not None
            assert at == extreme_violation_reference(g, xs, b, q_min, e_ab, ab, eps)
            above = eps + Fraction(1, 10**9)
            assert scan(g, a, xs, b, q_min, e_ab, ab, above) is None
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
            assert scan(g, [0, 1], xs, [2, 3], 1, e_ab, 4, eps) == y
            assert scan(g, [0, 1], xs, [2, 3], 1, e_ab, 4, eps + Fraction(1, 10**12)) is None


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

    def test_pipeline_ops_at_new_seeds_draw_nothing_new(self, monkeypatch):
        # The op seed does not key the families, so an acceptance-shape op at
        # another seed finds every family it needs already cached.
        calls = self._count_draws(monkeypatch)
        drawn = []
        for seed in (0, 1):
            host = gen_super_regular_host(k=4, size=50, d=0.5, seed=seed)
            target = gen_bandwidth_bipartite_h(400, 3, 10, seed=seed)
            before = len(calls)
            run_full_pipeline(host, target, Config(), seed=seed)
            drawn.append(len(calls) - before)
        assert drawn[0] > 0 and drawn[1] == 0

    def test_verdicts_ignore_call_order_and_cache_state(self):
        # Planted pairs with twenty A sizes at two eps: forty (|A|, p_min,
        # count) keys, more than the cache holds (16 keys cannot miss 17
        # times), so replaying the calls reversed after a cache clear redraws
        # every family, some after eviction.  Random X's refute some pairs
        # and none refute the others.
        cases = [(*slot_boundary_pair(na, na, 24, planted=True), eps)
                 for na in range(20, 40) for eps in (Fraction(1, 5), Fraction(3, 10))]

        def verdicts(order):
            _random_candidates.cache_clear()
            return {i: check_regular_pair(*cases[i], Fraction(1, 4), mode="heuristic")
                    for i in order}

        forward = verdicts(range(len(cases)))
        assert _random_candidates.cache_info().misses >= 17
        found_by = {"none" if v.witness is None else
                    "outlier" if v.witness[0] in degree_outliers(*cases[i]) else "random"
                    for i, v in forward.items()}
        assert found_by == {"random", "none"}
        backward = verdicts(reversed(range(len(cases))))
        assert {i: v.to_json() for i, v in backward.items()} == {
            i: v.to_json() for i, v in forward.items()}

    def test_cache_is_bounded_and_immutable(self):
        for count in range(1, 41):
            xs, lanes = _random_candidates(12, 3, count)
            assert isinstance(xs, tuple) and all(isinstance(x, tuple) for x in xs)
            assert isinstance(lanes, tuple) and all(isinstance(lane, int) for lane in lanes)
        assert _random_candidates.cache_info().currsize <= 16

    def test_draws_match_a_fresh_stream(self):
        # Every family comes from the one fixed stream, make_rng(0).
        for na, width in ((20, 8), (200, 16)):
            rng = make_rng(0)
            fresh = []
            for _ in range(30):
                p = 4 + rand_below(rng, na - 4 + 1)
                fresh.append(tuple(sample_indices(rng, na, p)))
            # Lane i: a 1 at the bottom of slot s whenever X_s holds A-index i.
            lanes = tuple(sum(1 << width * s for s, x in enumerate(fresh) if i in x)
                          for i in range(na))
            assert _slot_width(na) == width
            assert _random_candidates(na, 4, 30) == (tuple(fresh), lanes)


class TestSlotFilter:
    """The all-candidates max/min pre-filter against a brute-force slot decode."""

    @staticmethod
    def expected(rows, sizes, hi, lo):
        out = []
        for s, p in enumerate(sizes):
            column = [row[s] for row in rows]
            t_hi = -(-(p * hi).numerator // (p * hi).denominator)
            t_lo = (p * lo).numerator // (p * lo).denominator
            if max(column) >= t_hi or min(column) <= t_lo:
                out.append(s)
        return out

    def test_flags_exactly_the_max_min_candidates(self):
        rng = make_rng(23)
        seen = set()
        cases = 0
        for na in (1, 5, 127, 128, 255, 256):
            width = _slot_width(na)
            half = 1 << width - 1
            for _ in range(60):
                sizes = [1 + rand_below(rng, na) for _ in range(1 + rand_below(rng, 12))]
                sizes[rand_below(rng, len(sizes))] = na
                # Degrees 0..p per slot, drawn to hit 0 and the full slot p often.
                rows = [[(0, p, rand_below(rng, p + 1))[rand_below(rng, 3)] for p in sizes]
                        for _ in range(1 + rand_below(rng, 5))]
                degrees = [sum(deg << width * s for s, deg in enumerate(row)) for row in rows]
                dens = Fraction(rand_below(rng, 11), 10)
                bounds = [(dens + eps, dens - eps) for eps in (
                    Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1), Fraction(3, 2),
                    Fraction(-1, 5), Fraction(-2))]
                # The filter takes any bounds: both at or below 0 as well.
                bounds.append((dens - 1, -dens - Fraction(1, 10)))
                for hi, lo in bounds:
                    got = _flagged(degrees, sizes, width,
                                   hi.numerator, hi.denominator, lo.numerator, lo.denominator)
                    assert got == self.expected(rows, sizes, hi, lo)
                    cases += 1
                    seen.add(("hi<=0", hi <= 0))
                    seen.add(("hi>half", any(p * hi > half for p in sizes)))
                    seen.add(("lo<0", lo < 0))
                    seen.add(("flagged", bool(got)))
                    seen.add(("unflagged", len(got) < len(sizes)))
                    if na in (127, 128, 255, 256):
                        seen.add(("full", na, any(na in row for row in rows)))
        assert cases == 6 * 60 * 8
        assert {(k, True) for k in ("hi<=0", "hi>half", "lo<0", "flagged", "unflagged")} <= seen
        assert {("full", na, True) for na in (127, 128, 255, 256)} <= seen

    def test_slot_widths(self):
        # Whole bytes holding 0..|A| plus one headroom bit.
        assert [_slot_width(na) for na in (1, 127, 128, 255, 256, 32767, 32768)] == \
            [8, 8, 16, 16, 16, 16, 24]

    def test_outlier_refutation_skips_the_random_block(self, monkeypatch):
        # Two 4x4 blocks: the first degree-outlier candidate refutes.
        a, b = list(range(8)), list(range(8, 16))
        g = Graph(16, [(u, v) for u in a for v in b if (u < 4) == (v < 12)])
        drawn = []

        def recording(*args):
            drawn.append(args)
            return _random_candidates(*args)

        monkeypatch.setattr(bandembed.regularity, "_random_candidates", recording)
        assert not check_regular_pair(g, a, b, 0.4, 0.3, mode="heuristic").regular
        assert drawn == []
        # A complete pair refutes nowhere, so the random block is scanned:
        # sizes {4, 8} give four outliers, and 116 random X's fill the budget.
        complete = complete_pair(8, 8)[0]
        assert check_regular_pair(complete, a, b, 0.4, 0.3, mode="heuristic").regular
        assert drawn == [(8, 4, 120 - 4)]
        # A budget the outliers fill draws none.
        assert check_regular_pair(complete, a, b, 0.4, 0.3, mode="heuristic", budget=4).regular
        assert drawn == [(8, 4, 120 - 4)]


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

    def test_eps_above_one_is_never_violated(self):
        # No density gap exceeds 1, and |X| >= eps|A| would exceed |A|.
        g = Graph(16, [(u, v) for u in range(4) for v in range(8, 12)])
        for mode in ("exact", "heuristic"):
            verdict = check_regular_pair(g, range(8), range(8, 16), Fraction(3, 2), 0, mode=mode)
            assert verdict.regular and verdict.witness is None

    def test_cap_enforced(self):
        g, a, b = complete_pair(15, 15)
        with pytest.raises(FeasibilityError):
            check_regular_pair(g, a, b, 0.3, 0.3)

    def test_negative_budget_is_rejected(self):
        # Two 4x4 blocks: the heuristic's first degree-outlier candidate refutes.
        a, b = list(range(8)), list(range(8, 16))
        g = Graph(16, [(u, v) for u in a for v in b if (u < 4) == (v < 12)])
        for checker in (check_regular_pair, check_super_regular_pair):
            with pytest.raises(InvalidInputError, match="budget"):
                checker(g, a, b, 0.4, 0.3, mode="heuristic", budget=-3)
        with pytest.raises(InvalidInputError, match="budget"):
            build_reduced_graph(g, [a, b], 0.4, 0.3, mode="heuristic", budget=-3)
        # A zero budget scans nothing: a non-refutation, not an error.
        assert check_regular_pair(g, a, b, 0.4, 0.3, mode="heuristic", budget=0).regular
        reduced = build_reduced_graph(g, [a, b], 0.4, 0.3, mode="heuristic", budget=0)
        assert reduced.edges == {(0, 1)}
        assert not check_regular_pair(g, a, b, 0.4, 0.3, mode="heuristic", budget=1).regular

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


class TestGoldenVerdicts:
    """Seeded verdicts pinned bit for bit: a faster kernel must keep every witness."""

    EPSILONS = [Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5), Fraction(-1, 5),
                Fraction(1)]
    # mode -> (largest side, pairs, sha256 over the to_json() of every verdict)
    PINS = {
        "exact": (12, 60, "404f5071fe6e2c49a89b42f3ca59df795ac486d71727740a3f6d23c18a83cafa"),
        "heuristic": (51, 60, "a57974aaac2778ede1b07d20ed844eeaf9191be19878b90d127059b5c46b3c55"),
    }
    CAP_PIN = "2b3d2672be8b0bf693da76f3f21bff589aa2b01d5a1754538b336db40a06aa3a"

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_random_pair_sweep(self, mode):
        top, pairs, pin = self.PINS[mode]
        rng = make_rng(7)
        digest = hashlib.sha256()
        for seed in range(pairs):
            na, nb = 2 + rand_below(rng, top - 1), 2 + rand_below(rng, top - 1)
            g = gen_random_graph(na + nb + 3, (1 + rand_below(rng, 9)) / 10, seed=seed)
            # Shuffled labels, so sides are not contiguous ranges.
            labels = shuffled(rng, list(range(g.n)))
            a, b = labels[:na], labels[na:na + nb]
            d = Fraction(rand_below(rng, 3), 4)
            for eps in self.EPSILONS:
                for checker in (check_regular_pair, check_super_regular_pair):
                    verdict = checker(g, a, b, eps, d, mode=mode)
                    digest.update(json.dumps(verdict.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == pin

    def test_exact_pairs_at_the_cap(self):
        # Sides of 13 and 14, beyond the sweep above; both verdicts occur.
        rng = make_rng(8)
        digest = hashlib.sha256()
        outcomes = set()
        for seed, (na, nb) in enumerate([(13, 13), (13, 14), (14, 13), (14, 14)]):
            g = gen_random_graph(na + nb + 2, (4 + seed) / 10, seed=seed)
            labels = shuffled(rng, list(range(g.n)))
            a, b = labels[:na], labels[na:na + nb]
            # 7/20 and 3/8 refute some pairs only at an X past mask 1000.
            for eps in (Fraction(1, 10), Fraction(7, 20), Fraction(3, 8), Fraction(1, 2)):
                for checker in (check_regular_pair, check_super_regular_pair):
                    verdict = checker(g, a, b, eps, Fraction(1, 4))
                    digest.update(json.dumps(verdict.to_json(), sort_keys=True).encode())
                    outcomes.add((na, nb, verdict.regular, verdict.witness is None))
        assert {(14, 14, True, True), (14, 14, False, False)} <= outcomes
        assert digest.hexdigest() == self.CAP_PIN


def slot_boundary_pair(seed, na, nb, planted):
    """A seeded pair whose A side sits at a slot-width boundary, labels shuffled.

    Planted pairs join the even and the odd positions of sorted(A) and
    sorted(B) completely and nothing else, so every A-degree is about equal
    and the degree-outlier candidates are balanced; other pairs are random
    at density 1/2.
    """
    rng = make_rng(seed)
    labels = shuffled(rng, list(range(na + nb + 2)))
    a, b = labels[:na], labels[na:na + nb]
    pos_a = {v: i for i, v in enumerate(sorted(a))}
    pos_b = {v: i for i, v in enumerate(sorted(b))}
    edges = [(u, v) for u in a for v in b
             if ((pos_a[u] + pos_b[v]) % 2 == 0 if planted else rand_below(rng, 10) < 5)]
    return Graph(na + nb + 2, edges), a, b


def degree_outliers(g, a, b, eps):
    """The heuristic's degree-outlier X's, restated from its documented rule."""
    a = sorted(a)
    degs = [len(g.adj(v) & set(b)) for v in a]
    by_deg = sorted(range(len(a)), key=degs.__getitem__)
    p_min = max(1, -(-(eps * len(a)).numerator // (eps * len(a)).denominator))
    sizes = sorted({p_min, max(p_min, len(a) // 4), max(p_min, len(a) // 2), len(a)})
    return {frozenset(a[i] for i in idx) for p in sizes for idx in (by_deg[:p], by_deg[-p:])}


class TestHeuristicSlotBoundaries:
    """Heuristic verdicts on A sides at slot-width boundaries, pinned bit for bit."""

    PIN = "7e8c1b42df8520c39709dffe3f9074483ba3a2548e1835433f76d8fe2115bf72"

    def test_verdicts_across_slot_widths(self):
        digest = hashlib.sha256()
        found_by = set()
        shapes = [(na, nb) for na in (127, 128, 255, 256, 300) for nb in (18, 160)]
        for seed, (na, nb) in enumerate(shapes):
            g, a, b = slot_boundary_pair(seed, na, nb, planted=seed % 3 != 0)
            for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
                outliers = degree_outliers(g, a, b, eps)
                for budget in (0, 1, 9, 120, 400):
                    for checker in (check_regular_pair, check_super_regular_pair):
                        verdict = checker(g, a, b, eps, Fraction(1, 4), mode="heuristic",
                                          budget=budget)
                        digest.update(json.dumps(verdict.to_json(), sort_keys=True).encode())
                        if verdict.witness is not None:
                            found_by.add("outlier" if verdict.witness[0] in outliers
                                         else "random")
                        elif verdict.regular:
                            found_by.add("none")
        assert found_by == {"outlier", "random", "none"}
        assert digest.hexdigest() == self.PIN


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
