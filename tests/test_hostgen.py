import hashlib
import json
from fractions import Fraction

import pytest

from bandembed.conditions import check_degree_sequence_condition, check_robust_expander
from bandembed.errors import InvalidInputError
from bandembed.graph import degree_sequence, graph_to_json, verify_bandwidth_ordering
from bandembed.hostgen import (
    gen_bandwidth_bipartite_h,
    gen_cycle_blowup,
    gen_extremal_counterexample,
    gen_random_graph,
    gen_super_regular_host,
)
from bandembed.matching import has_perfect_matching_small
from bandembed.regularity import check_regular_pair, check_super_regular_pair


class TestCycleBlowup:
    def test_five_classes_of_three(self):
        g = gen_cycle_blowup(5, 3)
        assert g.n == 15
        assert all(g.degree(v) == 6 for v in range(15))

    def test_triangle(self):
        g = gen_cycle_blowup(3, 1)
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_expander_certified_exactly(self):
        g = gen_cycle_blowup(5, 3)
        assert check_robust_expander(g, 0.05, 0.21).holds

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            gen_cycle_blowup(2, 3)


class TestSuperRegularHost:
    def test_full_density_deterministic(self):
        b1 = gen_super_regular_host(k=2, size=6, d=1.0, seed=1)
        b2 = gen_super_regular_host(k=2, size=6, d=1.0, seed=99)
        assert b1.graph == b2.graph
        for i in range(2):
            verdict = check_super_regular_pair(
                b1.graph, b1.partition.classes[2 * i], b1.partition.classes[2 * i + 1],
                0.3, 0.9,
            )
            assert verdict.regular

    def test_acceptance_scale_pairs_verify(self):
        bundle = gen_super_regular_host(k=4, size=30, d=0.5, seed=11)
        g = bundle.graph
        cls = bundle.partition.classes
        for i in range(4):
            verdict = check_super_regular_pair(
                g, cls[2 * i], cls[2 * i + 1], 0.35, 0.3, mode="heuristic", budget=80
            )
            assert verdict.regular, f"pair {i}: {verdict.to_json()}"

    def test_chord_pairs_verify(self):
        bundle = gen_super_regular_host(k=4, size=30, d=0.5, seed=11)
        g = bundle.graph
        cls = bundle.partition.classes
        (i1, j1), (i2, j2) = bundle.partition.a_chord, bundle.partition.b_chord
        assert check_regular_pair(
            g, cls[2 * i1], cls[2 * j1], 0.35, 0.3, mode="heuristic", budget=80
        ).regular
        assert check_regular_pair(
            g, cls[2 * i2 + 1], cls[2 * j2 + 1], 0.35, 0.3, mode="heuristic", budget=80
        ).regular

    def test_degree_floor_enforced(self):
        bundle = gen_super_regular_host(k=3, size=20, d=0.5, seed=2)
        g = bundle.graph
        cls = bundle.partition.classes
        floor = int(0.6 * 0.5 * 20 + 0.999999)
        for i in range(3):
            a_cls, b_cls = cls[2 * i], cls[2 * i + 1]
            for v in a_cls:
                assert len(g.adj(v) & b_cls) >= floor
            for v in b_cls:
                assert len(g.adj(v) & a_cls) >= floor

    def test_bit_identical_for_fixed_seed(self):
        b1 = gen_super_regular_host(k=3, size=15, d=0.5, seed=7)
        b2 = gen_super_regular_host(k=3, size=15, d=0.5, seed=7)
        assert b1.graph == b2.graph
        assert b1.partition.to_json() == b2.partition.to_json()

    def test_only_declared_pairs_present(self):
        bundle = gen_super_regular_host(k=4, size=10, d=1.0, seed=0)
        cls = bundle.partition.classes
        (i1, j1), (i2, j2) = bundle.partition.a_chord, bundle.partition.b_chord
        allowed = set()
        for i in range(4):
            allowed.add((2 * i, 2 * i + 1))
            allowed.add(tuple(sorted((2 * i + 1, (2 * i + 2) % 8))))
        allowed.add(tuple(sorted((2 * i1, 2 * j1))))
        allowed.add(tuple(sorted((2 * i2 + 1, 2 * j2 + 1))))
        idx = {}
        for c, members in enumerate(cls):
            for v in members:
                idx[v] = c
        for u, v in bundle.graph.edges():
            assert tuple(sorted((idx[u], idx[v]))) in allowed


class TestExtremalCounterexample:
    def test_no_perfect_matching(self):
        g = gen_extremal_counterexample(10, 4)
        assert not has_perfect_matching_small(g)

    def test_degrees_only_just_miss(self):
        g = gen_extremal_counterexample(10, 4)
        d = degree_sequence(g)
        # One unit below the threshold the certification needs.
        assert all(d[i - 1] >= i - 1 for i in range(1, 6))
        assert not check_degree_sequence_condition(d, 0.1).holds

    def test_structure(self):
        g = gen_extremal_counterexample(10, 4)
        # First class independent, no edges to the third class.
        for u in range(4):
            for v in range(4):
                if u != v:
                    assert not g.has_edge(u, v)
            for v in range(7, 10):
                assert not g.has_edge(u, v)


class TestRandomGraph:
    def test_extremes(self):
        assert gen_random_graph(6, 1.0).num_edges == 15
        assert gen_random_graph(6, 0.0).num_edges == 0

    def test_sampled_instance_is_expander(self):
        g = gen_random_graph(16, 0.7, seed=0)
        assert check_robust_expander(g, 0.05, 0.25).holds

    def test_seed_determinism(self):
        assert gen_random_graph(12, 0.4, seed=5) == gen_random_graph(12, 0.4, seed=5)
        assert gen_random_graph(12, 0.4, seed=5) != gen_random_graph(12, 0.4, seed=6)


class TestBandwidthTarget:
    def test_unit_bandwidth_is_consecutive_matching(self):
        bundle = gen_bandwidth_bipartite_h(20, 1, 1, seed=0)
        for u, v in bundle.graph.edges():
            assert v == u + 1
        assert bundle.graph.max_degree() <= 1

    def test_certificates_replay(self):
        bundle = gen_bandwidth_bipartite_h(100, 3, 7, seed=3)
        stretch = verify_bandwidth_ordering(bundle.graph, bundle.ordering)
        assert stretch <= 7
        evens, odds = bundle.bipartition
        eset = set(evens)
        for u, v in bundle.graph.edges():
            assert (u in eset) != (v in eset)

    def test_degree_cap(self):
        bundle = gen_bandwidth_bipartite_h(150, 2, 2, seed=4)
        assert bundle.graph.max_degree() <= 2

    def test_determinism(self):
        a = gen_bandwidth_bipartite_h(60, 3, 5, seed=9)
        b = gen_bandwidth_bipartite_h(60, 3, 5, seed=9)
        assert a.graph == b.graph


class TestGeneratorPin:
    """Seeded output of all five generators, pinned bit for bit.

    The pin is the sha256 of the JSON of every case, edges in `edges()` order.
    The host shapes reach each degree-floor path: the acceptance shape at seed
    1 resamples a row, k=2/size 14 at seeds 2 and 3 tops up in the final sweep,
    and k=3/size 4 at d=0.001 tops up after 100 failed rounds.
    """

    PIN = "94a6f687d1265263ff3aab345eb1f337e26f1c099ad202239590d0cb5e9e7a70"

    def test_all_generators(self):
        records = [graph_to_json(gen_cycle_blowup(c, s)) for c, s in ((3, 1), (5, 3), (6, 4))]
        for k, size, d, chords, seed in (
            (4, 50, 0.5, None, 0), (4, 50, 0.5, None, 1), (2, 14, 0.5, None, 2),
            (2, 14, 0.5, None, 3), (3, 4, 0.001, None, 0), (3, 10, 0.8, ((0, 1), (1, 2)), 5),
            (2, 6, 1.0, None, 1), (2, 16, 0.7, ((0, 1), (0, 1)), 3),
        ):
            records.append(gen_super_regular_host(k, size, d, chords, seed).to_json())
        records += [graph_to_json(gen_extremal_counterexample(n, m)) for n, m in ((10, 4), (20, 8))]
        for n, p, seed in ((16, 0.7, 0), (12, 0.4, 5), (6, 1.0, 0), (6, 0.0, 0),
                           (30, Fraction(3, 8), 7), (40, 0.5, 11)):
            records.append(graph_to_json(gen_random_graph(n, p, seed)))
        for n, delta, b, seed in ((20, 1, 1, 0), (100, 3, 7, 3), (400, 3, 10, 0)):
            records.append(gen_bandwidth_bipartite_h(n, delta, b, seed).to_json())
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == self.PIN
