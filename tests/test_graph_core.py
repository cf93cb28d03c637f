import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandembed.errors import InvalidInputError
from bandembed.graph import (
    BandwidthOrdering,
    Graph,
    at_least,
    degree_sequence,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    neighborhood,
    subset_lanes,
    verify_bandwidth_ordering,
)

from conftest import complete_graph, cycle_graph, path_graph


def small_graphs():
    """Random simple graphs on up to 8 vertices as (n, edge subset)."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=n * (n - 1) // 2,
            ),
        )
    )


class TestGraph:
    def test_rejects_loop(self):
        with pytest.raises(InvalidInputError, match=r"loop edge \(1,1\)"):
            Graph(3, [(0, 1), (1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(InvalidInputError, match=r"duplicate edge"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError, match="outside"):
            Graph(3, [(0, 3)])

    def test_adjacency_symmetric(self):
        g = path_graph(4)
        for u, v in g.edges():
            assert u in g.adj(v) and v in g.adj(u)

    def test_json_round_trip(self):
        g = cycle_graph(6)
        assert graph_from_json(graph_to_json(g)) == g

    def test_json_loader_names_offending_edge(self):
        with pytest.raises(InvalidInputError, match=r"\(2,2\)"):
            graph_from_json({"n": 3, "edges": [[0, 1], [2, 2]]})

    def test_masks_match_adjacency(self):
        g = cycle_graph(5)
        for v in range(5):
            members = {u for u in range(5) if g.masks[v] >> u & 1}
            assert members == set(g.adj(v))

    def test_induced_subgraph(self):
        g = cycle_graph(6)
        sub, old = induced_subgraph(g, [0, 1, 2, 5])
        assert old == [0, 1, 2, 5]
        assert set(sub.edges()) == {(0, 1), (1, 2), (0, 3)}


class TestLanes:
    """The lane helpers against per-subset brute force."""

    def test_subset_lanes(self):
        for n in range(7):
            lanes = subset_lanes(n)
            assert len(lanes) == n
            for u, vec in enumerate(lanes):
                assert vec >> (1 << n) == 0
                assert all((vec >> s & 1) == (s >> u & 1) for s in range(1 << n))

    def test_at_least(self):
        for n in range(7):
            lanes, full = subset_lanes(n), (1 << (1 << n)) - 1
            # Runs of up to six vectors from a pool with 0, full, the lanes and differences.
            pool = [0, full, *lanes] + [a & ~b for a, b in itertools.combinations(lanes, 2)]
            for start, count in itertools.product((0, 2), range(7)):
                vectors = pool[start:start + count]
                for top in range(len(vectors) + 2):
                    ge = at_least(vectors, top, full)
                    assert len(ge) == top + 1
                    for k in range(top + 1):
                        assert all((ge[k] >> s & 1) == (sum(v >> s & 1 for v in vectors) >= k)
                                   for s in range(1 << n))


class TestBandwidthOrdering:
    def test_path_identity(self):
        g = path_graph(3)
        assert verify_bandwidth_ordering(g, BandwidthOrdering((0, 1, 2), 1)) == 1

    def test_interleaved_cycle_has_stretch_two(self):
        # Labelling v0..v5 of a 6-cycle as 0,1,3,5,4,2 walks out and back,
        # so every cycle edge stretches at most 2.
        g = cycle_graph(6)
        labels = (0, 1, 3, 5, 4, 2)
        assert verify_bandwidth_ordering(g, BandwidthOrdering(labels, 2)) == 2

    def test_edgeless_is_zero(self):
        g = Graph(5, [])
        assert verify_bandwidth_ordering(g, BandwidthOrdering((4, 3, 2, 1, 0), 0)) == 0

    def test_non_bijective_labels_rejected(self):
        g = path_graph(3)
        with pytest.raises(InvalidInputError, match="permutation"):
            verify_bandwidth_ordering(g, BandwidthOrdering((0, 0, 2), 1))


class TestDegreeSequence:
    def test_complete(self):
        assert degree_sequence(complete_graph(4)) == [3, 3, 3, 3]

    def test_star(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert degree_sequence(g) == [1, 1, 1, 3]

    def test_triangle_plus_isolated(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2)])
        assert degree_sequence(g) == [0, 2, 2, 2]

    @settings(max_examples=40)
    @given(small_graphs())
    def test_sums_to_twice_edge_count(self, data):
        n, edges = data
        g = Graph(n, edges)
        assert sum(degree_sequence(g)) == 2 * g.num_edges


class TestNeighborhood:
    def test_complete(self):
        assert neighborhood(complete_graph(4), {0}) == {1, 2, 3}

    def test_path_endpoints(self):
        assert neighborhood(path_graph(3), {0, 2}) == {1}

    def test_empty(self):
        assert neighborhood(complete_graph(4), set()) == set()

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            neighborhood(path_graph(3), {5})

    @settings(max_examples=40)
    @given(small_graphs(), st.data())
    def test_monotone_in_the_set(self, data, draw):
        n, edges = data
        g = Graph(n, edges)
        s = draw.draw(st.sets(st.integers(0, n - 1)))
        sub = draw.draw(st.sets(st.sampled_from(sorted(s)) if s else st.nothing(), max_size=len(s))) if s else set()
        assert neighborhood(g, sub) <= neighborhood(g, s)
