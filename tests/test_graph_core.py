import itertools
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandembed
from bandembed.errors import InvalidInputError
from bandembed.graph import (
    BandwidthOrdering,
    Graph,
    _subset_tables,
    at_least,
    degree_sequence,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    subset_lanes,
    verify_bandwidth_ordering,
)
from bandembed.hostgen import gen_super_regular_host
from bandembed.rng import make_rng, shuffled

from conftest import complete_graph, cycle_graph, path_graph
from oracles import neighborhood


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

    @pytest.mark.parametrize("edge", [(0, 1, 2), (0, 1.0), (0, "1"), 5, None, (1,), (True, 2),
                                      (7, False), (True, False), (1.0, 2), (5, 6.5)], ids=repr)
    def test_rejects_an_edge_that_is_not_an_integer_pair(self, edge):
        # The rule graph_from_json applies: a bool is not a vertex either.
        with pytest.raises(InvalidInputError, match=re.escape(f"edge {edge!r} is not a pair")):
            Graph(9, [(0, 2), edge])

    @pytest.mark.parametrize("edges", [5, None, 2.5], ids=repr)
    def test_rejects_an_edge_list_that_is_not_iterable(self, edges):
        with pytest.raises(InvalidInputError, match=re.escape(f"edge list {edges!r} is not iterable")):
            Graph(3, edges)

    @pytest.mark.parametrize("n", [-1, 2.5, "3", None, True], ids=repr)
    def test_rejects_a_vertex_count_that_is_not_a_nonnegative_integer(self, n):
        # graph_from_json's rule: a bool would be written back as "n": true.
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"vertex count {n!r} is not a nonnegative integer")):
            Graph(n, [])

    def test_adjacency_symmetric(self):
        g = path_graph(4)
        for u, v in g.edges():
            assert u in g.adj(v) and v in g.adj(u)

    def test_json_round_trip(self):
        g = cycle_graph(6)
        assert graph_from_json(graph_to_json(g)) == g

    def test_equal_graphs_write_equal_json(self):
        # Rebuilt from its own edges reversed or shuffled, the host is equal and
        # lists its edges in the same ascending order, so its JSON is the same.
        g = gen_super_regular_host(k=4, size=50, d=0.5, seed=3).graph
        rng = make_rng(3)
        for edges in (list(g.edges())[::-1], shuffled(rng, list(g.edges()))):
            rebuilt = Graph(g.n, edges)
            assert rebuilt == g and rebuilt.edges() == g.edges() == tuple(sorted(edges))
            assert graph_to_json(rebuilt) == graph_to_json(g)

    @pytest.mark.parametrize("masks, message", [
        ([2, 0], "0 lists 1, 1 does not list 0"), ([1], r"loop edge \(0,0\)"),
        ([4, 0], "mask of vertex 0 is not a set"), ([-1], "mask of vertex 0"),
        ([1.0, 0], "mask of vertex 0"), ([True, 0], "mask of vertex 0"),
    ], ids=repr)
    def test_from_masks_rejects_a_malformed_adjacency(self, masks, message):
        with pytest.raises(InvalidInputError, match=message):
            Graph.from_masks(masks)

    def test_from_masks_keeps_the_masks(self):
        g = Graph.from_masks(iter([0b110, 0b001, 0b001]))
        assert g == Graph(3, [(0, 1), (2, 0)]) and g.masks == (6, 1, 1)
        assert g.edges() == ((0, 1), (0, 2)) and g.degree(0) == 2 and not g.has_edge(1, 2)

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


    def test_subset_tables_are_built_on_first_use_and_kept(self):
        # Importing the library builds no table.
        probe = ("import bandembed, bandembed.graph as g; "
                 "assert g._subset_tables.cache_info().currsize == 0")
        src = os.path.dirname(os.path.dirname(bandembed.__file__))
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={**os.environ, "PYTHONPATH": src})
        for n in range(7):
            lanes, size = _subset_tables(n)
            assert lanes == tuple(subset_lanes(n))
            assert size == tuple(at_least(subset_lanes(n), n + 1, (1 << (1 << n)) - 1))
            assert _subset_tables(n) is _subset_tables(n)
        assert _subset_tables.cache_info().currsize == 2


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
