from fractions import Fraction

import pytest

from bandembed.errors import InvalidInputError, WalkNotFoundError, WalkValidationError
from bandembed.graph import Graph
from bandembed.hostgen import gen_cycle_blowup, gen_random_graph
from bandembed.walks import (
    Matching,
    ShiftedWalk,
    find_closed_shifted_walk,
    purify_walk,
    simplify_walk,
    validate_shifted_walk,
)

from conftest import complete_graph, cycle_graph
from oracles import shifted_neighborhood_iterate


K4 = complete_graph(4)
M4 = Matching([(0, 1), (2, 3)])


def matching_edge_multiplicities(m, walk):
    counts = {}
    seq = walk.vertices
    for i in range(1, len(seq) // 2):
        a, b = seq[2 * i - 1], seq[2 * i]
        counts[(min(a, b), max(a, b))] = counts.get((min(a, b), max(a, b)), 0) + 1
    return counts


class TestMatching:
    def test_overlap_rejected(self):
        with pytest.raises(InvalidInputError):
            Matching([(0, 1), (1, 2)])

    def test_partner(self):
        assert M4.partner(0) == 1 and M4.partner(3) == 2

    def test_loop_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^matching edge \(2,2\) is a loop$"):
            Matching([(0, 1), (2, 2)])

    def test_partner_of_an_uncovered_vertex(self):
        with pytest.raises(InvalidInputError, match="^vertex 5 is not covered by the matching$"):
            M4.partner(5)

    def test_json_round_trip(self):
        assert Matching.from_json(M4.to_json()).pairs == M4.pairs


class TestValidate:
    def test_single_edge_is_length_one(self):
        w = validate_shifted_walk(K4, M4, [0, 2])
        assert w.length == 1 and w.endpoints == (0, 2)

    def test_closed_length_two(self):
        w = validate_shifted_walk(K4, M4, [0, 2, 3, 0])
        assert w.length == 2 and w.endpoints == (0, 0)

    def test_matching_edge_on_odd_step_rejected(self):
        with pytest.raises(WalkValidationError, match="matching edge on an odd step"):
            validate_shifted_walk(K4, M4, [0, 1])

    def test_odd_length_rejected(self):
        with pytest.raises(WalkValidationError, match="even length"):
            validate_shifted_walk(K4, M4, [0, 2, 3])

    def test_non_edge_rejected(self):
        g = cycle_graph(4)
        m = Matching([(0, 1), (2, 3)])
        with pytest.raises(WalkValidationError, match="not an edge"):
            validate_shifted_walk(g, m, [0, 2])

    def test_missing_matching_step_rejected(self):
        with pytest.raises(WalkValidationError, match="not a matching edge"):
            validate_shifted_walk(K4, M4, [0, 2, 0, 2])

    def test_matching_edge_outside_the_graph_rejected(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])  # K4 without (2,3)
        with pytest.raises(InvalidInputError, match=r"^matching edge \(2,3\) is not an edge of G$"):
            validate_shifted_walk(g, M4, [0, 2])

    @pytest.mark.parametrize("v", [4, -1])
    def test_vertex_outside_the_graph_rejected(self, v):
        with pytest.raises(WalkValidationError, match=rf"^vertex {v} outside \[0,4\)$"):
            validate_shifted_walk(K4, M4, [0, v])

    def test_imperfect_matching_rejected(self):
        with pytest.raises(InvalidInputError, match="perfect"):
            validate_shifted_walk(K4, Matching([(0, 1)]), [0, 2])


class TestSimplify:
    def test_idempotent_on_simple(self):
        w = validate_shifted_walk(K4, M4, [0, 2, 3, 0])
        assert simplify_walk(K4, M4, w).vertices == w.vertices

    def test_length_one_unchanged(self):
        w = validate_shifted_walk(K4, M4, [0, 2])
        assert simplify_walk(K4, M4, w).vertices == (0, 2)

    def test_triple_use_spliced(self):
        # Matching edge (2,3) appears three times, entered at 2 each time;
        # the span between the first two entries is removed.
        g = complete_graph(8)
        m = Matching([(0, 1), (2, 3), (4, 5), (6, 7)])
        w = validate_shifted_walk(g, m, [0, 2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 6, 7, 0])
        out = simplify_walk(g, m, w)
        assert out.vertices == (0, 2, 3, 4, 5, 2, 3, 6, 7, 0)
        assert out.endpoints == w.endpoints
        validate_shifted_walk(g, m, out.vertices)
        assert all(c <= 2 for c in matching_edge_multiplicities(m, out).values())


class TestPurify:
    def test_endpoints_only_is_identity(self):
        g = complete_graph(6)
        m = Matching([(0, 1), (2, 3), (4, 5)])
        w = validate_shifted_walk(g, m, [0, 4, 5, 2, 3, 0])
        assert purify_walk(m, {0}, w).vertices == w.vertices

    def test_extracts_inner_span(self):
        # Walk [0,4,5,2,3,6,7,0] meets {0,2} at positions 1 and 4; the
        # extraction indices give the sub-walk [0,4,5,2].
        g = complete_graph(8)
        m = Matching([(0, 1), (2, 3), (4, 5), (6, 7)])
        w = validate_shifted_walk(g, m, [0, 4, 5, 2, 3, 6, 7, 0])
        out = purify_walk(m, {0, 2}, w)
        assert out.vertices == (0, 4, 5, 2)
        assert not (set(out.vertices[1:-1]) & {0, 2})

    def test_length_one_with_both_ends(self):
        w = validate_shifted_walk(K4, M4, [0, 2])
        assert purify_walk(M4, {0, 2}, w).vertices == (0, 2)

    def test_rejects_an_endpoint_outside_the_set(self):
        w = validate_shifted_walk(K4, M4, [0, 2])
        with pytest.raises(InvalidInputError,
                           match="^both walk endpoints must lie in the given set$"):
            purify_walk(M4, {0}, w)

    def test_rejects_both_ends_of_one_edge(self):
        w = validate_shifted_walk(K4, M4, [0, 2])
        with pytest.raises(InvalidInputError, match="both ends"):
            purify_walk(M4, {2, 3}, w)


class TestShiftedNeighborhood:
    def test_complete(self):
        assert shifted_neighborhood_iterate(K4, M4, {0}, 1) == {0, 2, 3}

    def test_empty(self):
        for r in (1, 2, 3):
            assert shifted_neighborhood_iterate(K4, M4, set(), r) == set()

    def test_cycle(self):
        g = cycle_graph(4)
        m = Matching([(0, 1), (2, 3)])
        assert shifted_neighborhood_iterate(g, m, {0}, 1) == {0, 2}

    def test_growth_law_on_exact_expander(self):
        # On an exact-verified expander with a perfect matching, layer sizes
        # grow by nu*n per step until the ceiling.
        from bandembed.conditions import check_robust_expander

        g = complete_graph(8)
        m = Matching([(0, 1), (2, 3), (4, 5), (6, 7)])
        nu, tau = Fraction(1, 5), Fraction(3, 10)
        assert check_robust_expander(g, nu, tau).holds
        n = g.n
        prev = shifted_neighborhood_iterate(g, m, {0}, 1)
        for r in range(2, 6):
            cur = shifted_neighborhood_iterate(g, m, {0}, r)
            assert Fraction(len(cur)) >= min(
                Fraction(len(prev)) + nu * n, (1 - tau + nu) * n
            )
            prev = cur


class TestFindClosedWalk:
    @pytest.mark.parametrize("nu", [0, 1], ids=repr)
    def test_nu_must_lie_strictly_between_0_and_1(self, nu):
        with pytest.raises(InvalidInputError, match=r"^nu must satisfy 0 < nu < 1$"):
            find_closed_shifted_walk(K4, M4, 0, nu)

    def test_k4(self):
        w = find_closed_shifted_walk(K4, M4, 0, 0.5)
        assert w.endpoints == (0, 0)
        assert w.length <= 6
        validate_shifted_walk(K4, M4, w.vertices)

    def test_no_closure_on_path(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        m = Matching([(0, 1), (2, 3)])
        with pytest.raises(WalkNotFoundError):
            find_closed_shifted_walk(g, m, 0, 0.5)

    def test_cycle_blowup_with_hand_built_matching(self):
        # Five classes of four vertices; the matching pairs off neighbors
        # inside consecutive complete bipartite class pairs.
        g = gen_cycle_blowup(5, 4)
        m = Matching([
            (0, 4), (1, 5),      # class 0 <-> class 1
            (2, 16), (3, 17),    # class 0 <-> class 4
            (6, 8), (7, 9),      # class 1 <-> class 2
            (10, 12), (11, 13),  # class 2 <-> class 3
            (14, 18), (15, 19),  # class 3 <-> class 4
        ])
        for a in (0, 7, 13):
            w = find_closed_shifted_walk(g, m, a, 0.2)
            assert w.endpoints == (a, a)
            assert w.length <= 15
            validate_shifted_walk(g, m, w.vertices)

    def test_deterministic(self):
        w1 = find_closed_shifted_walk(K4, M4, 0, 0.5)
        w2 = find_closed_shifted_walk(K4, M4, 0, 0.5)
        assert w1.vertices == w2.vertices


def planted_matching_graph(n, p, seed):
    """Random graph with the matching (0,1),(2,3),... forced in."""
    g = gen_random_graph(n, p, seed)
    edges = set(g.edges())
    for i in range(0, n, 2):
        edges.add((i, i + 1))
    return Graph(n, sorted(edges)), Matching([(i, i + 1) for i in range(0, n, 2)])


class TestWalkContractOnExpanders:
    def test_full_contract_sampled_instances(self):
        from bandembed.conditions import check_robust_expander

        nu, tau = 0.15, 0.3
        bound = 3 / 0.15
        checked = 0
        for seed in range(40):
            n = (8, 10, 12)[seed % 3]
            g, m = planted_matching_graph(n, 0.7, seed)
            if not check_robust_expander(g, nu, tau).holds:
                continue
            checked += 1
            for a in range(0, n, 3):
                w = find_closed_shifted_walk(g, m, a, nu)
                assert w.length <= bound
                validate_shifted_walk(g, m, w.vertices)
                # The search's walks are already simple, so simplifying is a no-op.
                assert all(c <= 2 for c in matching_edge_multiplicities(m, w).values())
                simple = simplify_walk(g, m, w)
                assert simple.vertices == w.vertices
                validate_shifted_walk(g, m, simple.vertices)
                assert all(
                    c <= 2 for c in matching_edge_multiplicities(m, simple).values()
                )
                pure = purify_walk(m, {a}, simple)
                validate_shifted_walk(g, m, pure.vertices)
                assert not (set(pure.vertices[1:-1]) & {a})
        assert checked >= 20
