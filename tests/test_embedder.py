import collections
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandembed.embedder
from bandembed.cli import _pair_targets, _pull_back
from bandembed.embedder import (
    _least_blocked,
    check_compatibility,
    embed_blowup,
    embedding_respects_partition,
    verify_embedding,
)
from bandembed.errors import EmbeddingNotFoundError, InvalidInputError
from bandembed.graph import Graph
from bandembed.homomorphism import build_homomorphism, choose_h_parameters
from bandembed.hostgen import gen_bandwidth_bipartite_h, gen_random_graph, gen_super_regular_host
from bandembed.partition import Config, prepare_host_partition, redistribute_to_sizes

from conftest import complete_graph


def complete_pair_host(k, size):
    """Host whose only edges are complete bipartite cluster pairs."""
    classes = [list(range(c * size, (c + 1) * size)) for c in range(2 * k)]
    edges = []
    for i in range(k):
        edges += [(u, v) for u in classes[2 * i] for v in classes[2 * i + 1]]
    return Graph(2 * k * size, edges), classes


def pipeline_embed_inputs(k, size, bandwidth, seed):
    """The arguments `run_full_pipeline` passes to `embed_blowup` on one generated
    instance, built even where the final partition would fail certification."""
    cfg = Config()
    host = gen_super_regular_host(k, size, d=0.5, seed=seed)
    target = gen_bandwidth_bipartite_h(2 * k * size, 3, bandwidth, seed=seed)
    g, h = host.graph, target.graph
    prep = prepare_host_partition(g, host.partition, cfg)
    i2, j2 = prep.partition.b_chord
    chord = (2 * i2 + 1, 2 * j2 + 1)
    params = choose_h_parameters(h.n, h.max_degree(), bandwidth, cfg.xi, k)
    baseline = prep.partition.sizes()
    hom = build_homomorphism(h, target.ordering, target.bipartition, baseline,
                             chord, params, seed=seed)
    a_t, b_t = _pair_targets(hom.loads(), baseline)
    final, _ = redistribute_to_sizes(g, prep.partition, prep.reduced, a_t, b_t, cfg)
    w_classes, rprime = _pull_back(hom.f, k)
    return h, w_classes, g, final.classes, rprime


def split_classes(sizes):
    """Consecutive vertex ranges of the given sizes."""
    classes, start = [], 0
    for size in sizes:
        classes.append(list(range(start, start + size)))
        start += size
    return classes


def stuck_instance(spare_edge=True):
    """A pair completion that can fail before placing anything.

    H classes are [s0, v], [t1, w], [s2, pads], [t3, pads], with the cross edge
    s0-s2, so S = {s0, s2} and T = {t1, t3}.  The host classes are the same
    ranges, [a0, a1], [p, q], ...; in G the host p of class 1 sees only a0 of
    class 0.  When s0 takes a0 and t1 takes p, v (on the first side of the
    pair, bound by t1) has no free host: "stuck".  When t1 takes q instead, w
    has no free host on the second side, so the pair re-rolls until its 20
    tries run out.  When s0 takes a1 the pair completes.  Without the spare
    edge a1-q, t1 has no candidate after s0 takes a1, and the budget runs out.
    """
    w = split_classes([2, 2, 9, 9])  # the 16 isolated pads raise the budget to 220
    (s0, v), (t1, wv), (s2, *_), (t3, *_) = w
    h = Graph(sum(map(len, w)), [(s0, t1), (v, t1), (v, wv), (s0, s2), (s2, t3)])
    (a0, a1), (p, q), z, t = w
    edges = [(a0, p), (a0, q)] + ([(a1, q)] if spare_edge else [])
    edges += [(x, y) for x in (a0, a1) for y in z] + [(x, y) for x in z for y in t]
    return h, w, Graph(h.n, edges), w, {(0, 1), (2, 3)}


def poisoned_instance():
    """Boundary placements that sometimes leave an enclosed vertex no host.

    H is the graph of `test_poisoned_boundary_placement_skips_the_pairs`; b1's only
    neighbour is the boundary vertex a0.  In G the host x1 of class 0 sees only y0
    of class 1, so b0 -> y0 with a0 -> x1 poisons the placement and the search
    restarts before any pair; every other boundary placement embeds.
    """
    w = split_classes([3, 3, 3, 3])
    x, y, z, t = w
    a, b, c, d = (cls[0] for cls in w)
    h = Graph(12, [(b, c), (a, b), (c, d), (b + 1, a)])
    edges = [(x[0], u) for u in y] + [(x[1], y[0]), (x[2], y[1]), (x[2], y[2])]
    edges += [(u, v) for u in y for v in z] + [(u, v) for u in z for v in t]
    return h, w, Graph(12, edges), w, {(0, 1), (2, 3)}


def retry_instance(spare_edge=True):
    """One pair, no boundary: vertex 0 sees both of 2 and 3 and is free on the first side.

    Host 1 sees only 2, so the random first-side bijection that sends 0 to 1 fails the
    second side's matching and the pair re-rolls locally.  Without the spare edge 0-3
    every try fails and the budget runs out inside the pair's retries.
    """
    w = [[0, 1], [2, 3]]
    h = Graph(4, [(0, 2), (0, 3)])
    g = Graph(4, [(0, 2), (1, 2)] + ([(0, 3)] if spare_edge else []))
    return h, w, g, w, {(0, 1)}


class TestCompatibility:
    def test_edgeless_passes(self):
        h = Graph(8, [])
        g, v_classes = complete_pair_host(2, 2)
        w = [[0, 1], [2, 3], [4, 5], [6, 7]]
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w, g, v_classes, rp, rp, 0.5)
        assert report.all_ok()
        assert all(not s for s in report.s_sets)

    def test_missing_reduced_edge_flagged(self):
        h = Graph(8, [(0, 4)])  # joins clusters 0 and 2; no reduced edge there
        g, v_classes = complete_pair_host(2, 2)
        w = [[0, 1], [2, 3], [4, 5], [6, 7]]
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w, g, v_classes, rp, rp, 0.5)
        assert report.offending_edges == [(0, 2)]

    def test_size_mismatch_flagged(self):
        h = Graph(8, [])
        g, v_classes = complete_pair_host(2, 2)
        w = [[0, 1, 2], [3], [4, 5], [6, 7]]
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w, g, v_classes, rp, rp, 0.5)
        assert report.offending_sizes == [0, 1]

    def test_boundary_sets_exact(self):
        # One cross-pair edge from cluster 1 to cluster 2: its endpoints form
        # S, and their untouched neighbors form T.
        h = Graph(8, [(2, 4), (4, 5)])
        g, v_classes = complete_pair_host(2, 2)
        r = {(0, 1), (2, 3), (1, 2)}
        rp = {(0, 1), (2, 3)}
        w = [[0, 1], [2, 3], [4, 5], [6, 7]]
        report = check_compatibility(h, w, g, v_classes, r, rp, 0.9)
        assert report.s_sets[1] == {2}
        assert report.s_sets[2] == {4}
        assert report.t_sets[2] == {5}

    def test_same_cluster_edge_fails(self):
        h = Graph(8, [(0, 1)])
        g, v_classes = complete_pair_host(2, 2)
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w_classes := [[0, 1], [2, 3], [4, 5], [6, 7]],
                                     g, v_classes, rp, rp, 0.5)
        assert report.offending_edges == [(0, 0)]

    def test_boundary_over_eps_of_own_class(self):
        # The cross edge 1-2 puts one vertex in S_1 and one in S_2: within
        # eps * 4 for class 1, above eps * 2 for class 2.
        w = split_classes([4, 4, 2, 2])
        h = Graph(12, [(w[1][0], w[2][0])])
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w, Graph(12, []), w, rp | {(1, 2)}, rp, 0.4)
        assert not report.offending_sizes and not report.offending_edges
        assert not report.all_ok()
        flags = {key: report.to_json()[key]
                 for key in ("sizes_match", "edges_respect_reduced", "boundary_bounded")}
        assert flags == {"sizes_match": True, "edges_respect_reduced": True,
                         "boundary_bounded": False}
        assert report.s_sets[1] == {w[1][0]} and report.s_sets[2] == {w[2][0]}
        assert report.offending_bounds == [2]

    def test_neighbours_over_eps_of_smallest_class_in_component(self):
        # S_1 = {b0} (cross edge to class 2) and T_0 = {a0, a1}, b0's neighbours:
        # 2 <= eps * |V_0| = 2, but 2 > eps * 2 for the smaller class 1 of the pair.
        w = split_classes([4, 2, 4, 2])
        (a0, a1, *_), (b0, _), (c0, *_), _ = w
        h = Graph(12, [(b0, c0), (b0, a0), (b0, a1)])
        rp = {(0, 1), (2, 3)}
        report = check_compatibility(h, w, Graph(12, []), w, rp | {(1, 2)}, rp, 0.5)
        assert not report.offending_sizes and not report.offending_edges
        assert report.s_sets[1] == {b0} and report.t_sets[0] == {a0, a1}
        assert report.offending_bounds == [0]


class TestMalformedClasses:
    """Class inputs that are not a layout are input errors for both entry points."""

    @staticmethod
    def assert_rejected(h, w, v_classes, match):
        g = complete_graph(h.n)
        rp = {(0, 1)}
        with pytest.raises(InvalidInputError, match=match):
            check_compatibility(h, w, g, v_classes, rp, rp, 0.5)
        with pytest.raises(InvalidInputError, match=match):
            embed_blowup(h, w, g, v_classes, rp, seed=0)

    def test_unequal_class_counts(self):
        h = Graph(4, [(0, 1)])
        self.assert_rejected(h, [[0], [1], [2], [3]], [[0], [1]], "equally many")

    @pytest.mark.parametrize("w", [[[0, 1], [2]], [[0, 1], [1, 2, 3]], [[0, 1], [2, 3, 4]]],
                             ids=["vertex-in-no-class", "vertex-in-two-classes", "foreign-vertex"])
    def test_h_classes_must_partition_h(self, w):
        self.assert_rejected(Graph(4, [(0, 2), (1, 3)]), w, [[0, 1], [2, 3]], "partition")

    def test_host_classes_must_not_overlap(self):
        h = Graph(4, [(0, 2), (1, 3)])
        self.assert_rejected(h, [[0, 1], [2, 3]], [[0, 1], [1, 2]], "disjoint")

    @pytest.mark.parametrize("entry", ["check_compatibility", "embed_blowup"])
    def test_edge_class_index_out_of_range(self, entry):
        w = [[0], [1], [2], [3]]
        r = {(0, 7)}
        args = {"check_compatibility": (r, r, 0.5), "embed_blowup": (r, 0)}[entry]
        with pytest.raises(InvalidInputError, match=r"edge \(0,7\) names a class outside \[0,4\)"):
            getattr(bandembed.embedder, entry)(Graph(4, [(0, 1)]), w, complete_graph(4), w, *args)

    def test_class_in_no_restricted_edge_is_named(self):
        # Classes 2 and 3 hold a vertex each but lie in no pair, so nothing
        # would ever place them.
        w = [[0], [1], [2], [3]]
        with pytest.raises(InvalidInputError, match="class 2 is in no restricted edge"):
            embed_blowup(Graph(4, [(0, 1)]), w, complete_graph(4), w, {(0, 1)}, seed=0)


class TestEmbedBlowup:
    def test_matching_into_complete_pairs(self):
        size = 6
        g, v_classes = complete_pair_host(2, size)
        h = Graph(4 * size, [(2 * i, 2 * i + 1) for i in range(2 * size)])
        w = [
            [4 * i for i in range(size)],
            [4 * i + 1 for i in range(size)],
            [4 * i + 2 for i in range(size)],
            [4 * i + 3 for i in range(size)],
        ]
        rp = {(0, 1), (2, 3)}
        emb = embed_blowup(h, w, g, v_classes, rp, seed=0)
        assert verify_embedding(h, g, emb.phi)
        assert embedding_respects_partition(emb.phi, w, v_classes)

    def test_paths_into_random_pairs(self):
        # Disjoint three-edge paths into a density-0.5 pair of 50 + 50.
        size = 50
        g = gen_random_graph(2 * size, 0.5, seed=8)
        v_classes = [list(range(size)), list(range(size, 2 * size))]
        h_edges = []
        for i in range(0, 2 * size - 3, 4):
            h_edges += [(i, i + 1), (i + 1, i + 2), (i + 2, i + 3)]
        h = Graph(2 * size, h_edges)
        w = [
            [v for v in range(2 * size) if v % 2 == 0],
            [v for v in range(2 * size) if v % 2 == 1],
        ]
        emb = embed_blowup(h, w, g, v_classes, {(0, 1)}, seed=3)
        assert verify_embedding(h, g, emb.phi)
        assert embedding_respects_partition(emb.phi, w, v_classes)

    def test_zero_density_pair_fails_honestly(self):
        g = Graph(4, [])
        h = Graph(4, [(0, 2)])  # needs an edge across the empty host pair
        w = [[0, 1], [2, 3]]
        v_classes = [[0, 1], [2, 3]]
        with pytest.raises(EmbeddingNotFoundError):
            embed_blowup(h, w, g, v_classes, {(0, 1)}, seed=0)

    def test_same_cluster_edge_rejected(self):
        g = Graph(4, [])
        h = Graph(4, [(0, 1)])
        with pytest.raises(InvalidInputError, match="incompatible"):
            embed_blowup(h, [[0, 1], [2, 3]], g, [[0, 1], [2, 3]], {(0, 1)}, seed=0)

    def test_component_shape_validated(self):
        h = Graph(4, [])
        g, v_classes = complete_pair_host(2, 1)
        with pytest.raises(InvalidInputError, match="single edges"):
            embed_blowup(h, [[0], [1], [2], [3]], g, v_classes, {(0, 1), (1, 2)}, seed=0)

    def test_poisoned_boundary_placement_skips_the_pairs(self, monkeypatch):
        # H: the cross edge b0-c0 makes S = {b0, c0} and T = {a0, d0}; b1's
        # only neighbour a0 is a boundary vertex.  In G only y0 sees class 0,
        # so b0 takes y0 and b1 never has a candidate: every restart must
        # stop before any pair is completed.
        a, b, c, d = (3 * i for i in range(4))
        h = Graph(12, [(b, c), (a, b), (c, d), (b + 1, a)])
        w = [[a, a + 1, a + 2], [b, b + 1, b + 2], [c, c + 1, c + 2], [d, d + 1, d + 2]]
        x, y, z, t = w
        g = Graph(12, [(u, y[0]) for u in x] + [(y[0], v) for v in z]
                  + [(v, u) for v in z for u in t])
        tries = []
        monkeypatch.setattr(bandembed.embedder, "_complete_pair",
                            lambda *args: tries.append(args) or "stuck")
        with pytest.raises(EmbeddingNotFoundError):
            embed_blowup(h, w, g, w, {(0, 1), (2, 3)}, seed=0)
        assert not tries

    def test_complete_pairs_always_succeed(self):
        # Hall's condition is trivial on complete pairs, so any target whose
        # pieces fit inside pairs embeds, with cross-pair edges via boundary
        # placement.
        for seed in range(5):
            size = 8
            classes = [list(range(c * size, (c + 1) * size)) for c in range(4)]
            edges = []
            for i in range(2):
                edges += [(u, v) for u in classes[2 * i] for v in classes[2 * i + 1]]
            edges += [(u, v) for u in classes[1] for v in classes[2]]
            g = Graph(4 * size, edges)
            target = gen_random_graph(0, 0, 0)  # placeholder, built below
            h_edges = []
            for i in range(size):
                h_edges.append((i, size + i))            # inside pair 0
                h_edges.append((2 * size + i, 3 * size + i))  # inside pair 1
            h_edges.append((size, 2 * size))             # one cross edge
            h = Graph(4 * size, h_edges)
            w = [list(range(size)), list(range(size, 2 * size)),
                 list(range(2 * size, 3 * size)), list(range(3 * size, 4 * size))]
            emb = embed_blowup(h, w, g, classes, {(0, 1), (2, 3)}, seed=seed)
            assert verify_embedding(h, g, emb.phi)


class TestGoldenPlacements:
    """Seeded placements pinned bit for bit on inputs where phase 1 restarts."""

    # (k, size, bandwidth, seed).  The b=5 cells exhaust the budget, so their
    # error message and attempt count stand in for phi.
    CELLS = [(4, 50, 10, s) for s in (0, 1, 3, 4, 5, 6, 8, 9)] + [(4, 50, 5, s) for s in range(3)]
    # sha256 over [phi or error, attempts] of every cell.
    PIN = "d9d339b41e1ee42ed5ae03626cee359b800e6989b5c1762f940658001a44c06a"

    def test_restarting_placements_are_pinned(self, monkeypatch):
        attempts = []
        real = bandembed.embedder.derive_seed

        def counting(root, counter):
            attempts.append(counter)
            return real(root, counter)

        monkeypatch.setattr(bandembed.embedder, "derive_seed", counting)
        digest = hashlib.sha256()
        for k, size, bandwidth, seed in self.CELLS:
            inputs = pipeline_embed_inputs(k, size, bandwidth, seed)
            attempts.clear()
            try:
                out = embed_blowup(*inputs, seed=seed).phi
            except EmbeddingNotFoundError as exc:
                out = f"EmbeddingNotFoundError: {exc}"
            assert len(attempts) >= 2
            digest.update(json.dumps([out, len(attempts)]).encode())
        assert digest.hexdigest() == self.PIN


class TestSearchPaths:
    """Hand-built inputs that reach every outcome of the restart loop, pinned bit for bit."""

    INSTANCES = {
        "stuck": stuck_instance(),
        "stuck-exhausted": stuck_instance(spare_edge=False),
        "poisoned": poisoned_instance(),
        "retry": retry_instance(),
        "retry-exhausted": retry_instance(spare_edge=False),
    }
    SEEDS = range(8)
    # sha256 over [phi or error, derive_seed calls] of every instance and seed.
    PIN = "28d1b49fcbfa36076c3ef159628b484862529308e64bd64277bafea7a38a32c4"

    def test_every_path_is_reached_and_pinned(self, monkeypatch):
        attempts, statuses = [], []
        real_seed = bandembed.embedder.derive_seed
        real_pair = bandembed.embedder._complete_pair

        def counting(root, counter):
            attempts.append(counter)
            return real_seed(root, counter)

        def recording(*args):
            statuses.append(real_pair(*args))
            return statuses[-1]

        monkeypatch.setattr(bandembed.embedder, "derive_seed", counting)
        monkeypatch.setattr(bandembed.embedder, "_complete_pair", recording)
        digest = hashlib.sha256()
        runs = collections.defaultdict(list)
        for name, (h, w, g, v_classes, rp) in self.INSTANCES.items():
            for seed in self.SEEDS:
                attempts.clear()
                statuses.clear()
                try:
                    out = embed_blowup(h, w, g, v_classes, rp, seed=seed).phi
                    assert verify_embedding(h, g, out)
                    assert embedding_respects_partition(out, w, v_classes)
                except EmbeddingNotFoundError as exc:
                    out = f"EmbeddingNotFoundError: {exc}"
                digest.update(json.dumps([out, len(attempts)]).encode())
                runs[name].append((isinstance(out, list), len(attempts), list(statuses)))
        # A "stuck" pair restarts the search and a later attempt embeds.
        assert any(ok and "stuck" in st for ok, _, st in runs["stuck"])
        # Twenty local re-rolls of one pair, then a restart.
        assert any(ok and st.count("retry") == 20 for ok, _, st in runs["stuck"])
        # A poisoned boundary placement restarts before any pair is tried.
        assert any(ok and n == 2 and st == ["ok", "ok"] for ok, n, st in runs["poisoned"])
        # A local re-roll that succeeds within the same attempt.
        assert any(ok and n == 1 and st[0] == "retry" for ok, n, st in runs["retry"])
        # The budget runs out across restarts and inside one pair's re-rolls.
        assert not any(ok for ok, _, _ in runs["stuck-exhausted"] + runs["retry-exhausted"])
        assert all(n > 1 for _, n, _ in runs["stuck-exhausted"])
        assert all(n == 1 for _, n, _ in runs["retry-exhausted"])
        assert digest.hexdigest() == self.PIN


@st.composite
def blocking_inputs(draw):
    """Candidates in a random order and peer masks over up to 130 hosts.

    Masks come from a small pool, plus -1 (no placed neighbour) and 0, so
    counts tie often; `allowed` may be empty.
    """
    n = draw(st.integers(1, 130))
    cands = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    pool = draw(st.lists(st.integers(-(1 << n), (1 << n) - 1), min_size=1, max_size=4))
    allowed = draw(st.lists(st.sampled_from([-1, 0, *pool]), max_size=40))
    return cands, allowed


class TestLeastBlocked:
    """Phase 1's score: the first candidate, in the given order, set in the fewest masks."""

    @staticmethod
    def reference(cands, allowed):
        return min(cands, key=lambda c: sum(m >> c & 1 for m in allowed))

    @settings(max_examples=400)
    @given(blocking_inputs())
    def test_matches_min_over_counts(self, inputs):
        cands, allowed = inputs
        assert _least_blocked(cands, allowed) == self.reference(cands, allowed)

    def test_ties_go_to_the_first_candidate(self):
        cands = [9, 3, 70, 0]
        assert _least_blocked(cands, []) == 9
        assert _least_blocked(cands, [-1, 0, -1]) == 9
        assert _least_blocked(cands, [1 << 9, 1 << 3]) == 70
        # Counts 2, 3, 2, 2 (a carry into the second plane), then 3, 5, 3, 4.
        many = [-1, 1 << 3, (1 << 9) | (1 << 3) | (1 << 70) | 1]
        assert _least_blocked(cands, many) == 9
        assert _least_blocked(cands, many + [-1, (1 << 3) | 1]) == 9


class TestVerifyEmbedding:
    def test_identity(self):
        g = complete_graph(5)
        assert verify_embedding(g, g, list(range(5)))

    def test_collapse_rejected(self):
        g = complete_graph(5)
        assert not verify_embedding(g, g, [0, 0, 2, 3, 4])

    def test_non_edge_rejected(self):
        h = Graph(2, [(0, 1)])
        g = Graph(3, [(0, 1)])
        assert not verify_embedding(h, g, [0, 2])

    def test_partial_map_rejected(self):
        h = Graph(3, [])
        g = complete_graph(3)
        assert not verify_embedding(h, g, [0, 1])
