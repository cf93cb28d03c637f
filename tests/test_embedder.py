import collections
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bandembed.cli
import bandembed.embedder
from bandembed.cli import _pull_back, run_full_pipeline
from bandembed.embedder import (
    _least_blocked,
    check_compatibility,
    embed_blowup,
    embedding_respects_partition,
    verify_embedding,
)
from bandembed.errors import EmbeddingNotFoundError, InvalidInputError
from bandembed.graph import Graph, vertex_mask
from bandembed.homomorphism import (
    build_homomorphism,
    choose_h_parameters,
    verify_homomorphism_certificate,
)
from bandembed.hostgen import gen_bandwidth_bipartite_h, gen_random_graph, gen_super_regular_host
from bandembed.partition import (
    ClusterPartition,
    Config,
    prepare_host_partition,
    redistribute_to_sizes,
    verify_partition_structure,
)

from conftest import (
    complete_graph,
    hall_instance,
    path_graph,
    retry_instance,
    search_path_instances,
    split_classes,
    stuck_instance,
)


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
    final, _ = redistribute_to_sizes(g, prep.partition, hom.loads(), cfg)
    return h, _pull_back(hom.f, k), g, final.classes


def class_map(w):
    """The map f sending every vertex of class i of `w` to i."""
    return [i for _, i in sorted((v, i) for i, c in enumerate(w) for v in c)]


def boundary_by_class(h, f, num):
    """`_boundary`'s S and T intersected with each class W_i = f^-1(i), i < num."""
    s, t = bandembed.embedder._boundary(h, f)
    classes = [{v for v in range(h.n) if f[v] == i} for i in range(num)]
    return [s & w for w in classes], [t & w for w in classes]


class TestCompatibility:
    def test_edgeless_passes(self):
        h = Graph(8, [])
        f = [0, 0, 1, 1, 2, 2, 3, 3]
        assert check_compatibility(h, f, [2, 2, 2, 2], 0.5) == []
        s_sets, _ = boundary_by_class(h, f, 4)
        assert all(not s for s in s_sets)

    def test_boundary_sets_exact(self):
        # One cross-pair edge from cluster 1 to cluster 2: its endpoints form
        # S, and their untouched neighbors (here 6, in the partner class 3) form T.
        h = Graph(8, [(2, 4), (4, 6)])
        f = [0, 0, 1, 1, 2, 2, 3, 3]
        assert check_compatibility(h, f, [2, 2, 2, 2], 0.9) == []
        s_sets, t_sets = boundary_by_class(h, f, 4)
        assert s_sets[1] == {2}
        assert s_sets[2] == {4}
        assert t_sets[3] == {6}

    def test_boundary_over_eps_of_own_class(self):
        # The cross edge 1-2 puts one vertex in S_1 and one in S_2: within
        # eps * 4 for class 1, above eps * 2 for class 2.
        w = split_classes([4, 4, 2, 2])
        h = Graph(12, [(w[1][0], w[2][0])])
        assert check_compatibility(h, class_map(w), [4, 4, 2, 2], 0.4) == [2]
        s_sets, _ = boundary_by_class(h, class_map(w), 4)
        assert s_sets[1] == {w[1][0]} and s_sets[2] == {w[2][0]}

    def test_neighbours_over_eps_of_smallest_class_in_component(self):
        # S_1 = {b0} (cross edge to class 2) and T_0 = {a0, a1}, b0's neighbours:
        # 2 <= eps * |V_0| = 2, but 2 > eps * 2 for the smaller class 1 of the pair.
        w = split_classes([4, 2, 4, 2])
        (a0, a1, *_), (b0, _), (c0, *_), _ = w
        h = Graph(12, [(b0, c0), (b0, a0), (b0, a1)])
        assert check_compatibility(h, class_map(w), [4, 2, 4, 2], 0.5) == [0]
        s_sets, t_sets = boundary_by_class(h, class_map(w), 4)
        assert s_sets[1] == {b0} and t_sets[0] == {a0, a1}

    @pytest.mark.parametrize("sizes", [[2, 2, 2], [2, 2, 2.0, 2], (2, 2), [2, True, 2, 2]],
                             ids=["odd-count", "float", "tuple", "bool"])
    def test_sizes_must_be_an_even_number_of_integers(self, sizes):
        with pytest.raises(InvalidInputError,
                           match="the class sizes must be an even number of integers"):
            check_compatibility(Graph(4, [(0, 1)]), [0, 1, 2, 3], sizes, 0.5)

    @pytest.mark.parametrize("f", [(0, 1, 2, 3), [0, 1, 2], [0, 1, 2, 3, 0], [0, 1, 2, 4],
                                   [0, -1, 2, 3], [0, 1, 2.0, 3], [0, True, 2, 3]],
                             ids=["tuple", "short", "long", "class-too-high", "negative",
                                  "float", "bool"])
    def test_map_must_send_every_vertex_to_a_class(self, f):
        with pytest.raises(InvalidInputError,
                           match=r"f must send all 4 vertices of H to classes 0\.\.3"):
            check_compatibility(Graph(4, [(0, 1)]), f, [1, 1, 1, 1], 0.5)

    def test_class_layout_runs_once_per_pipeline_run(self, monkeypatch):
        # The compatibility stage reads the map and the sizes; only embed lays out the classes.
        calls = []
        layout = bandembed.embedder._class_layout
        monkeypatch.setattr(bandembed.embedder, "_class_layout",
                            lambda *args: calls.append(1) or layout(*args))
        host = gen_super_regular_host(k=4, size=50, d=0.5, seed=0)
        report = run_full_pipeline(host, gen_bandwidth_bipartite_h(400, 3, 10, seed=0), Config())
        assert report.ok and len(calls) == 1


class TestDroppedConditionsAreImplied:
    """The two compatibility conditions `check_compatibility` leaves out are earlier certificates.

    Each is computed here from scratch: every H-edge on a reduced edge is covered by the
    homomorphism recheck's `homomorphism_valid`, and equal class sizes by verify-partition's
    `sizes_exact`.  Each must fail with its certificate, and hold where both certify.
    """

    @staticmethod
    def dropped(h, f, final):
        """(every H-edge on a reduced edge, every H class the size of its host class)."""
        reduced = Graph(2 * final.k, final.skeleton())
        on_reduced = all(reduced.has_edge(f[u], f[v]) for u, v in h.edges())
        return on_reduced, [len(c) for c in _pull_back(f, final.k)] == final.sizes()

    def test_each_dropped_condition_fails_with_its_certificate(self):
        # Six classes of two, vertex v in class v // 2: the cycle 0..5, the A chord
        # (0,2) and the B chord (1,3).  H runs around the cycle once and uses the B chord.
        cfg = Config()
        final = ClusterPartition(split_classes([2] * 6), a_chord=(0, 1), b_chord=(0, 1))
        cycle = [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 0), (3, 7)]
        f = [v // 2 for v in range(12)]

        def verdicts(edges, f):
            h = Graph(12, edges)
            recheck = verify_homomorphism_certificate(h, f, set(), final.sizes(), cfg.xi, (1, 3))
            structure = verify_partition_structure(complete_graph(12), final, recheck["loads"], cfg)
            return (recheck["homomorphism_valid"], structure.sizes_exact), self.dropped(h, f, final)

        assert verdicts(cycle, f) == ((True, True), (True, True))
        # The edge 0-6 joins classes 0 and 3, which the skeleton does not.
        off = [e if e != (6, 8) else (0, 6) for e in cycle]
        assert verdicts(off, f) == ((False, True), (False, True))
        # The isolated vertex 1 moves to class 1: loads 1 and 3 against final sizes 2.
        shifted = [1 if v == 1 else c for v, c in enumerate(f)]
        assert verdicts(cycle, shifted) == ((True, False), (True, False))

    def test_certified_pipeline_runs_meet_them(self, monkeypatch):
        # The 20 runs of acceptance criterion 1; each records its map and final partition.
        runs = []
        real_recheck = bandembed.cli.verify_homomorphism_certificate
        real_structure = bandembed.cli.verify_partition_structure

        def recheck(h, f, *args):
            out = real_recheck(h, f, *args)
            runs[-1].update(h=h, f=f, all_ok=out["all_ok"])
            return out

        def structure(g, final, *args):
            out = real_structure(g, final, *args)
            runs[-1].update(final=final, sizes_exact=out.sizes_exact)
            return out

        monkeypatch.setattr(bandembed.cli, "verify_homomorphism_certificate", recheck)
        monkeypatch.setattr(bandembed.cli, "verify_partition_structure", structure)
        for seed in range(20):
            runs.append({})
            host = gen_super_regular_host(k=4, size=50, d=0.5, seed=seed)
            run_full_pipeline(host, gen_bandwidth_bipartite_h(400, 3, 10, seed=seed), Config(),
                              seed=seed)
        certified = [r for r in runs if r.get("all_ok") and r.get("sizes_exact")]
        assert len(certified) == 20
        for r in certified:
            assert self.dropped(r["h"], r["f"], r["final"]) == (True, True)


class TestMalformedClasses:
    """Class inputs that are not a layout are input errors for `embed_blowup`."""

    @staticmethod
    def assert_rejected(h, w, v_classes, match):
        with pytest.raises(InvalidInputError, match=match):
            embed_blowup(h, w, complete_graph(h.n), v_classes, seed=0)

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

    def test_odd_class_count(self):
        # Classes 2i and 2i+1 form cluster pair i, so a third class has no partner.
        w = [[0], [1], [2]]
        self.assert_rejected(Graph(3, [(0, 1)]), w, w, "3 classes do not form cluster pairs")

    def test_unequal_class_sizes(self):
        w = [[0, 1, 2], [3], [4, 5], [6, 7]]
        self.assert_rejected(Graph(8, []), w, split_classes([2, 2, 2, 2]), r"class 0: \|W\| = 3")

    def test_same_class_edge(self):
        w = [[0, 1], [2, 3], [4, 5], [6, 7]]
        self.assert_rejected(Graph(8, [(0, 1)]), w, w, r"edge \(0,1\) stays inside class 0")

    @pytest.mark.parametrize("host", [7, -1])
    def test_host_vertex_outside_the_host(self, host):
        # Host vertex 7 of a 4-vertex host is no certified failure, and -1 no shift count.
        h = Graph(4, [(0, 2), (1, 3)])
        self.assert_rejected(h, [[0, 1], [2, 3]], [[0, host], [2, 3]],
                             rf"host vertex {host} lies outside \[0,4\)")


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
        phi = embed_blowup(h, w, g, v_classes, seed=0)
        assert verify_embedding(h, g, phi)
        assert embedding_respects_partition(phi, w, v_classes)

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
        phi = embed_blowup(h, w, g, v_classes, seed=3)
        assert verify_embedding(h, g, phi)
        assert embedding_respects_partition(phi, w, v_classes)

    def test_zero_density_pair_fails_honestly(self):
        g = Graph(4, [])
        h = Graph(4, [(0, 2)])  # needs an edge across the empty host pair
        w = [[0, 1], [2, 3]]
        v_classes = [[0, 1], [2, 3]]
        with pytest.raises(EmbeddingNotFoundError):
            embed_blowup(h, w, g, v_classes, seed=0)

    def test_same_cluster_edge_rejected(self):
        g = Graph(4, [])
        h = Graph(4, [(0, 1)])
        with pytest.raises(InvalidInputError, match="incompatible"):
            embed_blowup(h, [[0, 1], [2, 3]], g, [[0, 1], [2, 3]], seed=0)

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
            embed_blowup(h, w, g, w, seed=0)
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
            phi = embed_blowup(h, w, g, classes, seed=seed)
            assert verify_embedding(h, g, phi)


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
                out = embed_blowup(*inputs, seed=seed)
            except EmbeddingNotFoundError as exc:
                out = f"EmbeddingNotFoundError: {exc}"
            assert len(attempts) >= 2
            digest.update(json.dumps([out, len(attempts)]).encode())
        assert digest.hexdigest() == self.PIN


class TestSearchPaths:
    """Hand-built inputs that reach every outcome of the restart loop, pinned bit for bit."""

    INSTANCES = search_path_instances()
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
        for name, (h, w, g, v_classes) in self.INSTANCES.items():
            for seed in self.SEEDS:
                attempts.clear()
                statuses.clear()
                try:
                    out = embed_blowup(h, w, g, v_classes, seed=seed)
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


class TestPairExit:
    """A failed pair completion leaves through one exit, which restores its entry state."""

    def test_a_failed_try_restores_the_map_and_the_masks(self, monkeypatch):
        real_pair = bandembed.embedder._complete_pair
        statuses = []

        def checking(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng):
            entry = phi[:], vacant[:], allowed[:]
            statuses.append(real_pair(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng))
            if statuses[-1] != "ok":
                assert (phi, vacant, allowed) == entry
            return statuses[-1]

        monkeypatch.setattr(bandembed.embedder, "_complete_pair", checking)
        for h, w, g, v_classes in (stuck_instance(), retry_instance(), hall_instance()):
            for seed in range(8):
                try:
                    out = embed_blowup(h, w, g, v_classes, seed=seed)
                except EmbeddingNotFoundError:
                    continue
                assert verify_embedding(h, g, out)
                assert embedding_respects_partition(out, w, v_classes)
        assert {"ok", "retry", "stuck"} <= set(statuses)

    def test_a_short_first_side_is_stuck(self, monkeypatch):
        # The first side's matching sees only the restored entry state and
        # no random draw, so a re-roll would repeat it: one try per attempt.
        real_pair = bandembed.embedder._complete_pair
        real_seed = bandembed.embedder.derive_seed
        attempts, statuses = [], []

        def counting(root, counter):
            attempts.append(counter)
            return real_seed(root, counter)

        def recording(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng):
            # v1 and v2 each have a candidate: only Hall's condition fails.
            assert x == 0 and all(allowed[v] & vacant[0] for v in w[0][1:])
            statuses.append(real_pair(nbrs, gmasks, phi, vacant, allowed, w_sets, x, rng))
            return statuses[-1]

        monkeypatch.setattr(bandembed.embedder, "derive_seed", counting)
        monkeypatch.setattr(bandembed.embedder, "_complete_pair", recording)
        h, w, g, v_classes = hall_instance()
        with pytest.raises(EmbeddingNotFoundError):
            embed_blowup(h, w, g, v_classes, seed=0)
        assert len(attempts) > 1
        assert statuses == ["stuck"] * len(attempts)


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
        assert _least_blocked(vertex_mask(cands), cands, allowed) == self.reference(cands, allowed)

    def test_ties_go_to_the_first_candidate(self):
        cands = [9, 3, 70, 0]
        mask = vertex_mask(cands)
        assert _least_blocked(mask, cands, []) == 9
        assert _least_blocked(mask, cands, [-1, 0, -1]) == 9
        assert _least_blocked(mask, cands, [1 << 9, 1 << 3]) == 70
        # Counts 2, 3, 2, 2 (a carry into the second plane), then 3, 5, 3, 4.
        many = [-1, 1 << 3, (1 << 9) | (1 << 3) | (1 << 70) | 1]
        assert _least_blocked(mask, cands, many) == 9
        assert _least_blocked(mask, cands, many + [-1, (1 << 3) | 1]) == 9


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

    @pytest.mark.parametrize("entry", [3, -1])
    def test_entry_outside_the_host_rejected(self, entry):
        assert not verify_embedding(Graph(2, []), path_graph(3), [0, entry])


@pytest.mark.parametrize("entry", [1.0, True, None, "1", [1]], ids=repr)
def test_non_int_map_entry_is_rejected(entry):
    # Each entry equals or stands for vertex 1, so only its type can refuse it.
    h = Graph(2, [(0, 1)])
    assert not verify_embedding(h, path_graph(3), [0, entry])
    assert not embedding_respects_partition([0, entry], [[0], [1]], [{0}, {1}])


@pytest.mark.parametrize("phi", [5, None], ids=repr)
def test_non_list_map_is_rejected(phi):
    h = Graph(2, [(0, 1)])
    assert not verify_embedding(h, path_graph(3), phi)
    assert not embedding_respects_partition(phi, [[0], [1]], [{0}, {1}])


@pytest.mark.parametrize("classes", [[0, 1], 3], ids=repr)
def test_non_list_classes_are_rejected(classes):
    # Bare ints, or one int, where a list of classes belongs.
    assert not embedding_respects_partition([0, 1], classes, [{0}, {1}])
    assert not embedding_respects_partition([0, 1], [[0], [1]], classes)


@pytest.mark.parametrize("entry", [1.0, True, None, "1", [1]], ids=repr)
def test_non_int_class_entry_is_rejected(entry):
    # The same stand-ins for vertex 1, in an H class and in a host class.
    assert not embedding_respects_partition([0, 1], [[0], [entry]], [{0}, {1}])
    assert not embedding_respects_partition([0, 1], [[0], [1]], [[0], [entry]])


class TestRespectsPartition:
    """A bad layout is a False verdict, never an error or a pass."""

    def test_unmatched_class_counts_rejected(self):
        # zip would drop the third H class unread.
        assert not embedding_respects_partition([0, 1], [[0], [1], [2]], [[0], [1]])
        assert not embedding_respects_partition([0, 1], [[0], [1]], [[0]])

    @pytest.mark.parametrize("vertex", [2, -1])
    def test_vertex_outside_the_map_rejected(self, vertex):
        assert not embedding_respects_partition([0, 1], [[0], [1, vertex]], [[0], [1]])
