import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import bandembed.partition
from bandembed.cli import build_parser, main
from bandembed.errors import (
    AssignmentError,
    BalancingError,
    BandembedError,
    ParameterError,
    RedistributionError,
    StructuralError,
)
from bandembed.graph import Graph
from bandembed.hostgen import gen_super_regular_host
from bandembed.partition import (
    BalanceLedger,
    BalanceStep,
    ClusterPartition,
    Config,
    assign_exceptional_vertices,
    balance_partition,
    check_mobility_hypotheses,
    dump_config,
    find_hamilton_cycle_and_chords,
    load_config,
    prepare_host_partition,
    redistribute_to_sizes,
    relabel_partition,
    relabel_reduced,
    verify_partition_structure,
)
from bandembed.partition import _LivePartition
from bandembed.regularity import ReducedGraph, build_reduced_graph
from bandembed.rng import as_fraction

# A config whose working density exceeds its working regularity slack, so
# the move thresholds (d - eps)|class| are positive and meaningful.
STRICT = Config(
    n0=16, lam=0.05, xi=0.10, eps_prime=0.12, eps=0.15,
    d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
)

# Wide working regularity for pipeline-style runs on small random hosts,
# where exhaustive subset checks refute any tight eps.
LOOSE = Config(
    n0=16, lam=0.05, xi=0.10, eps_prime=0.45, eps=0.5,
    d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
)


def toy_reduced(k, extra=()):
    """Reduced graph over 2k clusters with the standard cycle plus extras."""
    clusters = tuple(frozenset({i}) for i in range(2 * k))
    edges = set()
    for i in range(k):
        edges.add((2 * i, 2 * i + 1))
        edges.add(tuple(sorted((2 * i + 1, (2 * i + 2) % (2 * k)))))
    for e in extra:
        edges.add(tuple(sorted(e)))
    return ReducedGraph(clusters, frozenset(edges), Fraction(1, 4), Fraction(1, 4))


class TestConfig:
    def test_defaults_valid(self):
        Config()

    def test_round_trip(self):
        cfg = Config()
        assert load_config(dump_config(cfg)) == cfg

    def test_order_violations_rejected(self):
        with pytest.raises(ParameterError):
            Config(lam=0.5, xi=0.3)
        with pytest.raises(ParameterError):
            Config(d=0.5, d_prime=0.4)
        with pytest.raises(ParameterError):
            Config(tau=0.4, nu=0.45)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown key"):
            load_config("bogus = 1\n")

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ParameterError, match=r"config line 2: xi = 'abc' is not a number"):
            load_config("lam = 0.01\nxi = abc\n")

    def test_comments_and_blanks(self):
        cfg = load_config("# comment\n\nxi = 0.25\n")
        assert cfg.xi == 0.25


class TestHamiltonStructure:
    def test_cycle_with_chords(self):
        reduced = toy_reduced(4, extra=[(0, 4), (1, 5)])
        structure = find_hamilton_cycle_and_chords(reduced)
        assert structure.order == tuple(range(8))
        assert structure.a_chord == (0, 2)
        assert structure.b_chord == (0, 2)

    def test_first_chord_on_each_side_is_kept(self):
        reduced = toy_reduced(4, extra=[(0, 4), (0, 6), (1, 5), (3, 7)])
        structure = find_hamilton_cycle_and_chords(reduced)
        assert structure.order == tuple(range(8))
        assert (structure.a_chord, structure.b_chord) == ((0, 2), (0, 2))

    def test_complete_reduced_graph(self):
        clusters = tuple(frozenset({i}) for i in range(6))
        edges = frozenset(
            (i, j) for i in range(6) for j in range(i + 1, 6)
        )
        reduced = ReducedGraph(clusters, edges, Fraction(1, 4), Fraction(1, 4))
        structure = find_hamilton_cycle_and_chords(reduced)
        assert len(structure.order) == 6

    def test_pure_cycle_has_no_chords(self):
        with pytest.raises(StructuralError, match="chords"):
            find_hamilton_cycle_and_chords(toy_reduced(3))

    def test_disconnected_has_no_cycle(self):
        clusters = tuple(frozenset({i}) for i in range(4))
        reduced = ReducedGraph(clusters, frozenset({(0, 1), (2, 3)}),
                               Fraction(1, 4), Fraction(1, 4))
        with pytest.raises(StructuralError, match="no Hamilton cycle"):
            find_hamilton_cycle_and_chords(reduced)

    def test_relabel_round_trip(self):
        bundle = gen_super_regular_host(k=3, size=8, d=1.0, seed=0)
        reduced = build_reduced_graph(
            bundle.graph, bundle.partition.classes, 0.4, 0.3, mode="heuristic"
        )
        structure = find_hamilton_cycle_and_chords(reduced)
        part = relabel_partition(bundle.partition, structure)
        red2 = relabel_reduced(reduced, structure)
        for i in range(3):
            assert red2.has_edge(2 * i, 2 * i + 1)
        assert sorted(map(sorted, part.classes)) == sorted(
            map(sorted, bundle.partition.classes)
        )


class TestExceptionalAssignment:
    def test_empty_is_identity(self):
        bundle = gen_super_regular_host(k=2, size=8, d=1.0, seed=0)
        out = assign_exceptional_vertices(bundle.graph, bundle.partition, set(), STRICT)
        assert out.sizes() == bundle.partition.sizes()

    def test_vertex_joins_partner_of_its_neighborhood(self):
        # v is adjacent to all of B_2 (class index 5 on a k=3 host), so it
        # must join A_2 (class index 4).
        bundle = gen_super_regular_host(k=3, size=8, d=1.0, seed=0)
        g0 = bundle.graph
        n = g0.n
        edges = list(g0.edges()) + [(n, v) for v in sorted(bundle.partition.classes[5])]
        g = Graph(n + 1, edges)
        out = assign_exceptional_vertices(g, bundle.partition, {n}, STRICT)
        assert n in out.classes[4]

    def test_rules_verified_by_direct_count(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=3)
        g0 = bundle.graph
        n = g0.n
        extra_edges = []
        for x, cls in ((n, 1), (n + 1, 2)):
            for v in sorted(bundle.partition.classes[cls])[:8]:
                extra_edges.append((x, v))
        g = Graph(n + 2, list(g0.edges()) + extra_edges)
        out = assign_exceptional_vertices(g, bundle.partition, {n, n + 1}, STRICT)
        m_prime = min(len(c) for c in bundle.partition.classes)
        threshold = as_fraction(STRICT.eta) * m_prime / 4
        cap = 8 * as_fraction(STRICT.eps_prime) * m_prime / as_fraction(STRICT.eta)
        received = [0] * 6
        for c in range(6):
            added = out.classes[c] - bundle.partition.classes[c]
            received[c] = len(added)
            for v in added:
                # Rule check: enough neighbors in the partner class.
                assert Fraction(len(g.adj(v) & bundle.partition.classes[c ^ 1])) >= threshold
        assert all(Fraction(r) <= cap for r in received)
        assert sum(received) == 2

    def test_no_admissible_cluster_errors(self):
        bundle = gen_super_regular_host(k=2, size=8, d=1.0, seed=0)
        g0 = bundle.graph
        n = g0.n
        g = Graph(n + 1, list(g0.edges()))  # isolated leftover vertex
        with pytest.raises(AssignmentError):
            assign_exceptional_vertices(g, bundle.partition, {n}, STRICT)


class TestMoveThresholdIsInclusive:
    """A witness count equal to its threshold qualifies; only fewer fails."""

    def test_move_best_takes_a_vertex_exactly_at_the_threshold(self):
        bundle = gen_super_regular_host(k=2, size=8, d=0.5, seed=3)
        part = _LivePartition(bundle.graph, bundle.partition)
        # Moving from class 0 to class 2 counts neighbours in original class 3.
        top = max(part.witnesses(v, 3) for v in part.cur[0])
        sink = []
        part.move_best(0, 2, 1, Fraction(top), sink, RedistributionError, "movers")
        assert [(r.src, r.dst, r.witness_count, r.threshold) for r in sink] == \
            [(0, 2, top, top)]
        with pytest.raises(RedistributionError, match="holds only 0 movers"):
            part.move_best(0, 2, 1, Fraction(top + 1), [], RedistributionError, "movers")

    def test_move_best_fractional_thresholds(self):
        bundle = gen_super_regular_host(k=2, size=8, d=0.5, seed=3)
        part = _LivePartition(bundle.graph, bundle.partition)
        top = max(part.witnesses(v, 3) for v in part.cur[0])
        below, sink = top - Fraction(1, 2), []
        part.move_best(0, 2, 1, below, sink, RedistributionError, "movers")
        assert [(r.witness_count, r.threshold) for r in sink] == [(top, below)]
        assert type(sink[0].threshold) is Fraction
        with pytest.raises(RedistributionError, match="holds only 0 movers"):
            part.move_best(0, 2, 1, top + Fraction(1, 2), [], RedistributionError, "movers")

    def test_move_best_negative_threshold_qualifies_every_vertex(self):
        # At the default Config, d' - eps' < 0, so redistribution's threshold
        # (d' - eps')|class| is negative.
        cfg = Config()
        assert as_fraction(cfg.d_prime) < as_fraction(cfg.eps_prime)
        bundle = gen_super_regular_host(k=2, size=8, d=0.5, seed=3)
        part = _LivePartition(bundle.graph, bundle.partition)
        # Moving from class 0 to its partner 1 counts neighbours in class 0
        # itself, which has no inner edges: every witness count is 0.
        movers, threshold, sink = sorted(part.cur[0]), Fraction(-7, 3), []
        assert {part.witnesses(v, 0) for v in movers} == {0}
        with pytest.raises(RedistributionError, match="holds only 0 movers"):
            part.move_best(0, 1, 1, Fraction(1, 3), [], RedistributionError, "movers")
        part.move_best(0, 1, len(movers), threshold, sink, RedistributionError, "movers")
        assert [r.vertex for r in sink] == movers
        assert all(r.threshold == threshold for r in sink)
        assert part.cur[0] == set()

    def test_assignment_takes_a_cluster_exactly_at_the_threshold(self):
        # eta * m' / 4 = (4/5) * 10 / 4 = 2: a leftover vertex with exactly two
        # neighbours in class 1, and none elsewhere, joins its partner class 0.
        cfg = Config(eta=0.8)
        bundle = gen_super_regular_host(k=2, size=10, d=0.5, seed=0)
        n = bundle.graph.n
        edges = list(bundle.graph.edges()) + [(n, v) for v in sorted(bundle.partition.classes[1])[:2]]
        out = assign_exceptional_vertices(Graph(n + 1, edges), bundle.partition, {n}, cfg)
        assert n in out.classes[0]
        edges.pop()
        with pytest.raises(AssignmentError, match="threshold 2"):
            assign_exceptional_vertices(Graph(n + 1, edges), bundle.partition, {n}, cfg)


def imbalanced_host(seed=7):
    """Dense host with two pairs starting 1.5*lam*n out of balance."""
    bundle = gen_super_regular_host(k=4, size=20, d=0.9, seed=seed)
    part = bundle.partition.copy()
    movers = sorted(part.classes[3])[:12]  # lam*n = 8 under LOOSE
    for v in movers:
        part.classes[3].discard(v)
        part.classes[1].add(v)
    return bundle.graph, part


class TestBalance:
    def test_already_balanced_zero_steps(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.9, seed=1)
        reduced = build_reduced_graph(
            bundle.graph, bundle.partition.classes, 0.5, 0.3, mode="heuristic"
        )
        out, ledger = balance_partition(bundle.graph, bundle.partition, reduced, LOOSE)
        assert ledger.step_count == 0
        assert out.sizes() == bundle.partition.sizes()

    def test_constructed_imbalance_resolves(self):
        g, part = imbalanced_host()
        reduced = build_reduced_graph(g, part.classes, 0.5, 0.3, mode="heuristic")
        lam_n = as_fraction(LOOSE.lam) * g.n
        sizes = part.sizes()
        assert abs(sizes[0] - sizes[1]) > lam_n  # starts out of balance
        out, ledger = balance_partition(g, part, reduced, LOOSE)
        final = out.sizes()
        for i in range(4):
            assert abs(final[2 * i] - final[2 * i + 1]) <= lam_n
        assert ledger.step_count >= 1
        eta = as_fraction(LOOSE.eta)
        bound = 4 * as_fraction(LOOSE.eps_prime) / (eta * as_fraction(LOOSE.lam))
        assert ledger.step_count <= bound
        for step in ledger.steps:
            assert step.sigma_before - step.sigma_after >= lam_n
            # Every move carries its witness count, re-checkable on demand.
            for move in step.moves:
                assert move.witness_count >= move.threshold

    def test_no_walk_available_errors(self):
        g, part = imbalanced_host()
        # A reduced graph with only the pair edges has no non-matching step.
        clusters = tuple(frozenset(c) for c in part.classes)
        reduced = ReducedGraph(
            clusters, frozenset((2 * i, 2 * i + 1) for i in range(4)),
            Fraction(1, 4), Fraction(1, 4),
        )
        with pytest.raises(BalancingError):
            balance_partition(g, part, reduced, LOOSE)

    def test_conservation(self):
        g, part = imbalanced_host()
        reduced = build_reduced_graph(g, part.classes, 0.5, 0.3, mode="heuristic")
        out, _ = balance_partition(g, part, reduced, LOOSE)
        assert sum(out.sizes()) == sum(part.sizes())
        before = set()
        for c in part.classes:
            before |= c
        after = set()
        for c in out.classes:
            assert not (after & c)
            after |= c
        assert before == after


class TestRedistribute:
    # Move thresholds are exercised at (eps_prime, d_prime) = (0.2, 0.5), a
    # level the dense test hosts genuinely support, so (d_prime - eps_prime)|class|
    # is a positive, meaningful requirement on every logged move.
    MOVE = Config(
        n0=16, lam=0.05, xi=0.10, eps_prime=0.2, eps=0.25,
        d=0.30, d_prime=0.5, nu=0.55, tau=0.55, eta=0.65,
    )

    def build(self, k=3, size=12, d=0.9, seed=2):
        bundle = gen_super_regular_host(k=k, size=size, d=d, seed=seed)
        reduced = build_reduced_graph(
            bundle.graph, bundle.partition.classes, 0.5, 0.3, mode="heuristic"
        )
        return bundle, reduced

    def run(self, bundle, reduced, a_t, b_t):
        return redistribute_to_sizes(
            bundle.graph, bundle.partition, reduced, a_t, b_t, self.MOVE
        )

    def test_zero_targets_identity(self):
        bundle, reduced = self.build()
        out, ledger = self.run(bundle, reduced, [0, 0, 0], [0, 0, 0])
        assert out.sizes() == bundle.partition.sizes()
        assert ledger.churn == [0] * 6

    def test_exact_sizes_and_churn(self):
        bundle, reduced = self.build()
        a_t, b_t = [1, -1, 0], [0, 0, 0]
        out, ledger = self.run(bundle, reduced, a_t, b_t)
        sizes = out.sizes()
        for i in range(3):
            assert sizes[2 * i] == 12 + a_t[i]
            assert sizes[2 * i + 1] == 12 + b_t[i]
        bound = 5 * 3 * as_fraction(self.MOVE.xi) * bundle.graph.n
        assert all(Fraction(c) <= bound for c in ledger.churn)

    def test_hypotheses_verified_on_complete_host(self):
        # With complete pairs every sub-density equals 1, so the exact reduced
        # graph at the tight working parameters carries the cycle and both
        # chords, and redistribution runs at its default move thresholds.
        bundle = gen_super_regular_host(k=3, size=10, d=1.0, seed=0)
        reduced = build_reduced_graph(
            bundle.graph, bundle.partition.classes, STRICT.eps_prime, STRICT.d_prime,
            mode="exact",
        )
        out, _ = redistribute_to_sizes(
            bundle.graph, bundle.partition, reduced, [1, -1, 0], [0, 1, -1], STRICT
        )
        assert out.sizes() == [11, 10, 9, 11, 10, 9]

    def test_chord_transfer_with_witnesses(self):
        bundle, reduced = self.build(seed=5)
        a_t, b_t = [2, 0, 0], [-2, 0, 0]
        out, ledger = self.run(bundle, reduced, a_t, b_t)
        assert not ledger.mirrored
        assert len(ledger.chord_moves) == 2
        i2, j2 = bundle.partition.b_chord
        target = bundle.partition.classes[2 * j2 + 1]
        slack = as_fraction(self.MOVE.d_prime) - as_fraction(self.MOVE.eps_prime)
        threshold = slack * len(target)
        assert threshold > 0
        for move in ledger.chord_moves:
            assert move.src == 2 * i2 + 1
            assert move.dst == 2 * j2
            assert Fraction(len(bundle.graph.adj(move.vertex) & target)) >= threshold
        sizes = out.sizes()
        assert sizes[0] == 14 and sizes[1] == 10

    def test_mirrored_uses_a_chord(self):
        bundle, reduced = self.build(seed=6)
        a_t, b_t = [-2, 0, 0], [2, 0, 0]
        _, ledger = self.run(bundle, reduced, a_t, b_t)
        assert ledger.mirrored
        i1, j1 = bundle.partition.a_chord
        for move in ledger.chord_moves:
            assert move.src == 2 * i1 and move.dst == 2 * j1 + 1

    def test_hypothesis_violations_reported(self):
        bundle, reduced = self.build()
        big = int(as_fraction(STRICT.xi) * bundle.graph.n) + 1
        report = check_mobility_hypotheses(
            bundle.graph, bundle.partition, reduced, [big, 0, 0], [-big, 0, 0], STRICT
        )
        assert not report.targets_small
        with pytest.raises(RedistributionError):
            redistribute_to_sizes(
                bundle.graph, bundle.partition, reduced, [big, 0, 0], [-big, 0, 0], STRICT
            )
        with pytest.raises(RedistributionError):
            redistribute_to_sizes(
                bundle.graph, bundle.partition, reduced, [1, 0, 0], [0, 0, 0], STRICT
            )

    def test_emptied_class_is_a_redistribution_error(self):
        # |A_0| = 12 lies inside the default xi*n = 21.6, so only the size floor refuses it.
        bundle, reduced = self.build()
        with pytest.raises(RedistributionError, match="leave a class empty"):
            redistribute_to_sizes(
                bundle.graph, bundle.partition, reduced, [-12, 12, 0], [0, 0, 0], Config(),
            )

    def test_moves_are_well_connected(self):
        bundle, reduced = self.build(seed=9)
        a_t, b_t = [2, -1, -1], [-1, 1, 0]
        _, ledger = self.run(bundle, reduced, a_t, b_t)
        assert ledger.all_moves()
        for move in ledger.all_moves():
            assert move.threshold > 0
            assert move.witness_count >= move.threshold


class TestHostPipeline:
    def test_end_to_end_small(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=1)
        cfg = Config(
            n0=16, lam=0.05, xi=0.10, eps_prime=0.45, eps=0.5,
            d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
        )
        report = prepare_host_partition(bundle.graph, bundle.partition, cfg)
        structure = verify_partition_structure(bundle.graph, report.partition, None, cfg)
        assert structure.all_ok()
        assert report.partition.sizes() == [10] * 6

    def test_demanded_sizes_hit_exactly(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=1)
        cfg = Config(
            n0=16, lam=0.05, xi=0.10, eps_prime=0.45, eps=0.5,
            d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
        )
        demanded = [11, 10, 9, 10, 10, 10]
        report = prepare_host_partition(bundle.graph, bundle.partition, cfg)
        diff = [want - have for want, have in zip(demanded, report.partition.sizes())]
        final, _ = redistribute_to_sizes(
            bundle.graph, report.partition, report.reduced, diff[0::2], diff[1::2], cfg
        )
        assert final.sizes() == demanded
        structure = verify_partition_structure(bundle.graph, final, demanded, cfg)
        assert structure.sizes_exact

    def test_excessive_demand_rejected(self, tmp_path, capsys):
        # The demand file is checked where lemma-g reads it: an input error.
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=1)
        cfg = Config(
            n0=16, lam=0.05, xi=0.10, eps_prime=0.45, eps=0.5,
            d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
        )
        host_path = tmp_path / "host.json"
        host_path.write_text(json.dumps(bundle.to_json()))
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(dump_config(cfg))
        demand_path = tmp_path / "demand.json"
        demand_path.write_text(json.dumps({"sizes": [25, 10, 5, 0, 10, 10]}))
        argv = ["lemma-g", "--host", str(host_path), "--config", str(cfg_path),
                "--demand", str(demand_path)]
        args = build_parser().parse_args(argv)
        with pytest.raises(ParameterError, match="exceeds"):
            args.func(args)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("input error: demanded size 25")

    def test_leftover_vertices_absorbed(self):
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=1)
        part = bundle.partition.copy()
        dropped = []
        for c in (0, 3):
            v = sorted(part.classes[c])[0]
            part.classes[c].discard(v)
            dropped.append(v)
        cfg = Config(
            n0=16, lam=0.05, xi=0.10, eps_prime=0.45, eps=0.5,
            d=0.30, d_prime=0.40, nu=0.45, tau=0.45, eta=0.55,
        )
        report = prepare_host_partition(bundle.graph, part, cfg)
        assert report.partition.covered() == set(range(bundle.graph.n))

    def test_class_floor_error_carries_the_balance_ledger(self, monkeypatch):
        # A balance that leaves a class at n/(3k) or below: the error that
        # refuses it keeps the ledger balancing returned.
        bundle = gen_super_regular_host(k=3, size=10, d=0.8, seed=1)
        ledger = BalanceLedger([BalanceStep((0, 3), 1, 4, 0, [], [])])

        def tiny_class(g, partition, reduced, cfg):
            out = partition.copy()
            moved = set(sorted(out.classes[0])[:7])
            out.classes[0] -= moved
            out.classes[1] |= moved
            return out, ledger

        monkeypatch.setattr(bandembed.partition, "balance_partition", tiny_class)
        with pytest.raises(BalancingError, match=r"n/\(3k\) or below") as exc:
            prepare_host_partition(bundle.graph, bundle.partition, LOOSE)
        assert exc.value.ledger is ledger


def _outcome(run):
    """`run()`, or the repr of the library error it raises."""
    try:
        return run()
    except BandembedError as exc:
        return repr(exc)


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _classes(part):
    return [sorted(c) for c in part.classes]


class TestMoverPins:
    """Seeded results of the three host-vertex movers, pinned bit for bit.

    Each pin is the sha256 of the JSON of every case's classes and move log,
    or of the error a case raises.
    """

    BALANCE_PIN = "beecfc15b88d1b09b5ae3e9065f0ed7422abfcae81e4e1afa965c39c08a9056a"
    REDISTRIBUTE_PIN = "e8dd89f562eea21d6906a7a4c2fe46d8d8964171e4cd66fb83eadd50d8b2e53a"
    ASSIGN_PIN = "bafb25c954d62f7ad8fdd88e2cbb23d381af14ea8f4706715afcc20387c132ea"
    RETIRE_PIN = "d503327d341f3df244eec7fff9cdbfcfb21e7c2d643ca6e533f7f99c901134a9"

    @staticmethod
    def _balance_records(hosts, skews, cfgs, failures=None):
        """Balance every host under every skew and config; one record per case.

        Each BalancingError raised is also appended to `failures`, if given.
        """
        records = []
        for bundle in hosts:
            for src, dst, count in skews:
                g, part = bundle.graph, bundle.partition.copy()
                for v in sorted(part.classes[src])[:count]:
                    part.classes[src].discard(v)
                    part.classes[dst].add(v)
                reduced = build_reduced_graph(g, part.classes, 0.5, 0.3, mode="heuristic")
                for cfg in cfgs:
                    def run():
                        try:
                            out, ledger = balance_partition(g, part, reduced, cfg)
                        except BalancingError as exc:
                            if failures is not None:
                                failures.append(exc)
                            raise
                        steps = [[list(s.walk_classes), s.moved_per_hop, s.sigma_before,
                                  s.sigma_after, s.retired_pairs,
                                  [m.to_json() for m in s.moves]] for s in ledger.steps]
                        return [_classes(out), steps]
                    records.append(_outcome(run))
        return records

    def test_balance_classes_and_ledgers(self):
        hosts = [gen_super_regular_host(k=4, size=20, d=dens, seed=seed)
                 for seed in range(4) for dens in (0.9, 0.6)]
        skews = ((3, 1, 12), (0, 5, 10), (6, 2, 16), (1, 6, 14))
        records = self._balance_records(hosts, skews, (LOOSE, STRICT))
        assert _digest(records) == self.BALANCE_PIN

    def test_balance_with_retired_pairs(self):
        # Many small pairs and nu near 1: the live floor lets one pair retire.
        # A skew inside pair 0 retires that pair.  Retired after balancing,
        # the run succeeds (30 cases); retired before, at eps_prime 0.3 and
        # lam 0.01, it ends "still imbalanced" (6 cases).
        hosts = [gen_super_regular_host(k=k, size=10, d=0.9, seed=seed)
                 for k in (13, 14) for seed in range(3)]
        skews = ((3, 1, 4), (0, 5, 5), (6, 2, 5), (0, 1, 6))
        cfgs = [replace(LOOSE, eps_prime=eps_p, lam=lam, nu=nu, tau=nu, eta=0.97)
                for eps_p in (0.45, 0.3) for lam in (0.01, 0.02) for nu in (0.93, 0.95)]
        failures = []
        records = self._balance_records(hosts, skews, cfgs, failures)
        retired = [r for r in records if not isinstance(r, str) and any(s[4] for s in r[1])]
        stuck = [r for r in records if isinstance(r, str) and "still imbalanced" in r]
        assert (len(records), len(retired), len(stuck)) == (192, 30, 6)
        assert _digest(records) == self.RETIRE_PIN
        # A failed balance keeps the steps it took: each stuck case retired
        # pair 0 on some step and is left with pair 0 imbalanced.
        stuck_errors = [e for e in failures if "still imbalanced" in str(e)]
        assert len(stuck_errors) == 6
        for exc in stuck_errors:
            assert str(exc).startswith("pair 0 still imbalanced")
            assert exc.ledger.steps
            assert any(0 in step.retired_pairs for step in exc.ledger.steps)
        assert all(e.ledger is not None for e in failures)

    def test_redistribution_over_random_targets(self):
        cfg = Config()
        records = []
        for seed in range(3):
            host = gen_super_regular_host(4, 50, d=0.5, seed=seed)
            prep = prepare_host_partition(host.graph, host.partition, cfg)
            rng = random.Random(seed)
            for spread in (3, 10, 30):
                for _ in range(4):
                    a_t = [rng.randint(-spread, spread) for _ in range(4)]
                    b_t = [rng.randint(-spread, spread) for _ in range(4)]
                    b_t[rng.randrange(4)] -= sum(a_t) + sum(b_t)

                    def run():
                        out, ledger = redistribute_to_sizes(
                            host.graph, prep.partition, prep.reduced, a_t, b_t, cfg
                        )
                        return [_classes(out), [m.to_json() for m in ledger.all_moves()],
                                ledger.churn, ledger.mirrored]
                    records.append(_outcome(run))
        assert _digest(records) == self.REDISTRIBUTE_PIN

    def test_assignment_of_dropped_vertices(self):
        records = []
        for seed in range(4):
            for dens in (0.8, 0.2):
                for drop in (2, 8, 24):
                    bundle = gen_super_regular_host(k=3, size=10, d=dens, seed=seed)
                    dropped = random.Random(seed).sample(range(bundle.graph.n), drop)
                    part = bundle.partition.copy()
                    for c in part.classes:
                        c.difference_update(dropped)
                    for cfg in (LOOSE, STRICT):
                        records.append(_outcome(lambda: _classes(
                            assign_exceptional_vertices(bundle.graph, part, dropped, cfg)
                        )))
        assert _digest(records) == self.ASSIGN_PIN
