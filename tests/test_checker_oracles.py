"""Differential checks of the library against its reference oracles.

Standard library only, so the CI runs every check under `python -S`
before pytest is installed, printing each name first:

    PYTHONPATH=src:tests python -S -c "import test_checker_oracles as t; [(print(n, flush=True), f()) for n, f in list(vars(t).items()) if n.startswith('test_')]"
"""

import dataclasses
from fractions import Fraction

import bandembed.cli
import bandembed.embedder
import bandembed.homomorphism
import bandembed.matching
import bandembed.hostgen
import oracles
from bandembed.cli import run_full_pipeline
from bandembed.embedder import _boundary, _least_blocked, check_compatibility, embed_blowup
from bandembed.errors import (
    DecompositionError,
    EmbeddingNotFoundError,
    InvalidInputError,
    RetryBudgetError,
)
from bandembed.graph import BandwidthOrdering, Graph, induced_subgraph, vertex_mask
from bandembed.homomorphism import (
    HomomorphismParams,
    build_homomorphism,
    choose_h_parameters,
    chop_into_segments,
    verify_homomorphism_certificate,
)
from bandembed.hostgen import (
    gen_bandwidth_bipartite_h,
    gen_cycle_blowup,
    gen_extremal_counterexample,
    gen_random_graph,
    gen_super_regular_host,
)
from bandembed.partition import Config
from bandembed.regularity import (
    _degrees,
    _first_refuted,
    _first_refuted_by_popcount,
    _first_violating_x,
    _lanes,
    _random_candidates,
    build_reduced_graph,
    check_regular_pair,
)
from bandembed.rng import as_fraction, ceil_frac, make_rng, rand_below, shuffled

from conftest import (
    chop_window_grid,
    mc_shape,
    perfect_matching_graph,
    search_path_instances,
    slot_boundary_pair,
)
from oracles import (
    boundary_reference,
    degrees_by_lanes,
    FrozensetGraph,
    eager_plan,
    edges_reference,
    embed_blowup_reference,
    first_refuted_by_lanes,
    first_violating_x_by_ladders,
    gen_random_graph_reference,
    gen_super_regular_host_reference,
    heuristic_verdict_by_lanes,
    hopcroft_karp_lists,
    least_blocked_unfiltered,
    offending_classes_reference,
    sample_reference,
    verify_homomorphism_certificate_reference,
)


def matching_shape(n=240, k=3):
    """A perfect matching on n vertices, cut into 2k equal classes."""
    g, ordering, bip = perfect_matching_graph(n)
    return g, ordering, bip, [n // (2 * k)] * (2 * k), (1, 3), choose_h_parameters(n, 1, 1, 0.25, k)


def corrupted_maps(rng, f, two_k, count):
    """`count` maps near f: reassigned, out-of-range, negative, cut and padded."""
    n = len(f)
    maps = []
    for i in range(count):
        g = list(f)
        kind = i % 5
        for _ in range(1 + rand_below(rng, 4)):
            v = rand_below(rng, n)
            if kind == 0:
                g[v] = rand_below(rng, two_k)
            elif kind == 1:
                g[v] = two_k + rand_below(rng, 3)
            elif kind == 2:
                g[v] = -1 - rand_below(rng, 3)
        if kind == 3:
            g = g[:n - 1 - rand_below(rng, 3)]
        elif kind == 4:
            g += [rand_below(rng, two_k) for _ in range(1 + rand_below(rng, 3))]
        maps.append(g)
    return maps


def other_boundaries(rng, n):
    """A random subset of V(H), the empty set and all of V(H)."""
    return [{v for v in range(n) if rng.getrandbits(3) == 0}, set(), set(range(n))]


def chords(chord):
    """The chord in both orders, an odd pair that is not the chord, and equal ends."""
    a, b = chord
    return [(a, b), (b, a), (a, b + 2), (a, a)]


def test_homomorphism_checker_matches_oracle():
    """The fast checker returns the oracle's full dict on valid and corrupted maps."""
    rng = make_rng(22)
    checks = 0
    # The oracle walks every edge, so each n = 1536 build is checked on its
    # own map and boundary only; each n = 240 build also on 16 corrupted maps
    # and on three more boundaries.
    for shape, corrupted in [(mc_shape(1, 2, (1, 3)), 0), (mc_shape(2, 4, (1, 5)), 0),
                             (matching_shape(), 16)]:
        g, ordering, bip, sizes, chord, params = shape
        for seed in range(25):
            hom = build_homomorphism(g, ordering, bip, sizes, chord, params, seed=seed)
            for f in [hom.f] + corrupted_maps(rng, hom.f, len(sizes), corrupted):
                extra = other_boundaries(rng, g.n) if corrupted else []
                for boundary in [hom.boundary] + extra:
                    for c in chords(chord):
                        for xi in (params.xi, 0.01, 0.5):
                            args = (g, f, boundary, sizes, xi, c)
                            expected = verify_homomorphism_certificate_reference(*args)
                            assert verify_homomorphism_certificate(*args) == expected, args[1:]
                            checks += 1
    assert checks >= 20000, checks


def listed_edges(g):
    """Every edge of g, pair by pair from `has_edge`, as (u, v) with u < v."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


def test_graph_edges_match_oracle():
    """The kept edge tuple is its input edge list, ascending, whatever the input order; built on
    first use.  Generated graphs are listed pair by pair, then rebuilt reversed and shuffled."""
    host = gen_super_regular_host(4, 50, 0.5, seed=3).graph
    target = gen_bandwidth_bipartite_h(400, 3, 10, seed=3).graph
    small = gen_super_regular_host(3, 8, 1.0, seed=0)
    reduced = build_reduced_graph(small.graph, small.partition.classes, 0.4, 0.3, mode="heuristic")
    listed = listed_edges(host)
    inputs = [(0, []), (5, []), (host.n, [(v, u) for u, v in reversed(listed)]),
              (host.n, shuffled(make_rng(5), listed))]
    assert host._edges is None
    built = [(g, listed_edges(g)) for g in (target, reduced)] + [(Graph(n, e), e) for n, e in inputs]
    for g, edges in [(host, listed)] + built:
        assert g._edges is None
        kept = g.edges()
        assert type(kept) is tuple and kept == edges_reference(edges)
        assert g.edges() is kept and g._edges is kept
    assert len(host.edges()) == host.num_edges > 10000 and len(reduced.edges()) > 0
    assert Graph(*inputs[2]).edges() == Graph(*inputs[3]).edges() == host.edges()


def same_graph(g, ref, rng):
    """`Graph` g and `FrozensetGraph` ref agree on every derived view: adjacency, degrees,
    `has_edge` (every pair up to 60 vertices, else every edge and 3000 seeded pairs), edges,
    counts and masks."""
    n = g.n
    assert n == ref.n
    assert all(sorted(g.adj(v)) == sorted(ref.adj(v)) for v in range(n))
    assert [g.degree(v) for v in range(n)] == [ref.degree(v) for v in range(n)]
    if n <= 60:
        pairs = [(u, v) for u in range(n) for v in range(n)]
    else:
        pairs = ref.edges() + [(rand_below(rng, n), rand_below(rng, n)) for _ in range(3000)]
    assert all(g.has_edge(u, v) is ref.has_edge(u, v) for u, v in pairs)
    assert g.edges() == tuple(sorted(ref.edges()))
    assert (g.num_edges, g.max_degree()) == (ref.num_edges, ref.max_degree())
    assert list(g.masks) == ref.masks


def graph_message(build, *args):
    try:
        build(*args)
    except InvalidInputError as exc:
        return str(exc)
    raise AssertionError(f"{build.__qualname__}{args} raised nothing")


def test_graph_matches_frozenset_reference():
    """`Graph` on masks agrees with the frozenset `Graph` it replaced.

    Inputs: seeded random edge lists (n up to 130, densities 0 to 1, each
    edge in a random orientation and the list shuffled) and the output of
    every generator and of `build_reduced_graph` and `induced_subgraph`.
    Equal graphs, built in another edge order, hash equally; graphs one edge
    apart are unequal on both sides.  Malformed edge lists and asymmetric,
    looped or out-of-range neighbour sets raise the same message on both.
    """
    rng = make_rng(41)
    cases = []
    for n in (0, 1, 2, 5, 9, 40, 130):
        for per_mille in (0, 100, 500, 1000):
            edges = [(u, v) if rand_below(rng, 2) else (v, u) for u in range(n)
                     for v in range(u + 1, n) if rand_below(rng, 1000) < per_mille]
            cases.append((Graph(n, shuffled(rng, edges)), FrozensetGraph(n, edges)))
    small = gen_super_regular_host(3, 8, 1.0, seed=0)
    reduced = build_reduced_graph(small.graph, small.partition.classes, 0.4, 0.3, mode="heuristic")
    generated = [gen_cycle_blowup(5, 4), gen_super_regular_host(4, 50, 0.5, seed=3).graph,
                 gen_super_regular_host(2, 14, 0.8, ((0, 1), (0, 1)), seed=1).graph,
                 gen_super_regular_host(3, 10, 1.0, seed=2).graph,
                 gen_extremal_counterexample(20, 6), gen_random_graph(60, 0.3, seed=2),
                 gen_bandwidth_bipartite_h(400, 3, 10, seed=3).graph, reduced,
                 induced_subgraph(small.graph, range(0, 48, 3))[0]]
    cases += [(g, FrozensetGraph(g.n, listed_edges(g))) for g in generated]
    for g, ref in cases:
        same_graph(g, ref, rng)
        edges = list(ref.edges())
        rebuilt = Graph(g.n, shuffled(rng, edges))
        assert rebuilt == g and hash(rebuilt) == hash(g) == hash(g)
        if edges:
            assert (Graph(g.n, edges[1:]) == g) is (FrozensetGraph(g.n, edges[1:]) == ref) is False
    assert FrozensetGraph(3, [(0, 1)]) == FrozensetGraph(3, [(1, 0)])

    malformed = [(3, [(0, 1), (1, 1)]), (3, [(0, 1), (1, 0)]), (3, [(0, 3)]), (3, [(-1, 2)]),
                 (9, [(0, 2), (True, 2)]), (9, [(0, 2), (7, False)]), (9, [(0, 2), (0, 1.0)]),
                 (9, [(1.0, 2)]), (9, [(0, "1")]), (9, [(0, 1, 2)]), (9, [(1,)]), (9, [5]),
                 (9, [None]), (3, [(0, 1), (0, 1), (2, 2)]), (3, [(0, 1), (2, 2), (0, 1)]),
                 (3, 5), (3, None), (3, 2.5), (-1, []), (2.5, []), ("3", []), (True, [])]
    for args in malformed:
        assert graph_message(Graph, *args) == graph_message(FrozensetGraph, *args), args
    bad_sets = [[{1}, set()], [{0}, set()], [set(), {1}], [{1, 2}, {0}, set()],
                [{1}, {0, 2}, {1, 3}, {0}], [{2}, {0}], [set(), {0, 5}, set()],
                [{1, 3}, {0, 3}, set(), {1}], [{1}, {0}, {1, 2}]]
    # One dense and one sparse adjacency, each with edge 5-30 listed at one end only.
    for g in (gen_random_graph(40, 0.7, seed=1),
              gen_bandwidth_bipartite_h(200, 3, 10, seed=1).graph):
        bad_sets.append([set(g.adj(v)) ^ ({30} if v == 5 else set()) for v in range(g.n)])
    for sets in bad_sets:
        assert graph_message(Graph.from_masks, [vertex_mask(s) for s in sets]) == \
            graph_message(FrozensetGraph.from_sets, sets), sets
    good = [{1, 3}, {0, 3}, set(), {0, 1}]
    same_graph(Graph.from_masks(map(vertex_mask, good)), FrozensetGraph.from_sets(good), rng)


def assert_caps_exact(plan, eager):
    """Each integer cap judges every count near it as its Fraction bound does."""
    xi_n = as_fraction(eager.params.xi) * eager.n
    caps = list(plan.load_caps) + [cap for pair in plan.spread_caps for cap in pair]
    bounds = ([size + xi_n for size in plan.sizes]
              + [bound for pair in eager.spread_bounds for bound in pair])
    for cap, bound in zip(caps, bounds, strict=True):
        counts = range(cap - 2, cap + 3)
        assert [x <= cap for x in counts] == [x <= bound for x in counts], (cap, bound)


def sample_both(plan, eager, seed):
    """Both samplers' builds, or the error each raised."""
    out = []
    for sample, arg in [(bandembed.homomorphism._sample, plan), (sample_reference, eager)]:
        try:
            out.append(sample(arg, seed))
        except RetryBudgetError as exc:
            out.append(str(exc))
    return out


def test_sampler_matches_eager_oracle():
    """Per-segment judging returns the eager sampler's build, every attempt included."""
    k2_matching = perfect_matching_graph(240) + (
        [60] * 4, (1, 3), choose_h_parameters(240, 1, 1, 0.25, 2))
    shapes = [mc_shape(1, 2, (1, 3)), mc_shape(2, 4, (1, 5)), matching_shape(), k2_matching]
    retried = 0
    for shape in shapes:
        plan = bandembed.homomorphism._plan(*shape)
        eager = eager_plan(plan, shape)
        assert_caps_exact(plan, eager)
        for seed in range(50):
            fast = bandembed.homomorphism._sample(plan, seed)
            slow = sample_reference(eager, seed)
            assert (fast.f, fast.attempts) == (slow.f, slow.attempts), seed
            assert fast.diagnostics == slow.diagnostics, seed
            assert fast == slow
            retried += fast.attempts > 1
    assert retried > 0

    # A crossing edge inside one A segment is never on the cycle, so both
    # samplers must reject every draw and give up after the same attempts:
    # the library plan gets its side pair (0, 0), the oracle the edge itself.
    shape = mc_shape(1, 2, (1, 3))
    plan = bandembed.homomorphism._plan(*shape)
    u, v = [v for v, side in enumerate(plan.segment_of) if side == 0][:2]
    broken = dataclasses.replace(plan, crossing=plan.crossing + ((0, 0),))
    eager = eager_plan(plan, shape)
    eager.crossing = [*eager.crossing, (u, v)]
    original = bandembed.homomorphism.AttemptDiagnostics
    runs = []
    for module, sample, arg in [(bandembed.homomorphism, bandembed.homomorphism._sample, broken),
                                (oracles, sample_reference, eager)]:
        seen = []

        def recording(*args):
            seen.append(original(*args))
            return seen[-1]

        module.AttemptDiagnostics = recording
        try:
            sample(arg, 1)
        except RetryBudgetError as exc:
            runs.append((str(exc), seen))
        finally:
            module.AttemptDiagnostics = original
    assert len(runs) == 2 and runs[0] == runs[1]
    seen = runs[0][1]
    assert len(seen) == bandembed.homomorphism.MAX_RETRIES
    assert not any(d.valid for d in seen) and not all(d.seek_miss for d in seen)


def test_sampler_caps_match_eager_oracle_across_xi():
    """Loads and spreads judged at integer caps flip where the Fraction bounds do."""
    # At their own xi, the shapes above never draw a load at its cap and
    # always pass both spreads.  Sweeping xi keeps each shape's draws and
    # moves its caps through the counts they reach, so a cap one off from its
    # bound changes some verdict: shape B's load cap from xi = 0.0925, the
    # smallest whose xi*n holds its boundary of 142, and a coarse n = 240
    # shape's spread caps from xi = 0.1, where both spreads fail.
    coarse = gen_bandwidth_bipartite_h(240, 2, 2, seed=1)
    sweeps = [
        (mc_shape(2, 4, (1, 5)), [0.0925 + step / 1000 for step in range(40)]),
        ((coarse.graph, coarse.ordering, coarse.bipartition, [40] * 6, (1, 3),
          choose_h_parameters(240, 2, 2, 0.1, 3)), [0.1 + step / 100 for step in range(80)]),
    ]
    verdicts = set()
    for (h, ordering, bip, sizes, chord, params), xis in sweeps:
        for xi in xis:
            swept = dataclasses.replace(params, xi=xi)
            plan = bandembed.homomorphism._plan(h, ordering, bip, sizes, chord, swept)
            eager = eager_plan(plan, (h, ordering, bip, sizes, chord, swept))
            assert_caps_exact(plan, eager)
            for seed in range(5):
                fast, slow = sample_both(plan, eager, seed)
                assert fast == slow, (xi, seed)
                if not isinstance(fast, str):
                    verdicts.update((d.loads_bounded, d.spread_phase1_ok, d.spread_phase2_ok)
                                    for d in fast.diagnostics)
    assert {(False, True, True), (True, False, False), (True, True, False),
            (True, True, True)} <= verdicts, verdicts


class ScriptedBits:
    """A `getrandbits` stub: returns the scripted values in order and records each width."""

    def __init__(self, values):
        self.values, self.widths = list(values), []

    def getrandbits(self, width):
        self.widths.append(width)
        return self.values.pop(0)


def test_walk_phase_redraws_until_it_homes():
    """A homing miss redraws the phase's start; `draws` misses in a row give None."""
    g, ordering, bip = perfect_matching_graph(240)
    params = HomomorphismParams(m1=4, m2=2, k1=4, k2=1, xi=0.25)
    plan = bandembed.homomorphism._plan(g, ordering, bip, [60] * 4, (1, 3), params)
    walk_phase = bandembed.homomorphism._walk_phase
    # Phase 0 is one block: sober pair 0 at the start s, then a drift segment
    # of pair 1 alone, at s + 1, which must already be on the chord end 0 of
    # k' = 4.  So only s = 3 homes, and a start takes 2 bits.
    assert (plan.kprime, plan.targets[0], plan.phases[0]) == (4, 0, (((0,), (1,)),))
    rng = ScriptedBits([1, 3])
    assert walk_phase(plan, 0, rng, 5) == (3, {0: 3, 1: 0}, [])
    assert rng.widths == [2, 2] and rng.values == []
    rng = ScriptedBits([0, 1, 2] * 2)
    assert walk_phase(plan, 0, rng, 5) is None
    assert rng.widths == [2] * 5 and rng.values == [2]


def lopsided_chop_inputs():
    """Chop inputs (h, ordering, bip, beta, m1, delta) that drive the repair.

    Edgeless targets whose A class is a seeded sample of a lopsided size, at
    delta 1 and 2; each again with edges joining the three lowest ids of A
    to those of B, which repair must skip as not isolated.
    """
    rng = make_rng(5)
    for n in (16, 40, 96):
        for m1 in (2, 4, 8):
            for a_size in (0, 1, n // 8, n // 4, n - n // 4, n - 1, n):
                labels = tuple(shuffled(rng, list(range(n))))
                class_a = set(shuffled(rng, list(range(n)))[:a_size])
                bip = (sorted(class_a), sorted(set(range(n)) - class_a))
                ordering = BandwidthOrdering(labels, n)
                for edges in ([], list(zip(bip[0][:3], bip[1][:3]))):
                    h = Graph(n, edges)
                    for beta in (Fraction(0), Fraction(1, n), Fraction(3, n)):
                        for delta in (1, 2):
                            yield h, ordering, bip, beta, m1, delta


def shape_chop_inputs():
    """The chop each benchmark shape's plan makes, the larger class in the A role:
    pipeline-k4 targets (n=400, b=10, max degree 3, seeds 0-4, k=4 at the
    default xi) and the two hom-mc targets (n=1536, max degree 2, b=1 and 2)."""
    shapes = []
    for seed in range(5):
        target = gen_bandwidth_bipartite_h(400, 3, 10, seed=seed)
        h = target.graph
        params = choose_h_parameters(400, max(1, h.max_degree()), 10, Config().xi, 4)
        shapes.append((h, target.ordering, target.bipartition, params))
    for bandwidth, k, chord in ((1, 2, (1, 3)), (2, 4, (1, 5))):
        h, ordering, bip, _, _, params = mc_shape(bandwidth, k, chord)
        shapes.append((h, ordering, bip, params))
    for h, ordering, bip, params in shapes:
        classes = bip[::-1] if len(bip[0]) < len(bip[1]) else bip
        yield (h, ordering, classes, Fraction(ordering.claimed_bound, h.n), params.m1,
               max(1, h.max_degree()))


def run_chop(chop, args):
    try:
        return chop(*args)
    except DecompositionError as exc:
        return str(exc)


def test_chop_matches_list_reference():
    """The chop that writes one side code per vertex, and repairs by code, gives
    the list-based chop's per-side vertex sets, sizes, boundary and crossing
    edges, or its DecompositionError message."""
    outcomes = set()
    cases = ([(*args, 0) for args in chop_window_grid()]
             + list(lopsided_chop_inputs()) + list(shape_chop_inputs()))
    for args in cases:
        got, want = run_chop(chop_into_segments, args), run_chop(oracles.chop_reference, args)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want, args
            outcomes.add("cannot reach size" if "cannot reach size" in got
                         else got.split(" property")[0])
            continue
        sides = [set() for _ in range(2 * args[4])]
        for v, code in enumerate(got.segment_of):
            sides[code].add(v)
        ref_sides = [set(side) for pair in zip(want.a_segments, want.b_segments) for side in pair]
        assert sides == ref_sides, args
        assert got.sizes == list(map(len, ref_sides)), args
        assert (got.boundary, got.crossing) == (want.boundary, want.crossing), args
        # A repair moves a vertex onto a side of the other color class.
        class_a = set(args[2][0])
        moved = any(code % 2 != (v not in class_a) for v, code in enumerate(got.segment_of))
        outcomes.add("repaired" if moved else "ok")
    assert outcomes == {"ok", "repaired", "cannot reach size", "pair size", "boundary",
                        "interior-edge", "boundary-edge"}, outcomes


def test_graph_masks_match_vertex_mask():
    """The masks, kept from construction on, are `vertex_mask` of the frozenset reference's sets."""
    graphs = [Graph(0, []), Graph(3, []), gen_super_regular_host(4, 50, 0.5, seed=3).graph,
              gen_bandwidth_bipartite_h(400, 3, 10, seed=3).graph, perfect_matching_graph(64)[0]]
    for g in graphs:
        ref = FrozensetGraph(g.n, listed_edges(g))
        assert type(g.masks) is tuple
        assert g.masks == tuple(vertex_mask(ref.adj(v)) for v in range(g.n))


def test_least_blocked_matches_the_unfiltered_count():
    """Phase 1's pick, which skips peer masks holding all candidates or none, is the pick of
    the count over every peer mask.

    Seeded candidate lists over up to 200 hosts, with peer lists that are
    empty, all uniform (0, -1, cands and masks off or around cands), or mixed.
    """
    rng = make_rng(52)
    kinds = set()
    for trial in range(900):
        n = 1 + rand_below(rng, 200)
        cands = shuffled(rng, list(range(n)))[:1 + rand_below(rng, n)]
        fewest = vertex_mask(cands)
        uniform = [0, -1, fewest, rng.getrandbits(n) & ~fewest, rng.getrandbits(n) | fewest]
        peers = []
        for _ in range(rand_below(rng, 30) if trial % 3 else 0):
            mixed = trial % 3 == 2 and rand_below(rng, 2)
            peers.append(rng.getrandbits(n) if mixed else uniform[rand_below(rng, len(uniform))])
        uniform_only = all(m & fewest in (0, fewest) for m in peers)
        kinds.add("empty" if not peers else "uniform" if uniform_only else "mixed")
        assert _least_blocked(fewest, cands, peers) == least_blocked_unfiltered(fewest, cands, peers)
    assert kinds == {"empty", "uniform", "mixed"}


def test_popcount_kernel_matches_lane_kernel():
    """Degree outliers decided by popcounts give the lane kernel's first refuted X and its Y.

    Per pair, eps and budget, the outliers go through both kernels, and the
    whole heuristic verdict is compared with the oracle that decides both
    blocks by lanes and reads flagged slots by shifts.
    """
    found_by = set()
    for seed, (na, nb) in enumerate((na, nb) for na in (127, 128, 300) for nb in (18, 160)):
        g, a, b = slot_boundary_pair(seed, na, nb, planted=seed % 3 != 0)
        a, b = sorted(a), sorted(b)
        a_set, b_set = frozenset(a), frozenset(b)
        nbrs = [g.adj(v) & a_set for v in b]
        b_masks = [g.masks[v] for v in b]
        degs = [len(g.adj(v) & b_set) for v in a]
        by_deg = sorted(range(na), key=degs.__getitem__)
        dens = Fraction(sum(degs), na * nb)
        for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            p_min, q_min = max(1, ceil_frac(eps * na)), max(1, ceil_frac(eps * nb))
            sizes = sorted({p_min, max(p_min, na // 4), max(p_min, na // 2), na})
            outliers = [idx for p in sizes for idx in (by_deg[:p], by_deg[-p:])]
            hi, lo = dens + eps, dens - eps
            bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)
            for budget in (0, 1, 8, 120):
                xs = outliers[:budget]
                assert _first_refuted_by_popcount(b_masks, a, xs, q_min, bounds) == \
                    first_refuted_by_lanes(nbrs, a, xs, _lanes(na, xs), q_min, bounds)
                verdict = check_regular_pair(g, a, b, eps, Fraction(1, 4), mode="heuristic",
                                             budget=budget)
                want = heuristic_verdict_by_lanes(g, a, b, eps, Fraction(1, 4), budget)
                assert (verdict.regular, verdict.witness) == want, (na, nb, eps, budget)
                if verdict.witness is not None:
                    outlier_sets = [frozenset(a[i] for i in x) for x in xs]
                    found_by.add("outlier" if verdict.witness[0] in outlier_sets else "random")
                else:
                    found_by.add("none")
    assert found_by == {"outlier", "random", "none"}


def test_table_kernel_matches_lane_kernel():
    """The random block's byte-table degrees are the lane sums, with the same first refuted X and Y.

    Seeded pairs with |A| on both sides of the 8-index table blocks and of
    the 2-byte slot width (|A| = 128), two pairs with A one run of host ids
    and two with A scattered over the whole id range; random and planted
    edges, several eps and family sizes, so families of both widths refute
    and hold.
    """
    rng = make_rng(40)
    seen = set()
    for na in (1, 7, 8, 9, 15, 16, 17, 127, 128, 129):
        for scattered in (False, True) * 2:
            nb = 1 + rand_below(rng, 60)
            n = na + nb + 10
            if scattered:
                ids = shuffled(rng, list(range(n)))
                a, b = sorted(ids[:na]), sorted(ids[na:na + nb])
            else:
                lo = rand_below(rng, nb + 10)
                a = list(range(lo, lo + na))
                b = sorted(shuffled(rng, [v for v in range(n) if not lo <= v < lo + na])[:nb])
            if na > 1:
                seen.add(("runs", scattered, any(a[i] != a[i - 1] + 1 for i in range(1, na))))
            for planted in (False, True):
                edges = [(u, v) for i, u in enumerate(a) for j, v in enumerate(b)
                         if ((i + j) % 2 == 0 if planted else rand_below(rng, 2))]
                g = Graph(n, edges)
                a_set = frozenset(a)
                nbrs = [g.adj(v) & a_set for v in b]
                b_masks = [g.masks[v] for v in b]
                dens = Fraction(len(edges), na * nb)
                for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
                    p_min, q_min = max(1, ceil_frac(eps * na)), max(1, ceil_frac(eps * nb))
                    hi, lo = dens + eps, dens - eps
                    bounds = (hi.numerator, hi.denominator, lo.numerator, lo.denominator)
                    for count in (1, 40):
                        xs, tables = _random_candidates(na, p_min, count)
                        lanes = _lanes(na, xs)
                        assert _degrees(b_masks, a, tables) == degrees_by_lanes(nbrs, a, lanes)
                        hit = _first_refuted(b_masks, a, xs, tables, q_min, bounds)
                        assert hit == first_refuted_by_lanes(nbrs, a, xs, lanes, q_min, bounds), \
                            (na, scattered, planted, eps, count)
                        seen.add(("refuted", na >= 128, hit is not None))
    assert seen == {("runs", False, False), ("runs", True, True),
                    *(("refuted", wide, hit) for wide in (False, True) for hit in (False, True))}, seen


def exact_kernel_inputs(g, a, b):
    """The exact kernel's B-side neighbour sets, sorted A list and pair density."""
    a, b = sorted(a), sorted(b)
    a_set = frozenset(a)
    nbrs = [g.adj(v) & a_set for v in b]
    return nbrs, a, Fraction(sum(len(nb) for nb in nbrs), len(a) * len(b))


def test_exact_kernel_matches_ladder_reference():
    """The bit-plane exact kernel finds the ladder kernel's least violating X.

    Inputs: 200 random pairs with sides 1-14 and shuffled labels, at every
    p_min in 1..|A| (two q's each); random bounds, some with ceil(p*q*hi)
    above |A|*q or floor(p*q*lo) + 1 at or below 0; and the ten 14x14 pairs
    of the certify-exact benchmark at seed 0, eps 2/5.
    """
    rng = make_rng(37)
    outcomes = set()

    def compare(nbrs, a, p_min, q, hi, lo):
        args = (a, p_min, q, hi.numerator, hi.denominator, lo.numerator, lo.denominator)
        got = _first_violating_x([vertex_mask(nb) for nb in nbrs], *args)
        assert got == first_violating_x_by_ladders(nbrs, *args), (len(a), len(nbrs), p_min, q, hi, lo)
        outcomes.add(got is None)

    for seed in range(200):
        na, nb = 1 + rand_below(rng, 14), 1 + rand_below(rng, 14)
        g = gen_random_graph(na + nb + 2, (1 + rand_below(rng, 9)) / 10, seed=seed)
        labels = shuffled(rng, list(range(g.n)))
        nbrs, a, dens = exact_kernel_inputs(g, labels[:na], labels[na:na + nb])
        for p_min in range(1, na + 1):
            for eps in (Fraction(p_min, na), Fraction(2 * p_min - 1, 2 * na)):
                q = max(1, ceil_frac(eps * nb))
                compare(nbrs, a, p_min, q, dens + eps, dens - eps)
        for _ in range(2):
            p_min, q = 1 + rand_below(rng, na), 1 + rand_below(rng, nb)
            hi = Fraction(rand_below(rng, 41) - 10, 10)  # -1 .. 3: some above 1
            lo = Fraction(rand_below(rng, 31) - 20, 10)  # -2 .. 1: some at or below 0
            compare(nbrs, a, p_min, q, hi, lo)
    for seed in range(10):
        host = gen_super_regular_host(k=2, size=14, d=0.5, seed=seed)
        nbrs, a, dens = exact_kernel_inputs(host.graph, *host.partition.classes[:2])
        eps = Fraction(2, 5)
        compare(nbrs, a, ceil_frac(eps * 14), ceil_frac(eps * 14), dens + eps, dens - eps)
    assert outcomes == {True, False}


def pipeline_calls(name, shapes):
    """The arguments of each call to `bandembed.cli.<name>` in the pipeline
    runs on `shapes`, as (k, size, bandwidth, seed) with Delta 3 and d 0.5."""
    calls = []
    real = getattr(bandembed.cli, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    setattr(bandembed.cli, name, recording)
    try:
        for k, size, bandwidth, seed in shapes:
            run_full_pipeline(gen_super_regular_host(k=k, size=size, d=0.5, seed=seed),
                              gen_bandwidth_bipartite_h(2 * k * size, 3, bandwidth, seed=seed),
                              Config(), seed=seed)
    finally:
        setattr(bandembed.cli, name, real)
    return calls


def embed_outcome(embed, args, kwargs):
    try:
        return embed(*args, **kwargs)
    except EmbeddingNotFoundError as exc:
        return f"EmbeddingNotFoundError: {exc}"


def test_embedder_matches_phase_1_oracle():
    """Narrowed masks place what rebuilding every mask placed, in both phases.

    On the 20 criterion-1 runs and the seed-0 envelope cells that reach the
    embed stage, the library and the oracle return the same map or fail
    with the same error.
    """
    shapes = [(4, 50, 10, seed) for seed in range(20)]
    shapes += [(k, size, b, 0) for k in (3, 4, 5, 6) for size in (40, 50, 64, 100) for b in (5, 10)]
    outcomes = []
    for args, kwargs in pipeline_calls("embed_blowup", shapes):
        got = embed_outcome(embed_blowup, args, kwargs)
        assert got == embed_outcome(embed_blowup_reference, args, kwargs)
        outcomes.append(isinstance(got, list))
    assert len(outcomes) == 29 and outcomes.count(False) == 4


def test_embedder_matches_oracle_on_search_paths():
    """A pair that ends 'stuck' or 'retry' restores the masks it saved.

    On the hand-built inputs that reach every outcome of the restart loop,
    seeds 0-7, the library and the rebuilding oracle return the same map or
    fail with the same error.
    """
    outcomes = []
    for args in search_path_instances().values():
        for seed in range(8):
            got = embed_outcome(embed_blowup, args, {"seed": seed})
            assert got == embed_outcome(embed_blowup_reference, args, {"seed": seed})
            outcomes.append(isinstance(got, list))
    assert True in outcomes and False in outcomes


def test_phase_1_hands_over_to_phase_2():
    """Every criterion-1 run gets past the boundary placement to a pair completion."""

    class PhaseTwo(Exception):
        pass

    def stop(*args):
        raise PhaseTwo

    inputs = [args for args, _ in pipeline_calls("embed_blowup",
                                                 [(4, 50, 10, seed) for seed in range(20)])]
    real_pair = bandembed.embedder._complete_pair
    bandembed.embedder._complete_pair = stop
    try:
        for seed, args in enumerate(inputs):
            try:
                embed_blowup(*args, seed=seed)
            except PhaseTwo:
                pass
            else:
                raise AssertionError("phase 1 never handed over to phase 2")
    finally:
        bandembed.embedder._complete_pair = real_pair


def ascending(mask):
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def test_mask_matching_matches_list_oracle():
    """Hopcroft-Karp on candidate masks gives the list oracle's matching on
    ascending lists: the same dict, in the same item order.

    Inputs: 3000 seeded random cases over sparse right ids, half with a
    density from near-empty to dense and half with one to four candidates
    per vertex and one to four spare rights, where the greedy first phase
    leaves most vertices short and later phases augment through them; the
    2000-vertex augmenting chain, deeper than the recursion limit; and every
    phase-2 call of the 20 criterion-1 runs.
    """
    def compare(masks):
        want = hopcroft_karp_lists([ascending(m) for m in masks],
                                   max((m.bit_length() for m in masks), default=0))
        got = bandembed.matching.hopcroft_karp(masks)
        assert list(got.items()) == list(want.items()), masks
        return got

    rng = make_rng(42)
    seen = set()
    for case in range(3000):
        if case % 2:
            n_left = rand_below(rng, 24)
            n_right = 1 + n_left + rand_below(rng, 4)
        else:
            n_left, n_right = rand_below(rng, 16), 1 + rand_below(rng, 24)
        rights = sorted(shuffled(rng, list(range(3 * n_right)))[:n_right])
        if case % 2:
            deg = 1 + rand_below(rng, 4)
            masks = [vertex_mask(shuffled(rng, rights)[:1 + rand_below(rng, deg)])
                     for _ in range(n_left)]
        else:
            p = 1 + rand_below(rng, 100)
            masks = [vertex_mask(c for c in rights if rand_below(rng, 100) < p)
                     for _ in range(n_left)]
        greedy, free = 0, vertex_mask(rights)
        for m in masks:
            low = m & free
            if low:
                greedy += 1
                free ^= low & -low
        got = compare(masks)
        seen.add(("past the greedy phase", len(got) > greedy))
        seen.add(("short", len(got) < n_left))
    assert seen == {("past the greedy phase", True), ("past the greedy phase", False),
                    ("short", True), ("short", False)}

    n = 2000
    assert len(compare([3 << i for i in range(n - 1)] + [1])) == n

    calls = []
    real = bandembed.embedder.hopcroft_karp

    def recording(masks):
        calls.append(list(masks))
        return real(masks)

    inputs = pipeline_calls("embed_blowup", [(4, 50, 10, seed) for seed in range(20)])
    bandembed.embedder.hopcroft_karp = recording
    try:
        for args, kwargs in inputs:
            embed_blowup(*args, **kwargs)
    finally:
        bandembed.embedder.hopcroft_karp = real
    assert len(calls) == 260
    for masks in calls:
        compare(masks)


def bounded_degree_graph(rng, n, delta):
    """A random graph on n vertices of maximum degree at most delta."""
    edges, degree = set(), [0] * n
    for _ in range(n * delta):
        u, v = rand_below(rng, n), rand_below(rng, n)
        if u != v and degree[u] < delta and degree[v] < delta and (v, u) not in edges:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return Graph(n, sorted(edges))


def test_boundary_matches_per_class_reference():
    """S and T, intersected with each class, are the per-class sets, and the
    offending classes are those the per-class sets gave.

    Inputs: 400 random graphs of maximum degree 1-4 on 2-60 vertices, each
    with a random map onto 2k classes (k = 1-4), random sizes 0-30 and a
    random eps in [0, 1]; and the 20 (H, f, sizes, eps) of criterion 1.
    """
    rng = make_rng(38)
    inputs = []
    for _ in range(400):
        n, two_k = 2 + rand_below(rng, 59), 2 * (1 + rand_below(rng, 4))
        h = bounded_degree_graph(rng, n, 1 + rand_below(rng, 4))
        f = [rand_below(rng, two_k) for _ in range(n)]
        sizes = [rand_below(rng, 31) for _ in range(two_k)]
        inputs.append((h, f, sizes, Fraction(rand_below(rng, 21), 20)))
    criterion_1 = pipeline_calls("check_compatibility", [(4, 50, 10, seed) for seed in range(20)])
    assert len(criterion_1) == 20
    inputs += [args for args, _ in criterion_1]
    outcomes = set()
    for h, f, sizes, eps in inputs:
        s, t = _boundary(h, f)
        classes = [{v for v in range(h.n) if f[v] == i} for i in range(len(sizes))]
        assert ([s & w for w in classes], [t & w for w in classes]) == boundary_reference(
            h, f, len(sizes))
        offending = check_compatibility(h, f, sizes, eps)
        assert offending == offending_classes_reference(h, f, sizes, eps)
        outcomes.add(bool(offending))
    assert outcomes == {True, False}


def test_generators_match_reference():
    """`gen_super_regular_host` and `gen_random_graph` give the reference's
    graphs, adjacency iteration order and partitions.

    Hosts: k = 2-4, sizes 4, 14 and 50, d in {0.001, 0.5, 0.8, 1}, default
    and explicit chords, seeds 0-3 (0-1 at size 50).  Below d = 1 the
    reference shuffles once per top-up after 100 rounds and once per vertex
    in the final sweep; the library sweeps only up to the last vertex short
    when the sweep starts.  The shuffle counts show that the grid reaches a
    sweep with a short vertex, one with none, and a top-up after 100 rounds.
    """
    def adjacency(g):
        return g.n, [list(g.adj(v)) for v in range(g.n)]

    modules = (bandembed.hostgen, oracles)
    counts = {}

    def counted(module):
        def counting(rng, items):
            counts[module] += 1
            return shuffled(rng, items)
        return counting

    for module in modules:
        module.shuffled = counted(module)
    explicit = {2: ((0, 1), (0, 1)), 3: ((0, 1), (1, 2)), 4: ((1, 3), (0, 2))}
    seen = set()
    try:
        for k in (2, 3, 4):
            for size in (4, 14, 50):
                for d in (0.001, 0.5, 0.8, 1.0):
                    for chords in (None, explicit[k]):
                        for seed in range(2 if size == 50 else 4):
                            counts.update(dict.fromkeys(modules, 0))
                            got = gen_super_regular_host(k, size, d, chords, seed)
                            want = gen_super_regular_host_reference(k, size, d, chords, seed)
                            assert adjacency(got.graph) == adjacency(want.graph)
                            assert got.partition.to_json() == want.partition.to_json()
                            if d < 1:
                                rounds = counts[oracles] - 2 * k * size
                                seen.add(("sweep shuffles", counts[bandembed.hostgen] > rounds))
                                seen.add(("top-up after 100 rounds", rounds > 0))
    finally:
        for module in modules:
            module.shuffled = shuffled
    assert seen == {(case, flag) for case in ("sweep shuffles", "top-up after 100 rounds")
                    for flag in (True, False)}
    for n in (0, 1, 2, 7, 30, 90):
        for p in (0.0, 0.05, Fraction(3, 8), 0.5, 0.9, 1.0):
            for seed in (0, 5):
                assert adjacency(gen_random_graph(n, p, seed)) == \
                    adjacency(gen_random_graph_reference(n, p, seed))
