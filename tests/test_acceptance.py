"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not deferred:
  1. end-to-end over 20 fixed seeds, at least 18 certified successes, every
     run under 120 s wall clock;
  2. exhaustive expansion verdicts under 60 s each;
  3. zero walk-contract violations over 500 seeded instances (n <= 18);
  4. zero redistribution violations over 200 random target vectors;
  5. exact residue oracle within 3 sigma of 1e5 Monte Carlo trials, and the
     residue bound (1 + xi/20)/k' as an exact inequality at xi = 0.2;
  6. first-try spread-pass fraction >= 0.30 over 1000 seeded builds (the
     asymptotic analysis gives 1/3; 0.30 allows desk-scale slack), retries
     never beyond 50, every certificate independently re-verified;
  7. negative controls refuted with verifying witnesses;
  8. zero counterexamples to the degree-sum-implies-degree-sequence
     implication over 500 random graphs and three gammas.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

from bandembed.cli import run_full_pipeline
from bandembed.conditions import (
    check_degree_sequence_condition,
    check_ore_condition,
    check_robust_expander,
    verify_expander_witness,
)
from bandembed.graph import Graph, degree_sequence
from bandembed.homomorphism import (
    balance_trial_stats,
    binomial_mod_distribution,
    choose_h_parameters,
    drunken_assign,
)
from bandembed.hostgen import (
    gen_bandwidth_bipartite_h,
    gen_cycle_blowup,
    gen_extremal_counterexample,
    gen_random_graph,
    gen_super_regular_host,
)
from bandembed.matching import has_perfect_matching_small
from bandembed.partition import Config
from bandembed.regularity import check_regular_pair, perturbation_bound
from bandembed.rng import as_fraction, derive_seed, make_rng, rand_range
from bandembed.walks import (
    Matching,
    find_closed_shifted_walk,
    purify_walk,
    simplify_walk,
    validate_shifted_walk,
)

from conftest import strip_seconds, two_cliques


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# sha256 over the seed 0-19 reports of criterion 1, "seconds" keys stripped:
# seeded pipeline output is pinned bit for bit.
PIPELINE_DIGEST = "268994899f6d628893fdc57911b1ec973f42e023e348d19cbefa3e858d54059c"


def test_criterion_1_end_to_end_embedding():
    cfg = Config()
    successes = 0
    worst = 0.0
    certified_failures = []
    digest = hashlib.sha256()
    for seed in range(20):
        host = gen_super_regular_host(k=4, size=50, d=0.5, seed=seed)
        target = gen_bandwidth_bipartite_h(400, 3, 10, seed=seed)
        t0 = time.perf_counter()
        rep = run_full_pipeline(host, target, cfg, seed=seed)
        elapsed = time.perf_counter() - t0
        output = json.dumps(strip_seconds(rep.to_json()), sort_keys=True, default=str)
        digest.update(output.encode())
        worst = max(worst, elapsed)
        assert elapsed < 120.0, f"seed {seed} took {elapsed:.1f}s"
        if rep.ok:
            stage_names = {s.name: s for s in rep.stages}
            assert stage_names["verify-partition"].detail["all_ok"]
            assert stage_names["homomorphism"].detail["certificate_recheck"]["all_ok"]
            assert stage_names["compatibility"].detail["all_ok"]
            assert stage_names["verify-embedding"].ok
            successes += 1
        else:
            # Failures are certified: a named stage, no embedding claimed.
            assert rep.failed_stage is not None
            assert rep.embedding is None
            certified_failures.append((seed, rep.failed_stage))
    report(
        "1 end-to-end embedding",
        successes >= 18,
        f"{successes}/20 succeeded, worst run {worst:.1f}s, "
        f"certified failures: {certified_failures}",
    )
    assert digest.hexdigest() == PIPELINE_DIGEST


def test_criterion_2_expander_exactness():
    t0 = time.perf_counter()
    blowup = gen_cycle_blowup(5, 3)
    verdict = check_robust_expander(blowup, 0.05, 0.21)
    t_blowup = time.perf_counter() - t0
    ok = verdict.holds and verdict.mode == "exact" and t_blowup < 60.0

    t0 = time.perf_counter()
    cliques = two_cliques(7)
    refute = check_robust_expander(cliques, 0.1, 0.3)
    t_cliques = time.perf_counter() - t0
    ok = (
        ok
        and not refute.holds
        and verify_expander_witness(cliques, refute)
        and t_cliques < 60.0
    )
    report(
        "2 expander exactness",
        ok,
        f"blow-up {t_blowup:.2f}s holds, cliques {t_cliques:.2f}s refuted",
    )


def planted_instance(seed: int):
    sizes = [8] * 250 + [10] * 150 + [12] * 70 + [14] * 25 + [16] * 5
    n = sizes[seed]
    g0 = gen_random_graph(n, 0.8, seed=derive_seed(424242, seed))
    edges = set(g0.edges())
    for i in range(0, n, 2):
        edges.add((i, i + 1))
    g = Graph(n, sorted(edges))
    return g, Matching([(i, i + 1) for i in range(0, n, 2)])


def test_criterion_3_shifted_walk_contract():
    nu, tau = 0.15, 0.3
    length_cap = as_fraction(3) / as_fraction(nu)
    verified = 0
    violations = 0
    for seed in range(500):
        g, m = planted_instance(seed)
        if not check_robust_expander(g, nu, tau).holds:
            continue
        verified += 1
        for a in (0, g.n // 2):
            walk = find_closed_shifted_walk(g, m, a, nu)
            try:
                validate_shifted_walk(g, m, walk.vertices)
                assert Fraction(walk.length) <= length_cap
                simple = simplify_walk(g, m, walk)
                validate_shifted_walk(g, m, simple.vertices)
                uses = {}
                seq = simple.vertices
                for i in range(1, len(seq) // 2):
                    key = tuple(sorted((seq[2 * i - 1], seq[2 * i])))
                    uses[key] = uses.get(key, 0) + 1
                assert all(c <= 2 for c in uses.values())
                pure = purify_walk(m, {a}, simple)
                validate_shifted_walk(g, m, pure.vertices)
                assert pure.endpoints == (a, a)
                assert a not in set(pure.vertices[1:-1])
            except AssertionError:
                violations += 1
    report(
        "3 shifted-walk contract",
        violations == 0 and verified >= 300,
        f"{verified}/500 instances exactly verified, {violations} violations",
    )


def test_criterion_4_mobility_exactness():
    cfg = Config()
    host = gen_super_regular_host(k=4, size=50, d=0.5, seed=42)
    from bandembed.partition import prepare_host_partition, redistribute_to_sizes

    prep = prepare_host_partition(host.graph, host.partition, cfg, seed=42)
    part = prep.partition
    reduced = prep.reduced
    g = host.graph
    k = part.k
    xi_n = as_fraction(cfg.xi) * g.n
    churn_bound = 5 * k * xi_n
    rng = make_rng(4242)
    violations = 0
    for trial in range(200):
        a_t = [rand_range(rng, -5, 5) for _ in range(k)]
        b_t = [rand_range(rng, -5, 5) for _ in range(k - 1)]
        b_t.append(-(sum(a_t) + sum(b_t)))
        if abs(b_t[-1]) >= xi_n or abs(sum(a_t)) > xi_n:
            continue
        out, ledger = redistribute_to_sizes(g, part, reduced, a_t, b_t, cfg)
        sizes = out.sizes()
        base = part.sizes()
        for i in range(k):
            if sizes[2 * i] != base[2 * i] + a_t[i]:
                violations += 1
            if sizes[2 * i + 1] != base[2 * i + 1] + b_t[i]:
                violations += 1
        if any(Fraction(c) > churn_bound for c in ledger.churn):
            violations += 1
        for move in ledger.all_moves():
            if move.witness_count < move.threshold:
                violations += 1
        # Consecutive pairs re-pass regularity at the perturbed parameters.
        for i in range(k):
            pairs = [
                (out.a_class(i), out.b_class(i), 2 * i, 2 * i + 1),
                (out.b_class(i), out.a_class((i + 1) % k), 2 * i + 1, (2 * i + 2) % (2 * k)),
            ]
            for x_cls, y_cls, xi_idx, yi_idx in pairs:
                alpha = ledger.churn[xi_idx] / base[xi_idx]
                beta = ledger.churn[yi_idx] / base[yi_idx]
                pert = perturbation_bound(cfg.eps, cfg.d, min(1, alpha), min(1, beta))
                verdict = check_regular_pair(
                    g, x_cls, y_cls, pert.eps, pert.d,
                    mode="heuristic", budget=24, seed=trial,
                )
                if not verdict.regular:
                    violations += 1
    report("4 mobility exactness", violations == 0, "200 target vectors, zero violations")


def test_criterion_5_drift_distribution_oracle():
    kprime, xi = 8, 0.2
    coins = 128
    dist = binomial_mod_distribution(coins, Fraction(1, 2), kprime)
    bound = (1 + as_fraction(xi) / 20) / kprime
    exact_ok = max(dist) <= bound

    trials = 100_000
    rng = make_rng(31337)
    pairs = list(range(coins + 1))  # first pair consumes no coin
    counts = [0] * kprime
    for _ in range(trials):
        _, final, _ = drunken_assign(pairs, 0, kprime, rng)
        counts[final] += 1
    mc_ok = True
    for r in range(kprime):
        p = float(dist[r])
        sigma = math.sqrt(p * (1 - p) / trials)
        if abs(counts[r] / trials - p) > 3 * sigma:
            mc_ok = False
    report(
        "5 drift-distribution oracle",
        exact_ok and mc_ok,
        f"max residue {float(max(dist)):.6f} <= {float(bound):.6f}, "
        f"{trials} trials within 3 sigma",
    )


def test_criterion_6_homomorphism_balance():
    n, k = 1536, 2
    target = gen_bandwidth_bipartite_h(n, 2, 1, seed=2024)
    sizes = [n // 4] * 4
    params = choose_h_parameters(n, 2, 1, 0.1, k)
    stats = balance_trial_stats(
        target.graph, target.ordering, target.bipartition, sizes, (1, 3),
        params, root_seed=616, runs=1000,
    )
    ok = (
        stats["successes"] == 1000
        and stats["first_try_fraction"] >= 0.30
        and stats["max_attempts"] <= 50
        and stats["recheck_failures"] == 0
    )
    report(
        "6 homomorphism balance",
        ok,
        f"first-try fraction {stats['first_try_fraction']:.3f}, "
        f"max retries {stats['max_attempts']}, recheck failures "
        f"{stats['recheck_failures']}",
    )


def test_criterion_7_negative_controls():
    extremal = gen_extremal_counterexample(10, 4)
    no_pm = not has_perfect_matching_small(extremal)
    degseq_fails = not check_degree_sequence_condition(
        degree_sequence(extremal), 0.1
    ).holds

    clique_iso = Graph(10, [(u, v) for u in range(9) for v in range(u + 1, 9)])
    ore = check_ore_condition(clique_iso, 0.1)
    ore_fails = not ore.holds and 9 in ore.witness

    report(
        "7 negative controls",
        no_pm and degseq_fails and ore_fails,
        "no perfect matching, degree-sequence refuted, degree-sum refuted "
        "with the isolated vertex in the witness",
    )


def test_criterion_8_degree_sum_implies_degree_sequence():
    rng = make_rng(888)
    counterexamples = 0
    checked_nonvacuous = 0
    for trial in range(500):
        n = rand_range(rng, 8, 60)
        p = (0.5, 0.7, 0.85, 0.95)[trial % 4]
        g = gen_random_graph(n, p, seed=derive_seed(99, trial))
        d = degree_sequence(g)
        for gamma in (0.05, 0.1, 0.2):
            if check_ore_condition(g, 2 * gamma).holds:
                checked_nonvacuous += 1
                if not check_degree_sequence_condition(d, gamma).holds:
                    counterexamples += 1
    report(
        "8 degree-sum implies degree-sequence",
        counterexamples == 0 and checked_nonvacuous >= 100,
        f"{checked_nonvacuous} non-vacuous cases, {counterexamples} counterexamples",
    )
