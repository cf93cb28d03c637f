"""Command-line entry point and the end-to-end pipeline orchestrator.

Exit codes: 0 success, 2 certified failure (an honest negative verdict or a
search that exhausted its budget), 1 input or internal error, command-line
usage errors included.  Every run is replayable: reports carry the seeds,
and fixed seeds reproduce identical stage outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .conditions import (
    EXACT_EXPANDER_CAP,
    check_degree_sequence_condition,
    check_ore_condition,
    check_robust_expander,
)
from .embedder import (
    check_compatibility,
    embed_blowup,
    embedding_respects_partition,
    verify_embedding,
)
from .errors import BandembedError, InvalidInputError, ParameterError
from .graph import (
    BandwidthOrdering,
    Graph,
    _is_int,
    _is_int_list,
    degree_sequence,
    graph_from_json,
    graph_to_json,
)
from .homomorphism import (
    balance_trial_stats,
    build_homomorphism,
    choose_h_parameters,
    verify_homomorphism_certificate,
)
from .hostgen import (
    HostBundle,
    TargetBundle,
    gen_bandwidth_bipartite_h,
    gen_cycle_blowup,
    gen_extremal_counterexample,
    gen_random_graph,
    gen_super_regular_host,
)
from .partition import (
    ClusterPartition,
    Config,
    load_config,
    prepare_host_partition,
    redistribute_to_sizes,
    verify_partition_structure,
)
from .regularity import build_reduced_graph, check_regular_pair, check_super_regular_pair
from .rng import as_fraction
from .walks import Matching, find_closed_shifted_walk

__all__ = ["main", "run_full_pipeline", "PipelineReport", "StageResult"]


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------


@dataclass
class StageResult:
    name: str
    ok: bool
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "seconds": round(self.seconds, 4),
            "detail": self.detail,
        }


@dataclass
class PipelineReport:
    ok: bool
    failed_stage: str | None
    stages: list[StageResult]
    seed: int
    config: dict
    embedding: list[int] | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failed_stage": self.failed_stage,
            "seed": self.seed,
            "config": self.config,
            "stages": [s.to_json() for s in self.stages],
            "embedding": self.embedding,
        }


class _StageFailed(Exception):
    """Ends a pipeline run after its failing stage has been recorded."""


def run_full_pipeline(
    host: HostBundle,
    target: TargetBundle,
    cfg: Config,
    seed: int = 0,
) -> PipelineReport:
    """Host preparation, homomorphism, redistribution, compatibility, embedding.

    The cluster loads of the homomorphism feed back as the demanded sizes of
    the redistribution stage, and the final gate is an unconditional
    re-verification of the embedding.  The first failing stage aborts the
    run with its identity; certified failure is a legitimate outcome.
    """
    report = PipelineReport(False, None, [], seed, cfg.to_json())

    @contextmanager
    def stage(name: str):
        """Time and record one stage; an exception or ok=False ends the run there."""
        result = StageResult(name, True, 0.0)
        t0 = time.perf_counter()
        try:
            yield result
        except Exception as exc:
            result.ok, result.detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        result.seconds = time.perf_counter() - t0
        report.stages.append(result)
        if not result.ok:
            report.failed_stage = name
            raise _StageFailed

    g, h = host.graph, target.graph
    try:
        if g.n != h.n:
            with stage("validate"):
                raise InvalidInputError(f"host has {g.n} vertices but the target has {h.n}")

        # Stage 1: host-side partition baseline.
        with stage("host-partition") as st:
            prep = prepare_host_partition(g, host.partition, cfg, seed=seed)
            # The walk search runs at nu/4 in the reduced graph; certify that
            # level exactly while the reduced graph is small.
            sub = prep.reduced.as_graph()
            expander_verdict = (
                check_robust_expander(sub, cfg.nu / 4, cfg.tau, mode="exact")
                if sub.n <= EXACT_EXPANDER_CAP else None
            )
            st.detail = {
                "k": prep.k,
                "baseline_sizes": prep.baseline_sizes,
                "a_chord": list(prep.partition.a_chord),
                "b_chord": list(prep.partition.b_chord),
                "balance_steps": prep.balance_ledger.step_count,
                "reduced_expander": expander_verdict.to_json() if expander_verdict else None,
            }

        # Stage 2: homomorphism guided by the baseline sizes and the B-side chord.
        with stage("homomorphism") as st:
            i2, j2 = prep.partition.b_chord
            chord = (2 * i2 + 1, 2 * j2 + 1)
            params = choose_h_parameters(
                h.n, max(1, h.max_degree()), target.ordering.claimed_bound, cfg.xi, prep.k
            )
            hom = build_homomorphism(
                h, target.ordering, target.bipartition, prep.baseline_sizes,
                chord, params, seed=seed,
            )
            recheck = verify_homomorphism_certificate(
                h, hom.f, hom.boundary, prep.baseline_sizes, cfg.xi, chord
            )
            if not recheck["all_ok"]:
                raise BandembedError(f"independent certificate recheck failed: {recheck}")
            demanded = hom.loads()
            st.detail = {
                "attempts": hom.attempts,
                "kprime": hom.kprime,
                "chord": list(chord),
                "boundary_size": len(hom.boundary),
                "loads": demanded,
                "params": {"m1": params.m1, "m2": params.m2, "k1": params.k1, "k2": params.k2},
                "certificate_recheck": {
                    key: val for key, val in recheck.items() if key != "loads"
                },
            }

        # Stage 3: redistribute to the demanded sizes.
        with stage("redistribute") as st:
            a_t, b_t = _pair_targets(demanded, prep.baseline_sizes)
            final, ledger = redistribute_to_sizes(g, prep.partition, prep.reduced, a_t, b_t, cfg)
            st.detail = {
                "a_targets": a_t,
                "b_targets": b_t,
                "mirrored": ledger.mirrored,
                "churn": ledger.churn,
                "moves": len(ledger.all_moves()),
            }

        # Stage 4: final structural certification.
        with stage("verify-partition") as st:
            structure = verify_partition_structure(g, final, demanded, cfg, seed=seed)
            if not structure.all_ok():
                raise BandembedError("final partition failed structural certification")
            st.detail = structure.to_json()

        # Stage 5: compatibility of the preimage partition with the host partition.
        with stage("compatibility") as st:
            w_classes, rprime = _pull_back(hom.f, prep.k)
            compat = check_compatibility(
                h, w_classes, g, final.classes, final.skeleton(), rprime, cfg.eps
            )
            if not compat.all_ok():
                raise BandembedError(f"compatibility failed: {compat.to_json()}")
            st.detail = compat.to_json()

        # Stage 6: the embedding itself.
        with stage("embed"):
            emb = embed_blowup(h, w_classes, g, final.classes, rprime, seed=seed)

        # Stage 7: unconditional final gate.
        with stage("verify-embedding") as st:
            valid = verify_embedding(h, g, emb.phi)
            respects = embedding_respects_partition(emb.phi, w_classes, final.classes)
            st.ok = valid and respects
            st.detail = {"edge_preserving_injection": valid, "respects_partition": respects}
    except _StageFailed:
        return report

    report.ok = True
    report.embedding = list(emb.phi)
    return report


def _pull_back(f: list[int], k: int) -> tuple[list[list[int]], set[tuple[int, int]]]:
    """The target classes W_i = f^-1(i), and the cluster pairs (2i, 2i+1) they embed along."""
    w_classes: list[list[int]] = [[] for _ in range(2 * k)]
    for v, c in enumerate(f):
        w_classes[c].append(v)
    return w_classes, {(2 * i, 2 * i + 1) for i in range(k)}


def _pair_targets(demanded: list[int], baseline: list[int]) -> tuple[list[int], list[int]]:
    """Per-pair size changes, A sides then B sides, that turn `baseline` into `demanded`."""
    diff = [want - have for want, have in zip(demanded, baseline)]
    return diff[0::2], diff[1::2]


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None


def _load_json(path: str) -> dict:
    """The JSON object in the file at `path`; every file the CLI reads holds one."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"{path} does not hold a JSON object")
    return data


def _emit(data: dict, args) -> None:
    text = json.dumps(data, indent=2, default=str)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_cfg(args) -> Config:
    if getattr(args, "config", None):
        return load_config(_read_text(args.config))
    return Config()


def _load_ints(path: str, key: str) -> list[int]:
    """The list of integers under `key` in the JSON file at `path`."""
    data = _load_json(path)
    if key not in data:
        raise InvalidInputError(f"{path} has no \"{key}\" key")
    if not _is_int_list(data[key]):
        raise InvalidInputError(f"{path}: \"{key}\" must be a list of integers")
    return data[key]


def _from_json(load, data, where: str):
    """`load(data)`, its input errors naming `where`, the file `data` was read from."""
    try:
        return load(data)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{where}: {exc}") from None


def _load_graph(path: str) -> Graph:
    return _from_json(graph_from_json, _load_json(path), path)


def _load_partition(data, where: str, n: int) -> ClusterPartition:
    """Partition JSON read from `where`, with every vertex in a graph on n vertices."""
    partition = _from_json(ClusterPartition.from_json, data, where)
    if not all(0 <= v < n for v in partition.covered()):
        raise InvalidInputError(f"{where}: a class vertex lies outside [0,{n})")
    return partition


def _load_host_bundle(path: str, partition_path: str | None = None) -> HostBundle:
    data = _load_json(path)
    graph = _from_json(graph_from_json, data["graph"] if "graph" in data else data, path)
    if partition_path:
        partition = _load_partition(_load_json(partition_path), partition_path, graph.n)
    elif "partition" in data:
        partition = _load_partition(data["partition"], path, graph.n)
    else:
        raise InvalidInputError(f"{path} has no partition; pass one with --partition")
    return HostBundle(graph, partition)


def _load_target_bundle(path: str) -> TargetBundle:
    data = _load_json(path)
    for key in ("graph", "ordering", "bipartition"):
        if key not in data:
            raise InvalidInputError(f"{path} has no \"{key}\" key")
    ordering, bip = data["ordering"], data["bipartition"]
    if not (isinstance(ordering, dict) and _is_int_list(ordering.get("labels"))
            and _is_int(ordering.get("bound"))):
        raise InvalidInputError(f"{path}: \"ordering\" needs integer \"labels\" and \"bound\"")
    if not (isinstance(bip, list) and len(bip) == 2 and all(map(_is_int_list, bip))):
        raise InvalidInputError(f"{path}: \"bipartition\" must be two lists of integers")
    ordering = BandwidthOrdering(tuple(ordering["labels"]), ordering["bound"])
    graph = _from_json(graph_from_json, data["graph"], path)
    return TargetBundle(graph, ordering, (bip[0], bip[1]))


def _int_list(text: str, count: int, option: str) -> list[int]:
    """The `count` comma-separated integers given to a command-line option."""
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise InvalidInputError(f"{option} needs {count} comma-separated integers, got {text!r}")
    return vals


def _cmd_gen_host(args) -> int:
    if args.kind == "super-regular":
        chords = None
        if args.chords:
            vals = _int_list(args.chords, 4, "--chords")
            chords = ((vals[0], vals[1]), (vals[2], vals[3]))
        bundle = gen_super_regular_host(args.k, args.size, args.density, chords, args.seed)
        _emit(bundle.to_json(), args)
    elif args.kind == "cycle-blowup":
        graph = gen_cycle_blowup(args.classes, args.size, args.seed)
        _emit({"graph": graph_to_json(graph)}, args)
    elif args.kind == "extremal":
        graph = gen_extremal_counterexample(args.n, args.m)
        _emit({"graph": graph_to_json(graph)}, args)
    else:
        graph = gen_random_graph(args.n, args.p, args.seed)
        _emit({"graph": graph_to_json(graph)}, args)
    return 0


def _cmd_gen_h(args) -> int:
    bundle = gen_bandwidth_bipartite_h(args.n, args.delta, args.bandwidth, args.seed)
    _emit(bundle.to_json(), args)
    return 0


def _cmd_check_expander(args) -> int:
    g = _load_graph(args.graph)
    verdict = check_robust_expander(
        g, args.nu, args.tau, mode=args.mode, seed=args.seed, trials=args.trials
    )
    _emit(verdict.to_json(), args)
    return 0 if verdict.holds else 2


def _cmd_check_degseq(args) -> int:
    g = _load_graph(args.graph)
    verdict = check_degree_sequence_condition(degree_sequence(g), args.gamma)
    out = verdict.to_json()
    out["params"] = {"gamma": args.gamma}
    _emit(out, args)
    return 0 if verdict.holds else 2


def _cmd_check_ore(args) -> int:
    g = _load_graph(args.graph)
    verdict = check_ore_condition(g, args.gamma)
    out = verdict.to_json()
    out["params"] = {"gamma": args.gamma}
    _emit(out, args)
    return 0 if verdict.holds else 2


def _cmd_check_pair(args) -> int:
    g = _load_graph(args.graph)
    classes = _load_partition(_load_json(args.partition), args.partition, g.n).classes
    for option, index in (("--a", args.a), ("--b", args.b)):
        if not 0 <= index < len(classes):
            raise InvalidInputError(f"{option} {index} is not a class index of {args.partition}")
    a_cls, b_cls = classes[args.a], classes[args.b]
    checker = check_super_regular_pair if args.super else check_regular_pair
    verdict = checker(
        g, a_cls, b_cls, args.eps, args.density,
        mode=args.mode, budget=args.budget, seed=args.seed,
    )
    _emit(verdict.to_json(), args)
    return 0 if verdict.regular else 2


def _cmd_build_reduced(args) -> int:
    g = _load_graph(args.graph)
    reduced = build_reduced_graph(
        g, _load_partition(_load_json(args.partition), args.partition, g.n).classes,
        args.eps, args.density,
        mode=args.mode, budget=args.budget, seed=args.seed,
    )
    _emit({
        "clusters": [sorted(c) for c in reduced.clusters],
        "edges": sorted(list(e) for e in reduced.edges),
        "params": {"eps": str(reduced.eps), "d": str(reduced.d)},
    }, args)
    return 0


def _cmd_find_walk(args) -> int:
    g = _load_graph(args.graph)
    matching = _from_json(Matching.from_json, _load_json(args.matching), args.matching)
    walk = find_closed_shifted_walk(g, matching, args.start, args.nu)
    _emit({"walk": list(walk.vertices), "length": walk.length}, args)
    return 0


def _cmd_lemma_g(args) -> int:
    bundle = _load_host_bundle(args.host, args.partition)
    cfg = _load_cfg(args)
    demanded = _load_ints(args.demand, "sizes") if args.demand else None
    g = bundle.graph
    rep = prepare_host_partition(g, bundle.partition, cfg, seed=args.seed)
    final = rep.partition
    if demanded is not None:
        baseline, n = rep.baseline_sizes, g.n
        if len(demanded) != 2 * rep.k or sum(demanded) != n:
            raise ParameterError("demanded sizes must partition n over 2k classes")
        xi_n = as_fraction(cfg.xi) * n
        for idx, (want, have) in enumerate(zip(demanded, baseline)):
            if want > have + xi_n:
                raise ParameterError(
                    f"demanded size {want} exceeds {have} + xi*n at class {idx}"
                )
        a_t, b_t = _pair_targets(demanded, baseline)
        final, _ = redistribute_to_sizes(g, final, rep.reduced, a_t, b_t, cfg)
    structure = verify_partition_structure(g, final, demanded, cfg, seed=args.seed)
    _emit({
        "k": rep.k,
        "baseline_sizes": rep.baseline_sizes,
        "a_chord": list(final.a_chord),
        "b_chord": list(final.b_chord),
        "partition": final.to_json(),
        "structure": structure.to_json(),
        "balance_steps": rep.balance_ledger.step_count,
    }, args)
    return 0 if structure.all_ok() else 2


def _cmd_build_hom(args) -> int:
    target = _load_target_bundle(args.h)
    sizes = _load_ints(args.sizes, "sizes")
    chord = tuple(_int_list(args.chord, 2, "--chord"))
    cfg = _load_cfg(args)
    k = len(sizes) // 2
    params = choose_h_parameters(
        target.graph.n, max(1, target.graph.max_degree()),
        target.ordering.claimed_bound, cfg.xi, k,
    )
    hom = build_homomorphism(
        target.graph, target.ordering, target.bipartition, sizes, chord, params,
        seed=args.seed,
    )
    out = hom.to_json()
    out["certificate_recheck"] = verify_homomorphism_certificate(
        target.graph, hom.f, hom.boundary, sizes, cfg.xi, chord
    )
    if args.coins:
        out["coin_logs"] = [d.coin_logs for d in hom.diagnostics]
    _emit(out, args)
    return 0


def _cmd_embed(args) -> int:
    host = _load_host_bundle(args.host)
    target = _load_target_bundle(args.h)
    f = _load_ints(args.hom, "f")
    k = len(host.partition.classes) // 2
    if len(f) != target.graph.n or not all(0 <= c < 2 * k for c in f):
        raise InvalidInputError(f"{args.hom}: \"f\" must send all {target.graph.n} target "
                                f"vertices to classes 0..{2 * k - 1}")
    w_classes, rprime = _pull_back(f, k)
    emb = embed_blowup(
        target.graph, w_classes, host.graph, host.partition.classes, rprime,
        seed=args.seed,
    )
    valid = verify_embedding(target.graph, host.graph, emb.phi)
    _emit({"phi": emb.phi, "verified": valid}, args)
    return 0 if valid else 2


def _cmd_pipeline(args) -> int:
    host = _load_host_bundle(args.host)
    target = _load_target_bundle(args.h)
    cfg = _load_cfg(args)
    report = run_full_pipeline(host, target, cfg, seed=args.seed)
    _emit(report.to_json(), args)
    return 0 if report.ok else 2


def _cmd_montecarlo_balance(args) -> int:
    target = gen_bandwidth_bipartite_h(args.n, args.delta, args.bandwidth, args.seed)
    k = args.k
    sizes = [args.n // (2 * k)] * (2 * k)
    sizes[-1] += args.n - sum(sizes)
    chord = (1, 2 * k - 1) if k == 2 else (1, 5)
    cfg = _load_cfg(args)
    params = choose_h_parameters(args.n, args.delta, args.bandwidth, cfg.xi, k)
    stats = balance_trial_stats(
        target.graph, target.ordering, target.bipartition, sizes, chord, params,
        root_seed=args.seed, runs=args.runs,
    )
    _emit(stats, args)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--json-out", help="write the JSON result here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors; exit 2 means certified failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bandembed",
        description="certify host structure and embed bounded-degree, "
                    "small-bandwidth bipartite targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-host", help="generate a host graph (with partition where applicable)")
    p.add_argument("--kind", choices=["super-regular", "cycle-blowup", "extremal", "random"],
                   default="super-regular")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--size", type=int, default=50)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--chords", help="i1,j1,i2,j2 pair indices")
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--p", type=float, default=0.5)
    _add_common(p)
    p.set_defaults(func=_cmd_gen_host)

    p = sub.add_parser("gen-h", help="generate a bounded-degree bipartite target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--bandwidth", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_gen_h)

    p = sub.add_parser("check-expander", help="certify or probe robust expansion")
    p.add_argument("--graph", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--trials", type=int, default=200)
    _add_common(p)
    p.set_defaults(func=_cmd_check_expander)

    p = sub.add_parser("check-degseq", help="degree-sequence condition")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_degseq)

    p = sub.add_parser("check-ore", help="degree-sum condition on non-adjacent pairs")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check_ore)

    p = sub.add_parser("check-pair", help="regularity / super-regularity of one class pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--super", action="store_true")
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.add_argument("--budget", type=int, default=120)
    _add_common(p)
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("build-reduced", help="maximal verified reduced graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="heuristic")
    p.add_argument("--budget", type=int, default=120)
    _add_common(p)
    p.set_defaults(func=_cmd_build_reduced)

    p = sub.add_parser("find-walk", help="closed shifted walk at a start vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--nu", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_find_walk)

    p = sub.add_parser("lemma-g", help="host-side partition pipeline")
    p.add_argument("--host", required=True)
    p.add_argument("--partition", help="separate partition JSON (else taken from --host)")
    p.add_argument("--demand", help="JSON file with {\"sizes\": [...]}")
    _add_common(p)
    p.set_defaults(func=_cmd_lemma_g)

    p = sub.add_parser("build-hom", help="bandwidth-respecting homomorphism onto the cycle")
    p.add_argument("--h", required=True)
    p.add_argument("--sizes", required=True, help="JSON file with {\"sizes\": [...]}")
    p.add_argument("--chord", required=True, help="two odd cluster indices, comma separated")
    p.add_argument("--coins", action="store_true", help="include per-attempt coin logs")
    _add_common(p)
    p.set_defaults(func=_cmd_build_hom)

    p = sub.add_parser("embed", help="place the target into the host along a homomorphism")
    p.add_argument("--host", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--hom", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("pipeline", help="full end-to-end run")
    p.add_argument("--host", required=True)
    p.add_argument("--h", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("montecarlo-balance", help="seeded homomorphism trial statistics")
    p.add_argument("--n", type=int, default=1536)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--bandwidth", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--runs", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=_cmd_montecarlo_balance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except BandembedError as exc:
        # The search or certification legitimately concluded "no".
        print(f"certified failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
