"""Command-line entry point and the end-to-end pipeline orchestrator.

Exit codes: 0 success, 2 certified failure (an honest negative verdict or a
search that exhausted its budget), 1 input or internal error, usage errors
included.  The code is decided from the exception caught: a library error
that is not an input error is certified.  A pipeline stage that raises keeps
the detail it wrote and adds `error`; a failed independent recheck raises
nothing and records `ok: false`, exiting 1 like a failed final embedding
check.  The stage subcommands run the pipeline's own stage code and judge
rechecks the same way.  Fixed seeds reproduce identical stage outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
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
from .errors import BalancingError, BandembedError, InvalidInputError, ParameterError
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
    _check_sizes,
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
    failed_stage: str | None
    stages: list[StageResult]
    seed: int
    config: dict
    embedding: list[int] | None = None
    # Whether the failed stage ended in an honest "no"; not part of the JSON.
    certified_negative: bool = False

    @property
    def ok(self) -> bool:
        return self.failed_stage is None

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
    report = PipelineReport(None, [], seed, cfg.to_json())

    @contextmanager
    def stage(name: str):
        """Time and record one stage; a raise or ok=False ends the run, and a raise adds `error`."""
        result = StageResult(name, True, 0.0)
        t0 = time.perf_counter()
        try:
            yield result
        except Exception as exc:
            result.ok, result.detail = False, {**result.detail, **_error_detail(exc)}
            report.certified_negative = (
                isinstance(exc, BandembedError) and not isinstance(exc, InvalidInputError)
            )
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
            prep = prepare_host_partition(g, host.partition, cfg)
            baseline = prep.partition.sizes()
            # The walk search runs at nu/4 in the reduced graph; certify that
            # level exactly while the reduced graph is small.
            expander_verdict = (
                check_robust_expander(prep.reduced, cfg.nu / 4, cfg.tau, mode="exact")
                if prep.reduced.n <= EXACT_EXPANDER_CAP else None
            )
            st.detail = {
                "k": prep.partition.k,
                "baseline_sizes": baseline,
                "a_chord": list(prep.partition.a_chord),
                "b_chord": list(prep.partition.b_chord),
                "balance_steps": prep.balance_ledger.step_count,
                "reduced_expander": expander_verdict.to_json() if expander_verdict else None,
            }

        # Stage 2: homomorphism guided by the baseline sizes and the B-side chord.
        with stage("homomorphism") as st:
            i2, j2 = prep.partition.b_chord
            chord = (2 * i2 + 1, 2 * j2 + 1)
            params, hom, recheck = _homomorphism(target, baseline, chord, cfg, seed)
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
            # A failed independent recheck is a fault, not a certified "no".
            st.ok = recheck["all_ok"]

        # Stage 3: redistribute to the demanded sizes.
        with stage("redistribute") as st:
            final, ledger = redistribute_to_sizes(g, prep.partition, demanded, cfg)
            diff = [want - have for want, have in zip(demanded, baseline)]
            st.detail = {
                "a_targets": diff[0::2],
                "b_targets": diff[1::2],
                "mirrored": ledger.mirrored,
                "churn": ledger.churn,
                "moves": len(ledger.all_moves()),
            }

        # Stage 4: final structural certification.
        with stage("verify-partition") as st:
            structure = verify_partition_structure(g, final, demanded, cfg)
            st.detail = structure.to_json()
            if not structure.all_ok():
                raise BandembedError("final partition failed structural certification")

        # Stage 5: the boundary bound; the sizes and the H-edges were certified above.
        with stage("compatibility") as st:
            off = check_compatibility(h, hom.f, final.sizes(), cfg.eps)
            st.detail = {"boundary_bounded": not off, "offending_bounds": off, "all_ok": not off}
            if off:
                raise BandembedError("compatibility failed")

        # Stage 6: the embedding itself.
        with stage("embed"):
            w_classes = _pull_back(hom.f, prep.partition.k)
            phi = embed_blowup(h, w_classes, g, final.classes, seed=seed)

        # Stage 7: unconditional final gate.
        with stage("verify-embedding") as st:
            valid = verify_embedding(h, g, phi)
            respects = embedding_respects_partition(phi, w_classes, final.classes)
            st.ok = valid and respects
            st.detail = {"edge_preserving_injection": valid, "respects_partition": respects}
    except _StageFailed:
        return report

    report.embedding = phi
    return report


def _homomorphism(target: TargetBundle, sizes: list[int], chord: tuple[int, int],
                  cfg: Config, seed: int):
    """Stage 2: (params, hom, recheck) for H onto the cycle of len(sizes) clusters;
    the caller decides what a failed independent recheck ends."""
    h = target.graph
    params = choose_h_parameters(
        h.n, max(1, h.max_degree()), target.ordering.claimed_bound, cfg.xi, len(sizes) // 2
    )
    hom = build_homomorphism(
        h, target.ordering, target.bipartition, sizes, chord, params, seed=seed
    )
    recheck = verify_homomorphism_certificate(h, hom.f, hom.boundary, sizes, cfg.xi, chord)
    return params, hom, recheck


def _pull_back(f: list[int], k: int) -> list[list[int]]:
    """The target classes W_i = f^-1(i) of the 2k clusters."""
    w_classes: list[list[int]] = [[] for _ in range(2 * k)]
    for v, c in enumerate(f):
        w_classes[c].append(v)
    return w_classes


def _error_detail(exc: Exception) -> dict:
    """The error; a failed balance adds the steps it took, without their moves."""
    out = {"error": f"{type(exc).__name__}: {exc}"}
    if isinstance(exc, BalancingError):
        steps = [{k: v for k, v in vars(st).items() if k != "moves"} for st in exc.ledger.steps]
        out.update(balance_steps=len(steps), steps=steps)
    return out


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
    """Stream data as indented JSON to --json-out, or to stdout, so the text is never held whole."""
    path = getattr(args, "json_out", None)
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        json.dump(data, fh, indent=2, default=str)
        fh.write("\n")


def _load_cfg(args) -> Config:
    if args.config:
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


def _load_graph(path: str, data: dict | None = None) -> Graph:
    """The graph in the JSON file at `path` (`data` if read already), bare or under "graph"."""
    data = _load_json(path) if data is None else data
    return _from_json(graph_from_json, data.get("graph", data), path)


def _load_partition(data: dict, where: str, n: int) -> ClusterPartition:
    """Partition JSON from `where`, bare or a host bundle's "partition", inside [0, n)."""
    partition = _from_json(ClusterPartition.from_json, data.get("partition", data), where)
    if not all(0 <= v < n for v in partition.covered()):
        raise InvalidInputError(f"{where}: a class vertex lies outside [0,{n})")
    return partition


def _load_host_bundle(path: str, partition_path: str | None = None) -> HostBundle:
    data = _load_json(path)
    graph = _load_graph(path, data)
    if partition_path:
        partition = _load_partition(_load_json(partition_path), partition_path, graph.n)
    elif "partition" in data:
        partition = _load_partition(data, path, graph.n)
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
        out = gen_super_regular_host(args.k, args.size, args.density, chords, args.seed).to_json()
    else:
        if args.kind == "cycle-blowup":
            graph = gen_cycle_blowup(args.classes, args.size)
        elif args.kind == "extremal":
            graph = gen_extremal_counterexample(args.n, args.m)
        else:
            graph = gen_random_graph(args.n, args.p, args.seed)
        out = {"graph": graph_to_json(graph)}
    _emit(out, args)
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


def _cmd_check_degrees(args) -> int:
    """check-degseq and check-ore: `args.check` is the condition the command names."""
    verdict = args.check(_load_graph(args.graph), args.gamma)
    out = verdict.to_json()
    out["params"] = {"gamma": args.gamma}
    _emit(out, args)
    return 0 if verdict.holds else 2


def _load_graph_classes(args) -> tuple[Graph, list[set[int]]]:
    """The --graph file and the classes of the --partition file, checked against it."""
    g = _load_graph(args.graph)
    return g, _load_partition(_load_json(args.partition), args.partition, g.n).classes


def _cmd_check_pair(args) -> int:
    g, classes = _load_graph_classes(args)
    for option, index in (("--a", args.a), ("--b", args.b)):
        if not 0 <= index < len(classes):
            raise InvalidInputError(f"{option} {index} is not a class index of {args.partition}")
    a_cls, b_cls = classes[args.a], classes[args.b]
    checker = check_super_regular_pair if args.super else check_regular_pair
    verdict = checker(g, a_cls, b_cls, args.eps, args.density, mode=args.mode, budget=args.budget)
    _emit(verdict.to_json(), args)
    return 0 if verdict.regular else 2


def _cmd_build_reduced(args) -> int:
    g, classes = _load_graph_classes(args)
    reduced = build_reduced_graph(g, classes, args.eps, args.density,
                                  mode=args.mode, budget=args.budget)
    _emit({
        "clusters": [sorted(c) for c in classes],
        "edges": [list(e) for e in reduced.edges()],
        "params": {"eps": str(as_fraction(args.eps)), "d": str(as_fraction(args.density))},
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
    try:
        rep = prepare_host_partition(g, bundle.partition, cfg)
    except BalancingError as exc:
        _emit(_error_detail(exc), args)
        raise
    final = rep.partition
    baseline = rep.partition.sizes()
    if demanded is not None:
        if len(demanded) != 2 * rep.partition.k:
            raise ParameterError(f"{args.demand}: demanded sizes must partition n over 2k classes")
        try:  # the baseline covers all n vertices, so a demand keeping these rules partitions n
            _check_sizes(baseline, demanded, as_fraction(cfg.xi) * g.n, ParameterError)
        except ParameterError as exc:
            raise ParameterError(f"{args.demand}: {exc}") from None
        final, _ = redistribute_to_sizes(g, final, demanded, cfg)
    structure = verify_partition_structure(g, final, demanded or baseline, cfg)
    _emit({
        "k": rep.partition.k,
        "baseline_sizes": baseline,
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
    _, hom, recheck = _homomorphism(target, sizes, chord, _load_cfg(args), args.seed)
    out = hom.to_json()
    out["certificate_recheck"] = recheck
    if args.coins:
        out["coin_logs"] = [d.coin_logs for d in hom.diagnostics]
    _emit(out, args)
    return 0 if recheck["all_ok"] else 1


def _cmd_embed(args) -> int:
    host = _load_host_bundle(args.host)
    target = _load_target_bundle(args.h)
    f = _load_ints(args.hom, "f")
    k = len(host.partition.classes) // 2
    if len(f) != target.graph.n or not all(0 <= c < 2 * k for c in f):
        raise InvalidInputError(f"{args.hom}: \"f\" must send all {target.graph.n} target "
                                f"vertices to classes 0..{2 * k - 1}")
    w_classes = _pull_back(f, k)
    phi = embed_blowup(target.graph, w_classes, host.graph, host.partition.classes, seed=args.seed)
    valid = verify_embedding(target.graph, host.graph, phi)
    _emit({"phi": phi, "verified": valid}, args)
    return 0 if valid else 1


def _cmd_pipeline(args) -> int:
    host = _load_host_bundle(args.host)
    target = _load_target_bundle(args.h)
    cfg = _load_cfg(args)
    report = run_full_pipeline(host, target, cfg, seed=args.seed)
    _emit(report.to_json(), args)
    if report.ok:
        return 0
    return 2 if report.certified_negative else 1


def _cmd_montecarlo_balance(args) -> int:
    k = args.k
    if k < 2:
        raise InvalidInputError(f"--k must be at least 2, got {k}")
    target = gen_bandwidth_bipartite_h(args.n, args.delta, args.bandwidth, args.seed)
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


def _add_common(p: argparse.ArgumentParser, *, seed: bool = True, config: bool = False) -> None:
    """--json-out, plus --seed and --config where the command reads them."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if config:
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

    for name, help_text, check in (
        ("check-degseq", "degree-sequence condition",
         lambda g, gamma: check_degree_sequence_condition(degree_sequence(g), gamma)),
        ("check-ore", "degree-sum condition on non-adjacent pairs", check_ore_condition),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True)
        p.add_argument("--gamma", type=float, required=True)
        _add_common(p, seed=False)
        p.set_defaults(func=_cmd_check_degrees, check=check)

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
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("build-reduced", help="maximal verified reduced graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="heuristic")
    p.add_argument("--budget", type=int, default=120)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_build_reduced)

    p = sub.add_parser("find-walk", help="closed shifted walk at a start vertex")
    p.add_argument("--graph", required=True)
    p.add_argument("--matching", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--nu", type=float, required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_find_walk)

    p = sub.add_parser("lemma-g", help="host-side partition pipeline")
    p.add_argument("--host", required=True)
    p.add_argument("--partition", help="separate partition JSON (else taken from --host)")
    p.add_argument("--demand", help="JSON file with {\"sizes\": [...]}")
    _add_common(p, seed=False, config=True)
    p.set_defaults(func=_cmd_lemma_g)

    p = sub.add_parser("build-hom", help="bandwidth-respecting homomorphism onto the cycle")
    p.add_argument("--h", required=True)
    p.add_argument("--sizes", required=True, help="JSON file with {\"sizes\": [...]}")
    p.add_argument("--chord", required=True, help="two odd cluster indices, comma separated")
    p.add_argument("--coins", action="store_true", help="include per-attempt coin logs")
    _add_common(p, config=True)
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
    _add_common(p, config=True)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("montecarlo-balance", help="seeded homomorphism trial statistics")
    p.add_argument("--n", type=int, default=1536)
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--bandwidth", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--runs", type=int, default=100)
    _add_common(p, config=True)
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
