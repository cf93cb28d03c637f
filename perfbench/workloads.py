"""The benchmark's workloads: inputs, the timed op, and the independent check.

Each workload turns `(seed, j)` into the input of op j, runs one op (one
certify-or-embed request, the unit a user waits on), checks the op's result
from the benchmark side, and reduces the result to JSON for the output
digest.  Ops call the library through module attributes (`api.cli.X`), so an
outside-in tracer that rebinds those attributes sees them; checks call the
functions captured right after import, so they are never traced.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

MODULES = (
    "errors", "rng", "graph", "matching", "conditions", "walks", "regularity",
    "partition", "homomorphism", "embedder", "hostgen", "cli",
)

SUCCESS, CERTIFIED_FAILURE, FAILED = "success", "certified-failure", "failed"

# Instance seeds of a run: op j of a run with --seed S uses S * SEED_STRIDE + j,
# so seed 0 starts with the acceptance instances 0..19.
SEED_STRIDE = 100_000


class CheckFailed(Exception):
    """The benchmark's independent check disagrees with an op's result."""


def import_bandembed() -> tuple[float, SimpleNamespace]:
    """Import the library afresh and return (seconds, api).

    Earlier imports are dropped from `sys.modules` first, so every call pays
    the full module execution a new user process pays.
    """
    for name in [m for m in sys.modules if m == "bandembed" or m.startswith("bandembed.")]:
        del sys.modules[name]
    gc.collect()  # free the dropped modules now, so memory does not depend on the repeats
    t0 = time.perf_counter()
    mods = {m: importlib.import_module(f"bandembed.{m}") for m in MODULES}
    seconds = time.perf_counter() - t0
    api = SimpleNamespace(**mods)
    api.package = sys.modules["bandembed"]
    # Checkers are bound now, before any tracing, and never through a module.
    api.check = SimpleNamespace(
        verify_embedding=mods["embedder"].verify_embedding,
        embedding_respects_partition=mods["embedder"].embedding_respects_partition,
        verify_homomorphism_certificate=mods["homomorphism"].verify_homomorphism_certificate,
        verify_expander_witness=mods["conditions"].verify_expander_witness,
        validate_shifted_walk=mods["walks"].validate_shifted_walk,
    )
    return seconds, api


def strip_seconds(obj):
    """Drop every `seconds` field, recursively: wall times are not outputs."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, (list, tuple)):
        return [strip_seconds(v) for v in obj]
    return obj


class Digest:
    """sha256 over the outputs of consecutive ops, in op order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, output) -> None:
        self._h.update(json.dumps(strip_seconds(output), sort_keys=True, default=str).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def classify(workload, api, inp, run):
    """Run one op through `run()` and classify it.

    Returns (outcome, output, counts).  An op fails when an exception escapes
    the call, when the independent check disagrees, or when an
    InvalidInputError was raised on the (valid) generated input; a certified
    negative verdict is a certified failure, not a failure.
    """
    try:
        result = run()
    except Exception as exc:  # any escape from the public call is a failure
        return FAILED, {"error": f"{type(exc).__name__}: {exc}"}, {}
    try:
        output = workload.output(result)
        positive = workload.check(api, inp, result)
    except Exception as exc:  # CheckFailed, or a result too malformed to read
        return FAILED, {"check_failed": f"{type(exc).__name__}: {exc}"}, {}
    return (SUCCESS if positive else CERTIFIED_FAILURE), output, workload.counts(result)


def is_certified_negative(api, error: str) -> bool:
    """Whether a pipeline stage's error string is a certified negative verdict.

    `run_full_pipeline` turns every exception into a failed stage whose error
    reads "<type name>: <message>".  The type is resolved against
    `bandembed.errors`: only a library error that is not an InvalidInputError
    (nor a subclass, such as ParameterError) counts as certified.  A builtin
    exception (TypeError, KeyError, ...) is a fault, an input error on a
    generated valid input is a fault, and so is a failed independent
    certificate recheck, although it is raised as a plain BandembedError.
    """
    exc_type = getattr(api.errors, error.split(":", 1)[0].strip(), None)
    if not (isinstance(exc_type, type) and issubclass(exc_type, api.errors.BandembedError)):
        return False
    if issubclass(exc_type, api.errors.InvalidInputError):
        return False
    return "independent certificate recheck failed" not in error


# ---------------------------------------------------------------------------
# pipeline-k4: run_full_pipeline on the acceptance criterion-1 shape
# ---------------------------------------------------------------------------


class PipelineK4:
    name = "pipeline-k4"
    why = ("acceptance shape k=4, size=50, n=400 through run_full_pipeline: heuristic "
           "regularity dominates; partition, redistribution and embedder block the result")
    batch = 20

    def setup(self, api) -> None:
        self.cfg = api.partition.Config()

    def make_input(self, api, seed: int, j: int):
        s = seed * SEED_STRIDE + j
        host = api.hostgen.gen_super_regular_host(k=4, size=50, d=0.5, seed=s)
        target = api.hostgen.gen_bandwidth_bipartite_h(400, 3, 10, seed=s)
        return s, host, target

    def run(self, api, inp):
        s, host, target = inp
        # Record the classes handed to the embedder; the check needs them.
        captured = {}
        embed = api.cli.embed_blowup

        def capture(h, w_classes, g, v_classes, *args, **kwargs):
            captured["w_classes"], captured["v_classes"] = w_classes, v_classes
            return embed(h, w_classes, g, v_classes, *args, **kwargs)

        api.cli.embed_blowup = capture
        try:
            report = api.cli.run_full_pipeline(host, target, self.cfg, seed=s)
        finally:
            api.cli.embed_blowup = embed
        return report, captured

    def check(self, api, inp, result) -> bool:
        _, host, target = inp
        report, captured = result
        if not report.ok:
            if report.failed_stage is None or report.embedding is not None:
                raise CheckFailed("failed report without a named stage, or with an embedding")
            if report.failed_stage == "verify-embedding":
                raise CheckFailed("the pipeline's final gate rejected its own embedding")
            error = report.stages[-1].detail.get("error", "") if report.stages else ""
            if not is_certified_negative(api, error):
                raise CheckFailed(f"stage {report.failed_stage} raised {error}")
            return False
        phi = report.embedding
        if not api.check.verify_embedding(target.graph, host.graph, phi):
            raise CheckFailed("embedding is not an edge-preserving injection")
        if "w_classes" not in captured or not api.check.embedding_respects_partition(
            phi, captured["w_classes"], captured["v_classes"]
        ):
            raise CheckFailed("embedding does not respect the cluster partition")
        return True

    def output(self, result):
        return result[0].to_json()

    def counts(self, result) -> dict:
        stages = {st.name: st.detail for st in result[0].stages}
        return {
            "attempts": stages.get("homomorphism", {}).get("attempts", 0),
            "moves": stages.get("redistribute", {}).get("moves", 0),
            "balance_steps": stages.get("host-partition", {}).get("balance_steps", 0),
        }


# ---------------------------------------------------------------------------
# hom-mc: seeded homomorphism builds on two fixed targets
# ---------------------------------------------------------------------------


class HomMC:
    name = "hom-mc"
    why = ("seeded build_homomorphism + certificate on two fixed H (n=1536): many builds "
           "share one H, no regularity work, shape B exercises the retry path")
    batch = 20
    n = 1536
    # shape: (bandwidth b, k, chord); Δ=2, ξ=0.1 and H seed 2024 for both.
    shapes = {"A": (1, 2, (1, 3)), "B": (2, 4, (1, 5))}

    def setup(self, api) -> None:
        self.plans = {}
        for shape, (b, k, chord) in self.shapes.items():
            target = api.hostgen.gen_bandwidth_bipartite_h(self.n, 2, b, seed=2024)
            params = api.homomorphism.choose_h_parameters(self.n, 2, b, 0.1, k)
            sizes = [self.n // (2 * k)] * (2 * k)
            self.plans[shape] = (target, params, sizes, chord)

    def make_input(self, api, seed: int, j: int):
        return api.rng.derive_seed(616, seed * SEED_STRIDE + j)

    def run(self, api, trial_seed):
        """One trial: a build and its certificate on shape A, then on shape B."""
        builds = []
        for shape, (target, params, sizes, chord) in self.plans.items():
            hom = api.homomorphism.build_homomorphism(
                target.graph, target.ordering, target.bipartition, sizes, chord, params,
                seed=trial_seed,
            )
            recheck = api.homomorphism.verify_homomorphism_certificate(
                target.graph, hom.f, hom.boundary, sizes, params.xi, chord
            )
            builds.append((shape, hom, recheck))
        return trial_seed, builds

    def check(self, api, inp, result) -> bool:
        for shape, hom, _ in result[1]:
            target, params, sizes, chord = self.plans[shape]
            if len(hom.f) != self.n:
                raise CheckFailed(f"shape {shape}: map covers {len(hom.f)} of {self.n} vertices")
            verdict = api.check.verify_homomorphism_certificate(
                target.graph, hom.f, hom.boundary, sizes, params.xi, chord
            )
            if not verdict["all_ok"]:
                raise CheckFailed(f"shape {shape}: certificate does not hold: {verdict}")
        return True

    def output(self, result):
        trial_seed, builds = result
        return {"trial_seed": trial_seed,
                "builds": [{"shape": shape, "hom": hom.to_json(), "recheck": recheck}
                           for shape, hom, recheck in builds]}

    def counts(self, result) -> dict:
        return {f"attempts_{shape}": hom.attempts for shape, hom, _ in result[1]}


# ---------------------------------------------------------------------------
# certify-exact: exact expander, host conditions, walks and exact pair check
# ---------------------------------------------------------------------------


class CertifyExact:
    name = "certify-exact"
    why = ("exact checks on small instances: expander at n=16 plus walks, degree "
           "conditions and an exact 14x14 super-regular pair")
    batch = 10
    n = 16
    nu, tau, gamma = Fraction(15, 100), Fraction(3, 10), Fraction(1, 10)
    pair_eps, pair_d = Fraction(2, 5), Fraction(1, 5)

    def setup(self, api) -> None:
        self.matching = api.walks.Matching([(i, i + 1) for i in range(0, self.n, 2)])

    def make_input(self, api, seed: int, j: int):
        s = seed * SEED_STRIDE + j
        g0 = api.hostgen.gen_random_graph(self.n, 0.8, seed=api.rng.derive_seed(424242, s))
        edges = set(g0.edges()) | set(self.matching.pairs)
        g = api.graph.Graph(self.n, sorted(edges))
        host = api.hostgen.gen_super_regular_host(k=2, size=14, d=0.5, seed=s)
        return s, g, host

    def run(self, api, inp):
        s, g, host = inp
        m = self.matching
        expander = api.conditions.check_robust_expander(g, self.nu, self.tau, mode="exact")
        degseq = api.conditions.check_degree_sequence_condition(
            api.graph.degree_sequence(g), self.gamma)
        ore = api.conditions.check_ore_condition(g, self.gamma)
        walks = []
        if expander.holds:
            for a in (0, self.n // 2):
                walk = api.walks.find_closed_shifted_walk(g, m, a, self.nu)
                simple = api.walks.simplify_walk(g, m, walk)
                walks.append((a, walk, simple, api.walks.purify_walk(m, {a}, simple)))
        classes = host.partition.classes
        pair = api.regularity.check_super_regular_pair(
            host.graph, classes[0], classes[1], self.pair_eps, self.pair_d, mode="exact")
        return s, expander, degseq, ore, walks, pair

    def check(self, api, inp, result) -> bool:
        _, g, host = inp
        _, expander, _, _, walks, pair = result
        if expander.mode != "exact" or pair.mode != "exact":
            raise CheckFailed("a verdict is not exact")
        if not expander.holds and not api.check.verify_expander_witness(g, expander):
            raise CheckFailed("expansion refutation witness does not verify")
        for a, *seqs in walks:
            for w in seqs:
                api.check.validate_shifted_walk(g, self.matching, w.vertices)
            pure = seqs[-1]
            if pure.endpoints != (a, a) or a in pure.vertices[1:-1]:
                raise CheckFailed(f"purified walk at {a} is not closed at {a} alone")
        classes = host.partition.classes
        check_pair_refutation(host.graph, classes[0], classes[1], pair)
        return expander.holds and pair.regular

    def output(self, result):
        s, expander, degseq, ore, walks, pair = result
        return {
            "seed": s,
            "expander": expander.to_json(),
            "degree_sequence": degseq.to_json(),
            "ore": ore.to_json(),
            "walks": [[a] + [list(w.vertices) for w in seqs] for a, *seqs in walks],
            "pair": pair.to_json(),
        }

    def counts(self, result) -> dict:
        return {"walk_lengths": [w.length for _, w, *_ in result[4]]}


def _edges_between(g, xs, ys) -> int:
    return sum(1 for x in xs for y in ys if g.has_edge(x, y))


def check_pair_refutation(g, a_side, b_side, verdict) -> None:
    """Recount the densities behind a negative pair verdict; raise CheckFailed on disagreement.

    A positive exact verdict is ground truth and is not re-derived here.
    """
    if verdict.regular:
        return
    a, b = sorted(a_side), sorted(b_side)
    eps, d = Fraction(verdict.eps), Fraction(verdict.d)
    dens = Fraction(_edges_between(g, a, b), len(a) * len(b))
    if dens != verdict.density:
        raise CheckFailed(f"pair density {verdict.density} recounts as {dens}")
    if verdict.witness is not None:
        xs, ys = sorted(verdict.witness[0]), sorted(verdict.witness[1])
        if not (set(xs) <= set(a) and set(ys) <= set(b)):
            raise CheckFailed("witness is not inside the pair")
        if len(xs) < eps * len(a) or len(ys) < eps * len(b):
            raise CheckFailed("witness sets are below eps times the class sizes")
        dxy = Fraction(_edges_between(g, xs, ys), len(xs) * len(ys))
        if abs(dxy - dens) < eps:
            raise CheckFailed(f"witness density {dxy} is within eps of {dens}")
    elif verdict.degree_failure is not None:
        side, v = verdict.degree_failure
        other = b if side == "A" else a
        if _edges_between(g, [v], other) >= d * len(other):
            raise CheckFailed(f"vertex {v} meets the degree floor")
    elif dens >= d:
        raise CheckFailed("pair refuted without a witness while its density reaches d")


WORKLOADS = {w.name: w for w in (PipelineK4, HomMC, CertifyExact)}
