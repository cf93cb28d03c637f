"""Outside-in tracing of the library's public functions.

`Tracer.install` replaces each traced function in every `bandembed` module
namespace that binds it (a `from .regularity import check_regular_pair`
copies the binding into `partition` and `cli`, so patching the defining
module alone would miss those calls).  Each wrapper keeps a span stack in
memory; a span's self time is its duration minus the time its child spans
cover.  Spans are only appended to a list while tracing; aggregation and
writing happen after `uninstall`, which restores every original binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction
from math import ceil, comb, floor

# layer (module) -> public functions traced in it.
TRACED = {
    "regularity": ("check_regular_pair", "check_super_regular_pair", "build_reduced_graph"),
    "partition": ("prepare_host_partition", "balance_partition", "redistribute_to_sizes",
                  "verify_partition_structure"),
    "homomorphism": ("chop_into_segments", "group_and_split", "build_homomorphism",
                     "verify_homomorphism_certificate"),
    "embedder": ("check_compatibility", "embed_blowup", "verify_embedding"),
    "matching": ("hopcroft_karp",),
    "conditions": ("check_robust_expander", "check_degree_sequence_condition",
                   "check_ore_condition"),
    "walks": ("find_closed_shifted_walk", "simplify_walk", "purify_walk"),
    "cli": ("run_full_pipeline",),
    "hostgen": ("gen_super_regular_host", "gen_bandwidth_bipartite_h", "gen_random_graph"),
}

# Deterministic counts read from results at the layer boundary.
COUNTS = (
    "regularity.check_regular_pair.heuristic_calls",
    "regularity.check_regular_pair.exact_calls",
    "regularity.check_regular_pair.refuted",
    "partition.moves",
    "partition.balance_steps",
    "homomorphism.builds",
    "homomorphism.attempts",
    "homomorphism.first_try_builds",
    "homomorphism.seek_miss_attempts",
    "conditions.subsets_in_window",
    "walks.walks_found",
    "walks.total_length",
)

# Which end-to-end metric each layer metric should move, on which workload;
# shares are of traced self time, measured when the benchmark was defined.
LAYER_MAP = {
    "regularity.check_regular_pair": (
        "op_p50_s and ops_per_s on pipeline-k4 (about 90% of self time, 48 calls per op) "
        "and on certify-exact; no change predicted on hom-mc"),
    "regularity.check_super_regular_pair": "as regularity.check_regular_pair",
    "regularity.build_reduced_graph": "as regularity.check_regular_pair",
    "partition.prepare_host_partition": "op_p50_s on pipeline-k4",
    "partition.redistribute_to_sizes": "op_p50_s on pipeline-k4; counts partition.moves",
    "partition.balance_partition": (
        "op_p50_s on pipeline-k4; partition.balance_steps is 0 on all 20 acceptance seeds"),
    "partition.verify_partition_structure.calls": (
        "2 per op today because the partition is certified twice; op_p50_s on pipeline-k4"),
    "homomorphism.chop_into_segments": (
        "ops_per_s on hom-mc (about 80% of self time); no change predicted on pipeline-k4 "
        "(about 1.4%)"),
    "homomorphism.build_homomorphism": "self time and retries: ops_per_s on hom-mc",
    "homomorphism.group_and_split": "ops_per_s on hom-mc",
    "homomorphism.attempts_per_build": (
        "with first_try_ratio and seek_miss_attempts: the latency tail on hom-mc (shape B)"),
    "homomorphism.verify_homomorphism_certificate": "ops_per_s on hom-mc",
    "embedder.embed_blowup": (
        "with check_compatibility, verify_embedding and matching.hopcroft_karp: the "
        "latency tail on pipeline-k4 (about 4% of self time)"),
    "conditions.check_robust_expander": (
        "with conditions.subsets_in_window (computed from n and tau): op_p50_s on "
        "certify-exact"),
    "walks.find_closed_shifted_walk": (
        "with simplify_walk, purify_walk and walks.mean_length: certify-exact only; "
        "pipeline-k4 never searches for a walk while balance_steps is 0"),
    "cli.run_full_pipeline": "self time is orchestration (w_classes etc.) on pipeline-k4",
    "hostgen.*": "setup_s on every workload",
    "trace.overhead_ratio": "traced / untraced op time of the same pass, per workload",
}

WRAPPED_MARK = "_perfbench_span"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def _subsets_in_window(n: int, tau) -> int:
    """Size-window subsets an exact expander check may enumerate (computed, not observed)."""
    tau = Fraction(tau)
    lo, hi = ceil(tau * n), floor((1 - tau) * n)
    return sum(comb(n, s) for s in range(lo, hi + 1))


def _count_result(counts: dict, name: str, args, result) -> None:
    if name == "regularity.check_regular_pair":
        key = "exact_calls" if result.mode == "exact" else "heuristic_calls"
        counts[f"{name}.{key}"] += 1
        counts[f"{name}.refuted"] += not result.regular
    elif name == "partition.prepare_host_partition":
        counts["partition.balance_steps"] += result.balance_ledger.step_count
    elif name == "partition.redistribute_to_sizes":
        counts["partition.moves"] += len(result[1].all_moves())
    elif name == "homomorphism.build_homomorphism":
        counts["homomorphism.builds"] += 1
        counts["homomorphism.attempts"] += result.attempts
        counts["homomorphism.first_try_builds"] += result.attempts == 1
        counts["homomorphism.seek_miss_attempts"] += sum(d.seek_miss for d in result.diagnostics)
    elif name == "conditions.check_robust_expander" and result.mode == "exact":
        counts["conditions.subsets_in_window"] += _subsets_in_window(args[0].n, result.tau)
    elif name == "walks.find_closed_shifted_walk":
        counts["walks.walks_found"] += 1
        counts["walks.total_length"] += result.length


class Tracer:
    """Span recorder for the functions in TRACED; one op is one span group."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end, child time)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = 0
        self._stack: list[list] = []  # [span id, child time] per open span
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1][0] if stack else None
            stack.append([span_id, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child = stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((self.op, span_id, parent, name, start, end, child))
            _count_result(counts, name, args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, name)
        return wrapper

    def install(self, package: str = "bandembed") -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, fns in TRACED.items():
            home = sys.modules[f"{package}.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def stats(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in span_names()}
        for _, _, _, name, start, end, child in self.spans:
            st = out[name]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += end - start - child
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end, child in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start": start - t0, "end": end - t0, "self": end - start - child,
                }) + "\n")


def bound_wrappers(package: str = "bandembed") -> list[str]:
    """Module attributes that still hold a tracing wrapper (empty after uninstall)."""
    return [f"{key}.{attr}" for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
            for attr, value in vars(mod).items() if hasattr(value, WRAPPED_MARK)]
