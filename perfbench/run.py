"""The bandembed benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload pipeline-k4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 [--record]

With `--trace 0` the run measures end-to-end metrics untraced: set-up (a
fresh import of the library plus generating the first pass of inputs,
repeated and reported as a median), then ops for `--seconds` seconds, each
on fresh inputs, with at least one full pass so the output digest covers a
fixed set of ops.  Timings are scaled to a reference machine speed (see
`Reference`); the wall-clock values are printed beside them.  With
`--trace 1` the run makes one untraced pass and one traced pass over the
same inputs and reports per-layer metrics; it is incorrect unless both
passes give the same digest and the same counts.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are for
people.  `--workload all` runs every workload in its own process, untraced
then traced, and prints one table; `--record` also writes RECORD.json.
The library is imported from `src/` next to this directory; nothing is
installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORD = HERE / "RECORD.json"
TRACE_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
SETUP_MIN_S = 2.0
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it

# On a shared machine co-tenants slow every process by up to 1.7x, switching
# between speeds within seconds, which no run length averages out.  A fixed
# stdlib kernel of the kind of work the library does is therefore timed right
# after each op and each set-up repeat, and each of those times is reported at
# the speed at which the kernel takes REFERENCE_S.
REFERENCE_S = 0.003
REFERENCE_MIN_SAMPLES = 3  # kernel timings after each op, plus one per REFERENCE_EVERY_S of op
REFERENCE_EVERY_S = 0.1


class Reference:
    """The calibration kernel and its timings in this run."""

    def __init__(self):
        rng = random.Random(0)
        n = 120
        self._adjacency = [frozenset(rng.sample(range(n), n // 2)) for _ in range(n)]
        self._x_sets = [rng.sample(range(n), n // 4) for _ in range(4)]
        self.samples: list[float] = []

    def _kernel(self) -> int:
        """Degrees into a set family, a sort, prefix sums and exact Fraction comparisons.

        The same pattern as a pair-regularity scan, on fixed data; it never
        exits early, so its work is the same on every call.
        """
        adj, n = self._adjacency, len(self._adjacency)
        eps, ab, e_ab = Fraction(1, 10), n * n, n * n // 2
        hits = 0
        for xs in self._x_sets:
            p = len(xs)
            deg = [sum(1 for x in xs if b in adj[x]) for b in range(n)]
            order = sorted(range(n), key=lambda i: (deg[i], i))
            prefix = [0]
            for i in order:
                prefix.append(prefix[-1] + deg[i])
            for q in range(1, n + 1):
                denom = p * q * ab
                hits += Fraction((prefix[n] - prefix[n - q]) * ab - e_ab * p * q, denom) >= eps
                hits += Fraction(e_ab * p * q - prefix[q] * ab, denom) >= eps
        return hits

    def sample(self, count: int = REFERENCE_MIN_SAMPLES) -> float:
        """Time the kernel `count` times and return the factor to reference speed.

        The factor is REFERENCE_S over the median of these timings, so it
        describes the speed right now.
        """
        new = []
        for _ in range(count):
            t0 = time.perf_counter()
            self._kernel()
            new.append(time.perf_counter() - t0)
        self.samples.extend(new)
        return REFERENCE_S / statistics.median(new)

    def scale(self) -> float:
        """Factor from seconds measured in this run to seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


def loadavg() -> list[float]:
    return list(os.getloadavg())


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def percentile_report(samples: list[float]) -> dict:
    """Median, p90 when at least ten samples lie beyond it, else the highest such percentile."""
    n = len(samples)
    ordered = sorted(samples)
    out = {"samples": n, "p50_s": statistics.median(ordered), "p90_s": None}
    if n >= P90_MIN_SAMPLES:
        out["p90_s"] = statistics.quantiles(ordered, n=10)[-1]
    elif n > 10:
        # Highest percentile with exactly ten samples above it.
        out["highest_percentile"] = {"q": 100 * (n - 10) // n, "value_s": ordered[n - 11]}
    return out


def setup(workload, seed: int, reference: Reference | None = None):
    """Import the library and generate the first pass of inputs, repeatedly.

    Repeats at least SETUP_REPEATS times and for at least SETUP_MIN_S of
    wall time.  Returns (median set-up seconds, api, first-pass inputs) from
    the last repeat; with a reference, each repeat is scaled to reference
    speed by the kernel timings taken right after it.
    """
    times, wall = [], 0.0
    while len(times) < SETUP_REPEATS or wall < SETUP_MIN_S:
        import_s, api = wl.import_bandembed()
        t0 = time.perf_counter()
        workload.setup(api)
        inputs = [workload.make_input(api, seed, j) for j in range(workload.batch)]
        elapsed = import_s + time.perf_counter() - t0
        wall += elapsed
        times.append(elapsed * reference.sample() if reference is not None else elapsed)
    return statistics.median(times), api, inputs


class Tally:
    """Outcomes, latencies, digest and counts of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds
        self.scaled: list[float] = []  # seconds at reference speed, when calibrated
        self.outcomes = {wl.SUCCESS: 0, wl.CERTIFIED_FAILURE: 0, wl.FAILED: 0}
        self.digest_outcomes = dict.fromkeys(self.outcomes, 0)
        self.digest = wl.Digest()
        self.counts: list[dict] = []
        self.failures: list = []

    def op(self, workload, api, inp, j: int, in_digest: bool) -> None:
        timing = {}

        def timed():
            t0 = time.perf_counter()
            try:
                return workload.run(api, inp)
            finally:
                timing["s"] = time.perf_counter() - t0

        outcome, output, counts = wl.classify(workload, api, inp, timed)
        self.latencies.append(timing["s"])
        self.outcomes[outcome] += 1
        if outcome == wl.FAILED:
            self.failures.append({"op": j, **output})
        if in_digest:
            self.digest_outcomes[outcome] += 1
            self.digest.add(output)
            self.counts.append(counts)

    def calibrate(self, reference: Reference) -> None:
        """Time the reference kernel right after the last op and scale that op by it."""
        latency = self.latencies[-1]
        count = REFERENCE_MIN_SAMPLES + int(latency / REFERENCE_EVERY_S)
        self.scaled.append(latency * reference.sample(count))

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(workload, api, inputs, tracer=None, reference: Reference | None = None) -> Tally:
    """One op per input; with a reference, each op is calibrated as in `measure`."""
    tally = Tally()
    for j, inp in enumerate(inputs):
        if tracer is not None:
            tracer.op = j
        tally.op(workload, api, inp, j, in_digest=True)
        if reference is not None:
            tally.calibrate(reference)
    return tally


def measure(workload, api, seed: int, seconds: float, first_inputs,
            reference: Reference) -> Tally:
    """Closed loop for `seconds`: the first pass, then fresh inputs until time is up.

    The reference kernel runs after each op, outside the op's timing, and
    scales that op to reference speed.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    j = 0
    while j < len(first_inputs) or time.perf_counter() < deadline:
        inp = first_inputs[j] if j < len(first_inputs) else workload.make_input(api, seed, j)
        tally.op(workload, api, inp, j, in_digest=j < len(first_inputs))
        tally.calibrate(reference)
        j += 1
    return tally


def recorded_digest(workload_name: str, seed: int):
    if seed != 0 or not RECORD.exists():
        return None
    return json.loads(RECORD.read_text())["workloads"].get(workload_name, {}).get("digest")


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, dict, list[Tally]]:
    reference = Reference()
    setup_s, api, inputs = setup(workload, seed, reference)
    tally = measure(workload, api, seed, seconds, inputs, reference)
    pct = percentile_report(tally.scaled)
    n = tally.attempted
    ops_per_s_wall = n / sum(tally.latencies)
    success_ratio = tally.outcomes[wl.SUCCESS] / n
    fail_ratio = tally.outcomes[wl.FAILED] / n
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_p50_s": {"value": pct["p50_s"], "unit": "s"},
        "ops_per_s": {"value": n / sum(tally.scaled), "unit": "1/s"},
        "success_ratio": {"value": success_ratio, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "latency": pct,
        "wall": {"op_p50_s": statistics.median(tally.latencies),
                 "ops_per_s": ops_per_s_wall},
        "reference": {"median_s": statistics.median(reference.samples),
                      "samples": len(reference.samples), "scale": reference.scale()},
        "fail_ratio": fail_ratio,
        "outcomes": tally.outcomes,
        "digest_outcomes": tally.digest_outcomes,
        "failures": tally.failures[:5],
        "digest": tally.digest.hexdigest(),
        "digest_ops": len(inputs),
        "counts": summarize_counts(tally.counts),
    }
    return metrics, detail, [tally]


def summarize_counts(per_op: list[dict]) -> dict:
    """Totals of the deterministic per-op counts over the digest pass."""
    out: dict = {}
    for counts in per_op:
        for key, value in counts.items():
            if isinstance(value, list):
                out.setdefault(key, []).extend(value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def run_traced(workload, seed: int) -> tuple[dict, dict, list[Tally]]:
    """An untraced and a traced pass over the same inputs; per-layer metrics of the traced one.

    `<layer>.<fn>.calls` is the number of calls over the pass; `total_s` and
    `self_s` are seconds per op of the pass, at the reference speed of the
    end-to-end timings (the reference is sampled between the traced ops).
    Both passes are calibrated per op, so `trace.overhead_ratio` compares
    them at the same speed.
    """
    _, api, inputs = setup(workload, seed)
    plain = run_pass(workload, api, inputs, reference=Reference())
    reference = Reference()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.setup(api)
        traced_inputs = [workload.make_input(api, seed, j) for j in range(workload.batch)]
        traced = run_pass(workload, api, traced_inputs, tracer, reference)
    finally:
        tracer.uninstall()
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"spans-{workload.name}-seed{seed}.jsonl")

    stats = tracer.stats()
    per_op = reference.scale() / len(traced_inputs)
    metrics = {}
    for name, st in stats.items():
        metrics[f"{name}.calls"] = {"value": st["calls"], "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": st["total_s"] * per_op, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": st["self_s"] * per_op, "unit": "s"}
    c = tracer.counts
    for key in ("regularity.check_regular_pair.heuristic_calls",
                "regularity.check_regular_pair.exact_calls",
                "regularity.check_regular_pair.refuted",
                "partition.moves", "partition.balance_steps",
                "homomorphism.seek_miss_attempts", "conditions.subsets_in_window"):
        metrics[key] = {"value": c[key], "unit": "count"}
    builds = c["homomorphism.builds"]
    metrics["homomorphism.attempts_per_build"] = {
        "value": c["homomorphism.attempts"] / builds if builds else 0.0, "unit": "ratio"}
    metrics["homomorphism.first_try_ratio"] = {
        "value": c["homomorphism.first_try_builds"] / builds if builds else 0.0, "unit": "ratio"}
    walks = c["walks.walks_found"]
    metrics["walks.mean_length"] = {
        "value": c["walks.total_length"] / walks if walks else 0.0, "unit": "edges"}
    metrics["trace.overhead_ratio"] = {
        "value": sum(traced.scaled) / sum(plain.scaled), "unit": "ratio"}

    detail = {
        "digest": plain.digest.hexdigest(),
        "traced_digest": traced.digest.hexdigest(),
        "counts": summarize_counts(plain.counts),
        "traced_counts": summarize_counts(traced.counts),
        "trace_counts": dict(c),
        "layer_seconds": stats,
        "reference": {"median_s": statistics.median(reference.samples),
                      "samples": len(reference.samples), "scale": reference.scale()},
        "outcomes": plain.outcomes,
        "digest_ops": len(inputs),
        "leftover_wrappers": tracing.bound_wrappers(),
    }
    return metrics, detail, [plain, traced]


def use_sources() -> None:
    """Put the checkout's `src/` first on the import path; exit if it is missing."""
    if not (SRC / "bandembed" / "__init__.py").is_file():
        raise SystemExit(f"error: the library sources are missing: {SRC / 'bandembed'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    use_sources()
    workload = wl.WORKLOADS[name]()
    load_start = loadavg()
    if trace:
        metrics, detail, tallies = run_traced(workload, seed)
        correct = (detail["digest"] == detail["traced_digest"]
                   and detail["counts"] == detail["traced_counts"]
                   and not detail["leftover_wrappers"])
    else:
        metrics, detail, tallies = run_untraced(workload, seed, seconds)
        correct = True
    failed = sum(t.outcomes[wl.FAILED] for t in tallies)
    pinned = recorded_digest(name, seed)
    detail.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "digest_matches_record": None if pinned is None else pinned == detail["digest"],
        "environment": environment(), "loadavg_start": load_start, "loadavg_end": loadavg(),
    })
    return {"correct": correct and failed == 0, "attempted": sum(t.attempted for t in tallies),
            "failed": failed, "metrics": metrics, "detail": detail}


def print_human(result: dict) -> None:
    d = result["detail"]
    print(f"workload {d['workload']} seed {d['seed']} trace {int(d['trace'])}: "
          f"{result['attempted']} ops, {result['failed']} failed, correct={result['correct']}")
    if not d["trace"]:
        lat = d["latency"]
        m = result["metrics"]
        n = lat["samples"]
        p90 = f"n/a (n={n} < {P90_MIN_SAMPLES})"
        if lat["p90_s"] is not None:
            p90 = f"{lat['p90_s']:.4f} s (n={n})"
        elif "highest_percentile" in lat:
            q = lat["highest_percentile"]
            p90 = p90[:-1] + f"; p{q['q']} = {q['value_s']:.4f} s)"
        wall, ref = d["wall"], d["reference"]
        print(f"  timings at reference speed: each op is scaled by the kernel timed right after "
              f"it; kernel median {1000 * ref['median_s']:.3f} ms over {ref['samples']} samples, "
              f"reference {1000 * REFERENCE_S:.3f} ms")
        print(f"  setup_s       {m['setup_s']['value']:.4f} s (median of at least "
              f"{SETUP_REPEATS} repeats)")
        print(f"  op_p50_s      {lat['p50_s']:.4f} s (n={n}; wall {wall['op_p50_s']:.4f} s)")
        print(f"  op_p90_s      {p90}")
        print(f"  ops_per_s     {m['ops_per_s']['value']:.3f} 1/s (n={n}; "
              f"wall {wall['ops_per_s']:.3f} 1/s)")
        print(f"  success_ratio {m['success_ratio']['value']:.4f} (n={n})")
        print(f"  fail_ratio    {d['fail_ratio']:.4f} (n={n})")
        print(f"  peak_rss_mb   {m['peak_rss_mb']['value']:.1f} MB")
    else:
        m, ref = result["metrics"], d["reference"]
        print(f"  per-layer seconds per op over {d['digest_ops']} ops, at reference speed "
              f"(wall x {ref['scale']:.4f})")
        for name, st in d["layer_seconds"].items():
            if st["calls"]:
                total, own = m[f"{name}.total_s"]["value"], m[f"{name}.self_s"]["value"]
                print(f"  {name:48s} calls {st['calls']:7d}  total {total:9.5f} s"
                      f"  self {own:9.5f} s")
        for key, value in d["trace_counts"].items():
            label = " (computed from n and tau, not observed)" if key.endswith("in_window") else ""
            print(f"  {key:48s} {value}{label}")
        print(f"  trace.overhead_ratio {result['metrics']['trace.overhead_ratio']['value']:.3f}")
    match = {None: "no record for this seed", True: "matches RECORD.json",
             False: "DIFFERS from RECORD.json (reported, not gated)"}
    print(f"  digest {d['digest']} over {d['digest_ops']} ops ({match[d['digest_matches_record']]})")
    if not d["trace"]:
        print(f"  digest ops outcomes {json.dumps(d['digest_outcomes'])}")
    print(f"  counts {json.dumps(d['counts'], sort_keys=True)}")
    print("detail " + json.dumps(d, sort_keys=True))


def run_all(seed: int, seconds: float, record: bool) -> int:
    """Each workload in its own process, untraced then traced; one table at the end."""
    results = {}
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail = json.loads(next(x for x in lines if x.startswith("detail "))[7:])
            results[(name, trace)] = (json.loads(lines[-1]), detail)

    print(f"\n{'workload':14s} {'metric':14s} {'value':>12s} unit   samples")
    for name in wl.WORKLOADS:
        res, detail = results[(name, 0)]
        n = detail["latency"]["samples"]
        rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
        rows.insert(2, ("op_p90_s", detail["latency"]["p90_s"], "s"))
        if "highest_percentile" in detail["latency"]:
            q = detail["latency"]["highest_percentile"]
            rows.insert(3, (f"op_p{q['q']}_s", q["value_s"], "s"))
        rows.append(("fail_ratio", detail["fail_ratio"], "ratio"))
        for metric, value, unit in rows:
            shown = "n/a" if value is None else f"{value:.4f}"
            print(f"{name:14s} {metric:14s} {shown:>12s} {unit:6s} {n}")
    ok = all(r["correct"] for r, _ in results.values())
    if record:
        write_record(results, seed, seconds)
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r, _ in results.values()),
                      "failed": sum(r["failed"] for r, _ in results.values()),
                      "metrics": {}}))
    return 0


def write_record(results: dict, seed: int, seconds: float) -> None:
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record["recorded"] = {"seed": seed, "seconds": seconds, "environment": environment()}
    record["layer_map"] = tracing.LAYER_MAP
    entries = record.setdefault("workloads", {})
    for name, cls in wl.WORKLOADS.items():
        (res, detail), (tres, tdetail) = results[(name, 0)], results[(name, 1)]
        entries[name] = {
            "why": cls.why,
            "digest": detail["digest"],
            "digest_ops": detail["digest_ops"],
            "counts": detail["counts"],
            "trace_counts": tdetail["trace_counts"],
            "end_to_end": res["metrics"],
            "latency": detail["latency"],
            "wall": detail["wall"],
            "reference": detail["reference"],
            "fail_ratio": detail["fail_ratio"],
            "digest_outcomes": detail["digest_outcomes"],
            "trace_overhead_ratio": tres["metrics"]["trace.overhead_ratio"]["value"],
            "loadavg": [detail["loadavg_start"], detail["loadavg_end"]],
        }
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="with --workload all: write RECORD.json")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(result)
    result.pop("detail")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
