"""Tests of the benchmark itself: digest pin, classifier, tracer, determinism.

    python3 -m unittest discover -s perfbench
"""

import dataclasses
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

bench.use_sources()

# sha256 over run_full_pipeline reports (seconds removed) for the acceptance seeds 0..19.
ACCEPTANCE_DIGEST = "422998bb4ad47b5149b4ad7708264371f9288c2082e90486bdda59846b68bd54"


def prepared(workload_cls, batch=None):
    _, api = wl.import_bandembed()
    workload = workload_cls()
    if batch is not None:
        workload.batch = batch
    workload.setup(api)
    return workload, api


class DigestTest(unittest.TestCase):
    def test_pipeline_acceptance_digest(self):
        workload, api = prepared(wl.PipelineK4)
        inputs = [workload.make_input(api, 0, j) for j in range(20)]
        tally = bench.run_pass(workload, api, inputs)
        self.assertEqual(tally.digest.hexdigest(), ACCEPTANCE_DIGEST)
        self.assertEqual(tally.outcomes[wl.SUCCESS], 20)

    def test_seconds_fields_are_removed_recursively(self):
        out = wl.strip_seconds({"seconds": 1, "a": [{"seconds": 2, "b": 3}]})
        self.assertEqual(out, {"a": [{"b": 3}]})


class ContractTest(unittest.TestCase):
    def test_untraced_run_reports_the_declared_metrics(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        result = bench.run_workload("hom-mc", seed=2, seconds=0.5, trace=False)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared["end_to_end"]})
        for metric in declared["end_to_end"]:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertGreaterEqual(result["attempted"], wl.HomMC.batch)
        self.assertEqual(result["metrics"]["op_p50_s"]["value"],
                         result["detail"]["latency"]["p50_s"])

    def test_traced_run_reports_the_declared_layer_metrics(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        workload = wl.HomMC()
        workload.batch = 2
        metrics, _, _ = bench.run_traced(workload, seed=2)
        self.assertEqual(set(metrics), {m["name"] for m in declared["per_layer"]})


class ClassifierTest(unittest.TestCase):
    def test_raised_exception_is_failed(self):
        def boom():
            raise RuntimeError("boom")

        for cls in wl.WORKLOADS.values():
            workload, api = prepared(cls)
            outcome, output, _ = wl.classify(workload, api, None, boom)
            self.assertEqual(outcome, wl.FAILED, cls.name)
            self.assertIn("RuntimeError", output["error"])

    def test_wrong_embedding_is_failed(self):
        workload, api = prepared(wl.PipelineK4)
        inp = workload.make_input(api, 0, 0)
        report, captured = workload.run(api, inp)
        self.assertEqual(wl.classify(workload, api, inp, lambda: (report, captured))[0],
                         wl.SUCCESS)
        report.embedding = report.embedding[1:] + report.embedding[:1]
        self.assertEqual(wl.classify(workload, api, inp, lambda: (report, captured))[0],
                         wl.FAILED)

    def test_pipeline_negative_is_certified_only_for_library_verdicts(self):
        workload, api = prepared(wl.PipelineK4)
        inp = workload.make_input(api, 0, 0)

        def outcome(stage, error=None):
            detail = {} if error is None else {"error": error}
            report = SimpleNamespace(
                ok=False, failed_stage=stage, embedding=None,
                stages=[SimpleNamespace(name=stage, detail=detail)], to_json=dict)
            return wl.classify(workload, api, inp, lambda: (report, {}))[0]

        for stage, error in (
            ("embed", "EmbeddingNotFoundError: no embedding within the budget"),
            ("host-partition", "StructuralError: no Hamilton cycle in the reduced graph"),
            ("verify-partition", "BandembedError: final partition failed structural "
                                 "certification"),
        ):
            self.assertEqual(outcome(stage, error), wl.CERTIFIED_FAILURE, error)
        for stage, error in (
            ("homomorphism", "TypeError: unsupported operand type(s)"),
            ("redistribute", "KeyError: 7"),
            ("embed", "IndexError: list index out of range"),
            ("host-partition", "InvalidInputError: both classes must be nonempty"),
            ("homomorphism", "ParameterError: no admissible segmentation"),
            ("homomorphism", "SeekMissError: segment too short"),
            ("homomorphism", "BandembedError: independent certificate recheck failed: {}"),
            ("embed", "NoSuchError: not a library type"),
            ("embed", ""),
            ("verify-embedding", None),
        ):
            self.assertEqual(outcome(stage, error), wl.FAILED, f"{stage}: {error}")

    def test_wrong_homomorphism_is_failed(self):
        workload, api = prepared(wl.HomMC)
        inp = workload.make_input(api, 0, 0)
        trial_seed, builds = workload.run(api, inp)
        self.assertTrue(all(recheck["all_ok"] for _, _, recheck in builds))
        _, hom, _ = builds[1]
        hom.f[0] = len(hom.sizes)  # no such cluster; the op still claims all_ok
        result = (trial_seed, builds)
        self.assertEqual(wl.classify(workload, api, inp, lambda: result)[0], wl.FAILED)

    def test_false_refutations_are_failed(self):
        workload, api = prepared(wl.CertifyExact)
        inp = workload.make_input(api, 0, 0)
        s, expander, degseq, ore, walks, pair = workload.run(api, inp)
        self.assertTrue(expander.holds and pair.regular)
        fake_expander = dataclasses.replace(expander, holds=False, witness=frozenset(range(8)))
        result = (s, fake_expander, degseq, ore, [], pair)
        self.assertEqual(wl.classify(workload, api, inp, lambda: result)[0], wl.FAILED)

        classes = inp[2].partition.classes
        fake_pair = dataclasses.replace(
            pair, regular=False, witness=(frozenset(classes[0]), frozenset(classes[1])))
        result = (s, expander, degseq, ore, walks, fake_pair)
        self.assertEqual(wl.classify(workload, api, inp, lambda: result)[0], wl.FAILED)


class TracerTest(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        _, api = wl.import_bandembed()
        original = api.regularity.check_regular_pair
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for mod in (api.regularity, api.partition, api.cli, api.package):
                self.assertTrue(hasattr(mod.check_regular_pair, tracing.WRAPPED_MARK))
        finally:
            tracer.uninstall()
        self.assertIs(api.partition.check_regular_pair, original)
        self.assertEqual(tracing.bound_wrappers(), [])

    def test_traced_pass_matches_untraced(self):
        for cls, batch in ((wl.HomMC, 3), (wl.CertifyExact, 2), (wl.PipelineK4, 2)):
            workload = cls()
            workload.batch = batch
            metrics, detail, tallies = bench.run_traced(workload, seed=3)
            self.assertEqual(detail["digest"], detail["traced_digest"], cls.name)
            self.assertEqual(detail["counts"], detail["traced_counts"], cls.name)
            self.assertEqual(detail["leftover_wrappers"], [])
            self.assertEqual([t.outcomes[wl.FAILED] for t in tallies], [0, 0])
            self.assertGreater(metrics["trace.overhead_ratio"]["value"], 0)
        self.assertEqual(tracing.bound_wrappers(), [])

    def test_self_time_excludes_children(self):
        workload, api = prepared(wl.HomMC, batch=1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            bench.run_pass(workload, api, [workload.make_input(api, 0, 0)],
                           tracer)
        finally:
            tracer.uninstall()
        by_id = {span[1]: span for span in tracer.spans}
        children = {}
        for _, sid, parent, _, start, end, _ in tracer.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        for _, sid, parent, name, start, end, child in tracer.spans:
            self.assertAlmostEqual(child, children.get(sid, 0.0), places=9)
            if parent is not None:
                p = by_id[parent]
                self.assertTrue(p[4] <= start and end <= p[5], name)
        chop = tracer.stats()["homomorphism.chop_into_segments"]
        self.assertEqual(chop["calls"], 2)


class DeterminismTest(unittest.TestCase):
    def test_counts_and_digest_repeat(self):
        for cls, batch in ((wl.HomMC, 4), (wl.CertifyExact, 2), (wl.PipelineK4, 2)):
            runs = []
            for _ in range(2):
                workload = cls()
                workload.batch = batch
                metrics, detail, _ = bench.run_traced(workload, seed=5)
                calls = {k: v["value"] for k, v in metrics.items()
                         if v["unit"] != "s" and k != "trace.overhead_ratio"}
                runs.append((detail["digest"], detail["counts"], detail["trace_counts"], calls))
            self.assertEqual(runs[0], runs[1], cls.name)


if __name__ == "__main__":
    unittest.main()
