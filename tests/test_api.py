"""Parameter lists and fields of the public calls whose single-value options are constants."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

from bandembed import cli, conditions, embedder, homomorphism, partition, regularity

PAIR_CHECK = ["g", "a_side", "b_side", "eps", "d", "mode", "budget"]
REDISTRIBUTION = ["g", "partition", "reduced", "a_targets", "b_targets", "cfg"]


@pytest.mark.parametrize("fn, params", [
    (regularity.check_regular_pair, PAIR_CHECK),
    (regularity.check_super_regular_pair, PAIR_CHECK),
    (conditions.check_robust_expander, ["g", "nu", "tau", "mode", "seed", "trials"]),
    (partition.prepare_host_partition, ["g", "partition", "cfg"]),
    (partition.verify_partition_structure, ["g", "partition", "demanded", "cfg"]),
    (partition.check_mobility_hypotheses, REDISTRIBUTION),
    (partition.redistribute_to_sizes, REDISTRIBUTION),
    (embedder.embed_blowup, ["h", "w_classes", "g", "v_classes", "rprime_edges", "seed"]),
], ids=lambda x: getattr(x, "__name__", None))
def test_parameter_list(fn, params):
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("cls, fields", [
    (homomorphism.HomomorphismParams, ["m1", "m2", "k1", "k2", "xi"]),
    (partition.HypothesisReport, ["cycle_in_reduced", "a_chord_in_reduced", "b_chord_in_reduced",
                                  "targets_small", "totals_cancel", "net_flow_small", "details"]),
    # Each report stores a fact once: no field is constant or derived from the others.
    (homomorphism.AttemptDiagnostics, ["start_pair_phase1", "start_pair_phase2", "coin_logs",
                                       "seek_miss", "valid", "loads_bounded",
                                       "spread_phase1_ok", "spread_phase2_ok"]),
    (homomorphism.Homomorphism, ["f", "boundary", "f1", "f2", "chord", "sizes", "xi",
                                 "roles_swapped", "attempts", "diagnostics"]),
    (embedder.CompatibilityReport, ["s_sets", "t_sets", "offending_sizes", "offending_edges",
                                    "offending_bounds"]),
    (partition.HostPartitionReport, ["partition", "reduced", "balance_ledger"]),
    (regularity.RegularityVerdict, ["regular", "density", "mode", "eps", "d", "witness",
                                    "degree_failure", "min_cross_degree"]),
    (conditions.DegreeSequenceVerdict, ["holds", "first_violation"]),
    (cli.PipelineReport, ["failed_stage", "stages", "seed", "config", "embedding",
                          "certified_negative"]),
], ids=lambda x: getattr(x, "__name__", None))
def test_dataclass_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


def test_removed_report_fields_have_no_alias():
    for cls, names in (
        (homomorphism.AttemptDiagnostics, ["boundary_small", "edges_on_pairs"]),
        (embedder.CompatibilityReport, ["sizes_match", "edges_respect_reduced", "boundary_bounded"]),
        (partition.HostPartitionReport, ["k", "baseline_sizes"]),
    ):
        assert not [name for name in names if hasattr(cls, name)]


def test_degree_ok_derives_from_the_degree_fields():
    verdict = regularity.RegularityVerdict(True, Fraction(1, 2), "exact", Fraction(1, 10),
                                           Fraction(1, 5))
    assert verdict.degree_ok is None
    verdict = dataclasses.replace(verdict, min_cross_degree=(3, 4))
    assert verdict.degree_ok is True
    verdict = dataclasses.replace(verdict, regular=False, degree_failure=("B", 7))
    assert verdict.degree_ok is False and verdict.to_json()["degree_ok"] is False


def test_partition_exports_its_certificates():
    assert {"verify_partition_structure", "check_mobility_hypotheses"} <= set(partition.__all__)
