"""Parameter lists and fields of the public calls whose single-value options are constants,
and the names the library exports."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import bandembed
from bandembed import cli, conditions, embedder, homomorphism, partition, regularity

PAIR_CHECK = ["g", "a_side", "b_side", "eps", "d", "mode", "budget"]


@pytest.mark.parametrize("fn, params", [
    (regularity.check_regular_pair, PAIR_CHECK),
    (regularity.check_super_regular_pair, PAIR_CHECK),
    (conditions.check_robust_expander, ["g", "nu", "tau", "mode", "seed", "trials"]),
    (partition.prepare_host_partition, ["g", "partition", "cfg"]),
    (partition.verify_partition_structure, ["g", "partition", "demanded", "cfg"]),
    # Only balancing takes the reduced graph: redistribution walks the cycle found in it.
    (partition.balance_partition, ["g", "partition", "reduced", "cfg"]),
    (partition.redistribute_to_sizes, ["g", "partition", "sizes", "cfg"]),
    (embedder.embed_blowup, ["h", "w_classes", "g", "v_classes", "seed"]),
    # The compatibility stage reads the homomorphism's map and the class sizes.
    (embedder.check_compatibility, ["h", "f", "sizes", "eps"]),
    # Assignment absorbs the vertices no class holds; no caller names them.
    (partition.assign_exceptional_vertices, ["g", "partition", "cfg"]),
], ids=lambda x: getattr(x, "__name__", None))
def test_parameter_list(fn, params):
    assert list(inspect.signature(fn).parameters) == params


@pytest.mark.parametrize("cls, fields", [
    (homomorphism.HomomorphismParams, ["m1", "m2", "k1", "k2", "xi"]),
    (partition.MobilityLedger, ["chord_moves", "a_moves", "b_moves", "churn", "mirrored"]),
    # Each report stores a fact once: no field is constant or derived from the others.
    (homomorphism.AttemptDiagnostics, ["start_pair_phase1", "start_pair_phase2", "coin_logs",
                                       "seek_miss", "valid", "loads_bounded",
                                       "spread_phase1_ok", "spread_phase2_ok"]),
    (homomorphism.Homomorphism, ["f", "boundary", "chord", "sizes", "kprime",
                                 "roles_swapped", "attempts", "diagnostics"]),
    # Verify-partition's report holds `sizes_exact`, the equal class sizes the
    # compatibility stage, whose certificate is a list of classes, does not recheck.
    (partition.StructureReport, ["sizes_exact", "super_pairs", "cycle_pairs", "chord_a",
                                 "chord_b"]),
    (partition.HostPartitionReport, ["partition", "reduced", "balance_ledger"]),
    (regularity.RegularityVerdict, ["regular", "density", "mode", "eps", "d", "witness",
                                    "degree_failure", "min_cross_degree"]),
    (conditions.DegreeSequenceVerdict, ["holds", "first_violation"]),
    (cli.PipelineReport, ["failed_stage", "stages", "seed", "config", "embedding",
                          "certified_negative"]),
    # The segmentation is one side code per vertex plus the vertices per side
    # (last, so the other ids keep their indices).
    (homomorphism.SegmentDecomposition, ["segment_of", "sizes", "boundary", "beta", "m1",
                                         "crossing"]),
], ids=lambda x: getattr(x, "__name__", None))
def test_dataclass_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


def test_removed_report_fields_have_no_alias():
    for cls, names in (
        (homomorphism.AttemptDiagnostics, ["boundary_small", "edges_on_pairs"]),
        (homomorphism.SegmentDecomposition, ["a_segments", "b_segments", "total_a", "total_b"]),
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
    assert "verify_partition_structure" in partition.__all__


# Each module's `__all__`, sorted, and the package's exports.  Test oracles and
# helpers no library code calls live in tests/oracles.py, not here.
MODULE_ALL = {
    "cli": ["PipelineReport", "StageResult", "main", "run_full_pipeline"],
    "conditions": ["DegreeSequenceVerdict", "EXACT_EXPANDER_CAP", "ExpanderVerdict", "OreVerdict",
                   "check_degree_sequence_condition", "check_ore_condition",
                   "check_robust_expander", "robust_neighborhood", "verify_expander_witness"],
    "embedder": ["check_compatibility", "embed_blowup", "embedding_respects_partition",
                 "verify_embedding"],
    "graph": ["BandwidthOrdering", "Graph", "at_least", "degree_sequence", "graph_from_json",
              "graph_to_json", "induced_subgraph", "subset_lanes", "verify_bandwidth_ordering",
              "vertex_mask"],
    "homomorphism": ["Homomorphism", "HomomorphismParams", "SegmentDecomposition",
                     "balance_trial_stats", "build_homomorphism", "choose_h_parameters",
                     "chop_into_segments", "drunken_assign", "group_and_split", "seeking_assign",
                     "sober_assign", "verify_homomorphism_certificate"],
    "hostgen": ["HostBundle", "TargetBundle", "gen_bandwidth_bipartite_h", "gen_cycle_blowup",
                "gen_extremal_counterexample", "gen_random_graph", "gen_super_regular_host"],
    "matching": ["hopcroft_karp"],
    "partition": ["BalanceLedger", "BalanceStep", "ClusterPartition", "Config", "CycleStructure",
                  "HostPartitionReport", "MobilityLedger", "MoveRecord",
                  "StructureReport", "assign_exceptional_vertices", "balance_partition",
                  "find_hamilton_cycle_and_chords", "load_config",
                  "prepare_host_partition", "redistribute_to_sizes", "relabel_partition",
                  "verify_partition_structure"],
    "regularity": ["EXACT_REGULARITY_CAP", "RegularityVerdict",
                   "build_reduced_graph", "check_regular_pair", "check_super_regular_pair",
                   "pair_density"],
    "rng": ["as_fraction", "ceil_frac", "derive_seed", "floor_frac", "make_rng", "rand_below",
            "rand_range", "sample_indices", "shuffled"],
    "walks": ["Matching", "ShiftedWalk", "find_closed_shifted_walk", "purify_walk",
              "simplify_walk", "validate_shifted_walk"],
}
PACKAGE_EXPORTS = [
    "BandwidthOrdering", "ClusterPartition", "Config", "Graph", "Matching", "ShiftedWalk",
    "balance_partition", "build_homomorphism", "build_reduced_graph", "check_compatibility",
    "check_degree_sequence_condition", "check_ore_condition", "check_regular_pair",
    "check_robust_expander", "check_super_regular_pair", "choose_h_parameters", "degree_sequence",
    "embed_blowup", "find_closed_shifted_walk", "find_hamilton_cycle_and_chords", "pair_density",
    "prepare_host_partition", "purify_walk", "redistribute_to_sizes", "robust_neighborhood",
    "simplify_walk", "validate_shifted_walk", "verify_bandwidth_ordering", "verify_embedding",
    "verify_homomorphism_certificate",
]
MOVED_TO_ORACLES = [
    "max_matching_size_small", "has_perfect_matching_small", "binomial_mod_distribution",
    "perturbation_bound", "PerturbedParams", "shifted_neighborhood_iterate",
    "shifted_neighborhood", "neighborhood", "dump_config",
]
# The cluster pairs (2i, 2i+1) are the embedder's only restricted graph, so
# nothing names it, and `embed_blowup` returns the map itself.  Cluster-level
# graphs (the reduced graph, the intermediate cycle) are `Graph`s.  Redistribution
# checks its targets itself and does not re-check the cycle host-partition found.
# A homing miss is a value the sampler returns, not an error.  The compatibility
# certificate is the list of offending classes.
REMOVED = ["Embedding", "_components", "ReducedGraph", "_normalize_edges", "_cycle_edge_ok",
           "check_mobility_hypotheses", "HypothesisReport", "SeekMissError",
           "CompatibilityReport"]


def test_library_surface_is_pinned():
    modules = {info.name: importlib.import_module(f"bandembed.{info.name}")
               for info in pkgutil.iter_modules(bandembed.__path__)}
    listed = {name: sorted(mod.__all__) for name, mod in modules.items()
              if hasattr(mod, "__all__")}
    exports = sorted(name for name, value in vars(bandembed).items()
                     if not name.startswith("_") and not inspect.ismodule(value))
    assert listed == MODULE_ALL
    assert exports == PACKAGE_EXPORTS
    for name, names in MODULE_ALL.items():
        assert all(hasattr(modules[name], attr) for attr in names), name
    for mod in [bandembed, *modules.values()]:
        assert not [attr for attr in MOVED_TO_ORACLES + REMOVED if hasattr(mod, attr)], mod.__name__
