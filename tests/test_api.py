"""Parameter lists and fields of the public calls whose single-value options are constants."""

import dataclasses
import inspect

import pytest

from bandembed import conditions, embedder, homomorphism, partition, regularity

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
], ids=lambda x: getattr(x, "__name__", None))
def test_dataclass_fields(cls, fields):
    assert [f.name for f in dataclasses.fields(cls)] == fields


def test_partition_exports_its_certificates():
    assert {"verify_partition_structure", "check_mobility_hypotheses"} <= set(partition.__all__)
