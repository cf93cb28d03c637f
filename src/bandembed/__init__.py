"""Certification and embedding machinery for bounded-degree, small-bandwidth
bipartite spanning subgraphs of structured hosts."""

from .conditions import (
    check_degree_sequence_condition,
    check_ore_condition,
    check_robust_expander,
    robust_neighborhood,
)
from .embedder import check_compatibility, embed_blowup, verify_embedding
from .graph import (
    BandwidthOrdering,
    Graph,
    degree_sequence,
    verify_bandwidth_ordering,
)
from .homomorphism import (
    build_homomorphism,
    choose_h_parameters,
    verify_homomorphism_certificate,
)
from .partition import (
    ClusterPartition,
    Config,
    balance_partition,
    find_hamilton_cycle_and_chords,
    prepare_host_partition,
    redistribute_to_sizes,
)
from .regularity import (
    build_reduced_graph,
    check_regular_pair,
    check_super_regular_pair,
    pair_density,
)
from .walks import (
    Matching,
    ShiftedWalk,
    find_closed_shifted_walk,
    purify_walk,
    simplify_walk,
    validate_shifted_walk,
)

__version__ = "0.1.0"
