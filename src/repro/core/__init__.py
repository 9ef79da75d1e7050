"""Core hypergraph theory of Maier & Ullman's "Connections in Acyclic Hypergraphs".

This package implements Sections 1–6 of the paper: hypergraphs, Graham (GYO)
reduction with sacred nodes, tableaux and tableau reduction, canonical
connections, connecting/independent trees and paths, and executable versions
of the paper's lemmas and theorems.
"""

from .acyclicity import (
    acyclicity_report,
    cyclicity_witness,
    is_acyclic,
    is_acyclic_by_definition,
    is_acyclic_gyo,
    is_acyclic_via_join_tree,
    is_berge_acyclic,
    is_beta_acyclic,
)
from .articulation import (
    articulation_sets,
    articulation_split,
    block_decomposition,
    blocks,
    candidate_articulation_sets,
    find_articulation_set,
    has_articulation_set,
    is_articulation_set,
    maximal_edge_intersection,
)
from .canonical import (
    CanonicalConnection,
    canonical_connection,
    canonical_connection_result,
    connection_nodes,
    connection_objects,
    connects,
    graham_connection,
)
from .components import (
    components,
    component_count,
    connecting_edge_sequence,
    edge_components,
    is_connected,
    nodes_connected,
    separates,
)
from .connecting_tree import (
    ConnectingPath,
    ConnectingTree,
    connecting_tree_violations,
    independent_path_from_tree,
)
from .generated import (
    is_node_generated,
    is_partial_edge,
    node_generated_edges,
    node_generated_hypergraph,
    partial_edges_of,
)
from .graham import (
    EdgeRemoval,
    GrahamResult,
    NodeRemoval,
    ReductionTrace,
    applicable_edge_removals,
    applicable_node_removals,
    applicable_steps,
    apply_step,
    check_confluence,
    graham_reduce,
    graham_reduction,
    gyo_reduction,
    random_order_reduction,
    reduces_to_nothing,
)
from .graham_kernel import graham_survivors
from .hypergraph import Edge, Hypergraph
from .independent_path import (
    IndependentPathCertificate,
    find_independent_path,
    independent_path_exists,
    is_independent_path,
)
from .join_tree import JoinTree, build_join_tree, has_join_tree, join_tree_via_ears
from .nodes import (
    Node,
    NodeSet,
    format_edge_set,
    format_node_set,
    parse_compact_nodes,
    sorted_nodes,
)
from .row_mapping import RowMapping, find_homomorphism, find_retraction, is_valid_row_mapping
from .tableau import SpecialSymbol, Symbol, Tableau, TableauRow, UniqueSymbol
from .tableau_reduction import (
    TableauReductionResult,
    minimal_rows,
    tableau_reduce,
    tableau_reduction,
)
from .theorems import (
    check_all,
    check_corollary_3_7,
    check_corollary_6_2,
    check_lemma_2_1,
    check_lemma_3_6,
    check_lemma_3_8,
    check_lemma_3_9,
    check_lemma_3_10,
    check_lemma_4_1,
    check_lemma_4_2,
    check_lemma_5_2,
    check_theorem_3_5,
    check_theorem_6_1,
    is_edge_ring,
)

__all__ = [
    # hypergraph & helpers
    "Hypergraph", "Edge", "Node", "NodeSet",
    "format_node_set", "format_edge_set", "parse_compact_nodes", "sorted_nodes",
    # connectivity
    "components", "component_count", "is_connected", "nodes_connected",
    "connecting_edge_sequence", "edge_components", "separates",
    # generated sets
    "node_generated_edges", "node_generated_hypergraph", "is_node_generated",
    "is_partial_edge", "partial_edges_of",
    # articulation
    "articulation_sets", "is_articulation_set", "has_articulation_set",
    "find_articulation_set", "articulation_split", "blocks", "block_decomposition",
    "candidate_articulation_sets", "maximal_edge_intersection",
    # graham reduction
    "graham_reduction", "graham_reduce", "gyo_reduction", "reduces_to_nothing",
    "GrahamResult", "ReductionTrace", "NodeRemoval", "EdgeRemoval",
    "applicable_steps", "applicable_node_removals", "applicable_edge_removals",
    "apply_step", "random_order_reduction", "check_confluence", "graham_survivors",
    # acyclicity
    "is_acyclic", "is_acyclic_gyo", "is_acyclic_by_definition",
    "is_acyclic_via_join_tree", "is_berge_acyclic", "is_beta_acyclic",
    "cyclicity_witness", "acyclicity_report",
    # join trees
    "JoinTree", "build_join_tree", "join_tree_via_ears", "has_join_tree",
    # tableaux
    "Tableau", "TableauRow", "Symbol", "SpecialSymbol", "UniqueSymbol",
    "RowMapping", "find_homomorphism", "find_retraction", "is_valid_row_mapping",
    "tableau_reduction", "tableau_reduce", "minimal_rows", "TableauReductionResult",
    # canonical connections
    "CanonicalConnection", "canonical_connection", "canonical_connection_result",
    "connection_nodes", "connection_objects", "connects", "graham_connection",
    # connecting / independent trees and paths
    "ConnectingTree", "ConnectingPath", "connecting_tree_violations",
    "independent_path_from_tree", "IndependentPathCertificate",
    "find_independent_path", "independent_path_exists", "is_independent_path",
    # theorem checkers
    "check_lemma_2_1", "check_theorem_3_5", "check_lemma_3_6", "check_corollary_3_7",
    "check_lemma_3_8", "check_lemma_3_9", "check_lemma_3_10", "is_edge_ring",
    "check_lemma_4_1", "check_lemma_4_2", "check_lemma_5_2", "check_theorem_6_1",
    "check_corollary_6_2", "check_all",
]
