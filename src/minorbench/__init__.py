"""Workbench for graph-minor gadget constructions and their verification.

The package builds deletion-robust blowups of graph segments, assembles
counterexample hosts around a supplied core graph, and checks the
claimed properties (minor containment, robustness under small edge
deletions, packing bounds, locality of embeddings) exhaustively at
desk scale with deterministic, machine-readable reports.
"""

from .graph import (Edge, Graph, GraphError, ParseError, connected_components,
                    contract_edge, delete_edges, edge, parse_graph,
                    parse_graph6, relabeled_union, serialize)
from .decompose import (Block, BlockCutTree, Segment, Shape, block_cut_tree,
                        branch_vertices, choose_leaf_block, classify_shape,
                        minimal_subtree, segment_decomposition)
from .embed import (DEFAULT_NODE_BUDGET, BudgetExceeded, MinorEmbedding,
                    MinorPredicate, NodeCounter, SearchResult, SearchStatus,
                    enumerate_expansions, find_expansion,
                    iter_expansion_footprints, is_minor, verify_embedding)
from .gadgets import (BuildTrace, CoreSpec, assemble_block_counterexample,
                      assemble_component_counterexample, core_region,
                      load_core_spec, segment_blowup)
from .verify import (DEFAULT_SEED, Budget, HitResult, Outcome, PackingResult,
                     Report, canonical_json, check_assembly_robustness,
                     check_branch_count, check_expansion_locality,
                     check_gadget_robustness, check_generic_counterexample,
                     check_hereditary_sampled, graph_json,
                     max_edge_disjoint_packing, min_edge_hitting_set)

__version__ = "0.1.0"

__all__ = [
    "Block", "BlockCutTree", "Budget", "BudgetExceeded", "BuildTrace",
    "CoreSpec", "DEFAULT_NODE_BUDGET", "DEFAULT_SEED", "Edge", "Graph",
    "GraphError", "HitResult", "MinorEmbedding", "MinorPredicate",
    "NodeCounter", "Outcome", "PackingResult", "ParseError", "Report",
    "SearchResult", "SearchStatus", "Segment", "Shape",
    "assemble_block_counterexample",
    "assemble_component_counterexample", "block_cut_tree", "branch_vertices",
    "canonical_json", "check_assembly_robustness", "check_branch_count",
    "check_expansion_locality", "check_gadget_robustness",
    "check_generic_counterexample", "check_hereditary_sampled",
    "choose_leaf_block", "classify_shape", "connected_components",
    "contract_edge", "core_region", "delete_edges", "edge", "enumerate_expansions", "find_expansion", "graph_json",
    "is_minor", "iter_expansion_footprints", "load_core_spec",
    "max_edge_disjoint_packing", "min_edge_hitting_set", "minimal_subtree",
    "parse_graph", "parse_graph6",
    "relabeled_union", "segment_blowup",
    "segment_decomposition", "serialize", "verify_embedding",
]
