"""Hop-constrained metric embeddings of weighted graphs into ultrametrics
and trees, plus the distance oracles, labelings, and compact routing schemes
built on them."""

from .clan import (ClanEmbedding, clan_cover, clan_create_cluster,
                   clan_create_cluster_alt, clan_distribution, clan_embed,
                   optimal_path_copies)
from .cover import SparseCover, edge_costs, sparse_cover
from .datastructures import CoarseBudgetExceeded
from .graph_core import (INFINITY, HopParams, WeightedGraph,
                         finite_completion, hop_ball, hop_diameter,
                         hop_distance, hop_distance_all, is_h_respecting,
                         is_inf)
from .preserve import (PathTreeEmbedding, Unreachable,
                       build_path_tree_embedding, image_of_general_subgraph,
                       image_of_respecting_subgraph, induced_path)
from .ramsey import (RamseyEmbedding, create_cluster, create_cluster_alt,
                     padded_partition, ramsey_distribution, ramsey_embed)
from .ultrametric import (Ultrametric, WeightedTree, join_under_root,
                          saturate_labels, steiner_point_removal,
                          tree_distance, ultra_distance, ultrametric_to_tree,
                          validate_ultrametric)

__all__ = [
    "INFINITY", "HopParams", "WeightedGraph",
    "finite_completion", "hop_ball", "hop_diameter", "hop_distance",
    "hop_distance_all", "is_h_respecting", "is_inf",
    "Ultrametric", "WeightedTree", "join_under_root", "saturate_labels",
    "steiner_point_removal", "tree_distance", "ultra_distance",
    "ultrametric_to_tree", "validate_ultrametric",
    "RamseyEmbedding", "create_cluster", "create_cluster_alt",
    "padded_partition", "ramsey_distribution", "ramsey_embed",
    "ClanEmbedding", "clan_cover", "clan_create_cluster",
    "clan_create_cluster_alt", "clan_distribution", "clan_embed",
    "optimal_path_copies",
    "SparseCover", "edge_costs", "sparse_cover",
    "CoarseBudgetExceeded",
    "PathTreeEmbedding", "Unreachable", "build_path_tree_embedding",
    "image_of_general_subgraph", "image_of_respecting_subgraph",
    "induced_path",
]
