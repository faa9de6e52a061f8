"""Descriptive statistics of evolving graphs.

These summaries back the worked examples (``examples/``): how many
temporal nodes are active, how the causal edge set ``E'`` compares in size
with the static edge set ``E~`` (the paper notes the number of causal edges
per active node is bounded by the number of timestamps), per-snapshot edge
counts, and degree statistics of the Theorem-1 expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.expansion import build_static_expansion
from repro.graph.base import BaseEvolvingGraph, Time

__all__ = [
    "EvolvingGraphStats",
    "compute_stats",
    "per_snapshot_edge_counts",
    "causal_to_static_ratio",
]


@dataclass
class EvolvingGraphStats:
    """Summary statistics of one evolving graph."""

    num_timestamps: int
    num_node_identities: int
    num_active_temporal_nodes: int
    num_static_edges: int
    num_causal_edges: int
    num_expanded_edges: int
    static_edges_per_snapshot: dict[Time, int] = field(default_factory=dict)
    active_nodes_per_snapshot: dict[Time, int] = field(default_factory=dict)
    mean_out_degree_expansion: float = 0.0
    max_out_degree_expansion: int = 0
    mean_active_times_per_node: float = 0.0

    def as_dict(self) -> dict[str, object]:
        """Flat dictionary view (used by reports and serialisation)."""
        return {
            "num_timestamps": self.num_timestamps,
            "num_node_identities": self.num_node_identities,
            "num_active_temporal_nodes": self.num_active_temporal_nodes,
            "num_static_edges": self.num_static_edges,
            "num_causal_edges": self.num_causal_edges,
            "num_expanded_edges": self.num_expanded_edges,
            "mean_out_degree_expansion": self.mean_out_degree_expansion,
            "max_out_degree_expansion": self.max_out_degree_expansion,
            "mean_active_times_per_node": self.mean_active_times_per_node,
        }


def per_snapshot_edge_counts(graph: BaseEvolvingGraph) -> dict[Time, int]:
    """Number of static edges in each snapshot."""
    return {t: sum(1 for _ in graph.edges_at(t)) for t in graph.timestamps}


def causal_to_static_ratio(graph: BaseEvolvingGraph) -> float:
    """``|E'| / |E~|`` — how much the causal structure inflates the edge set.

    Returns ``nan`` for graphs with no static edges.
    """
    static = graph.num_static_edges()
    if static == 0:
        return float("nan")
    return graph.num_causal_edges() / static


def compute_stats(graph: BaseEvolvingGraph) -> EvolvingGraphStats:
    """Compute the full statistics bundle (builds the static expansion once)."""
    expansion = build_static_expansion(graph)
    nodes = graph.nodes()
    active_per_snapshot = {t: len(graph.active_nodes_at(t)) for t in graph.timestamps}
    active_times_counts = [len(graph.active_times(v)) for v in nodes]
    out_degrees = np.array(
        [expansion.graph.out_degree(tn) for tn in expansion.node_order],
        dtype=np.int64,
    )
    return EvolvingGraphStats(
        num_timestamps=graph.num_timestamps,
        num_node_identities=len(nodes),
        num_active_temporal_nodes=expansion.num_active_nodes,
        num_static_edges=graph.num_static_edges(),
        num_causal_edges=expansion.num_causal_edges,
        num_expanded_edges=expansion.num_edges,
        static_edges_per_snapshot=per_snapshot_edge_counts(graph),
        active_nodes_per_snapshot=active_per_snapshot,
        mean_out_degree_expansion=(
            float(out_degrees.mean()) if out_degrees.size else 0.0
        ),
        max_out_degree_expansion=int(out_degrees.max()) if out_degrees.size else 0,
        mean_active_times_per_node=(
            float(np.mean(active_times_counts)) if active_times_counts else 0.0
        ),
    )
