"""Evolving-graph data structures (the substrate of the paper's Definition 1).

The subpackage offers four interchangeable representations plus a static
graph used by the Theorem-1 expansion:

* :class:`~repro.graph.adjacency_list.AdjacencyListEvolvingGraph` — mutable,
  hash-map based, the analogue of ``IntEvolvingGraph`` in EvolvingGraphs.jl;
  the representation Algorithm 1 and the Figure-5 experiment use.
* :class:`~repro.graph.edge_list.TemporalEdgeList` — immutable, columnar,
  NumPy-backed ``(u, v, t)`` arrays for bulk processing.
* :class:`~repro.graph.adjacency_matrix.MatrixSequenceEvolvingGraph` — the
  sequence of per-snapshot sparse adjacency matrices of Section III.
* :class:`~repro.graph.snapshots.SnapshotSequenceEvolvingGraph` — a literal
  list of static snapshots per Definition 1.
* :class:`~repro.graph.static_graph.StaticGraph` — ordinary static graph with
  a textbook BFS (the oracle of Theorem 1).

Every representation carries a monotonically increasing ``mutation_version``
and compiles into the shared immutable
:class:`~repro.graph.compiled.CompiledTemporalGraph` artifact (node index,
block-diagonal CSR operator stacks, activeness mask) that the engine and the
vectorized analytics execute over; see :func:`repro.engine.get_compiled` for
the version-exact cache.
"""

from repro.graph.adjacency_list import AdjacencyListEvolvingGraph
from repro.graph.adjacency_matrix import MatrixSequenceEvolvingGraph
from repro.graph.base import BaseEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph
from repro.graph.converters import (
    to_adjacency_list,
    to_edge_list,
    to_matrix_sequence,
    to_snapshot_sequence,
    to_triples,
)
from repro.graph.edge_list import TemporalEdgeList
from repro.graph.sharded import ShardedTemporalGraph
from repro.graph.snapshots import SnapshotSequenceEvolvingGraph
from repro.graph.static_graph import StaticGraph, static_bfs
from repro.graph.validation import (
    all_snapshots_acyclic,
    is_temporal_path,
    snapshot_is_acyclic,
    validate_evolving_graph,
    validate_temporal_path,
)

__all__ = [
    "BaseEvolvingGraph",
    "CompiledTemporalGraph",
    "ShardedTemporalGraph",
    "AdjacencyListEvolvingGraph",
    "TemporalEdgeList",
    "MatrixSequenceEvolvingGraph",
    "SnapshotSequenceEvolvingGraph",
    "StaticGraph",
    "static_bfs",
    "to_triples",
    "to_adjacency_list",
    "to_edge_list",
    "to_matrix_sequence",
    "to_snapshot_sequence",
    "validate_evolving_graph",
    "validate_temporal_path",
    "is_temporal_path",
    "snapshot_is_acyclic",
    "all_snapshots_acyclic",
]
