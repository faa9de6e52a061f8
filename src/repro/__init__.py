"""repro — reproduction of "The Right Way to Search Evolving Graphs" (Chen & Zhang, IPPS 2016).

The package implements the paper's breadth-first search over evolving graphs
(Algorithm 1), its algebraic block-matrix formulation (Algorithm 2), the
Theorem-1 static expansion, correct-vs-naive temporal path counting, and the
surrounding substrates: evolving-graph representations, the vectorized
sparse engine with its operation counter, workload generators,
temporal-graph algorithms and analysis tools.

Quickstart
----------
>>> from repro import datasets, evolving_bfs
>>> g = datasets.figure1_graph()
>>> result = evolving_bfs(g, (1, "t1"))
>>> result.distance(3, "t3")
3
"""

from repro import (
    algorithms,
    analysis,
    datasets,
    engine,
    generators,
    io,
    linalg,
    parallel,
)
from repro.core import (
    BFSResult,
    BlockAdjacencyMatrix,
    StaticExpansion,
    TemporalNode,
    TemporalPath,
    algebraic_bfs,
    algebraic_bfs_blocked,
    backward_bfs,
    build_block_adjacency,
    build_static_expansion,
    count_temporal_paths,
    count_temporal_paths_by_hops,
    enumerate_temporal_paths,
    evolving_bfs,
    evolving_bfs_tree,
    expansion_bfs,
    forward_neighbors,
    k_forward_neighbors,
    multi_source_bfs,
    naive_path_count,
    naive_path_sum,
    reachable_set,
    shortest_temporal_path,
    temporal_distance,
)
from repro.exceptions import (
    ConvergenceError,
    GraphError,
    InactiveNodeError,
    InvalidTemporalPathError,
    IOFormatError,
    NodeNotFoundError,
    ReproError,
    RepresentationError,
    TimestampNotFoundError,
)
from repro.graph import (
    AdjacencyListEvolvingGraph,
    BaseEvolvingGraph,
    MatrixSequenceEvolvingGraph,
    SnapshotSequenceEvolvingGraph,
    StaticGraph,
    TemporalEdgeList,
    static_bfs,
    to_adjacency_list,
    to_edge_list,
    to_matrix_sequence,
    to_snapshot_sequence,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "datasets",
    "algorithms",
    "analysis",
    "engine",
    "generators",
    "io",
    "linalg",
    "parallel",
    # core API
    "TemporalNode",
    "TemporalPath",
    "BFSResult",
    "evolving_bfs",
    "evolving_bfs_tree",
    "multi_source_bfs",
    "backward_bfs",
    "algebraic_bfs",
    "algebraic_bfs_blocked",
    "build_static_expansion",
    "expansion_bfs",
    "StaticExpansion",
    "build_block_adjacency",
    "BlockAdjacencyMatrix",
    "forward_neighbors",
    "k_forward_neighbors",
    "enumerate_temporal_paths",
    "shortest_temporal_path",
    "count_temporal_paths",
    "count_temporal_paths_by_hops",
    "naive_path_sum",
    "naive_path_count",
    "temporal_distance",
    "reachable_set",
    # graph representations
    "BaseEvolvingGraph",
    "AdjacencyListEvolvingGraph",
    "TemporalEdgeList",
    "MatrixSequenceEvolvingGraph",
    "SnapshotSequenceEvolvingGraph",
    "StaticGraph",
    "static_bfs",
    "to_adjacency_list",
    "to_edge_list",
    "to_matrix_sequence",
    "to_snapshot_sequence",
    # exceptions
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "TimestampNotFoundError",
    "InactiveNodeError",
    "InvalidTemporalPathError",
    "RepresentationError",
    "ConvergenceError",
    "IOFormatError",
]
