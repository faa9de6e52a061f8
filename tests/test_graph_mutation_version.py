"""Mutation-version tracking across every evolving-graph representation.

The graph layer stamps each representation with a monotonically increasing
``mutation_version`` (bumped by ``add_edge``/``add_timestamp``/
``add_snapshot``/``remove_edge``), which the engine's kernel cache keys on —
making invalidation exact instead of count-heuristic.  These tests pin the
bumping discipline per representation, the new ``remove_edge`` bookkeeping,
and the compiled artifact's version stamp.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bfs import evolving_bfs
from repro.exceptions import TimestampNotFoundError
from repro.graph import (
    AdjacencyListEvolvingGraph,
    CompiledTemporalGraph,
    MatrixSequenceEvolvingGraph,
    SnapshotSequenceEvolvingGraph,
    StaticGraph,
    TemporalEdgeList,
)


class TestAdjacencyListVersion:
    def test_new_edges_and_timestamps_bump(self):
        graph = AdjacencyListEvolvingGraph()
        v0 = graph.mutation_version
        graph.add_timestamp("t1")
        v1 = graph.mutation_version
        assert v1 > v0
        graph.add_edge(1, 2, "t1")
        v2 = graph.mutation_version
        assert v2 > v1
        graph.add_edge(1, 3, "t2")  # creates the timestamp too
        assert graph.mutation_version > v2

    def test_noop_mutations_do_not_bump(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
        version = graph.mutation_version
        graph.add_timestamp("t1")
        assert not graph.add_edge(1, 2, "t1")  # duplicate
        assert not graph.remove_edge(5, 6, "t1")  # absent
        assert graph.mutation_version == version

    def test_remove_edge_bumps_and_updates_activeness(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1"), (2, 3, "t1")])
        version = graph.mutation_version
        assert graph.remove_edge(2, 3, "t1")
        assert graph.mutation_version > version
        assert graph.num_static_edges() == 1
        assert not graph.has_edge(2, 3, "t1")
        assert graph.is_active(2, "t1")  # still touches 1 -- 2
        assert not graph.is_active(3, "t1")
        assert graph.active_times(3) == []
        assert graph.nodes() == {1, 2}

    def test_remove_edge_undirected_ignores_orientation(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1")], directed=False)
        assert graph.remove_edge(2, 1, "t1")
        assert graph.num_static_edges() == 0
        assert not graph.is_active(1, "t1")
        assert not graph.is_active(2, "t1")
        assert list(graph.out_neighbors_at(1, "t1")) == []
        assert list(graph.in_neighbors_at(2, "t1")) == []
        assert graph.nodes() == set()

    @pytest.mark.parametrize("directed", [True, False])
    def test_removal_leaves_no_ghost_nodes(self, directed):
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 1)], timestamps=[0, 1], directed=directed
        )
        assert graph.remove_edge(1, 2, 1)
        fresh = AdjacencyListEvolvingGraph(
            [(0, 1, 0)], timestamps=[0, 1], directed=directed
        )
        assert graph.nodes() == fresh.nodes() == {0, 1}
        assert graph.nodes() == set(graph.compile().node_labels)

    def test_remove_edge_missing_timestamp_raises(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
        with pytest.raises(TimestampNotFoundError):
            graph.remove_edge(1, 2, "t9")

    def test_python_bfs_consistent_after_removal(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1), (2, 3, 2)])
        graph.remove_edge(1, 2, 1)
        vectorized = evolving_bfs(graph, (0, 0), backend="vectorized").reached
        python = evolving_bfs(graph, (0, 0), backend="python").reached
        assert vectorized == python
        assert (2, 1) not in vectorized


class TestSnapshotSequenceVersion:
    def test_add_snapshot_and_add_edge_bump(self):
        graph = SnapshotSequenceEvolvingGraph()
        v0 = graph.mutation_version
        graph.add_snapshot("t1")
        v1 = graph.mutation_version
        assert v1 > v0
        graph.add_edge(1, 2, "t1")
        assert graph.mutation_version > v1

    def test_direct_snapshot_mutation_is_detected(self):
        """Edges inserted straight on a stored StaticGraph bump the version."""
        graph = SnapshotSequenceEvolvingGraph()
        graph.add_snapshot("t1")
        version = graph.mutation_version
        graph.snapshot("t1").add_edge(1, 2)
        assert graph.mutation_version > version

    def test_static_graph_version(self):
        g = StaticGraph()
        v0 = g.mutation_version
        g.add_node("a")
        v1 = g.mutation_version
        assert v1 > v0
        g.add_node("a")  # already present
        assert g.mutation_version == v1
        g.add_edge("a", "b")
        v2 = g.mutation_version
        assert v2 > v1
        assert not g.add_edge("a", "b")
        assert g.mutation_version == v2


class TestImmutableRepresentationVersions:
    def test_edge_list_version_is_constant_zero(self):
        graph = TemporalEdgeList([(1, 2, "t1"), (2, 3, "t2")])
        assert graph.mutation_version == 0

    def test_matrix_sequence_matrices_are_frozen(self):
        """In-place edits of a stored matrix cannot silently bypass the version.

        ``matrix_at`` returns the stored CSR; mutating it would leave the
        compiled-kernel cache stale (mutation_version unchanged), so the
        buffers are read-only and the edit raises instead.
        """
        graph = MatrixSequenceEvolvingGraph(
            [np.array([[0, 1], [0, 0]]), np.array([[0, 1], [1, 0]])], [0, 1]
        )
        mat = graph.matrix_at(1)
        with pytest.raises(ValueError):
            mat.data[:] = 0
        with pytest.raises(ValueError):
            graph.matrices()[0].indices[:] = 0
        assert graph.num_static_edges() == 3  # untouched

    def test_matrix_sequence_add_snapshot_bumps(self):
        a = np.array([[0, 1], [0, 0]])
        graph = MatrixSequenceEvolvingGraph([a], ["t1"])
        version = graph.mutation_version
        graph.add_snapshot("t2", np.array([[0, 0], [1, 0]]))
        assert graph.mutation_version > version
        assert list(graph.timestamps) == ["t1", "t2"]
        assert graph.has_edge(1, 0, "t2")
        # inserting before an existing timestamp keeps the order sorted
        graph.add_snapshot("t0", np.array([[0, 1], [1, 0]]))
        assert list(graph.timestamps) == ["t0", "t1", "t2"]
        assert evolving_bfs(graph, (0, "t0")).reached == evolving_bfs(
            graph, (0, "t0"), backend="python"
        ).reached


class TestCompiledArtifact:
    def test_compile_stamps_the_version(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
        compiled = graph.compile()
        assert isinstance(compiled, CompiledTemporalGraph)
        assert compiled.mutation_version == graph.mutation_version
        assert compiled.is_current(graph)
        graph.add_edge(2, 3, "t2")
        assert not compiled.is_current(graph)

    def test_compiled_structure_matches_graph(self):
        graph = AdjacencyListEvolvingGraph(
            [(1, 2, "t1"), (2, 3, "t2"), (3, 1, "t2")], timestamps=["t1", "t2", "t3"]
        )
        compiled = graph.compile()
        assert compiled.num_snapshots == 3
        assert set(compiled.node_labels) == {1, 2, 3}
        assert compiled.times == ("t1", "t2", "t3")
        assert compiled.nnz == 3
        for v, t in graph.active_temporal_nodes():
            assert compiled.is_active(v, t)
        assert not compiled.is_active(1, "t3")
        assert compiled.slot(9, "t1") is None

    def test_undirected_compilation_aliases_transposes(self):
        graph = AdjacencyListEvolvingGraph([(1, 2, "t1")], directed=False)
        compiled = graph.compile()
        # symmetric operators: the backward stack is the forward stack
        assert compiled.transposes_built
        fwd = compiled.forward_operators[0]
        assert (fwd != fwd.T).nnz == 0
