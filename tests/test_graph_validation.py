"""Unit tests for evolving-graph and temporal-path validation."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    GraphError,
    InvalidTemporalPathError,
    TimestampNotFoundError,
)
from repro.graph import (
    AdjacencyListEvolvingGraph,
    all_snapshots_acyclic,
    is_temporal_path,
    snapshot_is_acyclic,
    validate_evolving_graph,
    validate_temporal_path,
)
from repro.graph.validation import validate_edge_batch


class TestValidateEvolvingGraph:
    def test_valid_graph_passes(self, figure1):
        validate_evolving_graph(figure1)

    def test_random_graph_passes(self, small_random_graph):
        validate_evolving_graph(small_random_graph)

    def test_empty_graph_passes(self):
        validate_evolving_graph(AdjacencyListEvolvingGraph())


class TestValidateEdgeBatch:
    def test_returns_both_batches_as_triples(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        ins, rem = validate_edge_batch(g, iter([[1, 2, 5]]), ((0, 1, 0),))
        assert ins == [(1, 2, 5)]
        assert rem == [(0, 1, 0)]

    @pytest.mark.parametrize("item", [(0, 1), ([0], 1, 0), (0, 1, {0})], ids=repr)
    def test_rejects_non_triples_and_unhashable_labels(self, item):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        with pytest.raises(GraphError):
            validate_edge_batch(g, [item], [])
        with pytest.raises(GraphError):
            validate_edge_batch(g, [], [item])

    def test_removal_timestamp_must_be_registered(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        with pytest.raises(TimestampNotFoundError):
            validate_edge_batch(g, [(1, 2, 7)], [(1, 2, 7)])

    def test_new_insertion_timestamps_must_be_orderable(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        validate_edge_batch(g, [(0, 1, 3), (0, 1, 2.5)], [])
        with pytest.raises(GraphError):
            validate_edge_batch(g, [(0, 1, "x")], [])
        # two new labels that only fail against each other
        with pytest.raises(GraphError):
            validate_edge_batch(AdjacencyListEvolvingGraph(), [(0, 1, "x"), (0, 1, 2)], [])


class TestValidateTemporalPath:
    def test_empty_path_is_valid(self, figure1):
        validate_temporal_path(figure1, [])

    def test_single_active_node_is_valid(self, figure1):
        validate_temporal_path(figure1, [(1, "t1")])

    def test_single_inactive_node_is_invalid(self, figure1):
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(3, "t1")])

    def test_paper_paths_are_valid(self, figure1):
        validate_temporal_path(
            figure1, [(1, "t1"), (1, "t2"), (3, "t2"), (3, "t3")])
        validate_temporal_path(
            figure1, [(1, "t1"), (2, "t1"), (2, "t3"), (3, "t3")])

    def test_backward_time_step_rejected(self, figure1):
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(1, "t2"), (1, "t1")])

    def test_missing_static_edge_rejected(self, figure1):
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(2, "t1"), (1, "t1")])

    def test_diagonal_step_rejected(self, figure1):
        # changing node and time simultaneously is not a temporal-path step
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(1, "t1"), (3, "t2")])

    def test_repeated_temporal_node_rejected(self, figure1):
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(1, "t1"), (1, "t1")])

    def test_unknown_timestamp_rejected(self, figure1):
        with pytest.raises(InvalidTemporalPathError):
            validate_temporal_path(figure1, [(1, "t9")])

    def test_is_temporal_path_boolean_wrapper(self, figure1):
        assert is_temporal_path(figure1, [(1, "t1"), (2, "t1")])
        assert not is_temporal_path(figure1, [(1, "t1"), (3, "t1")])

    def test_path_through_inactive_intermediate_rejected(self, figure1):
        bad = [(1, "t1"), (1, "t2"), (2, "t2")]
        assert not is_temporal_path(figure1, bad)

    def test_undirected_path_can_traverse_reverse_orientation(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], directed=False)
        validate_temporal_path(g, [(2, 0), (1, 0)])


class TestAcyclicity:
    def test_acyclic_snapshots(self, figure1):
        assert all_snapshots_acyclic(figure1)
        assert snapshot_is_acyclic(figure1, "t1")

    def test_cyclic_snapshot_detected(self, cyclic_snapshot_graph):
        assert not snapshot_is_acyclic(cyclic_snapshot_graph, 0)
        assert snapshot_is_acyclic(cyclic_snapshot_graph, 1)
        assert not all_snapshots_acyclic(cyclic_snapshot_graph)

    def test_self_loop_is_a_cycle(self):
        g = AdjacencyListEvolvingGraph([(1, 1, 0), (2, 3, 0)])
        assert not snapshot_is_acyclic(g, 0)

    def test_empty_snapshot_is_acyclic(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0])
        assert snapshot_is_acyclic(g, 0)
