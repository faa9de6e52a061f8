"""Unit tests for the adjacency-list evolving-graph representation."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, TimestampNotFoundError
from repro.graph import AdjacencyListEvolvingGraph


class TestConstruction:
    def test_empty_graph(self):
        g = AdjacencyListEvolvingGraph()
        assert g.num_timestamps == 0
        assert g.num_static_edges() == 0
        assert g.nodes() == set()

    def test_add_edge_creates_timestamp(self):
        g = AdjacencyListEvolvingGraph()
        assert g.add_edge("a", "b", 5)
        assert list(g.timestamps) == [5]
        assert g.has_edge("a", "b", 5)

    def test_duplicate_edge_ignored(self):
        g = AdjacencyListEvolvingGraph()
        assert g.add_edge(1, 2, 0)
        assert not g.add_edge(1, 2, 0)
        assert g.num_static_edges() == 1

    def test_add_edges_from_counts_new_edges(self):
        g = AdjacencyListEvolvingGraph()
        added = g.add_edges_from([(1, 2, 0), (1, 2, 0), (2, 3, 1)])
        assert added == 2
        assert g.num_static_edges() == 2

    def test_add_edges_from_rejects_malformed(self):
        g = AdjacencyListEvolvingGraph()
        with pytest.raises(GraphError):
            g.add_edges_from([(1, 2)])

    def test_unorderable_timestamp_registers_nothing(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        version = g.mutation_version
        with pytest.raises(TypeError):
            g.add_edge(0, 1, "x")
        assert not g.has_timestamp("x")
        assert list(g.timestamps) == [0]
        assert g.mutation_version == version

    def test_explicit_timestamps_kept_even_when_empty(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0, 1, 2])
        assert list(g.timestamps) == [0, 1, 2]
        assert list(g.edges_at(1)) == []

    def test_timestamps_sorted_regardless_of_insertion_order(self):
        g = AdjacencyListEvolvingGraph()
        g.add_edge(1, 2, 3)
        g.add_edge(1, 2, 1)
        g.add_edge(1, 2, 2)
        assert list(g.timestamps) == [1, 2, 3]

    def test_same_edge_at_different_times_allowed(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (1, 2, 1)])
        assert g.num_static_edges() == 2

    def test_constructor_with_edges_and_timestamps(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], timestamps=[0, 1])
        assert list(g.timestamps) == [0, 1]


class TestQueries:
    def test_out_and_in_neighbors(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (1, 3, 0), (2, 3, 0)])
        assert set(g.out_neighbors_at(1, 0)) == {2, 3}
        assert set(g.in_neighbors_at(3, 0)) == {1, 2}
        assert list(g.out_neighbors_at(3, 0)) == []

    def test_unknown_timestamp_raises(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        with pytest.raises(TimestampNotFoundError):
            list(g.edges_at(99))
        with pytest.raises(TimestampNotFoundError):
            list(g.out_neighbors_at(1, 99))

    def test_nodes_includes_isolated_endpoints(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        assert g.nodes() == {1, 2}

    def test_num_static_edges_at(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (2, 3, 0), (3, 4, 1)])
        assert g.num_static_edges_at(0) == 2
        assert g.num_static_edges_at(1) == 1

    def test_has_edge_semantics(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        assert g.has_edge(1, 2, 0)
        assert not g.has_edge(2, 1, 0)
        assert not g.has_edge(1, 2, 1)


class TestActiveness:
    def test_self_loop_does_not_activate(self):
        g = AdjacencyListEvolvingGraph([(1, 1, 0), (2, 3, 0)])
        assert not g.is_active(1, 0)
        assert g.is_active(2, 0)
        assert g.active_nodes_at(0) == {2, 3}

    def test_active_times_sorted(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 3), (1, 2, 1), (4, 1, 2)])
        assert g.active_times(1) == [1, 2, 3]

    def test_active_times_of_unknown_node(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        assert g.active_times(99) == []

    def test_is_active_unknown_time(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        assert not g.is_active(1, 42)

    def test_active_temporal_nodes_time_major_order(self):
        g = AdjacencyListEvolvingGraph([(2, 3, 1), (1, 2, 0)])
        order = g.active_temporal_nodes()
        assert order == [(1, 0), (2, 0), (2, 1), (3, 1)]


class TestForwardBackwardNeighbors:
    def test_forward_includes_all_later_active_times(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (1, 3, 2), (1, 4, 5)])
        assert set(g.forward_neighbors(1, 0)) == {(2, 0), (1, 2), (1, 5)}

    def test_forward_of_inactive_is_empty(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], timestamps=[0, 1])
        assert g.forward_neighbors(1, 1) == []
        assert g.forward_neighbors(3, 0) == []

    def test_backward_neighbors(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (3, 2, 1)])
        assert set(g.backward_neighbors(2, 1)) == {(3, 1), (2, 0)}

    def test_undirected_forward_neighbors_traverse_both_ways(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], directed=False)
        assert g.forward_neighbors(2, 0) == [(1, 0)]
        assert g.forward_neighbors(1, 0) == [(2, 0)]

    def test_self_loop_not_a_forward_neighbor(self):
        g = AdjacencyListEvolvingGraph([(1, 1, 0), (1, 2, 0)])
        assert (1, 0) not in g.forward_neighbors(1, 0)

    def test_causal_out_and_in_times(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (1, 2, 2), (1, 2, 4)])
        assert g.causal_out_times(1, 0) == [2, 4]
        assert g.causal_in_times(1, 4) == [0, 2]
        assert g.causal_out_times(1, 4) == []

    def test_causal_edge_count_formula(self):
        g = AdjacencyListEvolvingGraph([(1, 2, t) for t in range(5)])
        # nodes 1 and 2 are each active at 5 times: 2 * C(5,2) causal edges
        assert g.num_causal_edges() == 2 * 10
        assert len(list(g.causal_edges())) == 20


class TestCopyAndSubgraph:
    def test_copy_is_independent(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)])
        h = g.copy()
        h.add_edge(2, 3, 1)
        assert g.num_static_edges() == 1
        assert h.num_static_edges() == 2
        assert g.equals(AdjacencyListEvolvingGraph([(1, 2, 0)]))

    def test_subgraph_from_drops_earlier_snapshots(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0), (2, 3, 1), (3, 4, 2)])
        h = g.subgraph_from(1)
        assert list(h.timestamps) == [1, 2]
        assert h.num_static_edges() == 2
        assert not h.has_timestamp(0)

    def test_equals_detects_differences(self):
        a = AdjacencyListEvolvingGraph([(1, 2, 0)])
        b = AdjacencyListEvolvingGraph([(1, 2, 0), (2, 3, 0)])
        c = AdjacencyListEvolvingGraph([(1, 2, 0)], directed=False)
        assert not a.equals(b)
        assert not a.equals(c)


class TestUndirected:
    def test_undirected_duplicate_reversed_edge_ignored(self):
        g = AdjacencyListEvolvingGraph(directed=False)
        assert g.add_edge(1, 2, 0)
        assert not g.add_edge(2, 1, 0)
        assert g.num_static_edges() == 1

    def test_undirected_in_neighbors_mirror_out(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], directed=False)
        assert set(g.in_neighbors_at(1, 0)) == {2}
        assert set(g.out_neighbors_at(2, 0)) == {1}
