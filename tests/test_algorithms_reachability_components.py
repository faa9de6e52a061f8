"""Unit tests for reachability/influence sets and temporal connected components."""

from __future__ import annotations


from repro.algorithms import (
    backward_influence_set,
    component_of,
    earliest_influence_time,
    forward_influence_set,
    influence_node_identities,
    influence_sizes,
    influenced_by,
    num_weak_components,
    strong_temporal_components,
    weak_temporal_components,
)
from repro.core import evolving_bfs
from repro.generators import random_temporal_edges
from repro.graph import AdjacencyListEvolvingGraph


class TestInfluenceSets:
    def test_forward_influence_excludes_root(self, figure1):
        influence = forward_influence_set(figure1, (1, "t1"))
        assert (1, "t1") not in influence
        assert influence == {(2, "t1"), (1, "t2"), (3, "t2"), (2, "t3"), (3, "t3")}

    def test_backward_influence(self, figure1):
        sources = backward_influence_set(figure1, (3, "t3"))
        assert (1, "t1") in sources
        assert (3, "t3") not in sources

    def test_inactive_root_empty(self, figure1):
        assert forward_influence_set(figure1, (3, "t1")) == set()
        assert backward_influence_set(figure1, (3, "t1")) == set()

    def test_influence_node_identities(self, figure1):
        assert influence_node_identities(figure1, (1, "t1")) == {2, 3}
        assert influence_node_identities(figure1, (3, "t3"), backward=True) == {1, 2}

    def test_influenced_by_union(self, disconnected_graph):
        union = influenced_by(disconnected_graph, [(0, 0), (10, 0)])
        identities = {v for v, _ in union}
        assert {1, 2, 11, 12} <= identities
        assert (0, 0) not in union and (10, 0) not in union

    def test_influenced_by_all_inactive(self, figure1):
        assert influenced_by(figure1, [(3, "t1")]) == set()

    def test_earliest_influence_time(self, figure1):
        assert earliest_influence_time(figure1, (1, "t1"), 3) == "t2"
        assert earliest_influence_time(figure1, (1, "t1"), 2) == "t1"
        assert earliest_influence_time(figure1, (3, "t2"), 1) is None
        assert earliest_influence_time(figure1, (3, "t1"), 1) is None

    def test_influence_sizes_ranking(self, figure1):
        sizes = influence_sizes(figure1)
        assert sizes[(1, "t1")] == 2
        assert sizes[(3, "t3")] == 0
        # root at the earliest time has the widest influence
        assert sizes[(1, "t1")] >= sizes[(1, "t2")]

    def test_influence_sizes_custom_roots(self, figure1):
        sizes = influence_sizes(figure1, roots=[(1, "t1")])
        assert list(sizes) == [(1, "t1")]

    def test_influence_sizes_vectorized_matches_python(self):
        graph = AdjacencyListEvolvingGraph(
            random_temporal_edges(30, 4, 90, seed=5), timestamps=[0, 1, 2, 3]
        )
        active = graph.active_temporal_nodes()
        inactive = next(
            (v, t) for v in graph.nodes() for t in graph.timestamps
            if not graph.is_active(v, t)
        )
        roots = [active[3], inactive, active[0], active[3], active[-1]]
        expected = influence_sizes(graph, roots, backend="python")
        got = influence_sizes(graph, roots, backend="vectorized")
        assert list(got.items()) == list(expected.items())
        assert got[inactive] == 0
        assert influence_sizes(graph, backend="vectorized") == influence_sizes(
            graph, backend="python"
        )

    def test_influence_consistent_with_bfs(self, medium_random_graph):
        root = medium_random_graph.active_temporal_nodes()[0]
        reached = set(evolving_bfs(medium_random_graph, root).reached)
        assert forward_influence_set(medium_random_graph, root) == reached - {root}


class TestWeakComponents:
    def test_single_component_when_connected(self, figure1):
        comps = weak_temporal_components(figure1)
        assert len(comps) == 1
        assert comps[0] == set(figure1.active_temporal_nodes())

    def test_disconnected_graph_has_two_components(self, disconnected_graph):
        assert num_weak_components(disconnected_graph) == 2
        comps = weak_temporal_components(disconnected_graph)
        identities = [sorted({v for v, _ in c}) for c in comps]
        assert [0, 1, 2] in identities and [10, 11, 12] in identities

    def test_components_partition_active_nodes(self, medium_random_graph):
        comps = weak_temporal_components(medium_random_graph)
        union = set().union(*comps) if comps else set()
        assert union == set(medium_random_graph.active_temporal_nodes())
        total = sum(len(c) for c in comps)
        assert total == len(union)  # disjoint

    def test_components_sorted_by_size(self, disconnected_graph):
        comps = weak_temporal_components(disconnected_graph)
        sizes = [len(c) for c in comps]
        assert sizes == sorted(sizes, reverse=True)

    def test_component_of(self, disconnected_graph):
        comp = component_of(disconnected_graph, (0, 0))
        assert (1, 0) in comp
        assert all(v < 10 for v, _ in comp)

    def test_component_of_inactive(self, figure1):
        assert component_of(figure1, (3, "t1")) == set()

    def test_empty_graph(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0])
        assert weak_temporal_components(g) == []
        assert num_weak_components(g) == 0


class TestStrongComponents:
    def test_acyclic_graph_has_only_singletons(self, figure1):
        comps = strong_temporal_components(figure1)
        assert all(len(c) == 1 for c in comps)
        assert sum(len(c) for c in comps) == len(figure1.active_temporal_nodes())

    def test_cycle_within_snapshot_detected(self, cyclic_snapshot_graph):
        comps = strong_temporal_components(cyclic_snapshot_graph)
        largest = comps[0]
        assert largest == {(0, 0), (1, 0), (2, 0)}

    def test_cross_time_cycle_impossible(self):
        # 0->1 at t0 and 1->0 at t1 does NOT create a strong component:
        # (1, t0) can reach (0, t1)? no wait, (0,t0)->(1,t0)->(1,t1)->(0,t1) but
        # (0, t1) can never reach (0, t0) because time cannot decrease.
        g = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 0, 1)])
        comps = strong_temporal_components(g)
        assert all(len(c) == 1 for c in comps)

    def test_two_separate_cycles(self):
        g = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 0, 0), (2, 3, 1), (3, 2, 1)])
        comps = strong_temporal_components(g)
        sizes = sorted(len(c) for c in comps)
        assert sizes == [2, 2]
