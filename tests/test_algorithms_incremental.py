"""Unit tests for incremental BFS maintenance under edge insertions."""

from __future__ import annotations

import pytest

from repro.algorithms.incremental import IncrementalBFS
from repro.core import evolving_bfs
from repro.exceptions import GraphError
from repro.generators import EdgeStream, random_temporal_edges
from repro.graph import AdjacencyListEvolvingGraph, TemporalEdgeList


class TestBasics:
    def test_requires_mutable_representation(self):
        frozen = TemporalEdgeList([(0, 1, 0)])
        with pytest.raises(GraphError):
            IncrementalBFS(frozen, (0, 0))  # type: ignore[arg-type]

    def test_starts_empty_for_inactive_root(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0, 1])
        inc = IncrementalBFS(g, (0, 0))
        assert inc.distances == {}
        assert not inc.is_reachable(0, 0)

    def test_activating_edge_triggers_initial_search(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0, 1])
        inc = IncrementalBFS(g, (0, 0))
        assert inc.add_edge(0, 1, 0)
        assert inc.distance(0, 0) == 0
        assert inc.distance(1, 0) == 1

    def test_duplicate_edge_is_noop(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        inc = IncrementalBFS(g, (0, 0))
        assert not inc.add_edge(0, 1, 0)
        assert inc.num_updates == 0

    def test_initialises_from_existing_graph(self, figure1):
        inc = IncrementalBFS(figure1, (1, "t1"))
        assert inc.distances == evolving_bfs(figure1, (1, "t1")).reached

    def test_package_exports_both_incremental_classes(self):
        import repro.algorithms
        from repro.algorithms import IncrementalEarliestArrival, incremental

        assert IncrementalEarliestArrival is incremental.IncrementalEarliestArrival
        assert "IncrementalEarliestArrival" in repro.algorithms.__all__

    def test_as_result_snapshot(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0)])
        inc = IncrementalBFS(g, (0, 0))
        result = inc.as_result()
        assert result.reached == {(0, 0): 0, (1, 0): 1}
        assert result.root == (0, 0)


class TestAgainstRecompute:
    def _check_matches_scratch(self, inc: IncrementalBFS):
        graph = inc.graph
        root = inc.root
        if graph.is_active(*root):
            expected = evolving_bfs(graph, root).reached
        else:
            expected = {}
        assert inc.distances == expected

    def test_growing_the_figure1_graph(self):
        g = AdjacencyListEvolvingGraph(timestamps=["t1", "t2", "t3"])
        inc = IncrementalBFS(g, (1, "t1"))
        for edge in [(1, 2, "t1"), (1, 3, "t2"), (2, 3, "t3")]:
            inc.add_edge(*edge)
            self._check_matches_scratch(inc)
        assert inc.distance(3, "t3") == 3

    def test_edge_that_shortens_a_distance(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 0), (2, 3, 0)])
        inc = IncrementalBFS(g, (0, 0))
        assert inc.distance(3, 0) == 3
        inc.add_edge(0, 3, 0)
        assert inc.distance(3, 0) == 1
        self._check_matches_scratch(inc)

    def test_edge_that_newly_activates_a_later_appearance(self):
        # node 1 becomes active at time 2 only after the second insertion,
        # creating a causal edge (1, 0) -> (1, 2) retroactively.
        g = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1, 2])
        inc = IncrementalBFS(g, (0, 0))
        assert inc.distance(1, 2) is None
        inc.add_edge(1, 5, 2)
        assert inc.distance(1, 2) == 2
        assert inc.distance(5, 2) == 3
        self._check_matches_scratch(inc)

    def test_edge_earlier_than_root_time_is_ignored(self):
        g = AdjacencyListEvolvingGraph([(0, 1, 1)], timestamps=[0, 1])
        inc = IncrementalBFS(g, (0, 1))
        inc.add_edge(5, 6, 0)
        assert inc.distance(5, 0) is None
        self._check_matches_scratch(inc)

    def test_out_of_order_timestamps(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0, 1, 2])
        inc = IncrementalBFS(g, (0, 0))
        # later snapshot filled first, then the connecting earlier edge arrives
        inc.add_edge(1, 2, 2)
        self._check_matches_scratch(inc)
        inc.add_edge(0, 1, 0)
        assert inc.distance(1, 2) == 2   # (0,0)->(1,0)->(1,2)
        assert inc.distance(2, 2) == 3
        self._check_matches_scratch(inc)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stream_matches_recompute(self, seed):
        edges = random_temporal_edges(20, 4, 60, seed=seed)
        g = AdjacencyListEvolvingGraph(timestamps=list(range(4)))
        # fix the root to the first edge's source so it activates early
        root = (edges[0][0], edges[0][2])
        inc = IncrementalBFS(g, root)
        for i, edge in enumerate(edges):
            inc.add_edge(*edge)
            if i % 7 == 0:  # full cross-check every few insertions
                self._check_matches_scratch(inc)
        self._check_matches_scratch(inc)

    def test_random_stream_batch_interface(self):
        stream = EdgeStream.random(25, 4, 80, seed=5, batch_size=10)
        g = AdjacencyListEvolvingGraph(timestamps=list(range(4)))
        first = stream.events[0]
        inc = IncrementalBFS(g, (first[0], first[2]))
        for batch in stream.batches():
            inc.add_edges_from(batch)
            self._check_matches_scratch(inc)

    def test_undirected_incremental(self):
        g = AdjacencyListEvolvingGraph(directed=False, timestamps=[0, 1])
        inc = IncrementalBFS(g, (0, 0))
        inc.add_edge(1, 0, 0)   # undirected: activates (0, 0) too
        assert inc.distance(1, 0) == 1
        inc.add_edge(1, 2, 1)
        self._check_matches_scratch(inc)

    def test_recompute_resyncs(self, figure1):
        inc = IncrementalBFS(figure1, (1, "t1"))
        # mutate the graph behind the class's back (documented as unsupported),
        # then recompute() must resynchronise
        figure1.add_edge(1, 3, "t1")
        assert inc.recompute() == evolving_bfs(figure1, (1, "t1")).reached

    def test_distances_never_increase_along_stream(self):
        edges = random_temporal_edges(15, 3, 45, seed=9)
        g = AdjacencyListEvolvingGraph(timestamps=list(range(3)))
        root = (edges[0][0], edges[0][2])
        inc = IncrementalBFS(g, root)
        previous: dict = {}
        for edge in edges:
            inc.add_edge(*edge)
            current = inc.distances
            for tn, d in previous.items():
                assert current[tn] <= d
            previous = current

    def test_update_count(self):
        g = AdjacencyListEvolvingGraph(timestamps=[0])
        inc = IncrementalBFS(g, (0, 0))
        inc.add_edges_from([(0, 1, 0), (0, 1, 0), (1, 2, 0)])
        assert inc.num_updates == 2
