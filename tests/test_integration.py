"""Integration tests: whole-library workflows spanning several subpackages."""

from __future__ import annotations

from collections import Counter

import pytest

from repro import datasets
from repro.algorithms import (
    community_of,
    influence_set,
    influencer_set,
    temporal_out_reach,
    top_influencers,
    weak_temporal_components,
)
from repro.analysis import (
    check_bfs_equivalence,
    compute_stats,
    measure_bfs_scaling,
)
from repro.analysis.scaling import _default_root
from repro.core import (
    count_temporal_paths,
    count_temporal_paths_exhaustive,
    evolving_bfs,
    naive_path_count,
    temporal_distance,
)
from repro.generators import (
    incremental_edge_sequence,
    preferential_attachment_evolving,
    random_evolving_graph,
    sliding_window_communication,
)
from repro.graph import to_matrix_sequence
from repro.io import load_evolving_graph, save_evolving_graph
from repro.parallel import batch_bfs
from tests.conftest import first_active_root


class TestEndToEndEquivalence:
    """Theorems 1 and 4 checked across generators, representations and roots."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graphs_all_formulations_agree(self, seed):
        graph = random_evolving_graph(80, 5, 300, seed=seed)
        for root in graph.active_temporal_nodes()[:5]:
            assert check_bfs_equivalence(graph, root).agree

    @pytest.mark.parametrize("seed", [0, 1])
    def test_preferential_attachment_graphs_agree(self, seed):
        graph = preferential_attachment_evolving(60, 4, seed=seed)
        root = first_active_root(graph)
        assert check_bfs_equivalence(graph, root).agree

    @pytest.mark.parametrize("seed", [0, 1])
    def test_communication_graphs_agree(self, seed):
        graph = sliding_window_communication(40, 5, 60, seed=seed)
        root = first_active_root(graph)
        assert check_bfs_equivalence(graph, root).agree

    def test_citation_network_agrees(self, citation_network):
        graph = citation_network.graph
        root = first_active_root(graph)
        assert check_bfs_equivalence(graph, root).agree

    def test_matrix_representation_round_trip_preserves_search(self, medium_random_graph):
        root = first_active_root(medium_random_graph)
        reference = evolving_bfs(medium_random_graph, root).reached
        as_matrices = to_matrix_sequence(medium_random_graph)
        assert evolving_bfs(as_matrices, root).reached == reference


class TestPathCountingConsistency:
    """Matrix-power counting equals exhaustive enumeration on arbitrary small graphs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_enumeration(self, seed):
        from repro.graph import all_snapshots_acyclic, snapshot_is_acyclic

        graph = random_evolving_graph(12, 3, 22, seed=seed)
        if not all_snapshots_acyclic(graph):
            # drop the cyclic snapshots: matrix powers count walks, which only
            # coincide with (simple) temporal paths when snapshots are DAGs
            acyclic_edges = [
                (u, v, t) for u, v, t in graph.temporal_edges()
                if snapshot_is_acyclic(graph, t)
            ]
            graph = random_evolving_graph(12, 3, 0, seed=seed)
            graph.add_edges_from(acyclic_edges)
        active = graph.active_temporal_nodes()
        source = active[0]
        for target in active[1:8]:
            exhaustive = count_temporal_paths_exhaustive(graph, source, target)
            matrix_count = count_temporal_paths(graph, source, target)
            assert matrix_count == exhaustive

    def test_naive_count_never_exceeds_correct_count_on_figure1_family(self):
        # adding more edges to the Figure-1 graph keeps the naive undercount property
        g = datasets.figure1_graph()
        g.add_edge(2, 1, "t2")
        g.add_edge(1, 2, "t3")
        naive = naive_path_count(g, 1, 3)
        correct = count_temporal_paths(g, (1, "t1"), (3, "t3"))
        assert naive <= correct


class TestCitationWorkflow:
    """The Section V workflow run end to end on a synthetic citation network."""

    def test_full_mining_pipeline(self, citation_network):
        graph = citation_network.graph
        ranking = top_influencers(graph, top_k=3)
        assert ranking
        top_author, top_score = ranking[0]
        first_time = graph.active_times(top_author)[0]
        influence = influence_set(graph, top_author, first_time)
        assert len(influence) == top_score
        # every influenced author can trace the influencer back
        sampled = sorted(influence)[:5]
        for other in sampled:
            other_times = graph.active_times(other)
            later = [t for t in other_times if t >= first_time]
            if not later:
                continue
            sources = influencer_set(graph, other, later[-1])
            assert top_author in sources or other in influence

    def test_communities_are_subsets_of_authors(self, citation_network):
        graph = citation_network.graph
        author = citation_network.authors_per_epoch[citation_network.epochs[-1]][0]
        time = graph.active_times(author)[-1]
        community = community_of(graph, author, time)
        assert community <= set(graph.nodes())

    def test_out_reach_decreases_over_time_for_same_author(self, citation_network):
        graph = citation_network.graph
        reach = temporal_out_reach(graph)
        for author in sorted(graph.nodes())[:10]:
            times = graph.active_times(author)
            if len(times) >= 2:
                assert reach[(author, times[0])] >= reach[(author, times[-1])]

    def test_persistence_round_trip_preserves_analysis(self, tmp_path, citation_network):
        graph = citation_network.graph
        path = tmp_path / "citations.json"
        save_evolving_graph(graph, path)
        restored = load_evolving_graph(path)
        assert compute_stats(restored).as_dict() == compute_stats(graph).as_dict()
        root = first_active_root(graph)
        assert evolving_bfs(restored, root).reached == evolving_bfs(graph, root).reached


class TestScalingWorkflow:
    def test_small_scaling_sweep_produces_linear_ish_results(self):
        # At 2k-8k edges a search takes a few ms, so one stall on a loaded
        # host can flip the fit of per-size medians.  measure_bfs_scaling
        # times every size once per round instead, in interleaved rounds
        # after a warm-up round, and reports each size's median share of a
        # round, so neither a stall nor a change of host speed between
        # rounds bends the fit.  The thresholds are those of the median fit.
        sizes = [2000, 4000, 6000, 8000]
        result = measure_bfs_scaling(400, 6, sizes, seed=0, repeats=5)
        assert [p.num_static_edges for p in result.points] == sizes
        fit = result.linear_fit()
        assert fit.slope > 0
        assert fit.r_squared > 0.5  # noisy at tiny scale; the benchmark uses larger sweeps

    def test_algorithm1_examines_each_reached_edge_once(self):
        """Theorem 2's linear cost as a work count, on the sweep above.

        Algorithm 1 expands each temporal node it reaches exactly once, so
        the neighbours it examines are the static and causal out-edges of
        the reached region, at most ``|E~| + |E'|``.  Unlike the timed fit,
        this holds exactly whatever the host's load.
        """
        sizes = [2000, 4000, 6000, 8000]
        for _, graph in incremental_edge_sequence(400, 6, sizes, seed=0):
            expanded: Counter = Counter()
            examined = 0

            def counting_neighbors(node, time, graph=graph):
                nonlocal examined
                expanded[node, time] += 1
                neighbors = graph.forward_neighbors(node, time)
                examined += len(neighbors)
                return neighbors

            reached = evolving_bfs(
                graph,
                _default_root(graph),
                backend="python",
                neighbor_fn=counting_neighbors,
            ).reached
            assert expanded.keys() == reached.keys()
            assert set(expanded.values()) == {1}
            static = sum(
                1 for u, v, t in graph.temporal_edges() if u != v and (u, t) in reached
            )
            causal = sum(len(graph.causal_out_times(v, t)) for v, t in reached)
            assert examined == static + causal
            assert examined <= graph.num_static_edges() + graph.num_causal_edges()

    def test_batch_bfs_over_many_roots(self, medium_random_graph):
        roots = medium_random_graph.active_temporal_nodes()[:10]
        results = batch_bfs(medium_random_graph, roots)
        assert len(results) == len(roots)
        stats = compute_stats(medium_random_graph)
        for result in results.values():
            assert len(result.reached) <= stats.num_active_temporal_nodes


class TestDistanceSemantics:
    def test_three_distance_notions_disagree_as_documented(self, figure1):
        from repro.algorithms import fewest_spatial_hops, temporal_distance_tang

        # paper distance: causal hops count
        assert temporal_distance(figure1, (1, "t1"), (3, "t3")) == 3
        # Grindrod–Higham style: waiting is free
        assert fewest_spatial_hops(figure1, (1, "t1"), (3, "t3")) == 1
        # Tang style: counts snapshots, not hops
        assert temporal_distance_tang(figure1, 1, 3) == 2

    def test_components_contain_all_bfs_reachable_nodes(self, medium_random_graph):
        comps = weak_temporal_components(medium_random_graph)
        root = first_active_root(medium_random_graph)
        reached = set(evolving_bfs(medium_random_graph, root).reached)
        containing = next(c for c in comps if root in c)
        assert reached <= containing
