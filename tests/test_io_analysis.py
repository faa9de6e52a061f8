"""Unit tests for IO (edge lists, JSON) and the analysis utilities (stats, equivalence, scaling)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.analysis import (
    causal_to_static_ratio,
    check_bfs_equivalence,
    compute_stats,
    fit_linear,
    format_scaling_report,
    measure_bfs_scaling,
    per_snapshot_edge_counts,
)
from repro.core import evolving_bfs
from repro.exceptions import IOFormatError
from repro.graph import AdjacencyListEvolvingGraph
from repro.io import (
    bfs_result_to_dict,
    evolving_graph_from_dict,
    evolving_graph_to_dict,
    load_evolving_graph,
    parse_temporal_edge_lines,
    read_temporal_edge_list,
    save_evolving_graph,
    write_temporal_edge_list,
)
from tests.conftest import first_active_root


class TestEdgeListIO:
    def test_round_trip_via_file(self, tmp_path, figure1):
        path = tmp_path / "edges.tsv"
        written = write_temporal_edge_list(figure1, path)
        assert written == 3
        loaded = read_temporal_edge_list(path)
        assert set(loaded.temporal_edges()) == set(figure1.temporal_edges())

    def test_round_trip_via_stream(self, small_random_graph):
        buffer = io.StringIO()
        write_temporal_edge_list(small_random_graph, buffer)
        buffer.seek(0)
        loaded = read_temporal_edge_list(buffer)
        assert set(loaded.temporal_edges()) == set(small_random_graph.temporal_edges())

    def test_comments_and_blank_lines_skipped(self):
        lines = ["# comment", "", "% another", "1 2 0", "2 3 1", "// done"]
        triples = parse_temporal_edge_lines(lines)
        assert triples == [(1, 2, 0), (2, 3, 1)]

    def test_comma_separated(self):
        assert parse_temporal_edge_lines(["1,2,3"]) == [(1, 2, 3)]

    def test_extra_columns_ignored(self):
        assert parse_temporal_edge_lines(["1 2 3 0.75"]) == [(1, 2, 3)]

    def test_malformed_line_raises(self):
        with pytest.raises(IOFormatError):
            parse_temporal_edge_lines(["1 2"])

    def test_string_labels_preserved(self):
        triples = parse_temporal_edge_lines(["alice bob 2020", "bob carol 2021"])
        assert triples[0] == ("alice", "bob", 2020)

    def test_custom_delimiter(self):
        assert parse_temporal_edge_lines(["1|2|3"], delimiter="|") == [(1, 2, 3)]

    def test_header_optional(self, tmp_path, figure1):
        path = tmp_path / "no_header.tsv"
        write_temporal_edge_list(figure1, path, header=False)
        content = path.read_text()
        assert not content.startswith("#")


class TestJSONSerialization:
    def test_dict_round_trip(self, figure1):
        data = evolving_graph_to_dict(figure1)
        restored = evolving_graph_from_dict(data)
        assert restored.equals(figure1)

    def test_file_round_trip(self, tmp_path, small_random_graph):
        path = tmp_path / "graph.json"
        save_evolving_graph(small_random_graph, path)
        restored = load_evolving_graph(path)
        assert restored.equals(small_random_graph)

    def test_json_is_valid(self, figure1, tmp_path):
        path = tmp_path / "graph.json"
        save_evolving_graph(figure1, path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["format"] == "repro-evolving-graph"
        assert len(data["edges"]) == 3

    def test_integer_labels_round_trip_exactly(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 10), (2, 3, 20)])
        restored = evolving_graph_from_dict(evolving_graph_to_dict(g))
        assert set(restored.temporal_edges()) == {(1, 2, 10), (2, 3, 20)}
        assert all(isinstance(t, int) for t in restored.timestamps)

    def test_bad_format_rejected(self):
        with pytest.raises(IOFormatError):
            evolving_graph_from_dict({"format": "something-else"})
        with pytest.raises(IOFormatError):
            evolving_graph_from_dict({"format": "repro-evolving-graph", "version": 99})

    def test_undirected_flag_preserved(self):
        g = AdjacencyListEvolvingGraph([(1, 2, 0)], directed=False)
        restored = evolving_graph_from_dict(evolving_graph_to_dict(g))
        assert not restored.is_directed

    def test_bfs_result_serialisation(self, figure1):
        result = evolving_bfs(figure1, (1, "t1"))
        data = bfs_result_to_dict(result)
        assert data["root"] == ["1", "t1"]
        assert len(data["reached"]) == 6
        distances = [entry["distance"] for entry in data["reached"]]
        assert distances == sorted(distances)


class TestStats:
    def test_figure1_stats(self, figure1):
        stats = compute_stats(figure1)
        assert stats.num_timestamps == 3
        assert stats.num_node_identities == 3
        assert stats.num_active_temporal_nodes == 6
        assert stats.num_static_edges == 3
        assert stats.num_causal_edges == 3
        assert stats.num_expanded_edges == 6
        assert stats.mean_active_times_per_node == 2.0

    def test_as_dict_keys(self, figure1):
        d = compute_stats(figure1).as_dict()
        assert "num_causal_edges" in d and "max_out_degree_expansion" in d

    def test_per_snapshot_edge_counts(self, figure1):
        assert per_snapshot_edge_counts(figure1) == {"t1": 1, "t2": 1, "t3": 1}

    def test_causal_ratio(self, figure1):
        assert causal_to_static_ratio(figure1) == 1.0
        empty = AdjacencyListEvolvingGraph(timestamps=[0])
        assert np.isnan(causal_to_static_ratio(empty))

    def test_causal_edges_bounded_by_timestamps(self, medium_random_graph):
        # paper: "the number of newly introduced causal edges for each active node
        # is bounded by the number of time stamps"
        stats = compute_stats(medium_random_graph)
        n_nodes = stats.num_node_identities
        n_times = stats.num_timestamps
        assert stats.num_causal_edges <= n_nodes * n_times * (n_times - 1) / 2


class TestEquivalenceHarness:
    def test_all_agree_on_figure1(self, figure1):
        report = check_bfs_equivalence(figure1, (1, "t1"))
        assert report.agree
        assert "agree" in report.summary()
        assert len(report.results) == 5
        assert "engine_vectorized_frontier" in report.results

    def test_all_agree_on_random_graph(self, medium_random_graph):
        root = first_active_root(medium_random_graph)
        assert check_bfs_equivalence(medium_random_graph, root).agree

    def test_mismatch_detected_with_broken_implementation(self, figure1):
        impls = {
            "reference": lambda g, r: evolving_bfs(g, r).reached,
            "broken": lambda g, r: {r: 0},
        }
        report = check_bfs_equivalence(figure1, (1, "t1"), implementations=impls)
        assert not report.agree
        assert "broken" in report.mismatches[0]
        assert "MISMATCH" in report.summary()


class TestScalingHarness:
    def test_fit_linear_exact_line(self):
        fit = fit_linear([1, 2, 3, 4], [2, 4, 6, 8])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(20.0)

    def test_fit_linear_validation(self):
        with pytest.raises(ValueError):
            fit_linear([1], [2])
        with pytest.raises(ValueError):
            fit_linear([1, 2], [1])

    def test_measure_bfs_scaling_structure(self):
        result = measure_bfs_scaling(120, 4, [200, 400, 600], seed=0, repeats=1)
        assert len(result.points) == 3
        assert [p.num_static_edges for p in result.points] == [200, 400, 600]
        assert all(p.seconds >= 0 for p in result.points)
        assert all(p.reached_nodes > 0 for p in result.points)

    def test_is_linear_requires_three_points(self):
        result = measure_bfs_scaling(100, 3, [100, 200], seed=0, repeats=1)
        with pytest.raises(ValueError):
            result.is_linear()

    def test_report_formatting(self):
        result = measure_bfs_scaling(100, 3, [100, 200, 300], seed=0, repeats=1)
        report = format_scaling_report(result, title="demo sweep")
        assert "demo sweep" in report
        assert "linear fit" in report
        assert report.count("\n") >= 5

    def test_custom_bfs_callable(self):
        calls = []

        def fake_bfs(graph, root):
            calls.append(root)
            return evolving_bfs(graph, root)

        measure_bfs_scaling(80, 3, [100, 150], seed=0, repeats=1, bfs=fake_bfs)
        assert len(calls) == 4  # a warm-up round and a timed round, two sizes each
