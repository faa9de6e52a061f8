"""Figure 5 reproduction: runtime of Algorithm 1 scales linearly in |E~|.

The paper grows a random evolving graph (1e5 active nodes, 10 time stamps)
from ~1e8 to ~5e8 static edges and reports BFS wall-clock times of 15–50 s on
a Xeon E7-8850, observing linear scaling.  This harness repeats the same
construction at laptop scale (default ~2e4–1e5 edges; scale up with
``REPRO_BENCH_SCALE``), times Algorithm 1 at each size, fits a line, and
checks the *shape* claim: runtime grows linearly in the static edge count
(R² of the linear fit, bounded spread of time-per-edge).  Beside the timed
fit it counts, from one untimed search per size, the neighbours Algorithm 1
examines: exactly the static and causal out-edges of the region it
reaches, at most ``|E~| + |E'|`` (Theorem 2), whatever the host's load.

Run with::

    pytest benchmarks/bench_fig5_scaling.py --benchmark-only -s

Co-running with the engine benchmarks in one pytest process is safe: the
autouse ``isolated_engine_state`` fixture in ``benchmarks/conftest.py``
drops the dispatch cache and collects garbage at module boundaries, so the
pure-Python timing sweep here is not perturbed by compiled artifacts other
modules left on the heap (the quick-mode linearity assert used to be flaky
under exactly that co-run).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis import format_scaling_report, measure_bfs_scaling
from repro.analysis.scaling import _default_root
from repro.core import evolving_bfs
from repro.generators import incremental_edge_sequence, random_evolving_graph

from .conftest import scaled, write_report

#: sweep of static-edge targets, mirroring the 1x .. 2.5x progression of Figure 5.
#: The paper's graphs are dense (average degree ~10^3), so the BFS spans the whole
#: graph at every size; the down-scaled sweep keeps that property (average per-
#: snapshot out-degree >= 5) so the measured quantity is the same: the cost of
#: touching every static and causal edge once.
EDGE_TARGETS = [scaled(100_000), scaled(130_000), scaled(160_000),
                scaled(200_000), scaled(250_000)]
NUM_NODES = scaled(2_000)
NUM_TIMESTAMPS = 10


@pytest.fixture(scope="module")
def scaling_result():
    """Run the sweep once per session; reused by the report and the assertions."""
    return measure_bfs_scaling(
        NUM_NODES, NUM_TIMESTAMPS, EDGE_TARGETS, seed=2016, repeats=8)


@pytest.fixture(scope="module")
def search_work():
    """One untimed search's work count per size, on the timed sweep's graphs
    and roots: what Algorithm 1 expanded and examined, against the static
    and causal out-edges of the region it reached."""
    rows = []
    for _, graph in incremental_edge_sequence(
        NUM_NODES, NUM_TIMESTAMPS, EDGE_TARGETS, seed=2016
    ):
        expanded: Counter = Counter()
        examined = 0

        def counting_neighbors(node, time, graph=graph):
            nonlocal examined
            expanded[node, time] += 1
            neighbors = graph.forward_neighbors(node, time)
            examined += len(neighbors)
            return neighbors

        root = _default_root(graph)
        reached = evolving_bfs(
            graph, root, backend="python", neighbor_fn=counting_neighbors
        ).reached
        static = sum(
            1 for u, v, t in graph.temporal_edges() if u != v and (u, t) in reached
        )
        causal = sum(len(graph.causal_out_times(v, t)) for v, t in reached)
        rows.append(
            {
                "static_edges": graph.num_static_edges(),
                "causal_edges": graph.num_causal_edges(),
                "reached": len(reached),
                "each_reached_expanded_once": expanded.keys() == reached.keys()
                and set(expanded.values()) == {1},
                "examined": examined,
                "region_edges": static + causal,
            }
        )
    return rows


def test_figure5_report(scaling_result, search_work, report_dir, benchmark):
    """Regenerate the Figure-5 series (|E~| vs time) and check linearity."""
    fit = benchmark.pedantic(scaling_result.linear_fit, rounds=1, iterations=1)
    lines = [
        "Figure 5 — runtime of Algorithm 1 vs number of static edges |E~|",
        "Paper setup : 1e5 active nodes, 10 time stamps, |E~| from ~1e8 to ~5e8,",
        "              times 15-50 s on 1 core of a Xeon E7-8850 (Julia).",
        f"This run    : {NUM_NODES} nodes, {NUM_TIMESTAMPS} time stamps, "
        f"|E~| from {EDGE_TARGETS[0]} to {EDGE_TARGETS[-1]} (pure Python).",
        "Claim       : runtime is linear in |E~| (Theorem 2).",
        "",
        format_scaling_report(scaling_result, title="measured series"),
        "",
        f"linearity verdict: R²={fit.r_squared:.4f}, "
        f"time-per-edge spread={max(scaling_result.time_per_edge()) / min(scaling_result.time_per_edge()):.2f}x, "
        f"is_linear={scaling_result.is_linear()}",
        "",
        "work count (one untimed search per size), at most |E~| + |E'| (Theorem 2):",
        "      |E~|    |E~|+|E'|   examined    reached",
    ]
    for row in search_work:
        bound = row["static_edges"] + row["causal_edges"]
        lines.append(
            f"{row['static_edges']:>10} {bound:>12} "
            f"{row['examined']:>10} {row['reached']:>10}"
        )
    write_report(report_dir, "figure5_scaling.txt", lines)
    assert scaling_result.is_linear(), (
        "Algorithm 1 runtime did not scale linearly with |E~| — "
        + format_scaling_report(scaling_result))


def test_algorithm1_examines_each_reached_edge_once(search_work):
    """Every reached temporal node is expanded once, so the neighbours
    examined are the reached region's out-edges, within Theorem 2's bound."""
    for row in search_work:
        assert row["each_reached_expanded_once"]
        assert row["examined"] == row["region_edges"]
        assert row["examined"] <= row["static_edges"] + row["causal_edges"]


def test_slope_positive_and_intercept_small(scaling_result):
    """The fitted line should be dominated by the per-edge cost, not the constant term."""
    fit = scaling_result.linear_fit()
    assert fit.slope > 0
    predicted_largest = fit.predict(scaling_result.edges[-1])
    assert abs(fit.intercept) < predicted_largest


@pytest.mark.benchmark(group="fig5-bfs")
@pytest.mark.parametrize("num_edges", [EDGE_TARGETS[0], EDGE_TARGETS[2], EDGE_TARGETS[-1]])
def test_bfs_runtime_at_size(benchmark, num_edges):
    """pytest-benchmark timings of Algorithm 1 at three points of the sweep."""
    graph = random_evolving_graph(NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016)
    root = None
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            root = (min(active), t)
            break
    assert root is not None
    result = benchmark(lambda: evolving_bfs(graph, root, backend="python"))
    assert len(result.reached) > 0
