"""Analytics ablation: ported algorithms on the engine vs their Python oracles.

PR 2 ported the analytics layer — centrality reach counts, temporal
components and citation-influence mining — off dict-walking and onto the
shared compiled-kernel engine (batched CSR × dense-block sweeps, one
``csgraph`` pass for components).  This harness measures all three ported
workloads on the Figure-5 random-evolving-graph construction and asserts the
headline claim: **at the largest size of each sweep the vectorized backend
is at least 3x faster than the Python oracle** (the floor relaxes in
quick/CI mode, where scaled-down graphs shrink the Python baseline toward
fixed overheads).

The all-roots workloads (``temporal_out_reach``) sweep smaller graphs than
the single-root ones (``influence_set``) because the Python oracle runs one
full BFS per active temporal node; the vectorized side is the same code
path either way.

Results go to ``benchmark_reports/analytics_ablation.json`` (machine
readable; CI uploads it as a workflow artifact) plus a plain-text twin.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_analytics.py -q -s
"""

from __future__ import annotations

import pytest

from repro.algorithms.centrality import temporal_out_reach
from repro.algorithms.components import weak_temporal_components
from repro.algorithms.influence import influence_set
from repro.generators import random_evolving_graph

from .conftest import (
    SCALE,
    alternating_speedup,
    scaled,
    write_json_report,
    write_report,
)

NUM_TIMESTAMPS = 10

#: Quick/CI runs (REPRO_BENCH_SCALE < 1) shrink the workloads until constant
#: overheads dominate the Python baseline, so the asserted floor relaxes.
SPEEDUP_FLOOR = 3.0 if SCALE >= 1.0 else 1.2

#: (graph nodes, static-edge sweep) per workload; the oracle cost per point is
#: roots x BFS for reach, one expansion walk for components, one BFS for
#: influence, so the all-roots sweep uses smaller graphs.
REACH_SWEEP = (scaled(200), [scaled(2_000), scaled(4_000), scaled(8_000)])
COMPONENT_SWEEP = (scaled(500), [scaled(5_000), scaled(10_000), scaled(20_000)])
INFLUENCE_SWEEP = (scaled(2_000), [scaled(50_000), scaled(100_000)])


def _first_active_root(graph):
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            return (min(active, key=repr), t)
    raise ValueError("graph has no active temporal nodes")


def _sweep_workload(num_nodes, edge_targets, python_fn, vectorized_fn):
    """Time python vs vectorized per sweep size; returns the point dicts.

    Each point's speed-up is the median of alternating rounds
    (:func:`alternating_speedup`).
    """
    points = []
    for num_edges in edge_targets:
        graph = random_evolving_graph(
            num_nodes, NUM_TIMESTAMPS, num_edges, seed=2016)
        # the oracle cross-check is each side's untimed warm-up
        assert python_fn(graph) == vectorized_fn(graph)
        points.append({
            "edges": graph.num_static_edges(),
            **alternating_speedup(
                lambda: python_fn(graph), lambda: vectorized_fn(graph)
            ),
        })
    return points


@pytest.fixture(scope="module")
def ablation():
    """All three ported workloads, swept and cross-checked."""
    reach_nodes, reach_edges = REACH_SWEEP
    comp_nodes, comp_edges = COMPONENT_SWEEP
    infl_nodes, infl_edges = INFLUENCE_SWEEP

    def influence_python(graph):
        root = _first_active_root(graph)
        return influence_set(graph, *root, backend="python")

    def influence_vectorized(graph):
        root = _first_active_root(graph)
        return influence_set(graph, *root, backend="vectorized")

    return {
        "temporal_out_reach": _sweep_workload(
            reach_nodes, reach_edges,
            lambda g: temporal_out_reach(g, backend="python"),
            lambda g: temporal_out_reach(g, backend="vectorized"),
        ),
        "weak_temporal_components": _sweep_workload(
            comp_nodes, comp_edges,
            lambda g: weak_temporal_components(g, backend="python"),
            lambda g: weak_temporal_components(g, backend="vectorized"),
        ),
        "influence_set": _sweep_workload(
            infl_nodes, infl_edges, influence_python, influence_vectorized,
        ),
    }


def test_analytics_speedup_and_report(ablation, report_dir):
    """The PR-2 claim: every ported workload wins at its largest sweep size."""
    payload = {
        "scale": SCALE,
        "num_timestamps": NUM_TIMESTAMPS,
        "speedup_floor": SPEEDUP_FLOOR,
        "seed": 2016,
        "workloads": ablation,
    }
    write_json_report(report_dir, "analytics_ablation.json", payload)

    lines = [
        "Analytics ablation - ported algorithms, backend='python' vs 'vectorized'",
        "Workload construction: Figure-5 random evolving graphs, "
        f"{NUM_TIMESTAMPS} time stamps, seed 2016.",
        "",
        f"{'workload':>26} {'|E~|':>9} {'python [s]':>12} "
        f"{'vectorized [s]':>15} {'speedup':>9}",
    ]
    failures = []
    for name, points in ablation.items():
        for p in points:
            lines.append(
                f"{name:>26} {p['edges']:>9d} {p['python_s']:>12.4f} "
                f"{p['vectorized_s']:>15.4f} {p['speedup']:>8.1f}x")
        largest = points[-1]
        if largest["speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"{name}: {largest['speedup']:.2f}x at |E~|={largest['edges']} "
                f"(floor {SPEEDUP_FLOOR}x)")
    lines.append("")
    lines.append(f"asserted floor at largest size: {SPEEDUP_FLOOR}x "
                 f"(REPRO_BENCH_SCALE={SCALE})")
    write_report(report_dir, "analytics_ablation.txt", lines)
    assert not failures, "; ".join(failures)
