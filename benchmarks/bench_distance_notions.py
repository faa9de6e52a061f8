"""Distance-notion ablation: the label-sweep engine vs the Python oracles.

PR 3 ported the comparison-baseline distance family — earliest arrival,
latest departure, fewest spatial hops (Grindrod & Higham's dynamic-walk hop
convention) and the Tang et al. snapshot-count distance — off per-node
Python walking and onto the engine's sweeps (the frontier kernel's level
loop, which takes each edge family's cost, and its Tang spread): one
batched ``(T, N, R)`` sweep per source answers *all* targets at once.  This harness measures all four
ported notions on the Figure-5 random-evolving-graph construction and
asserts the headline claim: **at the largest size of each sweep the
vectorized backend is at least 3x faster than the Python oracle for at
least three of the four notions** (the floor relaxes in quick/CI mode,
where scaled-down graphs shrink the Python baseline toward fixed
overheads).

The single-source workloads (earliest arrival / latest departure / fewest
hops) sweep larger graphs than the all-pairs Tang workload, whose Python
oracle runs one full spreading process per ordered node pair.

Results go to ``benchmark_reports/distance_ablation.json`` (machine
readable; CI uploads it as a workflow artifact) plus a plain-text twin.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_distance_notions.py -q -s
"""

from __future__ import annotations

import pytest

from repro.algorithms.tang_distance import average_temporal_distance
from repro.algorithms.temporal_paths import (
    earliest_arrival_times,
    fewest_spatial_hops_from,
    latest_departure_times,
)
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

#: The acceptance bar: at the largest size, at least this many of the four
#: ported distance notions must clear SPEEDUP_FLOOR.
REQUIRED_WINS = 3

#: (graph nodes, static-edge sweep) per workload.  The single-source sweeps
#: use Figure-5-scale graphs; the all-pairs Tang oracle is quadratic in the
#: node count, so its sweep stays small.
SINGLE_SOURCE_SWEEP = (scaled(2_000), [scaled(25_000), scaled(50_000), scaled(100_000)])
TANG_SWEEP = (scaled(80), [scaled(400), scaled(800), scaled(1_600)])


def _first_active_root(graph):
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            return (min(active, key=repr), t)
    raise ValueError("graph has no active temporal nodes")


def _last_active_target(graph):
    for t in reversed(list(graph.timestamps)):
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
        graph = random_evolving_graph(num_nodes, NUM_TIMESTAMPS, num_edges, seed=2016)
        # the oracle cross-check is each side's untimed warm-up
        assert python_fn(graph) == vectorized_fn(graph)
        points.append(
            {
                "edges": graph.num_static_edges(),
                **alternating_speedup(
                    lambda: python_fn(graph), lambda: vectorized_fn(graph)
                ),
            }
        )
    return points


@pytest.fixture(scope="module")
def ablation():
    """All four ported distance notions, swept and cross-checked."""
    single_nodes, single_edges = SINGLE_SOURCE_SWEEP
    tang_nodes, tang_edges = TANG_SWEEP

    def earliest(backend):
        return lambda g: earliest_arrival_times(
            g, _first_active_root(g), backend=backend
        )

    def latest(backend):
        return lambda g: latest_departure_times(
            g, _last_active_target(g), backend=backend
        )

    def fewest(backend):
        return lambda g: fewest_spatial_hops_from(
            g, _first_active_root(g), backend=backend
        )

    def tang(backend):
        return lambda g: round(average_temporal_distance(g, backend=backend), 9)

    return {
        "earliest_arrival": _sweep_workload(
            single_nodes, single_edges, earliest("python"), earliest("vectorized")
        ),
        "latest_departure": _sweep_workload(
            single_nodes, single_edges, latest("python"), latest("vectorized")
        ),
        "fewest_spatial_hops": _sweep_workload(
            single_nodes, single_edges, fewest("python"), fewest("vectorized")
        ),
        "tang_distance": _sweep_workload(
            tang_nodes, tang_edges, tang("python"), tang("vectorized")
        ),
    }


def test_distance_speedup_and_report(ablation, report_dir):
    """The PR-3 claim: >= 3 of the 4 ported notions win >= 3x at the largest size."""
    payload = {
        "scale": SCALE,
        "num_timestamps": NUM_TIMESTAMPS,
        "speedup_floor": SPEEDUP_FLOOR,
        "required_wins": REQUIRED_WINS,
        "seed": 2016,
        "workloads": ablation,
    }
    write_json_report(report_dir, "distance_ablation.json", payload)

    lines = [
        "Distance-notion ablation - label-sweep engine, "
        "backend='python' vs 'vectorized'",
        "Workload construction: Figure-5 random evolving graphs, "
        f"{NUM_TIMESTAMPS} time stamps, seed 2016.",
        "",
        f"{'workload':>22} {'|E~|':>9} {'python [s]':>12} "
        f"{'vectorized [s]':>15} {'speedup':>9}",
    ]
    wins = 0
    misses = []
    for name, points in ablation.items():
        for p in points:
            lines.append(
                f"{name:>22} {p['edges']:>9d} {p['python_s']:>12.4f} "
                f"{p['vectorized_s']:>15.4f} {p['speedup']:>8.1f}x"
            )
        largest = points[-1]
        if largest["speedup"] >= SPEEDUP_FLOOR:
            wins += 1
        else:
            misses.append(
                f"{name}: {largest['speedup']:.2f}x at |E~|={largest['edges']}"
            )
    lines.append("")
    lines.append(
        f"asserted: >= {REQUIRED_WINS}/4 notions clear {SPEEDUP_FLOOR}x at the "
        f"largest size (REPRO_BENCH_SCALE={SCALE}); {wins}/4 did"
    )
    write_report(report_dir, "distance_ablation.txt", lines)
    assert wins >= REQUIRED_WINS, (
        f"only {wins}/4 notions cleared {SPEEDUP_FLOOR}x; misses: "
        + "; ".join(misses)
    )
