"""Streaming ablation: delta recompile + masked re-sweep vs full rebuilds.

The Figure-5 experiment *is* a stream — it grows one evolving graph by
consecutively adding random static edges and re-searching.  PR 4 made that
workload incremental end-to-end: on each batch the compiled artifact is
*delta-recompiled* (:meth:`CompiledTemporalGraph.recompile` rebuilds only
the snapshots the batch touched) and the root's distances are maintained by
the engine's masked decrease-only re-sweep
(:meth:`FrontierKernel.decrease_only_resweep`) instead of a full search.

This harness replays the same edge stream through both pipelines:

* **full** — after each batch, compile the whole graph from scratch and run
  a full engine BFS from the root (what every pre-PR-4 streaming caller had
  to do);
* **incremental** — after each batch, one `IncrementalBFS.add_edges_from`
  call: delta recompile + seeded re-sweep.

A second workload (``mixed_batches``) streams *mixed* insert/remove batches
through :meth:`IncrementalBFS.apply` — the signed-mutation-journal path:
per batch one delta recompile that splices the batch into the compiled
stacks, and one packed re-sweep from the root — against the same
full-rebuild pipeline.

Both workloads assert the headline claim: **at the largest sweep size the
incremental pipeline is at least 5x faster per stream batch than the full
one** — in quick/CI mode too (the gap *widens* with size, so the largest
quick-mode size is the conservative point).  Both pipelines' distance maps
are cross-checked for equality after every batch.

Results go to ``benchmark_reports/incremental_ablation.json`` (machine
readable; CI uploads it and gates on it via ``check_regressions.py``) plus
a plain-text twin.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -q -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms.incremental import IncrementalBFS
from repro.engine import get_compiled
from repro.engine.frontier import FrontierKernel
from repro.generators import random_evolving_graph
from repro.graph.compiled import CompiledTemporalGraph

from .conftest import SCALE, scaled, write_json_report, write_report

NUM_TIMESTAMPS = 10

#: The acceptance bar (ISSUE 4): delta recompile + masked re-sweep must beat
#: full recompile + full BFS by at least this factor per stream batch at the
#: largest size — asserted at every scale, quick/CI mode included.
SPEEDUP_FLOOR = 5.0

#: (graph nodes, base static-edge sweep): the Figure-5 construction, grown
#: by NUM_BATCHES batches of BATCH_EDGES streamed edges at each sweep point.
NUM_NODES = scaled(2_000)
EDGE_SWEEP = [scaled(25_000), scaled(50_000), scaled(100_000), scaled(200_000)]
NUM_BATCHES = 5
BATCH_EDGES = max(10, scaled(200))


def _first_active_root(graph):
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            return (min(active, key=repr), t)
    raise ValueError("graph has no active temporal nodes")


def _stream_batches(graph, rng, num_batches, batch_edges):
    """Batches of distinct *new* edges among the graph's existing universe.

    Drawing endpoints and timestamps from what the base graph already
    contains keeps the node universe fixed, so the delta path (rather than
    the full-rebuild fallback) is what gets measured — matching the Figure-5
    regime, where the 10^5-node universe exists from the start.
    """
    nodes = sorted(graph.nodes())
    times = list(graph.timestamps)
    existing = {(u, v, t) for u, v, t in graph.temporal_edges_unordered()}
    batches = []
    for _ in range(num_batches):
        batch = []
        while len(batch) < batch_edges:
            u, v = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
            t = times[int(rng.integers(len(times)))]
            edge = (nodes[u], nodes[v], t)
            if edge not in existing:
                existing.add(edge)
                batch.append(edge)
        batches.append(batch)
    return batches


def _sweep_point(num_edges):
    """Replay one stream through both pipelines; returns the point dict."""
    rng = np.random.default_rng(2016)
    full_graph = random_evolving_graph(
        NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016
    )
    inc_graph = full_graph.copy()
    root = _first_active_root(full_graph)
    batches = _stream_batches(full_graph, rng, NUM_BATCHES, BATCH_EDGES)

    inc = IncrementalBFS(inc_graph, root, backend="vectorized")  # warm compile
    full_s, inc_s, rebuilt, reused = [], [], 0, 0
    for batch in batches:
        start = time.perf_counter()
        full_graph.add_edges_from(batch)
        compiled = CompiledTemporalGraph.from_graph(full_graph)
        kernel = FrontierKernel(compiled)
        result = kernel.bfs(root)  # what evolving_bfs hands streaming callers
        full_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        inc.add_edges_from(batch)
        inc_s.append(time.perf_counter() - start)

        stats = get_compiled(inc_graph).delta_stats
        if stats is not None:
            rebuilt += stats["rebuilt"]
            reused += stats["reused"]
        # equivalence cross-check (outside the timed sections)
        assert inc.distances == result.reached

    full_median = sorted(full_s)[len(full_s) // 2]
    inc_median = sorted(inc_s)[len(inc_s) // 2]
    return {
        "edges": full_graph.num_static_edges(),
        "batch_edges": BATCH_EDGES,
        "num_batches": NUM_BATCHES,
        "full_s": full_median,
        "incremental_s": inc_median,
        "speedup": full_median / max(inc_median, 1e-12),
        "snapshots_rebuilt": rebuilt,
        "snapshots_reused": reused,
    }


def _mixed_stream_batches(graph, rng, num_batches, batch_edges):
    """Batches mixing fresh insertions with removals of *streamed* extras.

    Removals are drawn only from edges a previous batch inserted, never from
    the base graph, so the node universe (and the root's activeness) is
    pinned by the base edges and both pipelines stay on the mixed delta
    path — the regime the signed mutation journal exists for.
    """
    nodes = sorted(graph.nodes())
    times = list(graph.timestamps)
    existing = {(u, v, t) for u, v, t in graph.temporal_edges_unordered()}
    removable: list = []
    batches = []
    for index in range(num_batches):
        removals = []
        if index > 0:
            take = min(batch_edges // 2, len(removable))
            removals = [removable.pop() for _ in range(take)]
        insertions = []
        while len(insertions) < batch_edges - len(removals):
            u, v = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
            t = times[int(rng.integers(len(times)))]
            edge = (nodes[u], nodes[v], t)
            if edge not in existing:
                existing.add(edge)
                insertions.append(edge)
        removable.extend(insertions)
        for edge in removals:
            existing.discard(edge)
        batches.append((insertions, removals))
    return batches


def _mixed_sweep_point(num_edges):
    """Replay one mixed insert/remove stream through both pipelines."""
    rng = np.random.default_rng(2016)
    full_graph = random_evolving_graph(
        NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016
    )
    inc_graph = full_graph.copy()
    root = _first_active_root(full_graph)
    batches = _mixed_stream_batches(full_graph, rng, NUM_BATCHES, BATCH_EDGES)

    inc = IncrementalBFS(inc_graph, root, backend="vectorized")  # warm compile
    full_s, inc_s, rebuilt, reused = [], [], 0, 0
    for insertions, removals in batches:
        start = time.perf_counter()
        full_graph.remove_edges_from(removals)
        full_graph.add_edges_from(insertions)
        compiled = CompiledTemporalGraph.from_graph(full_graph)
        kernel = FrontierKernel(compiled)
        result = kernel.bfs(root)
        full_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        inc.apply(insertions=insertions, removals=removals)
        inc_s.append(time.perf_counter() - start)

        stats = get_compiled(inc_graph).delta_stats
        if stats is not None:
            rebuilt += stats["rebuilt"]
            reused += stats["reused"]
        # equivalence cross-check (outside the timed sections)
        assert inc.distances == result.reached

    full_median = sorted(full_s)[len(full_s) // 2]
    inc_median = sorted(inc_s)[len(inc_s) // 2]
    return {
        "edges": full_graph.num_static_edges(),
        "batch_edges": BATCH_EDGES,
        "num_batches": NUM_BATCHES,
        "full_s": full_median,
        "incremental_s": inc_median,
        "speedup": full_median / max(inc_median, 1e-12),
        "snapshots_rebuilt": rebuilt,
        "snapshots_reused": reused,
    }


@pytest.fixture(scope="module")
def ablation():
    """Per-batch cost of both streaming pipelines across the edge sweep."""
    return {
        "stream_batches": [_sweep_point(edges) for edges in EDGE_SWEEP],
        "mixed_batches": [_mixed_sweep_point(edges) for edges in EDGE_SWEEP],
    }


def test_incremental_speedup_and_report(ablation, report_dir):
    """The PR-4 claim: >= 5x per stream batch at the largest size, any scale."""
    payload = {
        "scale": SCALE,
        "num_timestamps": NUM_TIMESTAMPS,
        "num_nodes": NUM_NODES,
        "speedup_floor": SPEEDUP_FLOOR,
        "seed": 2016,
        "workloads": ablation,
    }
    write_json_report(report_dir, "incremental_ablation.json", payload)

    lines = [
        "Streaming ablation - delta recompile + maintained re-sweep vs "
        "full recompile + full BFS",
        f"Workload: Figure-5 random evolving graphs ({NUM_NODES} nodes, "
        f"{NUM_TIMESTAMPS} time stamps, seed 2016) grown by {NUM_BATCHES} "
        f"batches of {BATCH_EDGES} streamed edges; medians per batch.",
        "Mixed batches pair fresh insertions with removals of streamed "
        "extras (the signed-journal path: one splicing delta "
        "recompile, then one packed re-sweep from the root).",
    ]
    for workload, label in (
        ("stream_batches", "insert-only stream"),
        ("mixed_batches", "mixed insert/remove stream"),
    ):
        points = ablation[workload]
        lines += [
            "",
            f"{label}:",
            f"{'|E~|':>9} {'full [s]':>10} {'incremental [s]':>16} "
            f"{'speedup':>9} {'rebuilt':>8} {'reused':>7}",
        ]
        for p in points:
            lines.append(
                f"{p['edges']:>9d} {p['full_s']:>10.4f} "
                f"{p['incremental_s']:>16.4f} "
                f"{p['speedup']:>8.1f}x {p['snapshots_rebuilt']:>8d} "
                f"{p['snapshots_reused']:>7d}"
            )
        largest = points[-1]
        lines.append(
            f"asserted: >= {SPEEDUP_FLOOR}x per batch at the largest size "
            f"(REPRO_BENCH_SCALE={SCALE}); measured {largest['speedup']:.1f}x"
        )
    write_report(report_dir, "incremental_ablation.txt", lines)
    for workload in ("stream_batches", "mixed_batches"):
        largest = ablation[workload][-1]
        assert largest["speedup"] >= SPEEDUP_FLOOR, (
            f"incremental pipeline ({workload}) only {largest['speedup']:.2f}x "
            f"faster than the full pipeline at |E~|={largest['edges']} "
            f"(floor {SPEEDUP_FLOOR}x)"
        )
