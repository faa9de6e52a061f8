"""Ablations: Theorem-1 expansion as an executable strategy, and the effect of
the number of timestamps on the causal edge set and on runtime.

Two design questions:

1. *Expansion ablation* — Theorem 1 proves correctness by constructing the
   static graph ``G = (V, E~ ∪ E')``.  One could also *run* the BFS that way:
   materialise the expansion, then do an ordinary static BFS.  How much does
   materialisation cost compared with the native evolving BFS that never
   builds ``E'`` explicitly?
2. *Timestamp ablation* — the paper notes the number of causal edges per
   active node is bounded by the number of time stamps.  Holding |E~| fixed
   and spreading it over more snapshots grows ``|E'|`` and therefore the BFS
   work; this sweep quantifies that.

Run with::

    pytest benchmarks/bench_expansion_and_timestamps.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from repro.core import build_static_expansion, evolving_bfs, expansion_bfs
from repro.generators import random_evolving_graph
from repro.graph import static_bfs

from .conftest import scaled, write_report

NUM_NODES = scaled(2_000)
NUM_EDGES = scaled(12_000)


def _first_root(graph):
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            return (min(active), t)
    raise ValueError("no active node")


def test_expansion_vs_native_report(report_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    graph = random_evolving_graph(NUM_NODES, 8, NUM_EDGES, seed=7)
    root = _first_root(graph)

    start = time.perf_counter()
    native = evolving_bfs(graph, root, backend="python").reached
    native_time = time.perf_counter() - start

    start = time.perf_counter()
    expansion = build_static_expansion(graph)
    build_time = time.perf_counter() - start

    start = time.perf_counter()
    oracle = static_bfs(expansion.graph, root)
    oracle_time = time.perf_counter() - start

    assert oracle == native
    write_report(report_dir, "expansion_ablation.txt", [
        "Theorem-1 expansion ablation: native evolving BFS vs materialise-then-static-BFS",
        f"graph: {NUM_NODES} nodes, 8 timestamps, |E~|={graph.num_static_edges()}, "
        f"|E'|={expansion.num_causal_edges}, |V|={expansion.num_active_nodes}",
        "",
        f"native evolving BFS            : {native_time:.4f} s",
        f"build static expansion         : {build_time:.4f} s",
        f"static BFS on expansion        : {oracle_time:.4f} s",
        f"expansion total / native ratio : {(build_time + oracle_time) / max(native_time, 1e-9):.2f}x",
        "",
        "Expected: materialising E' costs more than the traversal it enables, which is",
        "why Algorithm 1 expands causal edges lazily (per active node) instead.",
    ])


def test_timestamp_sweep_report(report_dir, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = ["timestamps   |E~|    |E'|    |V|_active   bfs_time[s]"]
    for n_ts in (2, 5, 10, 20):
        graph = random_evolving_graph(NUM_NODES, n_ts, NUM_EDGES, seed=11)
        root = _first_root(graph)
        expansion = build_static_expansion(graph)
        start = time.perf_counter()
        evolving_bfs(graph, root, backend="python")
        elapsed = time.perf_counter() - start
        rows.append(
            f"{n_ts:>10} {graph.num_static_edges():>7} {expansion.num_causal_edges:>7} "
            f"{expansion.num_active_nodes:>12} {elapsed:>12.4f}")
    write_report(report_dir, "timestamp_ablation.txt", [
        "Timestamp ablation: fixed |E~| spread over more snapshots grows the causal edge set",
        "(paper: causal edges per active node are bounded by the number of time stamps)",
        "",
        *rows,
    ])


@pytest.mark.benchmark(group="expansion")
def test_native_bfs_cost(benchmark):
    graph = random_evolving_graph(NUM_NODES, 8, NUM_EDGES, seed=7)
    root = _first_root(graph)
    benchmark(lambda: evolving_bfs(graph, root, backend="python"))


@pytest.mark.benchmark(group="expansion")
def test_expansion_then_static_bfs_cost(benchmark):
    graph = random_evolving_graph(NUM_NODES, 8, NUM_EDGES, seed=7)
    root = _first_root(graph)
    benchmark(lambda: expansion_bfs(graph, root))


@pytest.mark.benchmark(group="timestamps")
@pytest.mark.parametrize("n_timestamps", [2, 10, 20])
def test_bfs_cost_vs_timestamps(benchmark, n_timestamps):
    graph = random_evolving_graph(NUM_NODES, n_timestamps, NUM_EDGES, seed=11)
    root = _first_root(graph)
    benchmark(lambda: evolving_bfs(graph, root, backend="python"))
