"""Serving ablation: coalesced + cached query serving vs per-query dispatch.

The north-star workload is *traffic*: many clients firing search queries at
one evolving graph while edits stream in.  PR 6's :class:`QueryServer`
answers that traffic with far less kernel work than one sweep per query —
micro-batch coalescing packs same-shape queries into shared ``(T, N, R)``
block sweeps, and the version-keyed LRU absorbs the repeats that skewed
(Zipf-like) traffic is mostly made of.

This harness replays one recorded traffic trace — bursts of frontier-family
queries (BFS, earliest-arrival, reachability probes) over a skewed root
distribution, with a streamed mutation batch between bursts — through two
pipelines over identical graph copies:

* **naive** — what callers had before the serving layer: every query is one
  direct ``repro.algorithms``/``repro.core`` call (one engine sweep each,
  no result reuse); mutations pay the same delta recompile
  (``get_compiled``) the server uses, so the measured gap is pure
  coalescing + caching, not rebuild tricks;
* **served** — the same trace through one :class:`QueryServer`: queries of a
  burst are submitted back-to-back (they land in the same micro-batch),
  mutations go through :meth:`QueryServer.mutate`.

Both pipelines' per-query answers are cross-checked for equality after the
timed replay, and the headline claim is asserted: **served throughput is at
least 3x the naive pipeline's at the largest sweep size** — in quick/CI mode
too (coalescing gains grow with size, so the largest quick-mode point is the
conservative one).

The served pipeline crosses every mutation the way the server always
does: the writer prunes the cache and runs no sweep, and each burst's
repeats of a pruned answer ride that burst's coalesced sweep.

A second phase rides the same module:

* **overload** — a burst far larger than the admission bound is fired at a
  ``shed-oldest`` server with a mix of deadlines: the phase demonstrates
  (and asserts) that the submission queue stays bounded at ``max_pending``
  while the overflow is shed or expired *before* spending sweep columns,
  with the wait/service latency histograms quantifying the survivors' cost.

Results go to ``benchmark_reports/serving_ablation.json`` (CI uploads it and
gates on it via ``check_regressions.py``) plus plain-text twins.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery, ReachabilityQuery
from repro.algorithms.temporal_paths import earliest_arrival_times
from repro.core.bfs import evolving_bfs
from repro.engine import get_compiled
from repro.exceptions import DeadlineExceededError, ServerOverloadedError
from repro.generators import random_evolving_graph
from repro.serving import QueryServer

from .conftest import SCALE, scaled, write_json_report, write_report

NUM_TIMESTAMPS = 8

#: The acceptance bar (ISSUE 6): coalesced + cached serving must deliver at
#: least this much more throughput than naive per-query dispatch at the
#: largest size — asserted at every scale, quick/CI mode included.
SPEEDUP_FLOOR = 3.0

NUM_NODES = scaled(1_500)
EDGE_SWEEP = [scaled(20_000), scaled(40_000), scaled(80_000)]

#: Overload phase (ISSUE 9): a burst this size hits a queue bounded at
#: MAX_PENDING under ``shed-oldest``; every 8th query carries a hopeless
#: deadline so the expiry path shows up alongside the shedding path.
OVERLOAD_QUERIES = 400
MAX_PENDING = 32

#: Traffic shape: bursts of queries over a Zipf-skewed root set, each burst
#: replayed REPEATS_PER_BURST times at its version (skewed traffic repeats —
#: the replays are what the result cache absorbs), one streamed mutation
#: batch between bursts (it moves ``mutation_version``, so burst N+1 cannot
#: be served from burst N's cache entries).
NUM_BURSTS = 3
REPEATS_PER_BURST = 2
QUERIES_PER_BURST = 150
DISTINCT_ROOTS = 16
MUTATION_EDGES = 50


def _build_trace(graph, rng):
    """The recorded traffic trace: query bursts + interleaved mutation batches.

    Returns ``(bursts, mutations)`` with ``len(mutations) == len(bursts) - 1``.
    Roots are drawn Zipf-like (rank-weighted) from the first DISTINCT_ROOTS
    active temporal nodes — hot roots repeat heavily, the tail is thin, as
    real query logs are.
    """
    roots = graph.active_temporal_nodes()[:DISTINCT_ROOTS]
    weights = 1.0 / np.arange(1, len(roots) + 1)
    weights /= weights.sum()
    target = roots[-1]

    bursts = []
    for _ in range(NUM_BURSTS):
        burst = []
        picks = rng.choice(len(roots), size=QUERIES_PER_BURST, p=weights)
        kinds = rng.integers(0, 3, size=QUERIES_PER_BURST)
        for pick, kind in zip(picks.tolist(), kinds.tolist()):
            root = roots[pick]
            if kind == 0:
                burst.append(BFSQuery(root=root))
            elif kind == 1:
                burst.append(EarliestArrivalQuery(source=root))
            else:
                burst.append(ReachabilityQuery(root=root, target=target))
        bursts.append(burst)

    nodes = sorted(graph.nodes())
    times = list(graph.timestamps)
    existing = {(u, v, t) for u, v, t in graph.temporal_edges_unordered()}
    mutations = []
    for _ in range(NUM_BURSTS - 1):
        batch = []
        while len(batch) < MUTATION_EDGES:
            u, v = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
            t = times[int(rng.integers(len(times)))]
            edge = (nodes[u], nodes[v], t)
            if edge not in existing:
                existing.add(edge)
                batch.append(edge)
        mutations.append(batch)
    return bursts, mutations


def _answer_direct(graph, query):
    """The pre-serving caller's code path: one direct call, one sweep."""
    if isinstance(query, BFSQuery):
        return evolving_bfs(graph, query.root, backend="vectorized").reached
    if isinstance(query, EarliestArrivalQuery):
        return earliest_arrival_times(graph, query.source)
    result = evolving_bfs(graph, query.root, backend="vectorized")
    return result.distance(*query.target)


def _replay_naive(graph, bursts, mutations):
    """One direct call per query; mutations use the same delta-recompile path."""
    get_compiled(graph)  # warm compile: both pipelines start hot
    answers = []
    start = time.perf_counter()
    for i, burst in enumerate(bursts):
        for _ in range(REPEATS_PER_BURST):
            for query in burst:
                answers.append(_answer_direct(graph, query))
        if i < len(mutations):
            graph.add_edges_from(mutations[i])
            get_compiled(graph)
    return time.perf_counter() - start, answers


def _replay_served(graph, bursts, mutations):
    """The same trace through one QueryServer: coalesced, cached, single writer."""
    get_compiled(graph)  # warm compile: both pipelines start hot
    answers = []
    with QueryServer(graph, window_s=0.005, max_batch=4 * QUERIES_PER_BURST) as server:
        start = time.perf_counter()
        for i, burst in enumerate(bursts):
            for _ in range(REPEATS_PER_BURST):
                futures = [server.submit(query) for query in burst]
                answers.extend(f.result(timeout=300) for f in futures)
            if i < len(mutations):
                server.mutate(mutations[i]).result(timeout=300)
        elapsed = time.perf_counter() - start
        stats = server.stats.snapshot()
    return elapsed, answers, stats


def _sweep_point(num_edges):
    """Replay one traffic trace through both pipelines; returns the point dict."""
    rng = np.random.default_rng(2016)
    naive_graph = random_evolving_graph(NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016)
    served_graph = naive_graph.copy()
    bursts, mutations = _build_trace(naive_graph, rng)
    num_queries = REPEATS_PER_BURST * sum(len(b) for b in bursts)

    naive_s, naive_answers = _replay_naive(naive_graph, bursts, mutations)
    served_s, served_answers, stats = _replay_served(served_graph, bursts, mutations)

    # identical trace, identical graph evolution: answers must match 1:1
    assert served_answers == naive_answers

    return {
        "edges": naive_graph.num_static_edges(),
        "num_queries": num_queries,
        "distinct_roots": DISTINCT_ROOTS,
        "mutation_batches": len(mutations),
        "naive_s": naive_s,
        "served_s": served_s,
        "naive_qps": num_queries / max(naive_s, 1e-12),
        "served_qps": num_queries / max(served_s, 1e-12),
        "speedup": naive_s / max(served_s, 1e-12),
        "sweeps": stats["sweeps"],
        "sweep_columns": stats["sweep_columns"],
        "cache_hits": stats["cache_hits"],
        "inflight_joins": stats["inflight_joins"],
        "entries_invalidated": stats["entries_invalidated"],
    }


def _overload_point(num_edges):
    """Fire an over-capacity burst at a bounded shed-oldest server.

    Distinct roots defeat the cache and the in-flight dedup, so every query
    needs a queue slot: with OVERLOAD_QUERIES >> MAX_PENDING the bound must
    hold by shedding, and the sprinkled zero/short deadlines must expire
    without ever spending sweep columns.
    """
    graph = random_evolving_graph(NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=916)
    roots = graph.active_temporal_nodes()
    outcomes = {"served": 0, "shed": 0, "expired": 0}
    start = time.perf_counter()
    with QueryServer(
        graph,
        window_s=0.005,
        max_pending=MAX_PENDING,
        admission="shed-oldest",
    ) as server:
        futures = []
        for i in range(OVERLOAD_QUERIES):
            root = roots[i % len(roots)]
            if i % 8 == 7:
                deadline_s = 0.0 if i % 16 == 15 else 0.002
            else:
                deadline_s = None
            futures.append(
                server.submit(
                    BFSQuery(root=root), deadline_s=deadline_s, priority=i % 3
                )
            )
        for future in futures:
            try:
                future.result(timeout=300)
                outcomes["served"] += 1
            except ServerOverloadedError:
                outcomes["shed"] += 1
            except DeadlineExceededError:
                outcomes["expired"] += 1
        elapsed = time.perf_counter() - start
        stats = server.stats_snapshot()
    assert sum(outcomes.values()) == OVERLOAD_QUERIES
    return {
        "edges": graph.num_static_edges(),
        "burst": OVERLOAD_QUERIES,
        "max_pending": MAX_PENDING,
        "elapsed_s": elapsed,
        "served": outcomes["served"],
        "shed": stats["shed"],
        "expired_before_sweep": stats["expired_before_sweep"],
        "expired_after_sweep": stats["expired_after_sweep"],
        "rejected": stats["rejected"],
        "queue_depth_high_water": stats["queue_depth_high_water"],
        "batch_depth_max": max(stats["batch_queue_depths"], default=0),
        "shed_ratio": stats["shed"] / OVERLOAD_QUERIES,
        "wait_p50_s": stats["wait_latency"]["p50_s"],
        "wait_p99_s": stats["wait_latency"]["p99_s"],
        "service_p99_s": stats["service_latency"]["p99_s"],
        "sweep_columns": stats["sweep_columns"],
    }


@pytest.fixture(scope="module")
def ablation():
    """Both serving phases: traffic replay and overload burst."""
    return {
        "traffic": [_sweep_point(edges) for edges in EDGE_SWEEP],
        "overload": [_overload_point(EDGE_SWEEP[-1])],
    }


def test_serving_speedup_and_report(ablation, report_dir):
    """The PR-6 claim: >= 3x throughput at the largest size, any scale."""
    payload = {
        "scale": SCALE,
        "num_timestamps": NUM_TIMESTAMPS,
        "num_nodes": NUM_NODES,
        "queries_per_burst": QUERIES_PER_BURST,
        "num_bursts": NUM_BURSTS,
        "repeats_per_burst": REPEATS_PER_BURST,
        "speedup_floor": SPEEDUP_FLOOR,
        "seed": 2016,
        "workloads": ablation,
    }
    write_json_report(report_dir, "serving_ablation.json", payload)

    points = ablation["traffic"]
    lines = [
        "Serving ablation - coalesced + cached QueryServer vs naive "
        "per-query dispatch",
        f"Workload: {NUM_BURSTS} bursts x {QUERIES_PER_BURST} frontier-family "
        f"queries (each burst replayed {REPEATS_PER_BURST}x at its version) "
        f"over {DISTINCT_ROOTS} Zipf-skewed roots, one "
        f"{MUTATION_EDGES}-edge mutation batch between bursts "
        f"({NUM_NODES} nodes, {NUM_TIMESTAMPS} time stamps, seed 2016).",
        "",
        f"{'|E~|':>9} {'naive [s]':>10} {'served [s]':>11} {'speedup':>9} "
        f"{'sweeps':>7} {'hits':>6} {'joins':>6}",
    ]
    for p in points:
        lines.append(
            f"{p['edges']:>9d} {p['naive_s']:>10.4f} {p['served_s']:>11.4f} "
            f"{p['speedup']:>8.1f}x {p['sweeps']:>7d} {p['cache_hits']:>6d} "
            f"{p['inflight_joins']:>6d}"
        )
    largest = points[-1]
    lines.append("")
    lines.append(
        f"asserted: >= {SPEEDUP_FLOOR}x throughput at the largest size "
        f"(REPRO_BENCH_SCALE={SCALE}); measured {largest['speedup']:.1f}x "
        f"({largest['served_qps']:.0f} vs {largest['naive_qps']:.0f} queries/s)"
    )
    write_report(report_dir, "serving_ablation.txt", lines)
    assert largest["speedup"] >= SPEEDUP_FLOOR, (
        f"served pipeline only {largest['speedup']:.2f}x faster than naive "
        f"per-query dispatch at |E~|={largest['edges']} (floor {SPEEDUP_FLOOR}x)"
    )


def test_overload_bounded_queue_and_load_shedding(ablation, report_dir):
    """ISSUE 9: under a burst >> max_pending the queue stays bounded and the
    overflow is shed or expires without spending sweep columns."""
    point = ablation["overload"][0]
    lines = [
        "Serving overload - shed-oldest admission under an over-capacity burst",
        f"Burst: {point['burst']} distinct-root BFS queries (every 8th with a "
        f"zero/2 ms deadline) against max_pending={point['max_pending']} "
        f"(|E~|={point['edges']}, {NUM_NODES} nodes, seed 916).",
        "",
        f"served:                {point['served']:>6d}",
        f"shed futures:          {point['shed']:>6d} "
        f"(ratio {point['shed_ratio']:.2f})",
        f"expired before sweep:  {point['expired_before_sweep']:>6d}",
        f"expired after sweep:   {point['expired_after_sweep']:>6d}",
        f"queue depth high-water:{point['queue_depth_high_water']:>6d} "
        f"(bound {point['max_pending']})",
        f"wait p50/p99 [s]:      {point['wait_p50_s']:.4g} / "
        f"{point['wait_p99_s']:.4g}",
        f"service p99 [s]:       {point['service_p99_s']:.4g}",
        f"sweep columns spent:   {point['sweep_columns']:>6d}",
    ]
    write_report(report_dir, "serving_overload.txt", lines)

    # the queue bound held, overflow was shed, and deadlines expired
    assert point["queue_depth_high_water"] <= point["max_pending"]
    assert point["batch_depth_max"] <= point["max_pending"]
    assert point["shed"] > 0
    assert point["expired_before_sweep"] > 0
    assert point["served"] > 0
    assert point["wait_p99_s"] is not None
    # dropped queries never reached a sweep: columns spent stay well under
    # the burst size
    assert point["sweep_columns"] < point["burst"]
