"""Engine ablation: vectorized frontier engine vs the pure-Python Algorithm 1.

This harness reruns the Figure-5 scaling workload (random evolving graphs
grown by consecutively adding static edges; see ``bench_fig5_scaling.py``)
with both ``evolving_bfs`` backends and reports the speedup.  Two claims are
checked:

* the vectorized backend beats the pure-Python path at the largest sweep
  size (>= 2x at full scale; the threshold relaxes in quick/CI mode where
  scaled-down graphs shrink the Python baseline toward fixed overheads);
* both backends return identical ``reached`` dictionaries on the sweep's
  graphs (a final cross-check outside the unit-test suite).

A second section measures the multi-source amortization: many independent
roots traversed one-per-BFS (serial Python) vs packed into the engine's
CSR x dense-block batched mode.  It also reports, per root, what reading a
batched result costs: the engine's ``reached`` is a view over the root's
distance column that decodes into a dict only when every entry is read.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine.py -q -s
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.analysis import fit_linear, measure_bfs_scaling
from repro.core import evolving_bfs
from repro.engine import get_kernel
from repro.generators import random_evolving_graph
from repro.parallel import batch_bfs

from .conftest import SCALE, median_seconds, scaled, write_report

EDGE_TARGETS = [scaled(100_000), scaled(160_000), scaled(250_000)]
NUM_NODES = scaled(2_000)
NUM_TIMESTAMPS = 10
NUM_BATCH_ROOTS = 32

#: Quick/CI runs (REPRO_BENCH_SCALE < 1) shrink the workload until constant
#: overheads dominate the Python baseline, so the asserted floor relaxes.
SPEEDUP_FLOOR = 2.0 if SCALE >= 1.0 else 1.1


def _first_active_root(graph):
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if active:
            return (min(active, key=repr), t)
    raise ValueError("graph has no active temporal nodes")


@pytest.fixture(scope="module")
def sweep():
    """One graph per sweep size, with per-backend median BFS timings."""
    points = []
    for num_edges in EDGE_TARGETS:
        graph = random_evolving_graph(
            NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016)
        root = _first_active_root(graph)
        python_s = median_seconds(
            lambda: evolving_bfs(graph, root, backend="python"))
        vectorized_s = median_seconds(
            lambda: evolving_bfs(graph, root, backend="vectorized"))
        points.append({
            "edges": graph.num_static_edges(),
            "python_s": python_s,
            "vectorized_s": vectorized_s,
            "graph": graph,
            "root": root,
        })
    return points


def test_engine_speedup_on_fig5_workload(sweep, report_dir):
    """The tentpole claim: the engine wins on the Figure-5 scaling workload."""
    lines = [
        "Engine ablation - evolving_bfs backend='python' vs 'vectorized'",
        f"Workload   : {NUM_NODES} nodes, {NUM_TIMESTAMPS} time stamps, "
        f"|E~| sweep {EDGE_TARGETS} (Figure-5 construction, seed 2016).",
        "Timing     : median of 3 runs after 1 warmup (kernel compiled once",
        "             per graph and cached, as in steady-state service use).",
        "",
        f"{'|E~|':>12} {'python [s]':>12} {'vectorized [s]':>16} {'speedup':>9}",
    ]
    speedups = []
    for p in sweep:
        speedup = p["python_s"] / max(p["vectorized_s"], 1e-12)
        speedups.append(speedup)
        lines.append(f"{p['edges']:>12d} {p['python_s']:>12.4f} "
                     f"{p['vectorized_s']:>16.4f} {speedup:>8.1f}x")
    lines.append("")
    lines.append(f"speedup at largest size: {speedups[-1]:.1f}x "
                 f"(required floor {SPEEDUP_FLOOR}x at REPRO_BENCH_SCALE={SCALE})")
    write_report(report_dir, "engine_ablation.txt", lines)
    assert speedups[-1] >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedups[-1]:.2f}x faster than the Python "
        f"path at |E~|={sweep[-1]['edges']} (floor {SPEEDUP_FLOOR}x)")


def test_engine_matches_python_on_sweep(sweep):
    """Cross-check outside the unit suite: identical reached sets on the workload."""
    for p in sweep:
        python = evolving_bfs(p["graph"], p["root"], backend="python")
        vectorized = evolving_bfs(p["graph"], p["root"], backend="vectorized")
        assert vectorized.reached == python.reached


def test_engine_scaling_stays_flat_at_laptop_scale(sweep, report_dir):
    """Report the engine's growth curve and pin it below the Python baseline.

    At laptop scale the engine's per-query cost is dominated by constant
    per-level overheads (a few SpMVs plus the reached-set decode), so a
    linear-fit R^2 is meaningless here — the Figure-5 *shape* claim about
    Algorithm 1 lives in ``bench_fig5_scaling.py``.  What must hold is that
    the engine never loses its lead anywhere on the sweep: every vectorized
    time stays below the *smallest* Python time, which a performance
    regression (e.g. an accidental densify) would immediately violate.
    """
    result = measure_bfs_scaling(
        NUM_NODES, NUM_TIMESTAMPS,
        [scaled(100_000), scaled(130_000), scaled(160_000),
         scaled(200_000), scaled(250_000)],
        seed=2016, repeats=3, backend="vectorized", warmup=1)
    fit = fit_linear(result.edges, result.seconds)
    lines = [
        "Engine scaling - vectorized backend on the Figure-5 sweep",
        "",
        f"{'|E~|':>12} {'time [s]':>12}",
    ]
    for p in result.points:
        lines.append(f"{p.num_static_edges:>12d} {p.seconds:>12.5f}")
    lines.append("")
    lines.append(f"linear fit: time = {fit.slope:.3e} * |E~| + {fit.intercept:.3e}")
    write_report(report_dir, "engine_scaling.txt", lines)
    python_floor = min(p["python_s"] for p in sweep)
    assert max(result.seconds) < python_floor, (
        "the engine lost its lead over the Python baseline somewhere on the sweep")


def _sum_items(reached) -> int:
    return sum(distance for _key, distance in reached.items())


#: The per-root reads of a batched result that the amortization report times.
RESULT_READS = [
    ("len(r.reached) only", len),
    ("full r.reached.items() read", _sum_items),
    ("r.reached.copy()", lambda reached: reached.copy()),
    ("dict(r.reached)", dict),
]


def _per_root_read_ms(graph, roots, read, *, batches: int = 5) -> float:
    """Median over fresh batches of the per-root time of ``read(r.reached)``.

    Each batch is swept anew, so no result has been read before.
    """
    samples = []
    for _ in range(batches):
        results = list(batch_bfs(graph, roots, backend="vectorized").values())
        start = time.perf_counter()
        for result in results:
            read(result.reached)
        samples.append((time.perf_counter() - start) / len(results))
    return 1000 * statistics.median(samples)


def test_batched_multi_source_amortization(sweep, report_dir):
    """Packing roots into one CSR x dense-block product beats one-BFS-per-root."""
    graph = sweep[0]["graph"]
    roots = graph.active_temporal_nodes()[:NUM_BATCH_ROOTS]

    python_s = median_seconds(
        lambda: batch_bfs(graph, roots, backend="python"),
        repeats=1, warmup=0)
    vectorized_s = median_seconds(
        lambda: batch_bfs(graph, roots, backend="vectorized"),
        repeats=3, warmup=1)
    speedup = python_s / max(vectorized_s, 1e-12)

    python_results = batch_bfs(graph, roots, backend="python")
    vectorized_results = batch_bfs(graph, roots, backend="vectorized")
    assert set(python_results) == set(vectorized_results)
    for root in python_results:
        assert vectorized_results[root].reached == python_results[root].reached

    lines = [
        "Batched multi-source ablation - batch_bfs python vs vectorized",
        f"Workload   : {NUM_BATCH_ROOTS} roots on the {sweep[0]['edges']}-edge "
        "sweep graph.",
        "",
        f"python (one Python BFS per root) : {python_s:>9.4f} s",
        f"vectorized (CSR x dense block)   : {vectorized_s:>9.4f} s",
        f"speedup                          : {speedup:>8.1f}x",
        "",
        "Per-root reads of the vectorized results (median of 5 fresh batches;",
        "reported, not gated):",
        f"batch_bfs itself                 : {1000 * vectorized_s / len(roots):>9.3f} ms",
    ]
    for label, read in RESULT_READS:
        read_ms = _per_root_read_ms(graph, roots, read)
        lines.append(f"{label:<33}: {read_ms:>9.3f} ms")
    write_report(report_dir, "engine_batch_ablation.txt", lines)
    assert speedup >= SPEEDUP_FLOOR


def test_kernel_compile_cost_is_amortized(sweep, report_dir):
    """Compiling the kernel costs one pass over the edges; report it honestly."""
    graph = sweep[-1]["graph"]
    root = sweep[-1]["root"]

    start = time.perf_counter()
    from repro.engine import FrontierKernel

    kernel = FrontierKernel(graph)
    compile_s = time.perf_counter() - start

    query_s = median_seconds(lambda: kernel.bfs(root))
    cached_s = median_seconds(
        lambda: evolving_bfs(graph, root, backend="vectorized"))
    lines = [
        "Kernel compile/query split at the largest sweep size",
        "",
        f"one-time compile (edge pass + CSR build) : {compile_s:>9.4f} s",
        f"per-query engine BFS (kernel reused)     : {query_s:>9.4f} s",
        f"per-query via cached dispatch            : {cached_s:>9.4f} s",
    ]
    write_report(report_dir, "engine_compile_cost.txt", lines)
    assert get_kernel(graph) is get_kernel(graph)
    assert query_s <= sweep[-1]["python_s"], (
        "a cached engine query should never lose to the Python traversal")
