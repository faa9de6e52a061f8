"""BitKernel ablation: packed, fused and direction-optimized sweep variants.

The engine's inner loop runs on bit-packed ``uint64`` frontier words
(``repro.engine.bitops``).  This harness isolates each ingredient on the
Figure-5 scaling workload, batching many roots per sweep so the block width
``R`` is realistic:

* **packed**  — push *and* pull disabled: packed state and the fused causal
  carry, but every spatial advance is the dense CSR x block product;
* **fused**   — push enabled, pull disabled (adds the sparse-frontier
  direction choice);
* **fused_pull** — the shipped default: push and pull both enabled.

The reference is the pure-Python Algorithm-1 oracle
(``evolving_bfs(..., backend="python")``), as in every other gated report.
Two claims are checked and written to ``bitkernel_ablation.json`` for the
``check_regressions.py`` gate:

* fused_pull's per-root sweep time beats the oracle's per-root search time
  by at least :data:`SPEEDUP_FLOOR` at the largest Figure-5 size (the gated
  ``fused_sweep`` speedup);
* every variant's distances decode to exactly the oracle's ``reached``
  dictionaries on the first :data:`ORACLE_ROOTS` roots.

It also reports, ungated, one dense advance (push and pull off) of 16 and
64 columns through the degree-ordered layout at several ELL caps and
through the window's own ``reduceat`` gather (the dense path before the
layout), over the whole Figure-5 stack and a 2-of-10-snapshot window, plus
the layout's build time and a stack with one hub row per snapshot: the
measurements behind ``bitops._ELL_ROW_SHARE``.

fused_pull over packed is reported but not gated: it measured 0.81-0.98x in
quick mode and 1.12x at full scale on a 2-core x86 host while every
snapshot chose its own direction, and at the largest quick-mode size
0.63-0.92x before and 0.74-1.09x after the direction became one choice per
BFS level (alternating runs) — too flat to hold a floor.  Timings cover
``distance_blocks`` — the sweep up to the readout boundary; the per-root
dictionary decode of ``batch`` is identical across variants and would
dilute the ablation.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_bitkernel.py -q -s
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import evolving_bfs
from repro.engine import FrontierKernel, bitops
from repro.engine.bitops import sweep_thresholds
from repro.generators import random_evolving_graph

from .conftest import SCALE, median_seconds, scaled, write_json_report, write_report

EDGE_TARGETS = [scaled(100_000), scaled(160_000), scaled(250_000)]
NUM_NODES = scaled(2_000)
NUM_TIMESTAMPS = 10
NUM_ROOTS = 64

#: Roots the Python oracle times and checks the variants against (the
#: oracle walks dictionaries, so a handful keeps the harness quick).
ORACLE_ROOTS = 4

#: Asserted floor on the oracle-over-fused_pull per-root speedup.  On a 2-core
#: x86 host quick mode measured 160-195x (18 ms per oracle root, 6.5 ms per
#: 64-root block) and full scale 219x, so this only trips when sweeps fall
#: off the packed engine path.
SPEEDUP_FLOOR = 20.0

#: (variant name, (push_fraction, pull_fraction) overrides)
VARIANTS = [
    ("packed", (0, 0)),
    ("fused", (8, 0)),
    ("fused_pull", (8, 4)),
]

#: Column counts of the dense-advance report: the ledger's ``fig5_batch``
#: sweeps 16-root ``batch_bfs`` chunks and 64-root reach chunks.
DENSE_COLUMNS = (16, 64)

#: Timed rounds per dense-advance case; each round times every variant once,
#: so a change of host speed reaches all of them alike.
DENSE_ROUNDS = 40

#: ELL caps (``bitops._ELL_ROW_SHARE`` values) the dense-advance report
#: builds a layout at, around the shipped one.
ELL_SHARES = (4, 8, 16, 32)


def _fresh(mat):
    """A new CSR object over ``mat``'s buffers, so no layout is cached on it."""
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def _capped_layout(mat, share=None):
    """The dense layout built on ``mat``, which must hold no cached layout,
    with ELL cap ``share`` (``None``: one ELL column per entry rank)."""
    saved = bitops._ELL_ROW_SHARE
    bitops._ELL_ROW_SHARE = mat.shape[0] + 1 if share is None else share
    try:
        return bitops._dense_layout(mat)
    finally:
        bitops._ELL_ROW_SHARE = saved


def _layouts(mat, uncapped=False):
    """One layout per cap of :data:`ELL_SHARES`, each on a fresh operator."""
    layouts = {f"cap {s}": _capped_layout(_fresh(mat), s) for s in ELL_SHARES}
    if uncapped:
        layouts["uncapped"] = _capped_layout(_fresh(mat))
    return layouts


def _hub_stack(num_nodes, snapshots, edges_per_snapshot, seed):
    """Uniform random snapshots in which node 0 takes an edge from every
    other node: one row of in-degree ``N - 1`` per snapshot."""
    rng = np.random.default_rng(seed)
    hub_sources = np.arange(1, num_nodes)
    mats = []
    for _ in range(snapshots):
        src = rng.integers(0, num_nodes, edges_per_snapshot)
        dst = rng.integers(0, num_nodes, edges_per_snapshot)
        src = np.concatenate([src, hub_sources])
        dst = np.concatenate([dst, 0 * hub_sources])
        mat = sp.csr_matrix(
            (np.ones(src.size, np.int8), (dst, src)), shape=(num_nodes, num_nodes)
        )
        mat.sum_duplicates()
        mat.data[:] = 1
        mats.append(mat)
    return bitops.stack_operators(mats)


def _dense_variants(mat, r, window, layouts):
    """One dense advance of ``r`` columns per variant: each maps lanes to lanes.

    ``gather`` is the window's own ``reduceat`` gather, each entry of
    ``layouts`` the whole stack's layout with the rows outside the window
    cleared, and ``advance`` the shipped ``advance_blocked``, which takes
    the layout at ``bitops._ELL_ROW_SHARE``.
    """
    lo, hi = window
    first, last = int(mat.indptr[lo]), int(mat.indptr[hi])
    rows, lens = bitops._row_runs(mat)
    a, b = np.searchsorted(rows, (lo, hi))

    def gather(lanes):
        out = np.zeros_like(lanes)
        bitops._gather_or(lanes, rows[a:b], lens[a:b], mat.indices[first:last], out)
        return out

    def through(layout):
        def run(lanes):
            out = np.zeros_like(lanes)
            bitops._layout_gather_or(lanes, layout, out)
            out[:lo] = 0
            out[hi:] = 0
            return out

        return run

    def advance(lanes):
        with sweep_thresholds(0, 0):
            return bitops.advance_blocked(mat, lanes, r, window=window)

    variants = {"gather": gather}
    variants.update({name: through(layout) for name, layout in layouts.items()})
    variants["advance"] = advance
    return variants


def _time_dense(mat, r, window, layouts):
    """Median milliseconds of each dense variant over interleaved rounds,
    after checking that every variant returns the gather's lanes."""
    rng = np.random.default_rng(r)
    lanes = bitops.pack_bits(rng.random((mat.shape[0], r)) < 0.3)
    variants = _dense_variants(mat, r, window, layouts)
    expected = variants["gather"](lanes)
    for name, run in variants.items():
        assert np.array_equal(run(lanes), expected), name
    times = {name: [] for name in variants}
    for _ in range(DENSE_ROUNDS):
        for name, run in variants.items():
            start = time.perf_counter()
            run(lanes)
            times[name].append(time.perf_counter() - start)
    return {name: 1e3 * float(np.median(t)) for name, t in times.items()}


def _build_ms(build, mat, repeats=9):
    """Median milliseconds of building a layout on a fresh operator object."""
    times = []
    for _ in range(repeats):
        fresh = _fresh(mat)
        start = time.perf_counter()
        build(fresh)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def _run_variant(kernel, roots, thresholds):
    # time the block-sweep boundary itself (``distance_blocks``): the batch
    # readout that decodes distances into per-root dictionaries is identical
    # across variants and would swamp the sweep at small scales
    def run():
        with sweep_thresholds(*thresholds):
            return [
                dist for _, dist in kernel.distance_blocks(roots, chunk_size=NUM_ROOTS)
            ]

    # a 64-root block sweeps in milliseconds, so 9 samples instead of the
    # default 3 are cheap and keep a short stall on the host out of the median
    return median_seconds(run, repeats=9), run()


@pytest.fixture(scope="module")
def sweep():
    """One graph per sweep size with per-variant batched-sweep timings."""
    points = []
    for num_edges in EDGE_TARGETS:
        graph = random_evolving_graph(NUM_NODES, NUM_TIMESTAMPS, num_edges, seed=2016)
        kernel = FrontierKernel(graph)
        roots = graph.active_temporal_nodes()[:NUM_ROOTS]
        oracle_roots = roots[:ORACLE_ROOTS]
        oracle_s = median_seconds(
            lambda: [evolving_bfs(graph, r, backend="python") for r in oracle_roots]
        )
        timings = {}
        results = {}
        for name, thresholds in VARIANTS:
            timings[name], results[name] = _run_variant(kernel, roots, thresholds)
        points.append(
            {
                "edges": graph.num_static_edges(),
                "num_roots": len(roots),
                "python_per_root_s": oracle_s / len(oracle_roots),
                "timings": timings,
                "results": results,
                "kernel": kernel,
                "oracle": {
                    r: evolving_bfs(graph, r, backend="python").reached
                    for r in oracle_roots
                },
            }
        )
    return points


def test_all_variants_bit_identical(sweep):
    """Packed/fused/pull sweeps must match the Python oracle exactly."""
    for point in sweep:
        kernel = point["kernel"]
        for name, _ in VARIANTS:
            (dist,) = point["results"][name]
            for col, (root, reached) in enumerate(point["oracle"].items()):
                assert kernel._reached_view(dist, col) == reached, (name, root)


def test_bitkernel_speedup_and_report(sweep, report_dir):
    """fused_pull's per-root sweep beats the Python oracle at the largest size."""
    workload_points = []
    lines = [
        "BitKernel ablation - batched sweeps vs the Python oracle",
        f"Workload   : {NUM_NODES} nodes, {NUM_TIMESTAMPS} time stamps, "
        f"{NUM_ROOTS} roots per batch, |E~| sweep {EDGE_TARGETS} "
        "(Figure-5 construction, seed 2016).",
        f"Reference  : evolving_bfs(backend='python'), per root, over "
        f"{ORACLE_ROOTS} roots.",
        "Variants   : packed (bit-packed + fused causal, dense advances),",
        "             fused (+push), fused_pull (+pull; the shipped default).",
        "",
        f"{'|E~|':>10} {'python/root':>12} {'packed':>9} {'fused':>9} "
        f"{'fused_pull':>11} {'pull/packed':>12} {'speedup':>9}",
    ]
    for point in sweep:
        t = point["timings"]
        per_root = t["fused_pull"] / point["num_roots"]
        speedup = point["python_per_root_s"] / max(per_root, 1e-12)
        pull_gain = t["packed"] / max(t["fused_pull"], 1e-12)
        workload_points.append(
            {
                "edges": point["edges"],
                "num_roots": point["num_roots"],
                "python_per_root_s": point["python_per_root_s"],
                "packed_s": t["packed"],
                "fused_s": t["fused"],
                "fused_pull_s": t["fused_pull"],
                "fused_pull_over_packed": pull_gain,
                "speedup": speedup,
            }
        )
        lines.append(
            f"{point['edges']:>10d} {1e3 * point['python_per_root_s']:>10.2f}ms "
            f"{t['packed']:>8.4f}s {t['fused']:>8.4f}s {t['fused_pull']:>10.4f}s "
            f"{pull_gain:>11.2f}x {speedup:>8.1f}x"
        )
    lines.append("")
    lines.append(
        f"speedup at largest size: {workload_points[-1]['speedup']:.1f}x "
        f"(python per root / fused_pull per root; required floor "
        f"{SPEEDUP_FLOOR}x at REPRO_BENCH_SCALE={SCALE})"
    )
    write_report(report_dir, "bitkernel_ablation.txt", lines)
    payload = {
        "scale": SCALE,
        "num_nodes": NUM_NODES,
        "num_timestamps": NUM_TIMESTAMPS,
        "num_roots": NUM_ROOTS,
        "oracle_roots": ORACLE_ROOTS,
        "speedup_floor": SPEEDUP_FLOOR,
        "seed": 2016,
        "workloads": {"fused_sweep": workload_points},
    }
    write_json_report(report_dir, "bitkernel_ablation.json", payload)
    assert workload_points[-1]["speedup"] >= SPEEDUP_FLOOR, (
        f"fused_pull sweep only {workload_points[-1]['speedup']:.1f}x faster "
        f"per root than the Python oracle at |E~|={workload_points[-1]['edges']} "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_dense_advance_report(sweep, report_dir):
    """Ungated: the dense advance through the layout and through the gather.

    On the largest Figure-5 stack over the whole stack and a 2-of-10
    window, and on a stack of the same size with one hub row per snapshot,
    each layout at every cap of :data:`ELL_SHARES`, the hub stack's also
    without a cap.
    """
    fig5 = sweep[-1]["kernel"]._stacked(True)
    n = NUM_NODES
    hub = _hub_stack(n, NUM_TIMESTAMPS, fig5.nnz // NUM_TIMESTAMPS, seed=2016)
    cases = [
        ("fig5", fig5, "whole", (0, fig5.shape[0])),
        ("fig5", fig5, "2 of 10", (4 * n, 6 * n)),
        ("hub", hub, "whole", (0, hub.shape[0])),
    ]
    layouts = {"fig5": _layouts(fig5), "hub": _layouts(hub, uncapped=True)}
    stacks = {"fig5": fig5, "hub": hub}
    rows = []
    for name, mat, span, window in cases:
        for r in DENSE_COLUMNS:
            ms = _time_dense(mat, r, window, layouts[name])
            rows.append({"stack": name, "window": span, "columns": r, "ms": ms})
    builds = {
        name: {
            "layout_ms": _build_ms(bitops._dense_layout, mat),
            "ell_share": bitops._ELL_ROW_SHARE,
            "ell_columns": {k: len(v[1]) for k, v in layouts[name].items()},
            "nnz": int(mat.nnz),
        }
        for name, mat in stacks.items()
    }
    builds["hub"]["uncapped_ms"] = _build_ms(_capped_layout, hub, repeats=3)
    variants = ["gather", *layouts["hub"], "advance"]
    lines = [
        "Dense advance - degree-ordered layout vs reduceat gather (ungated)",
        f"Stacks     : fig5 = the largest sweep's stack ({NUM_NODES} nodes x "
        f"{NUM_TIMESTAMPS} snapshots, {fig5.nnz} entries); hub = uniform "
        f"snapshots of the same size plus one in-degree-{n - 1} row each "
        f"({hub.nnz} entries).",
        f"Timing     : one advance, push and pull off, median of {DENSE_ROUNDS} "
        "interleaved rounds; random lanes at 30% density.",
        "Variants   : gather = the window's own reduceat gather; cap s = the "
        "whole stack's layout with ELL cap s (_ELL_ROW_SHARE), rows outside "
        "the window cleared; uncapped = one ELL column per entry rank; "
        f"advance = advance_blocked (cap {bitops._ELL_ROW_SHARE}).",
        "",
        f"{'stack':>6} {'window':>8} {'cols':>5} "
        + " ".join(f"{name:>9}" for name in variants),
    ]
    for row in rows:
        ms = row["ms"]
        cells = [f"{ms[v]:>7.3f}ms" if v in ms else f"{'-':>9}" for v in variants]
        lines.append(
            f"{row['stack']:>6} {row['window']:>8} {row['columns']:>5} "
            + " ".join(cells)
        )
    lines.append("")
    for name, build in builds.items():
        widths = ", ".join(f"{k} {v}" for k, v in build["ell_columns"].items())
        extra = ""
        if "uncapped_ms" in build:
            extra = f"; uncapped build {build['uncapped_ms']:.2f} ms"
        lines.append(
            f"layout build, {name} (cap {build['ell_share']}): "
            f"{build['layout_ms']:.2f} ms{extra}; ELL columns: {widths}"
        )
    write_report(report_dir, "bitkernel_dense_advance.txt", lines)
    payload = {
        "scale": SCALE,
        "num_nodes": NUM_NODES,
        "num_timestamps": NUM_TIMESTAMPS,
        "rounds": DENSE_ROUNDS,
        "advances": rows,
        "builds": builds,
    }
    write_json_report(report_dir, "bitkernel_dense_advance.json", payload)
