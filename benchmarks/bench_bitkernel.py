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

fused_pull over packed is reported but not gated: it measured 0.81-0.98x in
quick mode and 1.12x at full scale on a 2-core x86 host, too flat to hold a
floor.  Timings cover ``distance_blocks`` — the sweep up to the readout
boundary; the per-root dictionary decode of ``batch`` is identical across
variants and would dilute the ablation.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_bitkernel.py -q -s
"""

from __future__ import annotations

import pytest

from repro.core import evolving_bfs
from repro.engine import FrontierKernel
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
