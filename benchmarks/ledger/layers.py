"""Which library functions the traced run wraps, and the per-layer metrics.

Layer names follow the modules.  Each wrapper is installed where the caller
looks the name up at call time: the kernels call ``repro.engine.bitops.*``
through the module, the server calls ``repro.serving.server.execute_group``
through its own module namespace, and the harness calls
``repro.io.save_sharded``.  ``kernel.unpack`` counts only the distance write
(an unpack directly under a sweep span); unpacks inside an advance or a
hand-off belong to those layers.
"""

from __future__ import annotations

import os

import repro.io
import repro.io.mmap_store
import repro.serving.server
from repro.engine import bitops, sharded_sweep
from repro.engine.frontier import FrontierKernel
from repro.engine.sharded_sweep import BoundaryBlock
from repro.graph.adjacency_list import AdjacencyListEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph
from repro.linalg.csr import OperationCounter

from spans import OVERHEAD

#: Per-layer metrics reported by ``--trace 1``: ``(name, unit, better)``.
#: Shares are self time over the measured wall (the summed operation
#: latencies); ``/op`` values are per measured operation (per round of one
#: mutation and a query burst when serving).
PER_LAYER = [
    ("graph.mutate.share", "ratio", "lower"),
    ("compile.full.s", "s", "lower"),
    ("compile.delta.share", "ratio", "lower"),
    ("compile.delta.calls", "1/op", "lower"),
    ("compile.delta.snapshots_rebuilt", "1/op", "lower"),
    ("compile.delta.snapshots_reused", "1/op", "higher"),
    ("kernel.sweep.share", "ratio", "lower"),
    ("kernel.sweep.columns", "1/op", "lower"),
    ("kernel.advance.share", "ratio", "lower"),
    ("kernel.advance.calls", "1/op", "lower"),
    ("kernel.advance.multiply_adds", "madd/op", "lower"),
    ("kernel.advance.dense_frac", "ratio", "lower"),
    ("kernel.advance.ns_per_madd", "ns", "lower"),
    ("kernel.advance.yield", "ratio", "higher"),
    ("kernel.fused_update.share", "ratio", "lower"),
    ("kernel.fused_update.calls", "1/op", "lower"),
    ("kernel.fused_update.word_ops", "1/op", "lower"),
    ("kernel.unpack.share", "ratio", "lower"),
    ("kernel.unpack.calls", "1/op", "lower"),
    ("kernel.patch.share", "ratio", "lower"),
    ("kernel.patch.calls", "1/op", "lower"),
    ("kernel.shrink.share", "ratio", "lower"),
    ("kernel.shrink.calls", "1/op", "lower"),
    ("engine.decode.share", "ratio", "lower"),
    ("engine.decode.entries", "1/op", "lower"),
    ("store.save.setup_share", "ratio", "lower"),
    ("store.load.setup_share", "ratio", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("shard.open.share", "ratio", "lower"),
    ("shard.open.calls", "1/op", "lower"),
    ("shard.peak_open_bytes", "bytes", "lower"),
    ("shard.residency_ratio", "ratio", "higher"),
    ("shard.handoff.share", "ratio", "lower"),
    ("shard.handoff.calls", "1/op", "lower"),
    ("shard.handoff.bytes", "bytes/op", "lower"),
    ("serving.group.share", "ratio", "lower"),
    ("serving.group.calls", "1/op", "lower"),
    ("serving.columns_per_sweep", "count", "higher"),
    ("serving.cache_hit_frac", "ratio", "higher"),
    ("serving.join_frac", "ratio", "higher"),
    ("serving.queue_depth_hwm", "count", "lower"),
    ("serving.wait_frac", "ratio", "lower"),
    ("serving.patch.share", "ratio", "lower"),
    ("serving.patch.reuse_frac", "ratio", "higher"),
    ("serving.entries_patched", "1/mutation", "lower"),
    ("serving.entries_invalidated", "1/mutation", "lower"),
    ("serving.mutate_stall_frac", "ratio", "lower"),
    ("unattributed.share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

#: Layers whose self time is reported as a share of the measured wall.
SHARE_LAYERS = [
    "graph.mutate", "compile.delta", "kernel.sweep", "kernel.advance",
    "kernel.fused_update", "kernel.unpack", "kernel.patch", "kernel.shrink",
    "engine.decode", "shard.open", "shard.handoff", "serving.group",
    "serving.patch",
]

#: The op counts ``--check-determinism`` requires to repeat exactly.
DETERMINISTIC = [
    "kernel.advance.multiply_adds",
    "kernel.fused_update.word_ops",
    "kernel.sweep.columns",
    "compile.delta.snapshots_rebuilt",
    "compile.delta.snapshots_reused",
    "shard.peak_open_bytes",
    "shard.handoff.calls",
]


def instrumentation(tracer) -> list[tuple]:
    """The ``(owner, attribute, layer, options)`` patches of a traced run."""
    count = tracer.count

    def edges(args, kwargs):
        return lambda result: count("graph.mutate.edges", int(result))

    def delta(args, kwargs):
        def done(result):
            stats = result.delta_stats or {}
            count("compile.delta.snapshots_rebuilt", stats.get("rebuilt", 0))
            count("compile.delta.snapshots_reused", stats.get("reused", 0))

        return done

    # every bit a fused update discovers is written once as a distance of at
    # least 1, so a sweep's new bits are read off its result in one pass
    # instead of a popcount per update
    def run_columns(args, kwargs):
        count("kernel.sweep.columns", len(args[1]))
        return lambda dist: count("kernel.fused_update.new_bits", int((dist > 0).sum()))

    def shard_columns(args, kwargs):
        count("kernel.sweep.columns", args[2].num_columns)
        return lambda result: count(
            "kernel.fused_update.new_bits", int((result[0] > 0).sum())
        )

    def advance(args, kwargs):
        # an OperationCounter is supplied when the caller passed none, so the
        # charged multiply-adds are always visible
        if kwargs.get("counter") is None:
            kwargs["counter"] = OperationCounter()
        counter = kwargs["counter"]
        before = counter.multiply_adds
        dense = 2 * int(args[0].nnz) * int(args[1].shape[0])

        def done(result):
            madds = counter.multiply_adds - before
            count("kernel.advance.multiply_adds", madds)
            count("kernel.advance.dense_calls", madds == dense)
            count("kernel.advance.out_bits", bitops.popcount(result))

        return done

    def fused(args, kwargs):
        words = bitops.FUSED_UPDATE_WORD_OPS * args[5].size
        count("kernel.fused_update.word_ops", words)

    def store_bytes(args, kwargs):
        def done(directory):
            total = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(directory)
                for name in names
            )
            count("store.bytes", total)

        return done

    def boundary_bytes(args, kwargs):
        return lambda block: count(
            "shard.handoff.bytes", sum(w.nbytes for w in block.levels.values())
        )

    plain: dict = {}
    graph = AdjacencyListEvolvingGraph
    mutate = {"probe": edges}
    return [
        (graph, "add_edge", "graph.mutate", mutate),
        (graph, "add_edges_from", "graph.mutate", mutate),
        (graph, "remove_edge", "graph.mutate", mutate),
        (graph, "remove_edges_from", "graph.mutate", mutate),
        (CompiledTemporalGraph, "from_graph", "compile.full", plain),
        (CompiledTemporalGraph, "recompile", "compile.delta", {"probe": delta}),
        (FrontierKernel, "_run", "kernel.sweep", {"probe": run_columns}),
        (sharded_sweep, "_bfs_shard_sweep", "kernel.sweep", {"probe": shard_columns}),
        (bitops, "advance_blocked", "kernel.advance", {"probe": advance}),
        (bitops, "fused_update", "kernel.fused_update", {"probe": fused}),
        (bitops, "unpack_bits", "kernel.unpack", {"only_under": "kernel.sweep"}),
        (FrontierKernel, "patch_distance_block", "kernel.patch", plain),
        (FrontierKernel, "patch_distance_blocks", "kernel.patch", plain),
        (FrontierKernel, "decrease_only_resweep", "kernel.patch", plain),
        (FrontierKernel, "shrink_distance_block", "kernel.shrink", plain),
        (FrontierKernel, "shrink_distance_blocks", "kernel.shrink", plain),
        (repro.io, "save_sharded", "store.save", {"probe": store_bytes}),
        (repro.io, "load_sharded", "store.load", plain),
        (repro.io.mmap_store._MmapShardStore, "open_shard", "shard.open", plain),
        (BoundaryBlock, "from_min_levels", "shard.handoff", {"probe": boundary_bytes}),
        (BoundaryBlock, "merged_with", "shard.handoff", {"probe": boundary_bytes}),
        (BoundaryBlock, "decode", "shard.handoff", plain),
        (repro.serving.server, "execute_group", "serving.group", plain),
        (repro.serving.server, "decode_warm_block", "serving.patch", plain),
    ]


def per_layer(tracer, loop, setups: list[float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced run."""
    layers = tracer.layers("measure")
    counts = tracer.counts("measure")
    setup_layers = tracer.layers("setup")
    ops = max(1, loop.attempted)
    wall = max(1e-12, loop.wall_s)

    def busy(name, table=layers):
        return table.get(name, {}).get("s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    values = {name + ".share": ratio(layers.get(name, {}).get("self_s", 0.0), wall)
              for name in SHARE_LAYERS}
    values["unattributed.share"] = ratio(
        sum(row["self_s"] for name, row in layers.items() if name.startswith("op.")),
        wall,
    )
    for name in ("compile.delta.snapshots_rebuilt", "compile.delta.snapshots_reused",
                 "kernel.sweep.columns", "kernel.advance.multiply_adds",
                 "kernel.fused_update.word_ops", "engine.decode.entries",
                 "shard.handoff.bytes"):
        values[name] = counts.get(name, 0.0) / ops
    for layer in ("compile.delta", "kernel.advance", "kernel.fused_update",
                  "kernel.unpack", "kernel.patch", "kernel.shrink", "shard.open",
                  "shard.handoff", "serving.group"):
        values[layer + ".calls"] = calls(layer) / ops
    madds = counts.get("kernel.advance.multiply_adds", 0.0)
    values["kernel.advance.dense_frac"] = ratio(
        counts.get("kernel.advance.dense_calls", 0.0), calls("kernel.advance")
    )
    values["kernel.advance.ns_per_madd"] = ratio(1e9 * busy("kernel.advance"), madds)
    values["kernel.advance.yield"] = ratio(
        counts.get("kernel.fused_update.new_bits", 0.0),
        counts.get("kernel.advance.out_bits", 0.0),
    )
    repeats = max(1, len(setups))
    values["compile.full.s"] = busy("compile.full", setup_layers) / repeats
    setup_wall = max(1e-12, sum(setups))
    values["store.save.setup_share"] = busy("store.save", setup_layers) / setup_wall
    values["store.load.setup_share"] = busy("store.load", setup_layers) / setup_wall
    saves = setup_layers.get("store.save", {}).get("calls", 0)
    values["store.bytes"] = ratio(tracer.counts("setup").get("store.bytes", 0.0), saves)
    traced = sum(
        busy for _n, _t, phase, _s, _e, busy, _self, parent in tracer.spans()
        if phase == "measure" and parent is None
    )
    overhead = counts.get(OVERHEAD, 0.0)
    values["trace.overhead_frac"] = ratio(overhead, traced - overhead)
    values.update(loop.layer_values)
    return {name: values.get(name, 0.0) for name, _unit, _better in PER_LAYER}


def top_layers(tracer, loop, k: int = 3) -> list[dict]:
    """The ``k`` layers with the largest self time in the measured phase.

    Each row pairs the self time with the layer's op count (its calls where
    it has no finer count) and the measured nanoseconds per counted op.
    """
    layers = {
        name: row
        for name, row in tracer.layers("measure").items()
        if not name.startswith("op.")
    }
    counts = tracer.counts("measure")
    work = {
        "kernel.advance": counts.get("kernel.advance.multiply_adds", 0.0),
        "kernel.fused_update": counts.get("kernel.fused_update.word_ops", 0.0),
        "kernel.sweep": counts.get("kernel.sweep.columns", 0.0),
        "engine.decode": counts.get("engine.decode.entries", 0.0),
        "graph.mutate": counts.get("graph.mutate.edges", 0.0),
    }
    wall = max(1e-12, loop.wall_s)
    rows = sorted(layers.items(), key=lambda item: -item[1]["self_s"])[:k]
    return [
        {
            "layer": name,
            "self_share": row["self_s"] / wall,
            "calls": row["calls"],
            "work": work.get(name, row["calls"]),
            "ns_per_work": 1e9 * row["self_s"] / max(1.0, work.get(name, row["calls"])),
        }
        for name, row in rows
    ]
