"""The four canonical ledger workloads and the seeded generators of their inputs.

Each workload builds its input from ``--seed`` alone, with generators copied
here rather than imported from ``benchmarks/bench_*.py`` or
``src/repro/generators``: those files may change in later work, and the
ledger's inputs must not change with them.  Only the system under test is
imported from ``repro``, and only through the calls a user would make.

A workload exposes:

* ``setup()`` — one full set-up from the generated input (compile, store,
  kernel or server construction, warm-up); the harness times it several
  times and keeps the median, so each call must replace the previous state;
* ``measure(loop)`` — the measured operations, timed by the harness's
  :class:`Loop`, with correctness checks outside the timed regions;
* ``close()`` — release threads, drivers and files.

A run is a fixed operation count, never a wall-clock budget, so two commits
being compared do the same work on the same inputs.  Each workload is a
closed loop of at least 110 operations of 20-250 ms, so that 10 lie beyond
the p90 the harness reports, sized to measure for about ``run_seconds`` of
``BENCHMARK.json`` on the machine the bounds were measured on.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import tempfile
import threading
import time
import traceback
from contextlib import nullcontext

import numpy as np

import repro.io
from repro.algorithms.incremental import IncrementalBFS
from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery, ReachabilityQuery
from repro.algorithms.temporal_paths import earliest_arrival_times
from repro.core import evolving_bfs
from repro.engine import get_kernel, invalidate_kernel
from repro.engine.frontier import FrontierKernel
from repro.engine.sharded_sweep import ShardedSweepDriver
from repro.graph import AdjacencyListEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph
from repro.graph.sharded import operator_stack_bytes
from repro.parallel.batch import batch_bfs
from repro.serving import QueryServer

_clock = time.perf_counter


# --------------------------------------------------------------------------- #
# input generators                                                            #
# --------------------------------------------------------------------------- #


def fig5_graph(num_nodes: int, num_timestamps: int, num_edges: int, seed: int):
    """The Figure-5 random evolving graph: uniform ``(u, v, t)`` edges, deduplicated."""
    rng = np.random.default_rng(seed)
    oversample = int(num_edges * 1.05) + 16
    u = rng.integers(0, num_nodes, size=oversample, dtype=np.int64)
    v = rng.integers(0, num_nodes, size=oversample, dtype=np.int64)
    t = rng.integers(0, num_timestamps, size=oversample, dtype=np.int64)
    keep = u != v
    u, v, t = u[keep], v[keep], t[keep]
    keys = (u * num_nodes + v) * num_timestamps + t
    _, first = np.unique(keys, return_index=True)
    first.sort()
    first = first[:num_edges]
    edges = zip(u[first].tolist(), v[first].tolist(), t[first].tolist())
    return AdjacencyListEvolvingGraph(
        edges, directed=True, timestamps=list(range(num_timestamps))
    )


def banded_graph(bands: int, snaps_per_band: int, nodes_per_band: int, seed: int):
    """Temporally banded directed graph: per band its own nodes, a chain
    threading its snapshots, random extra edges, and one forwarding edge into
    the next band, so influence crosses time through a narrow seam."""
    rng = random.Random(seed)
    extra_edges = 120
    edges = []
    for band in range(bands):
        base = band * nodes_per_band
        times = [band * snaps_per_band + k for k in range(snaps_per_band)]
        for i in range(nodes_per_band - 1):
            t = times[(i * snaps_per_band) // nodes_per_band]
            edges.append((base + i, base + i + 1, t))
        for _ in range(extra_edges):
            u = rng.randrange(nodes_per_band)
            v = rng.randrange(nodes_per_band)
            if u != v:
                edges.append((base + u, base + v, rng.choice(times)))
        if band + 1 < bands:
            edges.append((base + nodes_per_band - 1, base + nodes_per_band, times[-1]))
    return AdjacencyListEvolvingGraph(edges, directed=True)


def mixed_batches(graph, rng: np.random.Generator, batch_edges: int, removals: int):
    """Endless signed batches ``(insertions, removals)`` inside ``graph``'s universe.

    The first batch only inserts; each later one removes ``removals`` edges
    an earlier batch streamed in (never base edges, so the node universe and
    the roots stay fixed) and inserts fresh edges for the rest of its
    ``batch_edges``.
    """
    nodes = sorted(graph.nodes())
    times = list(graph.timestamps)
    existing = set(graph.temporal_edges_unordered())
    removable: list = []
    take = 0
    while True:
        dropped = [removable.pop() for _ in range(min(take, len(removable)))]
        take = removals
        insertions = []
        while len(insertions) < batch_edges - len(dropped):
            u, v = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
            edge = (nodes[u], nodes[v], times[int(rng.integers(len(times)))])
            if edge not in existing:
                existing.add(edge)
                insertions.append(edge)
        removable.extend(insertions)
        for edge in dropped:
            existing.discard(edge)
        yield insertions, dropped


def sample(rng: np.random.Generator, items: list, k: int) -> list:
    """``k`` distinct items of ``items``, drawn by ``rng``."""
    return [items[i] for i in rng.choice(len(items), size=k, replace=False).tolist()]


def identity_count(reached: dict, root) -> int:
    """Node identities a search reached, minus the root's own."""
    return len({node for node, _ in reached} - {root[0]})


# --------------------------------------------------------------------------- #
# the measurement loop                                                        #
# --------------------------------------------------------------------------- #


class Loop:
    """Runs, times and checks a workload's operations; owns its outcome.

    ``latencies`` holds one wall time per completed operation and ``cpu_s``
    the process CPU time of the timed regions.  ``probe`` is timed just
    before every operation and once after the last; ``relative`` holds each
    completed operation's latency over the mean of the probes on either side
    of it (see ``probe.py``).
    """

    def __init__(self, tracer, probe) -> None:
        self.tracer = tracer
        self.probe = probe
        self.latencies: list[float] = []
        self.relative: list[float] = []
        self.probes: list[float] = []
        self.cpu_s = 0.0
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.wall_s = 0.0
        self.notes: dict[str, float] = {}
        self.layer_values: dict[str, float] = {}
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def record_answer(self, answer) -> None:
        self._digest.update(repr(answer).encode())

    def check(self, ok: bool) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1

    def run(self, ops: int, prepare, operate, verify, finish=None) -> None:
        """The closed loop of ``ops`` operations: ``prepare(i)`` and
        ``verify(i, op, result)`` run untimed, ``operate(op)`` is the timed
        operation returning ``(items, result)``; ``finish()`` runs once after
        the last one."""
        completed = []  # (latency, index of the probe taken before it)
        for index in range(ops):
            op = prepare(index)
            self.attempted += 1
            self.probes.append(self.probe.time())
            self.tracer.phase = "measure"
            cpu = time.process_time()
            start = _clock()
            try:
                items, result = operate(op)
            except Exception:  # noqa: BLE001 - a failed operation is a result
                self.tracer.phase = "verify"
                traceback.print_exc()
                self.failed += 1
                continue
            elapsed = _clock() - start
            self.cpu_s += time.process_time() - cpu
            self.tracer.phase = "verify"
            self.latencies.append(elapsed)
            completed.append((elapsed, len(self.probes) - 1))
            self.wall_s += elapsed
            self.items += items
            verify(index, op, result)
        self.probes.append(self.probe.time())
        self.relative = [
            elapsed / (0.5 * (self.probes[at] + self.probes[at + 1]))
            for elapsed, at in completed
        ]
        if finish is not None:
            finish()


# --------------------------------------------------------------------------- #
# fig5_batch                                                                  #
# --------------------------------------------------------------------------- #


class Fig5Batch:
    """The paper's Figure-5 graph under batched reads, one caller.

    A round is (a) ``batch_bfs`` over 16 roots, which decodes one
    ``BFSResult`` per root, then (b) reach counts over 64 roots, which
    never decodes; both are timed together as one operation.
    """

    name = "fig5_batch"
    OPS = 130
    BFS_ROOTS = 16
    REACH_ROOTS = 64
    CHECK_EVERY = 13

    def __init__(self, seed: int, workdir: str) -> None:
        self.graph = fig5_graph(2000, 10, 250_000, seed)
        self.roots = self.graph.active_temporal_nodes()
        self.rng = np.random.default_rng([seed, 1])

    def _round(self, op, span):
        bfs_roots, reach_roots = op
        with span("engine.decode"):
            results = batch_bfs(self.graph, bfs_roots, backend="vectorized")
        with span("op.reach"):
            counts = get_kernel(self.graph).identity_reach_counts(reach_roots)
        return results, counts

    def setup(self) -> None:
        invalidate_kernel(self.graph)
        get_kernel(self.graph)
        warm = (self.roots[: self.BFS_ROOTS], self.roots[: self.REACH_ROOTS])
        self._round(warm, lambda name: nullcontext())

    def measure(self, loop: Loop) -> None:
        span = loop.tracer.span

        def prepare(index):
            return (
                sample(self.rng, self.roots, self.BFS_ROOTS),
                sample(self.rng, self.roots, self.REACH_ROOTS),
            )

        def operate(op):
            results, counts = self._round(op, span)
            loop.tracer.count(
                "engine.decode.entries", sum(len(r.reached) for r in results.values())
            )
            return self.BFS_ROOTS + self.REACH_ROOTS, (results, counts)

        def verify(index, op, answer):
            results, counts = answer
            loop.record_answer(
                ([len(results[r].reached) for r in op[0]], [counts[r] for r in op[1]])
            )
            loop.check(len(results) == len(op[0]) and len(counts) == len(op[1]))
            if index % self.CHECK_EVERY:
                return
            bfs_root, reach_root = op[0][0], op[1][0]
            oracle = evolving_bfs(self.graph, bfs_root, backend="python")
            loop.check(results[bfs_root].reached == oracle.reached)
            oracle = evolving_bfs(self.graph, reach_root, backend="python")
            loop.check(counts[reach_root] == identity_count(oracle.reached, reach_root))

        loop.run(self.OPS, prepare, operate, verify)

    def close(self) -> None:
        invalidate_kernel(self.graph)


# --------------------------------------------------------------------------- #
# banded_ooc                                                                  #
# --------------------------------------------------------------------------- #


class BandedOutOfCore:
    """Sharded sweeps over a memory-mapped store, one shard resident at a time.

    Each operation sweeps one of :attr:`ROOT_SETS` fixed sets of 32 roots,
    one chunk of the driver: every k-th active temporal node from one of ten
    offsets, spread evenly over the bands.  A sweep's cost is set by its
    roots' depths, and with only 120 random shortcuts per band the sets'
    costs differ by up to 30%.  So the graph and the sets are the same
    for every seed, every run sweeps each set equally often, and the seed
    draws only the order of the sweeps.
    """

    name = "banded_ooc"
    OPS = 110
    SWEEP_ROOTS = 32
    ROOT_SETS = 10
    NODES_PER_BAND = 100
    GRAPH_SEED = 7

    def __init__(self, seed: int, workdir: str) -> None:
        self.graph = banded_graph(6, 4, self.NODES_PER_BAND, self.GRAPH_SEED)
        active = self.graph.active_temporal_nodes()
        stride = len(active) // self.SWEEP_ROOTS
        self.root_sets = [
            active[k * stride // self.ROOT_SETS :: stride][: self.SWEEP_ROOTS]
            for k in range(self.ROOT_SETS)
        ]
        rng = np.random.default_rng([seed, 2])
        self.order = [
            int(k)
            for _ in range(-(-self.OPS // self.ROOT_SETS))
            for k in rng.permutation(self.ROOT_SETS)
        ][: self.OPS]
        self.workdir = workdir
        # the monolithic kernel's answers, computed once outside set-up
        kernel = get_kernel(self.graph)
        self.expected = [kernel.identity_reach_counts(r) for r in self.root_sets]
        invalidate_kernel(self.graph)
        self.directory = None
        self.store = None
        self.driver = None
        self.stack_bytes = 0

    def setup(self) -> None:
        self.close()
        compiled = CompiledTemporalGraph.from_graph(self.graph)
        self.stack_bytes = operator_stack_bytes(compiled.forward_operators)
        self.directory = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        repro.io.save_sharded(
            compiled, self.directory, shard_byte_budget=self.stack_bytes // 4
        )
        self.store = repro.io.load_sharded(self.directory)
        self.driver = ShardedSweepDriver(self.store, backend="serial", chunk_size=32)
        # the serial driver reopens every shard and rebuilds its kernel on
        # each sweep, so the warm-up sweep only reads the new store in once
        self.driver.identity_reach_counts(self.root_sets[0])

    def measure(self, loop: Loop) -> None:
        span = loop.tracer.span

        def prepare(index):
            return self.order[index]

        def operate(which):
            roots = self.root_sets[which]
            with span("op.sweep"):
                return len(roots), self.driver.identity_reach_counts(roots)

        def verify(index, which, counts):
            loop.record_answer([counts.get(r) for r in self.root_sets[which]])
            loop.check(counts == self.expected[which])

        loop.run(self.OPS, prepare, operate, verify)
        loop.layer_values["shard.peak_open_bytes"] = self.store.peak_open_bytes
        loop.layer_values["shard.residency_ratio"] = self.stack_bytes / max(
            1, self.store.peak_open_bytes
        )
        loop.notes["shards"] = self.store.num_shards

    def close(self) -> None:
        if self.driver is not None:
            self.driver.close()
        self.driver = self.store = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


# --------------------------------------------------------------------------- #
# signed_stream                                                               #
# --------------------------------------------------------------------------- #


class SignedStream:
    """Mixed insert/remove batches folded into one maintained BFS root."""

    name = "signed_stream"
    OPS = 500
    BATCH_EDGES = 200
    REMOVALS = 100
    CHECK_EVERY = 100

    def __init__(self, seed: int, workdir: str) -> None:
        self.graph = fig5_graph(2000, 10, 200_000, seed)
        first = self.graph.timestamps[0]
        self.root = (min(self.graph.active_nodes_at(first)), first)
        self.batches = mixed_batches(
            self.graph, np.random.default_rng([seed, 3]), self.BATCH_EDGES,
            self.REMOVALS,
        )
        self.incremental = None

    def setup(self) -> None:
        invalidate_kernel(self.graph)
        self.incremental = IncrementalBFS(self.graph, self.root)

    def _verify_state(self, loop: Loop) -> None:
        fresh = FrontierKernel(CompiledTemporalGraph.from_graph(self.graph))
        loop.check(self.incremental.distances == fresh.bfs(self.root).reached)

    def measure(self, loop: Loop) -> None:
        # the warm-up batch mutates the graph, so it runs once, after the
        # set-up samples rather than inside each of them
        insertions, removals = next(self.batches)
        self.incremental.apply(insertions=insertions, removals=removals)
        span = loop.tracer.span
        last_checked = [-1]

        def prepare(index):
            return next(self.batches)

        def operate(batch):
            insertions, removals = batch
            with span("op.apply"):
                applied = self.incremental.apply(
                    insertions=insertions, removals=removals
                )
            return len(insertions) + len(removals), applied

        def verify(index, batch, applied):
            loop.record_answer(applied)
            loop.check(applied == (len(batch[0]), len(batch[1])))
            if index % self.CHECK_EVERY == self.CHECK_EVERY - 1:
                self._verify_state(loop)
                last_checked[0] = index

        def finish():
            if loop.attempted and last_checked[0] != loop.attempted - 1:
                self._verify_state(loop)
            loop.record_answer(sorted(self.incremental.distances.items()))

        loop.run(self.OPS, prepare, operate, verify, finish)

    def close(self) -> None:
        self.incremental = None
        invalidate_kernel(self.graph)


# --------------------------------------------------------------------------- #
# zipf_serving                                                                #
# --------------------------------------------------------------------------- #


class ZipfServing:
    """Zipf query bursts and mixed mutations against a QueryServer, one client.

    A round is one mixed ``mutate`` batch (20 insertions, 5 removals of
    edges an earlier round streamed in), awaited, then a burst of 32
    queries submitted together and awaited: BFS, earliest-arrival and
    reachability 1:1:1, roots Zipf(1.1) over 2000 shuffled active temporal
    nodes.  The operation's latency runs from the mutation's submission to
    the burst's last answer, so it holds the mutation stall, in which every
    warm cache entry is patched, and the burst's coalesced sweeps and cache
    hits.  The server keeps at most :attr:`CACHE_ENTRIES` answers, which the
    untimed warm-up rounds fill, so every timed mutation patches a steady
    number of entries.

    The graph and which nodes hold which popularity rank come from
    :attr:`INPUT_SEED` and are the same for every seed: the ranking sets
    what the hot roots cost to sweep and to patch.  The seed draws the
    query sequence and the mutations.
    """

    name = "zipf_serving"
    OPS = 110
    WARMUP_ROUNDS = 10
    BURST = 32
    BATCH_EDGES = 25
    REMOVALS = 5
    CACHE_ENTRIES = 64
    ROOTS = 2000
    ZIPF_S = 1.1
    INPUT_SEED = 2016
    CHECK_EVERY = 10
    CHECKED_QUERIES = 9
    SLO_S = 0.100

    def __init__(self, seed: int, workdir: str) -> None:
        self.graph = fig5_graph(1500, 8, 80_000, self.INPUT_SEED)
        self.shadow = self.graph.copy()
        self.rng = np.random.default_rng([seed, 4])
        self.batches = mixed_batches(
            self.graph, np.random.default_rng([seed, 5]), self.BATCH_EDGES,
            self.REMOVALS,
        )
        active = self.graph.active_temporal_nodes()
        order = np.random.default_rng(self.INPUT_SEED).permutation(len(active))
        self.pool = [active[i] for i in order[: self.ROOTS].tolist()]
        self.warm_root = active[int(order[self.ROOTS])]
        self.targets = active
        weights = np.arange(1, len(self.pool) + 1, dtype=float) ** -self.ZIPF_S
        self.weights = weights / weights.sum()
        self.server = None

    def _query(self):
        root = self.pool[int(self.rng.choice(len(self.pool), p=self.weights))]
        kind = int(self.rng.integers(3))
        if kind == 0:
            return BFSQuery(root=root)
        if kind == 1:
            return EarliestArrivalQuery(source=root)
        target = self.targets[int(self.rng.integers(len(self.targets)))]
        return ReachabilityQuery(root=root, target=target)

    def setup(self) -> None:
        self.close()
        invalidate_kernel(self.graph)
        self.server = QueryServer(self.graph, cache_entries=self.CACHE_ENTRIES)
        self.server.query(BFSQuery(root=self.warm_root))

    def _prepare(self, index):
        insertions, removals = next(self.batches)
        return insertions, removals, [self._query() for _ in range(self.BURST)]

    def _round(self, op):
        """Mutate, then serve the burst; ``(items, (answers, stall, latencies))``."""
        insertions, removals, queries = op
        start = _clock()
        self.server.mutate(insertions, removals=removals).result()
        stall = _clock() - start
        resolved = [0.0] * len(queries)
        remaining = [len(queries)]
        stamped = threading.Event()
        lock = threading.Lock()

        def stamp(index):
            def callback(_future):
                resolved[index] = _clock()
                with lock:
                    remaining[0] -= 1
                    if remaining[0] == 0:
                        stamped.set()

            return callback

        futures = []
        for index, query in enumerate(queries):
            future = self.server.submit(query)
            future.add_done_callback(stamp(index))
            futures.append(future)
        answers = [future.result() for future in futures]
        # a future wakes its waiters before it runs its callbacks
        stamped.wait()
        submitted = start + stall
        return len(queries) + 1, (answers, stall, [t - submitted for t in resolved])

    def _replay(self, op) -> None:
        """Apply a round's mutation to the shadow graph the answers are checked on."""
        insertions, removals, _ = op
        self.shadow.remove_edges_from(removals)
        self.shadow.add_edges_from(insertions)

    def measure(self, loop: Loop) -> None:
        # the warm-up rounds fill the cache and mutate the graph, so they run
        # once, after the set-up samples rather than inside each of them
        for index in range(self.WARMUP_ROUNDS):
            op = self._prepare(index)
            self._round(op)
            self._replay(op)
        stats_before = self.server.stats_snapshot()
        stalls: list[float] = []
        query_latencies: list[float] = []

        def verify(index, op, result):
            answers, stall, latencies = result
            stalls.append(stall)
            query_latencies.extend(latencies)
            self._replay(op)
            loop.check(len(answers) == len(op[2]))
            if index % self.CHECK_EVERY:
                return
            for query, answer in list(zip(op[2], answers))[: self.CHECKED_QUERIES]:
                loop.record_answer((index, answer))
                loop.check(answer == _direct_answer(self.shadow, query))

        loop.run(self.OPS, self._prepare, self._round, verify)
        self._serving_values(loop, stats_before, stalls)
        loop.notes.update(
            {
                "query_p50_ms": 1000 * quantile(query_latencies, 0.5),
                "query_p99_ms": 1000 * quantile(query_latencies, 0.99),
                "slo_met_frac": sum(1 for t in query_latencies if t <= self.SLO_S)
                / max(1, self.OPS * self.BURST),
                "mutate_p50_ms": 1000 * quantile(stalls, 0.5),
                "mutate_max_ms": 1000 * max(stalls, default=0.0),
                "cache_hit_frac": loop.layer_values["serving.cache_hit_frac"],
            }
        )

    def _serving_values(self, loop, before, stalls) -> None:
        after = self.server.stats_snapshot()

        def delta(key):
            return after[key] - before[key]

        def latency_total(key):
            return after[key]["total_s"] - before[key]["total_s"]

        submitted = max(1, delta("submitted"))
        mutations = max(1, len(stalls))
        wait = latency_total("wait_latency")
        service = latency_total("service_latency")
        values = loop.layer_values
        values["serving.columns_per_sweep"] = delta("sweep_columns") / max(
            1, delta("sweeps")
        )
        values["serving.cache_hit_frac"] = delta("cache_hits") / submitted
        values["serving.join_frac"] = delta("inflight_joins") / submitted
        values["serving.queue_depth_hwm"] = after["queue_depth_high_water"]
        values["serving.wait_frac"] = wait / max(1e-12, wait + service)
        values["serving.entries_patched"] = delta("entries_patched") / mutations
        values["serving.entries_invalidated"] = delta("entries_invalidated") / mutations
        values["serving.mutate_stall_frac"] = sum(stalls) / max(1e-12, loop.wall_s)
        # every hit in a burst lands on an entry that the round's mutation
        # patched or the burst itself computed: an upper bound on the share
        # of patched entries that were asked for again
        values["serving.patch.reuse_frac"] = delta("cache_hits") / max(
            1, delta("entries_patched")
        )

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def _direct_answer(graph, query):
    """The documented function each served query mirrors."""
    if isinstance(query, BFSQuery):
        return evolving_bfs(graph, query.root).reached
    if isinstance(query, EarliestArrivalQuery):
        return earliest_arrival_times(graph, query.source)
    return evolving_bfs(graph, query.root).distance(*query.target)


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values`` by rank (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


WORKLOADS = {w.name: w for w in (Fig5Batch, BandedOutOfCore, SignedStream, ZipfServing)}
