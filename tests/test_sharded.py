"""Bit-identity and unit tests for the time-sharded execution layer.

The sharded stack (``repro.graph.sharded`` + ``repro.engine.sharded_sweep``
+ ``repro.io.mmap_store``) must be *observationally identical* to the
monolithic kernels on every sweep family it serves: single-source and
batched BFS (both directions, reversed edges), identity reach counts,
harmonic closeness sums (bit-exact: shards ship per-snapshot partial rows
folded in global snapshot order), earliest arrival, latest departure,
fewest hops, 0/1-semiring
label blocks and Tang snapshot counts.  The property-based tests assert
exact equality across shard counts (1, 2, 3, one-snapshot-per-shard and
explicitly ragged boundaries) and backends, through the algorithm layer's
``shards=`` flag and through a sharded :class:`~repro.serving.QueryServer`.

The CI shard-stress job re-runs this module with ``REPRO_SHARD_BACKEND`` /
``REPRO_SHARD_COUNT`` exported, which reroutes the env-driven tests below
through the process pipeline.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.centrality import (
    temporal_closeness,
    temporal_in_reach,
    temporal_out_reach,
)
from repro.algorithms.queries import (
    BFSQuery,
    EarliestArrivalQuery,
    FewestHopsQuery,
    LatestDepartureQuery,
    ReachabilityQuery,
    TangDistanceQuery,
    TopKReachQuery,
)
from repro.algorithms.tang_distance import temporal_distances_tang_from
from repro.algorithms.temporal_paths import (
    earliest_arrival_times,
    fewest_spatial_hops_from,
    latest_departure_times,
)
from repro.engine import (
    FrontierKernel,
    get_compiled,
    get_kernel,
    get_sharded_driver,
    invalidate_kernel,
)
from repro.engine.sharded_sweep import BoundaryBlock, ShardedSweepDriver, _FAR
from repro.exceptions import GraphError, InactiveNodeError, ShardWorkerError
from repro.graph import AdjacencyListEvolvingGraph, ShardedTemporalGraph
from repro.graph.sharded import compute_shard_layout, operator_stack_bytes
from repro.io.mmap_store import ShardedStoreWriter, load_sharded, save_sharded
from repro.parallel.batch import batch_bfs
from repro.parallel.partition import compiled_snapshot_weights
from repro.serving import QueryServer

node_labels = st.integers(min_value=0, max_value=12)
time_labels = st.integers(min_value=0, max_value=5)

#: The CI shard-stress job exports these to force every env-driven test
#: through the process pipeline with a fixed shard count.
ENV_BACKEND = os.environ.get("REPRO_SHARD_BACKEND", "serial")
ENV_SHARDS = int(os.environ.get("REPRO_SHARD_COUNT", "3"))


@st.composite
def evolving_graphs(draw, *, directed: bool | None = None, min_edges: int = 1,
                    max_edges: int = 25):
    """A small random evolving graph as an adjacency-list representation."""
    if directed is None:
        directed = draw(st.booleans())
    n_edges = draw(st.integers(min_value=min_edges, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(node_labels, node_labels, time_labels).filter(lambda e: e[0] != e[1]),
            min_size=n_edges, max_size=n_edges,
        )
    )
    return AdjacencyListEvolvingGraph(edges, directed=directed)


@st.composite
def graphs_with_roots(draw, **kwargs):
    graph = draw(evolving_graphs(**kwargs))
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    root = draw(st.sampled_from(active))
    return graph, root


SHARD_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _shardings(compiled):
    """Every shard layout a test should cover: 1, 2, per-snapshot, ragged."""
    t = compiled.num_snapshots
    layouts = [
        ShardedTemporalGraph.from_compiled(compiled, 1),
        ShardedTemporalGraph.from_compiled(compiled, 2),
        ShardedTemporalGraph.from_compiled(compiled, t),
    ]
    if t > 1:
        # deliberately unbalanced: a one-snapshot head shard + the rest
        layouts.append(
            ShardedTemporalGraph.from_compiled(compiled, boundaries=[(0, 1), (1, t)])
        )
    return layouts


# --------------------------------------------------------------------------- #
# property-based bit-identity: sharded driver == monolithic kernels            #
# --------------------------------------------------------------------------- #

@SHARD_SETTINGS
@given(graphs_with_roots())
def test_sharded_frontier_family_bit_identical(graph_root):
    graph, root = graph_root
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:6]
    expected_bfs = {
        d: kernel.bfs(root, direction=d).reached for d in ("forward", "backward")
    }
    expected_batch = {r: res.reached for r, res in kernel.batch(roots).items()}
    expected_multi = kernel.multi_source(roots).reached
    expected_reach = kernel.identity_reach_counts(roots)
    expected_harmonic = kernel.harmonic_closeness_sums(roots)
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, chunk_size=3)
        for direction in ("forward", "backward"):
            assert driver.bfs(root, direction=direction).reached == \
                expected_bfs[direction]
        got = {r: res.reached for r, res in driver.batch(roots).items()}
        assert got == expected_batch
        assert driver.multi_source(roots).reached == expected_multi
        assert driver.identity_reach_counts(roots) == expected_reach
        # bit-exact even for the float family: partial rows are folded in
        # canonical global snapshot order, replaying the monolithic sum
        assert driver.harmonic_closeness_sums(roots) == expected_harmonic


@SHARD_SETTINGS
@given(graphs_with_roots(directed=True))
def test_sharded_reverse_edges_bit_identical(graph_root):
    graph, root = graph_root
    compiled = get_compiled(graph)
    expected = get_kernel(graph).bfs(root, reverse_edges=True).reached
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, chunk_size=3)
        assert driver.bfs(root, reverse_edges=True).reached == expected


@SHARD_SETTINGS
@given(graphs_with_roots())
def test_sharded_label_family_bit_identical(graph_root):
    graph, _ = graph_root
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:5]
    sources = sorted({u for u, _, _ in graph.temporal_edges()})[:4] + [99]
    t_count = compiled.num_snapshots
    expected_earliest = kernel.earliest_arrivals(roots)
    expected_latest = kernel.latest_departures(roots)
    expected_hops = kernel.fewest_hops(roots)
    expected_tang = {
        (si, h): kernel.tang_steps(sources, horizon=h, start_index=si)
        for si in (0, t_count - 1)
        for h in (1, 2)
    }
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, chunk_size=3)
        assert driver.earliest_arrivals(roots) == expected_earliest
        assert driver.latest_departures(roots) == expected_latest
        assert driver.fewest_hops(roots) == expected_hops
        for (si, h), expected in expected_tang.items():
            assert driver.tang_steps(sources, horizon=h, start_index=si) == expected


@SHARD_SETTINGS
@given(graphs_with_roots(), st.sampled_from([(1, 0), (1, 1), (0, 1)]))
def test_sharded_zero_one_blocks_bit_identical(graph_root, costs):
    graph, _ = graph_root
    spatial_cost, causal_cost = costs
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:5]
    expected = [
        (chunk, block.copy())
        for chunk, block in kernel.zero_one_labels(
            roots, spatial_cost=spatial_cost, causal_cost=causal_cost, chunk_size=2
        )
    ]
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=2)
        got = list(
            driver.zero_one_labels(
                roots, spatial_cost=spatial_cost, causal_cost=causal_cost,
                chunk_size=2,
            )
        )
        assert len(got) == len(expected)
        for (chunk_a, block_a), (chunk_b, block_b) in zip(expected, got):
            assert chunk_a == chunk_b
            assert np.array_equal(block_a, block_b)


@SHARD_SETTINGS
@given(graphs_with_roots())
def test_algorithm_layer_shards_flag_bit_identical(graph_root):
    graph, root = graph_root
    assert temporal_out_reach(graph) == temporal_out_reach(graph, shards=2)
    assert temporal_in_reach(graph) == temporal_in_reach(graph, shards=3)
    assert temporal_closeness(graph) == temporal_closeness(graph, shards=2)
    assert earliest_arrival_times(graph, root) == \
        earliest_arrival_times(graph, root, shards=2)
    assert latest_departure_times(graph, root) == \
        latest_departure_times(graph, root, shards=2)
    assert fewest_spatial_hops_from(graph, root) == \
        fewest_spatial_hops_from(graph, root, shards=3)
    assert temporal_distances_tang_from(graph, root[0]) == \
        temporal_distances_tang_from(graph, root[0], shards=2)
    roots = graph.active_temporal_nodes()[:6]
    mono_batch = {
        r: res.reached
        for r, res in batch_bfs(graph, roots, backend="vectorized").items()
    }
    sharded_batch = {
        r: res.reached
        for r, res in batch_bfs(
            graph, roots, backend="vectorized", shards=2, chunk_size=3
        ).items()
    }
    assert mono_batch == sharded_batch


# --------------------------------------------------------------------------- #
# mmap store: roundtrip, out-of-core accounting, versioning                    #
# --------------------------------------------------------------------------- #

@SHARD_SETTINGS
@given(graphs_with_roots())
def test_mmap_store_roundtrip_bit_identical(tmp_path_factory, graph_root):
    graph, root = graph_root
    compiled = get_compiled(graph)
    if graph.is_directed:
        compiled.backward_operators  # materialize, so the store keeps them
    kernel = FrontierKernel(compiled)
    roots = graph.active_temporal_nodes()[:5]
    root_dir = str(tmp_path_factory.mktemp("store"))
    save_sharded(compiled, root_dir, num_shards=3)
    sharded = load_sharded(root_dir)
    assert sharded.store_backed
    assert sharded.mutation_version == compiled.mutation_version
    assert sharded.is_directed == compiled.is_directed
    driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=3)
    expected = {r: res.reached for r, res in kernel.batch(roots).items()}
    assert {r: res.reached for r, res in driver.batch(roots).items()} == expected
    assert driver.earliest_arrivals(roots) == kernel.earliest_arrivals(roots)
    assert driver.fewest_hops(roots) == kernel.fewest_hops(roots)
    sources = sorted({u for u, _, _ in graph.temporal_edges()})[:4]
    assert driver.tang_steps(sources, horizon=2) == \
        kernel.tang_steps(sources, horizon=2)
    # reopened matrices equal the originals entry for entry
    shard = sharded.shard(0)
    start, stop = sharded.boundaries[0]
    for local, k in enumerate(range(start, stop)):
        orig = compiled.forward_operators[k]
        got = shard.forward_operators[local]
        assert np.array_equal(orig.toarray(), got.toarray())
    assert list(shard.times) == list(compiled.times)[start:stop]


def _banded_graph(num_nodes=40, snapshots=6, seed=3):
    """A denser deterministic graph for store/bench-shaped tests."""
    rng = random.Random(seed)
    edges = []
    for t in range(snapshots):
        for _ in range(120):
            u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
            if u != v:
                edges.append((u, v, t))
    return AdjacencyListEvolvingGraph(edges, directed=True)


def test_wide_chunk_serial_driver_matches_monolithic():
    """130 roots in one chunk (three uint64 lanes per node), BFS and Tang."""
    graph = _banded_graph(num_nodes=30, snapshots=6, seed=13)
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    active = graph.active_temporal_nodes()
    roots = [active[i % len(active)] for i in range(0, 7 * 130, 7)]
    sources = sorted(graph.nodes()) * 5
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=130)
        for direction in ("forward", "backward"):
            ((chunk, block),) = driver.distance_blocks(roots, direction=direction)
            ((_, expected),) = kernel.distance_blocks(
                roots, direction=direction, chunk_size=130
            )
            assert chunk == roots
            np.testing.assert_array_equal(block, expected)
        assert driver.identity_reach_counts(roots) == \
            kernel.identity_reach_counts(roots, chunk_size=130)
        for horizon in (1, 2):
            assert driver.tang_steps(sources[:130], horizon=horizon) == \
                kernel.tang_steps(sources[:130], horizon=horizon, chunk_size=130)


def test_out_of_core_sweep_bounds_open_bytes(tmp_path):
    """Serial shard-major sweeps over a store never hold the whole stack."""
    graph = _banded_graph()
    compiled = get_compiled(graph)
    total_bytes = operator_stack_bytes(compiled.forward_operators)
    budget = total_bytes // 4
    save_sharded(compiled, str(tmp_path), shard_byte_budget=budget)
    sharded = load_sharded(str(tmp_path))
    assert sharded.num_shards >= 3
    assert max(sharded.stats()["shard_bytes"]) <= budget
    driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=16)
    roots = graph.active_temporal_nodes()[:32]
    expected = get_kernel(graph).identity_reach_counts(roots)
    assert driver.identity_reach_counts(roots) == expected
    # the out-of-core contract: peak open residency is one shard, not the stack
    assert sharded.peak_open_bytes <= budget
    assert sharded.peak_open_bytes < total_bytes
    assert sharded.open_bytes == 0  # every shard was released after its turn


def test_mmap_store_versioning_and_errors(tmp_path):
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=True)
    compiled = get_compiled(graph)
    save_sharded(compiled, str(tmp_path), num_shards=2)
    v0 = compiled.mutation_version
    with pytest.raises(GraphError):
        load_sharded(str(tmp_path), version=v0 + 1000)
    graph.add_edge(2, 3, 1)
    compiled2 = get_compiled(graph)
    save_sharded(compiled2, str(tmp_path), num_shards=2)
    # default picks the newest version; explicit version pins the old one
    assert load_sharded(str(tmp_path)).mutation_version == compiled2.mutation_version
    assert load_sharded(str(tmp_path), version=v0).mutation_version == v0
    with pytest.raises(GraphError):
        load_sharded(str(tmp_path / "nowhere"))
    with pytest.raises(GraphError):
        ShardedStoreWriter(
            str(tmp_path),
            node_labels=[object()],  # not JSON-representable
            is_directed=False,
            mutation_version=0,
        )
    writer = ShardedStoreWriter(
        str(tmp_path / "empty"),
        node_labels=[0, 1],
        is_directed=False,
        mutation_version=0,
    )
    with pytest.raises(GraphError):
        writer.finalize()  # no snapshots


@pytest.mark.parametrize(
    "name",
    [
        "active_mask.bin",
        "shard-0001.forward.data.bin",
        "shard-0001.forward.indices.bin",
        "shard-0001.forward.indptr.bin",
    ],
)
def test_load_sharded_rejects_truncated_file(tmp_path, name):
    """A truncated store file raises a typed error naming it, at load time."""
    compiled = get_compiled(_banded_graph(num_nodes=12, snapshots=4, seed=3))
    directory = save_sharded(compiled, str(tmp_path), num_shards=2)
    load_sharded(str(tmp_path))  # intact: loads
    path = os.path.join(directory, name)
    os.truncate(path, os.path.getsize(path) - 1)
    with pytest.raises(GraphError, match=name):
        load_sharded(str(tmp_path))
    os.remove(path)
    with pytest.raises(GraphError, match=f"{name}.*missing"):
        load_sharded(str(tmp_path))


def test_sharded_driver_staleness_raises():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    driver = get_sharded_driver(graph, 2)
    driver.require_current(graph)
    graph.add_edge(0, 2, 0)
    with pytest.raises(GraphError):
        driver.require_current(graph)
    # the dispatch cache heals: a fresh driver is built for the new version
    fresh = get_sharded_driver(graph, 2)
    assert fresh is not driver
    fresh.require_current(graph)
    invalidate_kernel(graph)


# --------------------------------------------------------------------------- #
# pipeline backends: process workers and the env-driven stress path            #
# --------------------------------------------------------------------------- #

def test_process_backend_bit_identical():
    graph = _banded_graph(num_nodes=20, snapshots=5, seed=11)
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:10]
    sharded = ShardedTemporalGraph.from_compiled(compiled, 3)
    with ShardedSweepDriver(
        sharded, backend="process", num_workers=2, chunk_size=4
    ) as driver:
        expected = {r: res.reached for r, res in kernel.batch(roots).items()}
        assert {r: res.reached for r, res in driver.batch(roots).items()} == expected
        assert driver.identity_reach_counts(roots) == \
            kernel.identity_reach_counts(roots)
        assert driver.earliest_arrivals(roots) == kernel.earliest_arrivals(roots)
        assert driver.latest_departures(roots) == kernel.latest_departures(roots)
        sources = list(range(6))
        assert driver.tang_steps(sources, horizon=2) == \
            kernel.tang_steps(sources, horizon=2)


def test_env_driven_dispatch_bit_identical():
    """The layout the CI stress job forces via env vars stays bit-identical."""
    graph = _banded_graph(num_nodes=18, snapshots=6, seed=5)
    roots = graph.active_temporal_nodes()[:12]
    kernel = get_kernel(graph)
    driver = get_sharded_driver(graph, ENV_SHARDS)  # backend: env or serial
    assert driver.backend == ENV_BACKEND
    expected = {r: res.reached for r, res in kernel.batch(roots).items()}
    assert {r: res.reached for r, res in driver.batch(roots).items()} == expected
    assert driver.identity_reach_counts(roots) == \
        kernel.identity_reach_counts(roots)
    tang = kernel.tang_steps(list(range(5)), horizon=1)
    assert driver.tang_steps(list(range(5)), horizon=1) == tang
    invalidate_kernel(graph)  # close pipelines before the interpreter exits


def test_dead_process_worker_raises_instead_of_hanging():
    """A SIGKILLed shard worker makes the next sweep raise within a bounded
    time; the dispatch cache then replaces the closed driver."""
    graph = _banded_graph(num_nodes=20, snapshots=5, seed=11)
    roots = graph.active_temporal_nodes()[:8]
    expected = get_kernel(graph).identity_reach_counts(roots)
    driver = get_sharded_driver(graph, 3, backend="process", num_workers=2)
    try:
        assert driver.identity_reach_counts(roots) == expected  # workers warm
        victim = driver._processes[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        start = time.monotonic()
        with pytest.raises(ShardWorkerError, match="exited"):
            driver.identity_reach_counts(roots)
        assert time.monotonic() - start < 30
        with pytest.raises(GraphError, match="driver is closed"):
            driver.identity_reach_counts(roots)
        fresh = get_sharded_driver(graph, 3, backend="process", num_workers=2)
        assert fresh is not driver
        assert fresh.identity_reach_counts(roots) == expected
    finally:
        invalidate_kernel(graph)  # closes every cached pipeline


# --------------------------------------------------------------------------- #
# serving through shards                                                       #
# --------------------------------------------------------------------------- #

def test_sharded_query_server_bit_identical_and_read_only():
    graph = _banded_graph(num_nodes=16, snapshots=5, seed=7)
    roots = graph.active_temporal_nodes()[:5]
    queries = []
    for r in roots:
        queries += [
            BFSQuery(root=r),
            EarliestArrivalQuery(source=r),
            LatestDepartureQuery(target=r),
            FewestHopsQuery(source=r),
            ReachabilityQuery(root=r, target=roots[0]),
        ]
    queries += [TangDistanceQuery(source_node=0), TopKReachQuery(k=5)]
    with QueryServer(graph, window_s=0) as monolithic:
        expected = monolithic.query_many(queries)
    with QueryServer(graph, window_s=0, sharded=3) as server:
        assert server.query_many(queries) == expected
        with pytest.raises(GraphError):
            server.mutate([(0, 9, 0)])
    invalidate_kernel(graph)


def test_sharded_query_server_fails_on_out_of_band_mutation():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    with QueryServer(graph, window_s=0, sharded=2) as server:
        assert server.query(BFSQuery(root=(0, 0)))
        graph.add_edge(0, 2, 1)  # behind the server's back
        with pytest.raises(GraphError):
            server.query(BFSQuery(root=(0, 0)))
    invalidate_kernel(graph)


# --------------------------------------------------------------------------- #
# units: boundary blocks, layouts, validation, partition weighting             #
# --------------------------------------------------------------------------- #

def test_boundary_block_roundtrip_and_merge():
    # (N, R) min levels: four nodes, two root columns
    min_levels = np.array(
        [[0, _FAR], [2, _FAR], [_FAR, 3], [1, 0]], dtype=np.int32
    )
    block = BoundaryBlock.from_min_levels(min_levels)
    assert (block.num_nodes, block.num_columns) == (4, 2)
    assert block.max_level == 3
    assert block.lanes(0).shape == (4, 1)  # one uint8 lane per node
    assert np.array_equal(block.decode(), min_levels)
    again = pickle.loads(pickle.dumps(block))
    assert again == block
    lower = np.array(
        [[_FAR, 0], [1, _FAR], [2, _FAR], [_FAR, _FAR]], dtype=np.int32
    )
    merged = block.merged_with(lower)
    assert np.array_equal(merged.decode(), np.minimum(min_levels, lower))
    empty = BoundaryBlock.empty(2, 4)
    assert empty.max_level == -1
    assert empty.lanes(0) is None
    assert np.array_equal(empty.merged_with(lower).decode(), lower)


def _count_merges(monkeypatch) -> list:
    """Record every ``BoundaryBlock.merged_with`` and ``from_min_levels`` call."""
    calls = []
    merged_with = BoundaryBlock.merged_with
    from_min_levels = BoundaryBlock.from_min_levels.__func__

    def counting_merge(self, shard_min_levels):
        calls.append("merged_with")
        return merged_with(self, shard_min_levels)

    def counting_encode(cls, min_levels):
        calls.append("from_min_levels")
        return from_min_levels(cls, min_levels)

    monkeypatch.setattr(BoundaryBlock, "merged_with", counting_merge)
    monkeypatch.setattr(BoundaryBlock, "from_min_levels", classmethod(counting_encode))
    return calls


def test_last_shard_of_a_chain_hands_nothing_off(monkeypatch):
    """A monolithic batched call builds no outgoing boundary; a k-shard
    chain merges k - 1 boundaries per chunk (its last shard hands off none)."""
    graph = _banded_graph(num_nodes=20, snapshots=6, seed=3)
    compiled = get_compiled(graph)
    roots = graph.active_temporal_nodes()[:6]
    calls = _count_merges(monkeypatch)
    kernel = FrontierKernel(compiled)
    kernel.batch(roots, chunk_size=2)
    kernel.identity_reach_counts(roots, direction="backward", chunk_size=2)
    kernel.harmonic_closeness_sums(roots, chunk_size=2)
    list(kernel.zero_one_labels(roots, chunk_size=2))
    assert calls == []
    for k in (2, 3):
        sharded = ShardedTemporalGraph.from_compiled(compiled, k)
        assert sharded.num_shards == k
        driver = ShardedSweepDriver(sharded, chunk_size=2)
        for direction in ("forward", "backward"):
            calls.clear()
            assert driver.identity_reach_counts(roots, direction=direction) == \
                kernel.identity_reach_counts(roots, direction=direction)
            assert calls.count("merged_with") == 3 * (k - 1)  # three chunks
        calls.clear()
        list(driver.zero_one_labels(roots))
        assert calls.count("merged_with") == 3 * (k - 1)


def test_in_memory_chains_sweep_one_chunk_per_step(monkeypatch):
    """The first item of a chunked iterator sweeps its chunk and no other."""
    graph = _banded_graph(num_nodes=20, snapshots=6, seed=3)
    compiled = get_compiled(graph)
    roots = graph.active_temporal_nodes()[:6]
    sweeps = []
    run = FrontierKernel._run

    def counting_run(self, seeds_per_column, *args, **kwargs):
        sweeps.append(len(seeds_per_column))
        return run(self, seeds_per_column, *args, **kwargs)

    monkeypatch.setattr(FrontierKernel, "_run", counting_run)
    kernel = FrontierKernel(compiled)
    blocks = kernel.distance_blocks(roots, chunk_size=2)
    assert sweeps == []  # checked on the call, swept on iteration
    chunk, _ = next(blocks)
    assert chunk == roots[:2]
    assert sweeps == [2]  # one chunk, not three
    assert len(list(blocks)) == 2
    assert sweeps == [2, 2, 2]
    sweeps.clear()
    driver = ShardedSweepDriver(
        ShardedTemporalGraph.from_compiled(compiled, 3), chunk_size=2
    )
    next(driver.distance_blocks(roots))
    assert sweeps == [2, 2, 2]  # one chunk through the three shards


def test_shard_layout_and_validation():
    graph = _banded_graph(num_nodes=10, snapshots=6, seed=2)
    compiled = get_compiled(graph)
    layout = compute_shard_layout(compiled, 3)
    assert layout[0][0] == 0 and layout[-1][1] == compiled.num_snapshots
    for (_, stop), (start, _) in zip(layout, layout[1:]):
        assert stop == start
    sharded = ShardedTemporalGraph.from_compiled(compiled, 3)
    assert sharded.num_shards == len(layout)
    assert sum(sharded.shard_nnz) > 0
    for k in range(compiled.num_snapshots):
        idx = sharded.shard_of_snapshot(k)
        start, stop = sharded.boundaries[idx]
        assert start <= k < stop
    with pytest.raises(GraphError):
        ShardedTemporalGraph.from_compiled(compiled, boundaries=[(0, 2), (3, 6)])
    with pytest.raises(GraphError):
        ShardedTemporalGraph.from_compiled(compiled, boundaries=[(1, 6)])
    with pytest.raises(GraphError):
        ShardedTemporalGraph.from_compiled(compiled, 0)
    driver = ShardedSweepDriver(sharded, backend="serial")
    with pytest.raises(InactiveNodeError):
        driver.bfs((999, 0))
    with pytest.raises(GraphError):
        driver.tang_steps([0], start_index=compiled.num_snapshots)
    with pytest.raises(GraphError):
        list(driver.zero_one_labels([(0, 0)], spatial_cost=2, causal_cost=0))
    with pytest.raises(GraphError):
        ShardedSweepDriver(sharded, backend="bogus")


@pytest.mark.parametrize(
    "method",
    [
        "bfs",
        "multi_source",
        "batch",
        "distance_blocks",
        "identity_reach_counts",
        "harmonic_closeness_sums",
    ],
)
def test_driver_rejects_unknown_direction(method):
    """A misspelled direction raises, as on the kernel, instead of silently
    running a backward search."""
    graph = _banded_graph(num_nodes=10, snapshots=6, seed=2)
    root = graph.active_temporal_nodes()[0]
    driver = ShardedSweepDriver(
        ShardedTemporalGraph.from_compiled(get_compiled(graph), 3)
    )
    with pytest.raises(GraphError, match="unsupported direction 'fwd'"):
        getattr(driver, method)(root if method == "bfs" else [root], direction="fwd")
    with pytest.raises(GraphError, match="unsupported direction 'fwd'"):
        get_kernel(graph).bfs(root, direction="fwd")


_CHUNKED_METHODS = [
    "batch",
    "distance_blocks",
    "identity_reach_counts",
    "harmonic_closeness_sums",
    "earliest_arrivals",
    "latest_departures",
    "zero_one_labels",
    "fewest_hops",
    "tang_steps",
]


@pytest.mark.parametrize(
    "surface, method",
    [("kernel", m) for m in _CHUNKED_METHODS]
    + [("driver", m) for m in _CHUNKED_METHODS],
)
def test_chunk_size_below_one_raises(surface, method):
    """Every chunked method of the shared surface rejects ``chunk_size < 1``
    with GraphError on the call; ``None`` means the sweeper's default width."""
    graph = _banded_graph(num_nodes=10, snapshots=6, seed=2)
    compiled = get_compiled(graph)
    roots = graph.active_temporal_nodes()[:3]
    if surface == "kernel":
        sweeper = FrontierKernel(compiled)
    else:
        sweeper = ShardedSweepDriver(ShardedTemporalGraph.from_compiled(compiled, 3))
    items = [root[0] for root in roots] if method == "tang_steps" else roots
    call = getattr(sweeper, method)
    for width in (0, -1):
        with pytest.raises(GraphError, match="chunk_size must be at least 1"):
            call(items, chunk_size=width)
    default = call(items, chunk_size=None)
    if method in ("distance_blocks", "zero_one_labels"):
        default = list(default)
    assert default


def test_batch_bfs_shards_flag_validation():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0)], directed=False)
    with pytest.raises(GraphError):
        batch_bfs(graph, [(0, 0)], backend="python", shards=2)
    with pytest.raises(GraphError):
        batch_bfs(
            graph, [(0, 0)], backend="vectorized", shards=2,
            compiled=get_compiled(graph),
        )


def test_partition_weights_count_materialized_transposes():
    """The PR-8 fix: backward stacks weigh in once they are materialized."""
    # timestamp 0 is forward-heavy, timestamp 1 empty-ish, timestamp 2 light
    edges = [(0, i, 0) for i in range(1, 8)] + [(8, 9, 1), (9, 10, 2)]
    graph = AdjacencyListEvolvingGraph(edges, directed=True)
    compiled = get_compiled(graph)
    before = compiled_snapshot_weights(compiled)
    compiled.backward_operators  # materialize the transpose stack
    after = compiled_snapshot_weights(compiled)
    assert after == [2 * (w - 1) + 1 for w in before]
    invalidate_kernel(graph)


# --------------------------------------------------------------------------- #
# mutation: stale drivers close, the next one re-slices the patched artifact  #
# --------------------------------------------------------------------------- #

def _mutate_last_snapshot(graph):
    """A mixed insert/remove batch confined to the final timestamp."""
    last = max(graph.timestamps)
    victim = next(e for e in graph.temporal_edges_unordered() if e[2] == last)
    assert graph.remove_edge(*victim)
    graph.add_edge(victim[1], victim[0], last)
    other = next(n for n in sorted(graph.nodes()) if n not in victim[:2])
    graph.add_edge(victim[0], other, last)
    return last


def test_sharded_driver_delta_recompile_reuses_clean_shards():
    """A mutation closes the stale driver; its replacement slices the
    delta-patched artifact, so clean snapshots keep their operator objects.

    Follows the env-driven backend and shard count, so the shard-stress job
    drives mutate -> close -> respawn on real process workers.
    """
    graph = _banded_graph(num_nodes=20, snapshots=6, seed=7)
    driver1 = get_sharded_driver(graph, ENV_SHARDS)
    root = graph.active_temporal_nodes()[0]
    roots = graph.active_temporal_nodes()[:5]
    driver1.bfs(root)  # spawns the process pipeline, warms serial shard kernels
    before = get_compiled(graph).forward_operators

    last = _mutate_last_snapshot(graph)
    driver2 = get_sharded_driver(graph, ENV_SHARDS)
    assert driver2 is not driver1
    assert driver1._closed
    assert driver2.backend == ENV_BACKEND
    sharded = driver2.sharded
    sliced = [
        op
        for index in range(sharded.num_shards)
        for op in sharded.shard(index).forward_operators
    ]
    dirty = sharded.times.index(last)
    for k, op in enumerate(sliced):
        assert (op is before[k]) == (k != dirty)

    kernel = get_kernel(graph)
    assert driver2.bfs(root).reached == kernel.bfs(root).reached
    assert driver2.harmonic_closeness_sums(roots) == \
        kernel.harmonic_closeness_sums(roots)
    assert temporal_closeness(graph) == temporal_closeness(graph, shards=3)
    invalidate_kernel(graph)


# --------------------------------------------------------------------------- #
# interpreter shutdown: cached process drivers must not leak workers           #
# --------------------------------------------------------------------------- #

_ATEXIT_SCRIPT = """
import sys
from repro.engine import get_sharded_driver
from repro.graph import AdjacencyListEvolvingGraph

graph = AdjacencyListEvolvingGraph(
    [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1), (0, 2, 2)], directed=True
)
driver = get_sharded_driver(graph, 2, backend="process", num_workers=2)
result = driver.bfs((0, 0))  # forces _ensure_processes: workers spawn here
assert result.reached, "process-backend sweep returned nothing"
print("PIDS", " ".join(str(p.pid) for p in driver._processes))
# exit WITHOUT closing: the dispatch atexit hook must reap the workers
"""


def test_atexit_closes_cached_process_drivers():
    import subprocess
    import sys
    import time

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.run(
        [sys.executable, "-c", _ATEXIT_SCRIPT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    pid_line = next(
        line for line in proc.stdout.splitlines() if line.startswith("PIDS ")
    )
    pids = [int(p) for p in pid_line.split()[1:]]
    assert pids  # the script must actually have spawned workers
    deadline = time.monotonic() + 10.0
    for pid in pids:
        while True:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                break  # dead (or recycled by another user): not leaked by us
            if time.monotonic() > deadline:
                pytest.fail(f"worker {pid} is still alive after interpreter exit")
            time.sleep(0.1)
