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
explicitly ragged boundaries) and backends, on the driver itself and
through a sharded :class:`~repro.serving.QueryServer`.

The env-driven tests below build their drivers from ``REPRO_SHARD_BACKEND``
and ``REPRO_SHARD_COUNT`` (default: serial, 3 shards); the CI shard-stress
job exports ``process`` and ``3``, so they run on real process workers.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import signal
import time
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.queries import (
    BFSQuery,
    EarliestArrivalQuery,
    FewestHopsQuery,
    LatestDepartureQuery,
    ReachabilityQuery,
    TangDistanceQuery,
    TopKReachQuery,
)
from repro.core import backward_bfs, evolving_bfs
from repro.engine import (
    FrontierKernel,
    bitops,
    get_compiled,
    get_kernel,
    invalidate_kernel,
    sharded_sweep,
)
from repro.engine.sharded_sweep import (
    _FAR,
    BoundaryBlock,
    ShardedSweepDriver,
    _bfs_shard_sweep,
    _bfs_spec,
    _run_shard_task,
)
from repro.exceptions import GraphError, InactiveNodeError, ShardWorkerError
from repro.graph import AdjacencyListEvolvingGraph, ShardedTemporalGraph
from repro.graph import compiled as compiled_module
from repro.graph.compiled import CompiledTemporalGraph
from repro.graph.sharded import compute_shard_layout, operator_stack_bytes
from repro.io import mmap_store
from repro.io.mmap_store import load_sharded, save_sharded
from repro.parallel.partition import compiled_snapshot_weights
from repro.serving import QueryServer
from tests.test_delta_streaming import assert_same_buffers

node_labels = st.integers(min_value=0, max_value=12)
time_labels = st.integers(min_value=0, max_value=5)

#: The CI shard-stress job exports these to run every env-driven test's
#: driver on the process pipeline with a fixed shard count.
ENV_BACKEND = os.environ.get("REPRO_SHARD_BACKEND", "serial")
ENV_SHARDS = int(os.environ.get("REPRO_SHARD_COUNT", "3"))


def _env_driver(graph, **kwargs) -> ShardedSweepDriver:
    """A driver over ``graph``'s current artifact, on the env-driven layout
    and backend; the caller closes it."""
    sharded = ShardedTemporalGraph.from_compiled(get_compiled(graph), ENV_SHARDS)
    return ShardedSweepDriver(sharded, backend=ENV_BACKEND, **kwargs)


def _assert_env_backend_ran(driver) -> None:
    """The driver runs on the env-driven backend, and a process driver that
    has swept owns live workers."""
    assert driver.backend == ENV_BACKEND
    assert bool(driver._processes) == (ENV_BACKEND == "process")


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
    expected_reach = {
        d: kernel.identity_reach_counts(roots, direction=d)
        for d in ("forward", "backward")
    }
    expected_harmonic = kernel.harmonic_closeness_sums(roots)
    for sharded in _shardings(compiled):
        driver = ShardedSweepDriver(sharded, chunk_size=3)
        for direction in ("forward", "backward"):
            assert driver.bfs(root, direction=direction).reached == \
                expected_bfs[direction]
            assert driver.identity_reach_counts(roots, direction=direction) == \
                expected_reach[direction]
        got = {r: res.reached for r, res in driver.batch(roots).items()}
        assert got == expected_batch
        assert driver.multi_source(roots).reached == expected_multi
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
@given(graphs_with_roots(), st.sampled_from([(1, 0), (1, 1), (0, 1), (0, 0)]))
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
    directory = save_sharded(compiled, root_dir, num_shards=3)
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
    # every shard's stored stacks are its time slice's, buffer for buffer,
    # and its bytes are theirs, in memory and on disk alike
    in_memory = ShardedTemporalGraph.from_compiled(
        compiled, boundaries=sharded.boundaries
    )
    assert sharded.stats()["shard_bytes"] == in_memory.stats()["shard_bytes"]
    for index, (start, stop) in enumerate(sharded.boundaries):
        shard, part = sharded.shard(index), compiled.time_slice(start, stop)
        stacks = [(shard.stack(), part.stack())]
        if graph.is_directed:
            stacks.append((shard.stack(False), part.stack(False)))
        for stored, sliced in stacks:
            assert_same_buffers(stored, sliced)
        assert list(shard.times) == list(compiled.times)[start:stop]
        stored_bytes = operator_stack_bytes([stored for stored, _ in stacks])
        assert sharded.stats()["shard_bytes"][index] == stored_bytes
        files = [
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.startswith(f"shard-{index:04d}.")
        ]
        assert sum(os.path.getsize(path) for path in files) == stored_bytes


@SHARD_SETTINGS
@given(
    evolving_graphs(),
    st.booleans(),
    st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    st.integers(min_value=1, max_value=2000),
)
def test_store_cuts_at_the_layout_and_the_byte_budget(
    tmp_path_factory, graph, backward, num_shards, budget
):
    """A shard starts wherever ``num_shards``'s layout starts one, and
    wherever the next snapshot would push the bytes of the stacks stored
    since the last cut past the budget; so every shard fits the budget
    unless it is one snapshot."""
    compiled = CompiledTemporalGraph.from_graph(graph)
    if backward:
        compiled.backward_operators

    def stored_bytes(start, stop):
        part = compiled.time_slice(start, stop)
        stacks = [part.stack()]
        if graph.is_directed and backward:
            stacks.append(part.stack(False))
        return operator_stack_bytes(stacks)

    root = str(tmp_path_factory.mktemp("store"))
    save_sharded(compiled, root, num_shards=num_shards, shard_byte_budget=budget)
    boundaries = load_sharded(root).boundaries
    layout = {start for start, _ in compute_shard_layout(compiled, num_shards or 1)}
    assert layout <= {start for start, _ in boundaries}
    for start, stop in boundaries:
        assert stop - start == 1 or stored_bytes(start, stop) <= budget
        if stop < compiled.num_snapshots and stop not in layout:
            assert stored_bytes(start, stop + 1) > budget


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
    """130 roots in one chunk (three uint64 lanes per node), BFS and Tang.

    The driver and the kernel share the reach sweep, so roots in the second
    and third lanes are also counted against the Python oracle."""
    graph = _banded_graph(num_nodes=30, snapshots=6, seed=13)
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    active = graph.active_temporal_nodes()
    roots = [active[i % len(active)] for i in range(0, 7 * 130, 7)]
    sources = sorted(graph.nodes()) * 5
    counts = kernel.identity_reach_counts(roots, chunk_size=130)
    for col in (64, 101, 128, 129):
        root = roots[col]
        reached = evolving_bfs(graph, root, backend="python").reached
        assert counts[root] == len({v for v, _ in reached} - {root[0]})
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


def test_store_backed_sweep_drops_its_stacked_operators(tmp_path, monkeypatch):
    """A shard's stack is a CSR over its memory-mapped buffers, and its push
    builds the stack's twin: both live with the shard artifact, so the
    serial shard-major sweep drops them when it releases the shard, and the
    store's residency accounting counts neither beyond the stored bytes it
    fixed when the shard opened."""
    graph = _banded_graph(snapshots=12)
    compiled = get_compiled(graph)
    budget = operator_stack_bytes(compiled.forward_operators) // 4
    save_sharded(compiled, str(tmp_path), shard_byte_budget=budget)
    sharded = load_sharded(str(tmp_path))
    assert all(stop - start > 1 for start, stop in sharded.boundaries)
    shard = sharded.shard(0)
    assert_same_buffers(
        shard.stack(), sp.block_diag(shard.forward_operators, format="csr")
    )
    start, stop = sharded.boundaries[0]
    assert_same_buffers(shard.stack(), compiled.time_slice(start, stop).stack())
    sharded.release(0)
    roots = graph.active_temporal_nodes()[:32]
    expected = get_kernel(graph).identity_reach_counts(roots)

    stacks = []

    def recording(owner, name):
        build = getattr(owner, name)

        def recorded(*args):
            stacked = build(*args)
            stacks.append(weakref.ref(stacked))
            return stacked

        monkeypatch.setattr(owner, name, recorded)

    recording(mmap_store, "_csr")
    recording(compiled_module, "_transposed")
    driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=16)
    assert driver.identity_reach_counts(roots) == expected
    # each shard's mapped forward stack, and the twin its first push built
    assert len(stacks) == 2 * sharded.num_shards
    assert not driver._kernels
    gc.collect()
    assert all(ref() is None for ref in stacks)
    assert sharded.peak_open_bytes == max(sharded.stats()["shard_bytes"])
    assert sharded.open_bytes == 0


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
    # tuples come back from JSON as lists, so tuple labels cannot be stored
    for edge in [((0, 0), (0, 1), 0), (0, 1, (0, 0))]:
        tuples = AdjacencyListEvolvingGraph([edge], directed=True)
        with pytest.raises(GraphError, match="JSON round trip"):
            save_sharded(get_compiled(tuples), str(tmp_path / "tuples"))
        assert not os.path.exists(tmp_path / "tuples")


def test_empty_universe_store_roundtrips(tmp_path):
    """Registered snapshots and no node: every stored file is empty, and the
    store loads without mapping any of them."""
    graph = AdjacencyListEvolvingGraph([], directed=True, timestamps=[0, 1, 2])
    save_sharded(get_compiled(graph), str(tmp_path), num_shards=2)
    sharded = load_sharded(str(tmp_path))
    assert sharded.num_nodes == 0
    for index in range(sharded.num_shards):
        assert sharded.shard(index).stack().shape == (0, 0)
    with ShardedSweepDriver(sharded, backend="serial") as driver:
        assert driver.tang_steps(["x"]) == get_kernel(graph).tang_steps(["x"])


def test_load_sharded_rejects_a_v1_manifest(tmp_path):
    """A store in the per-snapshot layout of format v1 is not read."""
    compiled = get_compiled(_banded_graph(num_nodes=12, snapshots=4, seed=3))
    directory = save_sharded(compiled, str(tmp_path), num_shards=2)
    path = os.path.join(directory, "manifest.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["format"] = "repro-sharded-v1"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(
        GraphError, match="unrecognized shard-store format 'repro-sharded-v1'"
    ):
        load_sharded(str(tmp_path))


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


def _corrupt_indptr_start(ptr, indices, nnz, n):
    ptr[0] = 1


def _corrupt_indptr_end(ptr, indices, nnz, n):
    ptr[-1] = nnz - 1


def _corrupt_indptr_order(ptr, indices, nnz, n):
    # swap two unequal inner entries: it still starts at 0 and ends at nnz
    j = 1 + int(np.flatnonzero(np.diff(ptr[1:-1]))[0])
    ptr[j], ptr[j + 1] = ptr[j + 1], ptr[j]


def _corrupt_index_past_slots(ptr, indices, nnz, n):
    indices[3] = ptr.size - 1


def _corrupt_index_negative(ptr, indices, nnz, n):
    indices[-1] = -1


def _corrupt_index_other_block(ptr, indices, nnz, n):
    # the same node one snapshot later (the last wraps to the first): a
    # column inside [0, T_i * N), outside its row's snapshot block
    indices[0] = (indices[0] + n) % (ptr.size - 1)


@pytest.mark.parametrize(
    ("corrupt", "name", "message"),
    [
        (_corrupt_indptr_start, "indptr", "does not start at 0"),
        (_corrupt_indptr_end, "indptr", "not at the manifest's nnz"),
        (_corrupt_indptr_order, "indptr", "decreases"),
        (_corrupt_index_past_slots, "indices", "outside its row's snapshot block"),
        (_corrupt_index_negative, "indices", "outside its row's snapshot block"),
        (_corrupt_index_other_block, "indices", "outside its row's snapshot block"),
    ],
)
def test_open_shard_rejects_corrupt_csr_buffers(tmp_path, corrupt, name, message):
    """A store file of the right size whose CSR buffers are corrupt raises a
    typed error naming it when its shard opens, before scipy reads it: an
    out-of-range index used to crash the interpreter in the first push
    advance, a decreasing indptr to raise an untyped ``ValueError``, and an
    index in another snapshot's block would join two snapshots with a
    spatial edge."""
    graph = _banded_graph(num_nodes=12, snapshots=4, seed=3)
    compiled = get_compiled(graph)
    directory = save_sharded(compiled, str(tmp_path), num_shards=2)
    roots = graph.active_temporal_nodes()[:4]
    expected = get_kernel(graph).identity_reach_counts(roots)
    sharded = load_sharded(str(tmp_path))
    start, stop = sharded.boundaries[0]
    assert stop - start >= 2 and compiled.num_nodes == 12
    buffers = {
        part: np.memmap(
            os.path.join(directory, f"shard-0000.forward.{part}.bin"),
            dtype=np.int32,
            mode="r+",
        )
        for part in ("indptr", "indices")
    }
    nnz = compiled.time_slice(start, stop).nnz
    corrupt(buffers["indptr"], buffers["indices"], nnz, compiled.num_nodes)
    for buffer in buffers.values():
        buffer.flush()
    del buffers
    driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=4)
    with pytest.raises(GraphError, match=f"shard-0000.forward.{name}.bin.*{message}"):
        driver.identity_reach_counts(roots)
    assert sharded.open_bytes == 0
    sharded.shard(1)  # the intact shard still opens
    save_sharded(compiled, str(tmp_path / "intact"), num_shards=2)
    intact = ShardedSweepDriver(load_sharded(str(tmp_path / "intact")))
    assert intact.identity_reach_counts(roots) == expected


def test_int64_indexed_store_roundtrips(tmp_path, monkeypatch):
    """A shard past the (here lowered) int32 limit is stored and mapped back
    int64-indexed, beside an int32 shard under it, both equal to their time
    slices; a truncated int64 file fails the size check."""
    graph = _banded_graph(num_nodes=12, snapshots=4, seed=3)
    compiled = get_compiled(graph)
    compiled.backward_operators  # store the backward stacks too
    roots = graph.active_temporal_nodes()[:8]
    expected = get_kernel(graph).identity_reach_counts(roots)
    layout = compute_shard_layout(compiled, 2)
    shard_nnz = [compiled.time_slice(a, b).nnz for a, b in layout]
    assert shard_nnz[0] != shard_nnz[1]
    limit = min(shard_nnz)
    monkeypatch.setattr(
        bitops,
        "stacked_index_dtype",
        lambda slots, nnz: np.dtype(np.int32 if nnz <= limit else np.int64),
    )
    directory = save_sharded(compiled, str(tmp_path), num_shards=2)
    sharded = load_sharded(str(tmp_path))
    assert sharded.boundaries == layout
    dtypes = set()
    for index, (start, stop) in enumerate(layout):
        shard, part = sharded.shard(index), compiled.time_slice(start, stop)
        for forward in (True, False):
            assert_same_buffers(shard.stack(forward), part.stack(forward))
        dtypes.add(shard.stack().indices.dtype)
        sharded.release(index)
    assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
    assert ShardedSweepDriver(sharded).identity_reach_counts(roots) == expected
    wide = shard_nnz.index(max(shard_nnz))
    path = os.path.join(directory, f"shard-{wide:04d}.backward.indices.bin")
    assert os.path.getsize(path) == 8 * max(shard_nnz)
    os.truncate(path, os.path.getsize(path) - 4)
    with pytest.raises(GraphError, match=f"{os.path.basename(path)}.*bytes"):
        load_sharded(str(tmp_path))


def test_sharded_driver_staleness_raises():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    driver = ShardedSweepDriver(ShardedTemporalGraph.from_compiled(get_compiled(graph), 2))
    driver.require_current(graph)
    graph.add_edge(0, 2, 0)
    with pytest.raises(GraphError, match="build a new driver"):
        driver.require_current(graph)
    # a driver over the patched artifact is current for the new version
    fresh = ShardedSweepDriver(ShardedTemporalGraph.from_compiled(get_compiled(graph), 2))
    fresh.require_current(graph)


# --------------------------------------------------------------------------- #
# pipeline backends: process workers and the env-driven stress path            #
# --------------------------------------------------------------------------- #

def test_process_backend_bit_identical(tmp_path):
    """Process workers answer as the kernel does over in-memory shards and
    over a store's memory-mapped ones, whose stacks also survive a pickle."""
    graph = _banded_graph(num_nodes=20, snapshots=5, seed=11)
    compiled = get_compiled(graph)
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:10]
    save_sharded(compiled, str(tmp_path), num_shards=3)
    stored = load_sharded(str(tmp_path))
    shipped = pickle.loads(pickle.dumps(stored.shard(0)))
    first = compiled.time_slice(*stored.boundaries[0])
    assert_same_buffers(shipped.stack(), first.stack())
    stored.release(0)
    for sharded in (ShardedTemporalGraph.from_compiled(compiled, 3), stored):
        with ShardedSweepDriver(
            sharded, backend="process", num_workers=2, chunk_size=4
        ) as driver:
            expected = {r: res.reached for r, res in kernel.batch(roots).items()}
            got = {r: res.reached for r, res in driver.batch(roots).items()}
            assert got == expected
            assert driver.identity_reach_counts(roots) == \
                kernel.identity_reach_counts(roots)
            assert driver.earliest_arrivals(roots) == kernel.earliest_arrivals(roots)
            assert driver.latest_departures(roots) == \
                kernel.latest_departures(roots)
            sources = list(range(6))
            assert driver.tang_steps(sources, horizon=2) == \
                kernel.tang_steps(sources, horizon=2)


def test_env_driven_dispatch_bit_identical(tmp_path):
    """The layout and backend the CI stress job sets via env vars stay
    bit-identical, over in-memory shards and over a store."""
    graph = _banded_graph(num_nodes=18, snapshots=6, seed=5)
    roots = graph.active_temporal_nodes()[:12]
    kernel = get_kernel(graph)
    save_sharded(get_compiled(graph), str(tmp_path), num_shards=ENV_SHARDS)
    stored = ShardedSweepDriver(load_sharded(str(tmp_path)), backend=ENV_BACKEND)
    for built in (_env_driver(graph), stored):
        with built as driver:
            expected = {r: res.reached for r, res in kernel.batch(roots).items()}
            got = {r: res.reached for r, res in driver.batch(roots).items()}
            assert got == expected
            _assert_env_backend_ran(driver)
            assert driver.identity_reach_counts(roots) == \
                kernel.identity_reach_counts(roots)
            tang = kernel.tang_steps(list(range(5)), horizon=1)
            assert driver.tang_steps(list(range(5)), horizon=1) == tang


def test_dead_process_worker_raises_instead_of_hanging():
    """A SIGKILLed shard worker makes the next sweep raise within a bounded
    time and closes the driver; a freshly built driver answers again."""
    graph = _banded_graph(num_nodes=20, snapshots=5, seed=11)
    roots = graph.active_temporal_nodes()[:8]
    expected = get_kernel(graph).identity_reach_counts(roots)
    sharded = ShardedTemporalGraph.from_compiled(get_compiled(graph), 3)
    with ShardedSweepDriver(sharded, backend="process", num_workers=2) as driver:
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
    with ShardedSweepDriver(sharded, backend="process", num_workers=2) as fresh:
        assert fresh.identity_reach_counts(roots) == expected


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
    with _env_driver(graph) as driver, \
            QueryServer(graph, window_s=0, sharded=driver) as server:
        assert server.query_many(queries) == expected
        _assert_env_backend_ran(driver)
        with pytest.raises(GraphError):
            server.mutate([(0, 9, 0)])
    # a shard count is not a driver
    with pytest.raises(GraphError, match="takes a ShardedSweepDriver"):
        QueryServer(graph, sharded=3)


def test_sharded_query_server_fails_on_out_of_band_mutation():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    with _env_driver(graph) as driver, \
            QueryServer(graph, window_s=0, sharded=driver) as server:
        assert server.query(BFSQuery(root=(0, 0)))
        graph.add_edge(0, 2, 1)  # behind the server's back
        with pytest.raises(GraphError):
            server.query(BFSQuery(root=(0, 0)))


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


def _count_handoffs(monkeypatch) -> list:
    """Record the outgoing boundary of every BFS-family shard sweep."""
    handed = []
    sweep = sharded_sweep._bfs_shard_sweep

    def counting_sweep(*args, **kwargs):
        block, boundary_out = sweep(*args, **kwargs)
        if boundary_out is not None:
            handed.append(boundary_out)
        return block, boundary_out

    monkeypatch.setattr(sharded_sweep, "_bfs_shard_sweep", counting_sweep)
    return handed


def test_last_shard_of_a_chain_hands_nothing_off(monkeypatch):
    """A monolithic batched call builds no outgoing boundary; a k-shard
    chain hands on k - 1 boundaries per chunk (its last shard hands off
    none): one level-0 plane each on reach chains, which merge no levels,
    and k - 1 ``merged_with`` calls on label chains."""
    graph = _banded_graph(num_nodes=20, snapshots=6, seed=3)
    compiled = get_compiled(graph)
    roots = graph.active_temporal_nodes()[:6]
    calls = _count_merges(monkeypatch)
    handed = _count_handoffs(monkeypatch)
    kernel = FrontierKernel(compiled)
    kernel.batch(roots, chunk_size=2)
    kernel.identity_reach_counts(roots, direction="backward", chunk_size=2)
    kernel.harmonic_closeness_sums(roots, chunk_size=2)
    list(kernel.zero_one_labels(roots, chunk_size=2))
    assert calls == [] and handed == []
    for k in (2, 3):
        sharded = ShardedTemporalGraph.from_compiled(compiled, k)
        assert sharded.num_shards == k
        driver = ShardedSweepDriver(sharded, chunk_size=2)
        for direction in ("forward", "backward"):
            calls.clear()
            handed.clear()
            assert driver.identity_reach_counts(roots, direction=direction) == \
                kernel.identity_reach_counts(roots, direction=direction)
            assert len(handed) == 3 * (k - 1)  # three chunks
            assert all(set(boundary.levels) == {0} for boundary in handed)
            assert calls == []
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
    # no nodes: every snapshot still weighs 1
    empty = AdjacencyListEvolvingGraph([], directed=True, timestamps=[0, 1, 2])
    assert compiled_snapshot_weights(CompiledTemporalGraph.from_graph(empty)) == [1] * 3


@SHARD_SETTINGS
@given(evolving_graphs(), st.booleans())
def test_partition_weights_equal_the_snapshot_views_nnz(graph, backward):
    """Weights read off the forward stack's indptr are the per-snapshot
    views' nnz plus 1, doubled once a directed artifact's backward stack is
    asked for."""
    compiled = CompiledTemporalGraph.from_graph(graph)
    if backward:
        compiled.backward_operators
    weights = compiled_snapshot_weights(compiled)
    views = [compiled.forward_operators]
    if graph.is_directed and backward:
        views.append(compiled.backward_operators)
    assert weights == [
        sum(stack[k].nnz for stack in views) + 1
        for k in range(compiled.num_snapshots)
    ]


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
    """A mutation makes the driver stale; a new driver over the re-sliced
    delta-patched artifact holds the clean snapshots' operators entry for
    entry and the edited one's new entries.

    Follows the env-driven backend and shard count, so the shard-stress job
    drives mutate -> close -> rebuild on real process workers.
    """
    graph = _banded_graph(num_nodes=20, snapshots=6, seed=7)
    root = graph.active_temporal_nodes()[0]
    roots = graph.active_temporal_nodes()[:5]
    with _env_driver(graph) as driver1:
        driver1.bfs(root)  # spawns the process pipeline, warms serial shard kernels
        _assert_env_backend_ran(driver1)
        before = get_compiled(graph).forward_operators
        last = _mutate_last_snapshot(graph)
        with pytest.raises(GraphError, match="stale"):
            driver1.require_current(graph)

    with _env_driver(graph) as driver2:
        driver2.require_current(graph)
        sharded = driver2.sharded
        sliced = [
            op
            for index in range(sharded.num_shards)
            for op in sharded.shard(index).forward_operators
        ]
        dirty = sharded.times.index(last)
        for k, op in enumerate(sliced):
            unchanged = (op != before[k]).nnz == 0
            assert unchanged == (k != dirty)

        kernel = get_kernel(graph)
        assert driver2.bfs(root).reached == kernel.bfs(root).reached
        _assert_env_backend_ran(driver2)
        assert driver2.harmonic_closeness_sums(roots) == \
            kernel.harmonic_closeness_sums(roots)


# --------------------------------------------------------------------------- #
# level-at-a-time sweeps across shard boundaries                               #
# --------------------------------------------------------------------------- #

def _relay_graph():
    """Chains that hand a search from shard to shard through narrow seams.

    From ``(0, 0)`` a chain runs for ten levels in snapshot 0.  In snapshot
    2 node 1 (boundary level 1) starts a branch that dies at distance 3;
    node 10 (boundary level 10) revives the sweep in snapshot 3, and the
    relay continues into snapshots 4 and 5.  So in any layout that cuts
    after snapshot 1 the later shards have no seed of their own: their
    first levels are fed by boundary lanes alone, and after the dead
    branch only a later boundary level brings the frontier back.
    """
    edges = [(v, v + 1, 0) for v in range(10)]
    edges += [(1, 20, 2), (20, 21, 2)]
    edges += [(10, 30, 3), (30, 31, 3)]
    edges += [(31, 32, 4), (21, 22, 4), (32, 33, 5), (33, 0, 5)]
    rng = random.Random(17)
    for t in range(6):
        for _ in range(6):
            u, v = rng.randrange(40, 48), rng.randrange(40, 48)
            if u != v:
                edges.append((u, v, t))
    return AdjacencyListEvolvingGraph(edges, timestamps=list(range(6)), directed=True)


RELAY_ROOTS = [(0, 0), (1, 0), (33, 5), (0, 5), (40, 0)]

#: Roots at snapshots 3 to 5 only, so in every relay layout the first shard
#: sweeps seedless columns alone and the later shards sweep seeded columns
#: beside boundary-fed and seedless ones, in both time directions.
LATE_RELAY_ROOTS = [(10, 3), (30, 3), (21, 4), (31, 4), (33, 5), (0, 5)]


def _relay_layouts(compiled):
    return [
        ShardedTemporalGraph.from_compiled(compiled, count) for count in (2, 3, 5)
    ] + [ShardedTemporalGraph.from_compiled(compiled, boundaries=[(0, 2), (2, 4), (4, 6)])]


def _assert_relay_sweeps_match_oracles(driver, graph, roots=RELAY_ROOTS):
    """BFS distances and identity reach counts both ways, with and without
    reversed edges, and the 0/1 label family, against the Python oracles."""
    from tests.test_labels_vectorized import _flipped, _zero_one_dijkstra

    flipped = _flipped(graph)
    for direction, search in (("forward", evolving_bfs), ("backward", backward_bfs)):
        for reverse_edges, oracle_graph in ((False, graph), (True, flipped)):
            ((chunk, dist),) = driver.distance_blocks(
                roots, direction=direction, reverse_edges=reverse_edges
            )
            counts = driver.identity_reach_counts(
                roots, direction=direction, reverse_edges=reverse_edges
            )
            for col, root in enumerate(chunk):
                expected = search(oracle_graph, root, backend="python").reached
                assert driver._reached_view(dist, col) == expected
                assert counts[root] == len({v for v, _ in expected} - {root[0]})
    slots = driver._slots
    for costs in ((1, 0), (1, 1), (0, 1), (0, 0)):
        ((chunk, block),) = driver.zero_one_labels(
            roots, spatial_cost=costs[0], causal_cost=costs[1]
        )
        for col, root in enumerate(chunk):
            t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
            decoded = {
                (slots.labels[vi], slots.times[ti]): int(block[ti, vi, col])
                for ti, vi in zip(t_arr.tolist(), v_arr.tolist())
            }
            assert decoded == _zero_one_dijkstra(graph, root, *costs)


def test_relay_graph_has_boundary_only_levels():
    """The precondition of the relay cases: snapshots 2 and 3 hold nothing
    at distances 5 to 10, between the dead branch and the revival."""
    reached = evolving_bfs(_relay_graph(), (0, 0), backend="python").reached
    later = sorted(d for (_, t), d in reached.items() if t in (2, 3))
    assert later[0] == 2 and not [d for d in later if 5 <= d <= 10]
    assert reached[(30, 3)] == 12 and reached[(33, 5)] > 12


@pytest.mark.parametrize("thresholds", [(8, 4), (8, 0), (0, 4), (0, 0)])
def test_level_loops_match_oracles_across_shard_boundaries(thresholds):
    """Every advance branch, forced in-process, over 2, 3, 5 and ragged shards."""
    graph = _relay_graph()
    compiled = get_compiled(graph)
    with bitops.sweep_thresholds(*thresholds):
        for sharded in _relay_layouts(compiled):
            driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=8)
            _assert_relay_sweeps_match_oracles(driver, graph)


def test_level_loops_match_oracles_on_env_driven_shards():
    """The same cases on the layout and backend the CI stress job sets."""
    graph = _relay_graph()
    with _env_driver(graph, chunk_size=8) as driver:
        _assert_relay_sweeps_match_oracles(driver, graph)
        _assert_env_backend_ran(driver)


@pytest.mark.parametrize("thresholds", [(8, 4), (8, 0), (0, 4), (0, 0)])
def test_late_roots_match_oracles_across_shard_boundaries(thresholds):
    """Roots only in the middle and last shards: each shard's time horizon
    covers its seeded, boundary-fed and seedless columns apart."""
    graph = _relay_graph()
    compiled = get_compiled(graph)
    with bitops.sweep_thresholds(*thresholds):
        for sharded in _relay_layouts(compiled):
            assert sharded.boundaries[0][1] <= 3  # no late root in the first shard
            driver = ShardedSweepDriver(sharded, backend="serial", chunk_size=8)
            _assert_relay_sweeps_match_oracles(driver, graph, LATE_RELAY_ROOTS)


def test_late_roots_match_oracles_on_env_driven_shards():
    """The late-root cases on the layout and backend the CI stress job sets."""
    graph = _relay_graph()
    with _env_driver(graph, chunk_size=8) as driver:
        _assert_relay_sweeps_match_oracles(driver, graph, LATE_RELAY_ROOTS)
        _assert_env_backend_ran(driver)


# --------------------------------------------------------------------------- #
# reach sweeps: one plane of reached identities                                #
# --------------------------------------------------------------------------- #

def test_reach_chains_replay_no_boundary_level(monkeypatch):
    """On the relay graph's 3-shard layout a reach chunk advances fewer
    levels than the same roots' distance chunk: a distance chain replays
    every level of each incoming boundary, a reach chain enters all of its
    identities at level 1.  Both counts are exact, so a change that brings
    back level replay fails here."""
    sharded = ShardedTemporalGraph.from_compiled(get_compiled(_relay_graph()), 3)
    assert sharded.boundaries == ((0, 2), (2, 5), (5, 6))
    driver = ShardedSweepDriver(sharded, chunk_size=8)
    advances = []
    advance = bitops.advance_blocked

    def counting_advance(*args, **kwargs):
        advances.append(1)
        return advance(*args, **kwargs)

    monkeypatch.setattr(bitops, "advance_blocked", counting_advance)
    counted = {}
    for direction in ("forward", "backward"):
        advances.clear()
        driver.identity_reach_counts(RELAY_ROOTS, direction=direction)
        reach = len(advances)
        advances.clear()
        list(driver.distance_blocks(RELAY_ROOTS, direction=direction))
        counted[direction] = (reach, len(advances))
    assert counted == {"forward": (22, 32), "backward": (20, 22)}
    assert all(reach < distance for reach, distance in counted.values())


@SHARD_SETTINGS
@given(graphs_with_roots(), st.sampled_from(["forward", "backward"]), st.booleans())
def test_reach_shard_task_hands_on_one_level_zero_plane(
    graph_root, direction, reverse_edges
):
    """A reach chain beside the leveled chain of the same roots: at every
    shard the reach task hands on one level-0 plane holding the identities
    of the leveled boundary, and its partial packs the identities of the
    shard's per-slot block."""
    graph, _ = graph_root
    roots = graph.active_temporal_nodes()[:6]
    spec = _bfs_spec(direction, reverse_edges)
    for sharded in _shardings(get_compiled(graph)):
        driver = ShardedSweepDriver(sharded)
        seeds_by_shard, leveled = driver._plan(
            [[driver._seed_index(root)] for root in roots]
        )
        reach = leveled
        for shard_index in driver._chain(spec):
            kernel = driver._kernel(shard_index)
            start = sharded.boundaries[shard_index][0]
            seeds = seeds_by_shard[shard_index]
            block, leveled = _bfs_shard_sweep(
                kernel, seeds, leveled, forward=spec[1], reverse_edges=spec[2]
            )
            partial, reach = _run_shard_task(kernel, spec, "reach", seeds, reach, start)
            assert np.array_equal(
                bitops.unpack_bits(partial, len(roots)), (block >= 0).any(axis=0)
            )
            assert set(reach.levels) == {0}
            assert np.array_equal(
                bitops.unpack_bits(reach.lanes(0), len(roots)), leveled.decode() < _FAR
            )


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graphs_with_roots())
def test_identity_reach_counts_match_kernel_across_shard_counts(graph_root):
    """Serial drivers over every layout, and the env-driven driver, count
    what the monolithic kernel counts, both directions, edges either way."""
    graph, _ = graph_root
    kernel = get_kernel(graph)
    roots = graph.active_temporal_nodes()[:8]
    cases = [
        (direction, reverse_edges)
        for direction in ("forward", "backward")
        for reverse_edges in (False, True)
    ]
    expected = {
        case: kernel.identity_reach_counts(
            roots, direction=case[0], reverse_edges=case[1]
        )
        for case in cases
    }
    drivers = [
        ShardedSweepDriver(sharded, chunk_size=3)
        for sharded in _shardings(get_compiled(graph))
    ]
    with _env_driver(graph, chunk_size=3) as env_driver:
        for driver in [*drivers, env_driver]:
            for direction, reverse_edges in cases:
                got = driver.identity_reach_counts(
                    roots, direction=direction, reverse_edges=reverse_edges
                )
                assert got == expected[direction, reverse_edges]
        _assert_env_backend_ran(env_driver)


# --------------------------------------------------------------------------- #
# interpreter shutdown: an unclosed process driver must not leak workers       #
# --------------------------------------------------------------------------- #

_UNCLOSED_DRIVER_SCRIPT = """
from repro.engine import ShardedSweepDriver, get_compiled
from repro.graph import AdjacencyListEvolvingGraph, ShardedTemporalGraph

graph = AdjacencyListEvolvingGraph(
    [(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 0, 1), (0, 2, 2)], directed=True
)
sharded = ShardedTemporalGraph.from_compiled(get_compiled(graph), 2)
driver = ShardedSweepDriver(sharded, backend="process", num_workers=2)
result = driver.bfs((0, 0))  # forces _ensure_processes: workers spawn here
assert result.reached, "process-backend sweep returned nothing"
print("PIDS", " ".join(str(p.pid) for p in driver._processes))
# exit WITHOUT closing: the workers are daemonic, so interpreter exit ends them
"""


def test_unclosed_process_driver_leaves_no_worker_after_exit():
    import subprocess
    import sys
    import time

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src_root)
    proc = subprocess.run(
        [sys.executable, "-c", _UNCLOSED_DRIVER_SCRIPT],
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
