"""Unit tests for the level-at-a-time sweeps and their stacked operator.

Every BFS level, 0/1 label step and re-sweep round of the engine is one
advance over the compiled artifact's block-diagonal stack of the snapshot
operators (:meth:`repro.graph.compiled.CompiledTemporalGraph.stack`),
windowed to the snapshots that can still change, plus one prefix-OR for the
causal step and one masked update.  The property suites hold the sweeps bit-identical to the
Python oracles on random graphs; this module pins the cases the window
logic branches on, each under every advance branch forced through
:func:`~repro.engine.bitops.sweep_thresholds`:

* each orientation's stack and its column-major twin (the other
  orientation's stack) equal scipy's ``block_diag`` of the per-snapshot
  views, buffer for buffer and dtype for dtype, for directed and undirected
  graphs, empty snapshots and ``T = 1``;
* the stack's index dtype is ``int32`` exactly while ``T · N`` and the
  entry count stay below ``2**31``;
* a frontier only in the first or only in the last snapshot, a saturated
  snapshot inside the window, and backward searches with
  ``reverse_edges``, through ``_run``, ``_zero_one_run`` and
  ``decrease_only_resweep``;
* ``_run`` leaves a saturated snapshot inside the window out of the
  advance's frontier and out of the masked update;
* each root column's time horizon: columns of several seeds at different
  snapshots and seedless columns, both directions, with ``reverse_edges``,
  through ``_run`` and ``_zero_one_run``, and a chunk seeded where its
  search ends, whose sweep stops at its last discovery;
* a reach sweep (``_run(..., per_identity=True)``) writes no level and
  returns one packed ``(N, L)`` plane of reached node identities, equal to
  the per-slot block's identity set whether its boundary is leveled or
  flattened to level 0, and only the reach readout asks for it.

The cases that cross time shards (levels fed only by boundary lanes, and
store-backed shards) live in ``tests/test_sharded.py``, so that the CI
shard-stress job also runs them through the process pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import backward_bfs, evolving_bfs
from repro.engine import FrontierKernel, bitops
from repro.engine.labels import LabelKernel
from repro.engine.sharded_sweep import _FAR, BoundaryBlock
from repro.graph import AdjacencyListEvolvingGraph
from tests.test_delta_streaming import assert_same_buffers
from tests.test_labels_vectorized import _flipped, _zero_one_dijkstra

#: ``(push, pull)`` fractions: the default, push only, pull only and dense.
THRESHOLDS = [(8, 4), (8, 0), (0, 4), (0, 0)]

#: The cost pairs of the 0/1 label family under test.
COSTS = [(1, 0), (1, 1), (0, 1)]


def _window_graph():
    """Two chains around a middle snapshot that saturates at level 2.

    From ``(0, 0)`` the chains of snapshots 0 and 2 run for eight levels,
    while snapshot 1 holds only nodes 0 and 1, both reached by level 2: from
    level 3 on the window of live snapshots spans snapshot 1 without it
    being able to change.  Snapshot 3 holds a short chain of its own and
    snapshot 4 is registered with no edges.
    """
    edges = [(v, v + 1, 0) for v in range(8)]
    edges += [(0, 1, 1), (1, 0, 1)]
    edges += [(v, v + 1, 2) for v in range(8)]
    edges += [(9, 10, 3), (10, 0, 3), (3, 9, 3)]
    return AdjacencyListEvolvingGraph(
        edges, timestamps=[0, 1, 2, 3, 4], directed=True
    )


#: Roots whose first frontier sits only in the first or only in the last
#: snapshot holding edges, for both time directions.
WINDOW_ROOTS = [(0, 0), (3, 0), (9, 3), (10, 3), (0, 3)]


def _horizon_graph():
    """Five nodes active in all five snapshots, so every node reaches every
    later snapshot of itself.

    Snapshots 0 and 4 are complete digraphs, which a search saturates in one
    level; snapshots 1 to 3 are the cycle ``0 → 1 → 2 → 3 → 4 → 0``, which
    takes four.
    """
    nodes = range(5)
    edges = [(u, v, t) for t in (0, 4) for u in nodes for v in nodes if u != v]
    edges += [(v, (v + 1) % 5, t) for t in (1, 2, 3) for v in nodes]
    return AdjacencyListEvolvingGraph(edges, timestamps=list(range(5)), directed=True)


#: Columns of several seeds at different snapshots beside seedless ones;
#: every seed is an active slot of both the window and the horizon graph.
HORIZON_COLUMNS = [
    [(0, 3), (0, 0)],
    [],
    [(1, 2), (3, 0)],
    [(0, 1)],
    [],
    [(3, 3), (0, 2), (0, 1)],
]


# --------------------------------------------------------------------------- #
# the stacked operator                                                         #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("use_forward_ops", [True, False])
def test_stacked_operator_equals_block_diag(directed, use_forward_ops):
    """One orientation's stack equals ``sp.block_diag`` of its per-snapshot
    views, and its twin, the other orientation's stack, equals the CSC one.

    Snapshots 1 and 4 hold no edge, so the stack has empty blocks inside
    and at its end.
    """
    edges = [(0, 1, 0), (1, 2, 0), (2, 2, 0), (2, 0, 2), (1, 3, 3), (3, 1, 3)]
    graph = AdjacencyListEvolvingGraph(
        edges, timestamps=[0, 1, 2, 3, 4], directed=directed
    )
    compiled = FrontierKernel(graph).compiled
    stacked = compiled.stack(use_forward_ops)
    assert compiled.stack(use_forward_ops) is stacked  # built once
    ops = compiled.forward_operators if use_forward_ops else compiled.backward_operators
    assert [op.nnz == 0 for op in ops][1::3] == [True, True]
    assert_same_buffers(stacked, sp.block_diag(ops, format="csr"))
    twin = compiled.twin(use_forward_ops)
    assert twin is compiled.stack(not use_forward_ops)
    assert_same_buffers(twin, sp.block_diag(ops, format="csc"))


def test_single_snapshot_stack_is_its_operator():
    """With one snapshot the per-snapshot view is the stack itself."""
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 0)], directed=True)
    compiled = FrontierKernel(graph).compiled
    (op,) = compiled.forward_operators
    assert compiled.stack() is op
    assert_same_buffers(compiled.stack(), sp.block_diag([op], format="csr"))


def test_stacked_index_dtype_switches_at_int32_limit():
    """``int32`` while both the slot count and nnz stay below ``2**31``."""
    limit = 2**31 - 1
    assert bitops.stacked_index_dtype(limit, limit) == np.int32
    assert bitops.stacked_index_dtype(limit + 1, 0) == np.int64
    assert bitops.stacked_index_dtype(10, limit + 1) == np.int64
    assert bitops.stacked_index_dtype(0, 0) == np.int32


@pytest.mark.parametrize(
    ("mask", "expected"),
    [
        ([1, 1, 0, 1], [(0, 2), (3, 4)]),
        ([0, 1, 1, 0, 0, 1, 1, 1], [(1, 3), (5, 8)]),
        ([0, 0, 1], [(2, 3)]),
        ([0, 0], []),
    ],
)
def test_runs_and_span_of_a_snapshot_mask(mask, expected):
    mask = np.array(mask, dtype=bool)
    assert bitops.runs(mask) == expected
    if expected:
        assert bitops.span(mask) == (expected[0][0], expected[-1][1])


# --------------------------------------------------------------------------- #
# the level loops against the Python oracles                                   #
# --------------------------------------------------------------------------- #


def test_window_graph_saturates_its_middle_snapshot():
    """The precondition of the saturated-window cases below."""
    reached = evolving_bfs(_window_graph(), (0, 0), backend="python").reached
    depth = {t: max(d for (_, s), d in reached.items() if s == t) for t in (0, 1, 2)}
    assert depth[1] == 2 and min(depth[0], depth[2]) > 2


@pytest.mark.parametrize("thresholds", THRESHOLDS)
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("reverse_edges", [False, True])
def test_run_matches_oracle_across_windows(thresholds, direction, reverse_edges):
    graph = _window_graph()
    kernel = FrontierKernel(graph)
    search = evolving_bfs if direction == "forward" else backward_bfs
    oracle_graph = _flipped(graph) if reverse_edges else graph
    expected = {
        root: search(oracle_graph, root, backend="python").reached
        for root in WINDOW_ROOTS
    }
    with bitops.sweep_thresholds(*thresholds):
        ((chunk, dist),) = kernel.distance_blocks(
            WINDOW_ROOTS, direction=direction, reverse_edges=reverse_edges
        )
        singles = {
            root: kernel.bfs(root, direction=direction, reverse_edges=reverse_edges)
            for root in WINDOW_ROOTS
        }
        counts = kernel.identity_reach_counts(
            WINDOW_ROOTS, direction=direction, reverse_edges=reverse_edges
        )
    for col, root in enumerate(chunk):
        assert kernel._reached_view(dist, col) == expected[root]
        assert singles[root].reached == expected[root]
        assert counts[root] == len({v for v, _ in expected[root]} - {root[0]})


@pytest.mark.parametrize("thresholds", THRESHOLDS)
@pytest.mark.parametrize("costs", COSTS)
def test_zero_one_run_matches_oracle_across_windows(thresholds, costs):
    graph = _window_graph()
    kernel = FrontierKernel(graph)
    slots = kernel._slots
    with bitops.sweep_thresholds(*thresholds):
        ((chunk, block),) = kernel.zero_one_labels(
            WINDOW_ROOTS, spatial_cost=costs[0], causal_cost=costs[1]
        )
    for col, root in enumerate(chunk):
        t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
        decoded = {
            (slots.labels[vi], slots.times[ti]): int(block[ti, vi, col])
            for ti, vi in zip(t_arr.tolist(), v_arr.tolist())
        }
        assert decoded == _zero_one_dijkstra(graph, root, *costs)


@pytest.mark.parametrize("thresholds", THRESHOLDS)
def test_decrease_only_resweep_matches_oracle_across_windows(thresholds):
    """Degraded blocks re-swept from the root equal a fresh oracle search."""
    graph = _window_graph()
    kernel = FrontierKernel(graph)
    for root in WINDOW_ROOTS:
        fresh = kernel.distance_block(root)
        assert kernel._reached_view(fresh[:, :, None], 0) == evolving_bfs(
            graph, root, backend="python"
        ).reached
        degraded = np.where(fresh >= 0, fresh + 2, fresh)
        with bitops.sweep_thresholds(*thresholds):
            kernel.decrease_only_resweep(degraded, [(*kernel._seed_index(root), 0)])
        np.testing.assert_array_equal(degraded, fresh)


def test_run_skips_saturated_snapshots_inside_the_window(monkeypatch):
    """From level 3 on, snapshot 1 of the window graph is saturated between
    live snapshots: its frontier leaves the advance, and the masked update
    runs over the open snapshots on either side of it only."""
    kernel = FrontierKernel(_window_graph())
    t_count, n = kernel.compiled.active_mask.shape
    fused, advance = bitops.fused_update, bitops.advance_blocked
    updated, advanced = [], []

    def record_update(spatial, carry, active, visited, frontier, out):
        updated.append(bitops.snapshot_any(active & ~visited))
        return fused(spatial, carry, active, visited, frontier, out)

    def record_advance(mat, frontier, r, **kwargs):
        lanes = frontier.reshape(t_count, n, -1)
        remaining = kwargs["remaining"].reshape(t_count, n, -1)
        advanced.append(bitops.snapshot_any(lanes) & ~bitops.snapshot_any(remaining))
        return advance(mat, frontier, r, **kwargs)

    monkeypatch.setattr(bitops, "fused_update", record_update)
    monkeypatch.setattr(bitops, "advance_blocked", record_advance)
    kernel.distance_block((0, 0))
    assert advanced and updated
    assert not any(closed.any() for closed in advanced)
    assert all(open_.all() for open_ in updated)


# --------------------------------------------------------------------------- #
# the time horizon of each root column                                         #
# --------------------------------------------------------------------------- #


def _nearest(searches):
    """The oracle levels of a column seeded at several roots: per slot, the
    minimum over the roots' single-source ``{slot: level}`` searches."""
    nearest = {}
    for levels in searches:
        for slot, level in levels.items():
            nearest[slot] = min(level, nearest.get(slot, level))
    return nearest


@pytest.mark.parametrize("graph_of", [_window_graph, _horizon_graph])
@pytest.mark.parametrize("thresholds", THRESHOLDS)
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("reverse_edges", [False, True])
def test_multi_seed_and_seedless_columns_match_oracle(
    graph_of, thresholds, direction, reverse_edges
):
    """Each column's horizon starts at its earliest seed (backward: ends at
    its latest), and a seedless column reaches nothing, in the level block
    and in the reach plane alike."""
    graph = graph_of()
    kernel = FrontierKernel(graph)
    bfs = evolving_bfs if direction == "forward" else backward_bfs
    oracle_graph = _flipped(graph) if reverse_edges else graph
    seeds = [[kernel._seed_index(root) for root in col] for col in HORIZON_COLUMNS]
    with bitops.sweep_thresholds(*thresholds):
        dist = kernel._run(seeds, direction, reverse_edges=reverse_edges)
        plane = kernel._run(
            seeds, direction, reverse_edges=reverse_edges, per_identity=True
        )
    reached = bitops.unpack_bits(plane, len(seeds))
    index = kernel.compiled.node_index
    for col, roots in enumerate(HORIZON_COLUMNS):
        expected = _nearest(
            bfs(oracle_graph, root, backend="python").reached for root in roots
        )
        assert kernel._reached_view(dist, col) == expected
        ids = {index[v] for v, _ in expected}
        assert set(np.flatnonzero(reached[:, col]).tolist()) == ids


@pytest.mark.parametrize("graph_of", [_window_graph, _horizon_graph])
@pytest.mark.parametrize("thresholds", THRESHOLDS)
@pytest.mark.parametrize("costs", COSTS)
def test_zero_one_multi_seed_and_seedless_columns_match_oracle(
    graph_of, thresholds, costs
):
    """The 0/1 sweep masks its active lanes with the same forward horizon."""
    graph = graph_of()
    kernel = FrontierKernel(graph)
    slots = kernel._slots
    seeds = [[kernel._seed_index(root) for root in col] for col in HORIZON_COLUMNS]
    with bitops.sweep_thresholds(*thresholds):
        block = LabelKernel(kernel)._zero_one_run(seeds, *costs)
    for col, roots in enumerate(HORIZON_COLUMNS):
        t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
        decoded = {
            (slots.labels[vi], slots.times[ti]): int(block[ti, vi, col])
            for ti, vi in zip(t_arr.tolist(), v_arr.tolist())
        }
        assert decoded == _nearest(
            _zero_one_dijkstra(graph, root, *costs) for root in roots
        )


#: Per direction, a chunk seeded where its search ends: one root in a cycle
#: snapshot next to the complete snapshot at that end of time, one root in
#: the complete snapshot itself.
HORIZON_ROOTS = {"forward": [(0, 3), (0, 4)], "backward": [(0, 1), (0, 0)]}


@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("reverse_edges", [False, True])
def test_sweep_stops_at_its_last_discovery(monkeypatch, direction, reverse_edges):
    """The cycle root's column finds its last slot at level 4, and every
    advance before that meets a remaining bit.  Without the horizon the
    complete-snapshot column, which can never reach the cycle snapshot,
    kept it open, so a fifth advance ran there and discovered nothing: the
    counts are exact, and a sweep that counts undiscoverable slots as
    remaining fails here."""
    kernel = FrontierKernel(_horizon_graph())
    advance = bitops.advance_blocked
    met = []

    def recording_advance(mat, frontier, r, **kwargs):
        out = advance(mat, frontier, r, **kwargs)
        met.append(bool((out & kwargs["remaining"]).any()))
        return out

    monkeypatch.setattr(bitops, "advance_blocked", recording_advance)
    roots = HORIZON_ROOTS[direction]
    ((_, dist),) = kernel.distance_blocks(
        roots, direction=direction, reverse_edges=reverse_edges
    )
    kernel.identity_reach_counts(
        roots, direction=direction, reverse_edges=reverse_edges
    )
    assert int(dist.max()) == 4
    assert met == [True] * 8  # four levels per sweep, two sweeps


# --------------------------------------------------------------------------- #
# reach sweeps: one plane of reached identities                                #
# --------------------------------------------------------------------------- #


@st.composite
def _identity_sweeps(draw):
    """A random graph's kernel, seeds and incoming boundary.

    Every root sits in the first or in the last snapshot (each its own
    column), and one more column has no seed, so only the boundary, when
    there is one, can feed it.  The boundary holds random minimal levels
    for a random subset of the node identities.
    """
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(0, 5)
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=25,
        )
    )
    graph = AdjacencyListEvolvingGraph(edges, directed=draw(st.booleans()))
    kernel = FrontierKernel(graph)
    active = kernel.compiled.active_mask
    t_count, n = active.shape
    ti = draw(st.sampled_from([0, t_count - 1]))
    seeds = [[(ti, vi)] for vi in np.flatnonzero(active[ti]).tolist()] + [[]]
    boundary = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        shape = (n, len(seeds))
        levels = rng.integers(0, 4, size=shape, dtype=np.int32)
        boundary = BoundaryBlock.from_min_levels(
            np.where(rng.random(shape) < 0.3, levels, _FAR)
        )
    return kernel, seeds, boundary


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _identity_sweeps(),
    st.sampled_from(["forward", "backward"]),
    st.booleans(),
    st.sampled_from(THRESHOLDS),
)
def test_reach_plane_is_the_per_slot_identity_set(
    sweep, direction, reverse_edges, thresholds
):
    """The plane packs the identities any slot of the per-slot block
    reaches, from the drawn leveled boundary and from its level-0
    flattening alike: reach is a closure, so the entry levels do not
    matter."""
    kernel, seeds, boundary = sweep
    boundaries = [boundary]
    if boundary is not None:
        entered = boundary.decode() < _FAR
        boundaries.append(BoundaryBlock.from_min_levels(np.where(entered, 0, _FAR)))
    with bitops.sweep_thresholds(*thresholds):
        per_slot = kernel._run(
            seeds, direction, reverse_edges=reverse_edges, boundary=boundary
        )
        planes = [
            kernel._run(
                seeds,
                direction,
                reverse_edges=reverse_edges,
                boundary=entering,
                per_identity=True,
            )
            for entering in boundaries
        ]
    expected = bitops.pack_bits((per_slot >= 0).any(axis=0))
    for plane in planes:
        assert plane.dtype == expected.dtype
        np.testing.assert_array_equal(plane, expected)


READOUTS = {
    "reach": lambda kernel, roots: kernel.identity_reach_counts(roots),
    "block": lambda kernel, roots: kernel.batch(roots),
    "harmonic": lambda kernel, roots: kernel.harmonic_closeness_sums(roots),
    "first": lambda kernel, roots: kernel.earliest_arrivals(roots),
    "last": lambda kernel, roots: kernel.latest_departures(roots),
}


@pytest.mark.parametrize("readout", sorted(READOUTS))
def test_only_reach_sweeps_write_one_level_per_identity(monkeypatch, readout):
    """A reach sweep writes no distance and returns one packed ``(N, L)``
    plane, a single reached-or-not entry per identity; every other readout
    returns the per-slot ``(T, N, R)`` int32 block."""
    kernel = FrontierKernel(_window_graph())
    t_count, n = kernel.compiled.active_mask.shape
    shapes = []
    run = FrontierKernel._run

    def recording_run(self, *args, **kwargs):
        block = run(self, *args, **kwargs)
        shapes.append((block.shape, block.dtype))
        return block

    monkeypatch.setattr(FrontierKernel, "_run", recording_run)
    READOUTS[readout](kernel, WINDOW_ROOTS)
    width = len(WINDOW_ROOTS)
    assert t_count > 1
    if readout == "reach":
        plane = bitops.seed_lanes((n,), [[]] * width)
        assert shapes == [(plane.shape, plane.dtype)]
    else:
        assert shapes == [((t_count, n, width), np.dtype(np.int32))]
