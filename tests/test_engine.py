"""Equivalence and unit tests for the vectorized sparse frontier engine.

The engine (``repro.engine``) must be *observationally identical* to the
pure-Python reference implementations on every search it accelerates:
single-source forward BFS, backward BFS, combined multi-source BFS, and
batched independent searches.  The property-based tests here assert exact
``reached``-dictionary equality on random evolving graphs (directed and
undirected, including multi-source batches), plus the error-path,
caching, and operation-counting behaviour of the engine itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.temporal_paths import fewest_spatial_hops_from
from repro.analysis import measure_batch_scaling
from repro.core import (
    algebraic_bfs_blocked,
    backward_bfs,
    evolving_bfs,
    multi_source_bfs,
)
from repro.engine import (
    BACKENDS,
    FrontierKernel,
    get_kernel,
    invalidate_kernel,
    resolve_backend,
)
from repro.exceptions import GraphError, InactiveNodeError
from repro.graph import (
    AdjacencyListEvolvingGraph,
    to_edge_list,
    to_matrix_sequence,
    to_snapshot_sequence,
)
from repro.linalg import OperationCounter
from repro.parallel import batch_bfs

node_labels = st.integers(min_value=0, max_value=12)
time_labels = st.integers(min_value=0, max_value=5)


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


ENGINE_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# property-based equivalence: vectorized backend == python backend             #
# --------------------------------------------------------------------------- #

@ENGINE_SETTINGS
@given(graphs_with_roots())
def test_vectorized_forward_bfs_equals_python(graph_root):
    graph, root = graph_root
    reference = evolving_bfs(graph, root, backend="python")
    vectorized = evolving_bfs(graph, root, backend="vectorized")
    assert vectorized.reached == reference.reached
    assert vectorized.root == reference.root


@ENGINE_SETTINGS
@given(graphs_with_roots())
def test_vectorized_backward_bfs_equals_python(graph_root):
    graph, root = graph_root
    reference = backward_bfs(graph, root, backend="python")
    vectorized = backward_bfs(graph, root, backend="vectorized")
    assert vectorized.reached == reference.reached


@ENGINE_SETTINGS
@given(graphs_with_roots())
def test_vectorized_blocked_algebraic_equals_python(graph_root):
    graph, root = graph_root
    reference = algebraic_bfs_blocked(graph, root, backend="python")
    vectorized = algebraic_bfs_blocked(graph, root, backend="vectorized")
    assert vectorized.reached == reference.reached


@ENGINE_SETTINGS
@given(evolving_graphs(), st.data())
def test_vectorized_multi_source_equals_python(graph, data):
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    roots = data.draw(
        st.lists(st.sampled_from(active), min_size=1, max_size=5))
    reference = multi_source_bfs(graph, roots, backend="python")
    vectorized = multi_source_bfs(graph, roots, backend="vectorized")
    assert vectorized.reached == reference.reached
    assert vectorized.root == reference.root


@ENGINE_SETTINGS
@given(evolving_graphs())
def test_vectorized_batch_equals_serial_per_root(graph):
    roots = graph.active_temporal_nodes()
    oracle = batch_bfs(graph, roots, backend="python")
    vectorized = batch_bfs(graph, roots, chunk_size=3)
    assert set(oracle) == set(vectorized)
    for root in oracle:
        assert vectorized[root].reached == oracle[root].reached


@ENGINE_SETTINGS
@given(graphs_with_roots())
def test_engine_is_representation_independent(graph_root):
    graph, root = graph_root
    reference = evolving_bfs(graph, root, backend="python").reached
    for converted in (to_edge_list(graph), to_matrix_sequence(graph),
                      to_snapshot_sequence(graph)):
        assert evolving_bfs(converted, root, backend="vectorized").reached \
            == reference


# --------------------------------------------------------------------------- #
# kernel unit behaviour                                                        #
# --------------------------------------------------------------------------- #

class TestFrontierKernel:
    def test_kernel_structure_on_figure1(self, figure1):
        kernel = FrontierKernel(figure1)
        assert kernel.num_snapshots == len(figure1.timestamps)
        assert set(kernel.node_labels) == figure1.nodes()
        assert kernel.nnz > 0
        for v, t in figure1.active_temporal_nodes():
            assert kernel.is_active(v, t)
        assert not kernel.is_active("nonexistent", "t1")

    def test_inactive_root_raises(self, figure1):
        kernel = FrontierKernel(figure1)
        with pytest.raises(InactiveNodeError):
            kernel.bfs((4, "t1"))

    def test_multi_source_all_inactive_raises(self, figure1):
        kernel = FrontierKernel(figure1)
        with pytest.raises(InactiveNodeError):
            kernel.multi_source([(4, "t1")])
        with pytest.raises(ValueError):
            kernel.multi_source([])

    def test_batch_skips_inactive_roots(self, figure1):
        kernel = FrontierKernel(figure1)
        results = kernel.batch([(1, "t1"), (4, "t1")])
        assert set(results) == {(1, "t1")}

    def test_bad_direction_rejected(self, figure1):
        kernel = FrontierKernel(figure1)
        with pytest.raises(GraphError):
            kernel.bfs((1, "t1"), direction="sideways")

    def test_bad_chunk_size_rejected(self, figure1):
        kernel = FrontierKernel(figure1)
        with pytest.raises(GraphError):
            kernel.batch([(1, "t1")], chunk_size=0)

    def test_empty_graph_rejected(self):
        graph = AdjacencyListEvolvingGraph()
        with pytest.raises(GraphError):
            FrontierKernel(graph)


class TestDispatch:
    def test_backend_values(self):
        assert set(BACKENDS) == {"python", "vectorized"}
        assert resolve_backend("python") == "python"
        with pytest.raises(GraphError):
            resolve_backend("julia")

    def test_unknown_backend_rejected_even_with_tracking(self, figure1):
        with pytest.raises(GraphError):
            evolving_bfs(figure1, (1, "t1"), backend="julia",
                         track_parents=True)

    def test_kernel_cache_reuses_and_invalidates(self, figure1):
        invalidate_kernel(figure1)
        first = get_kernel(figure1)
        assert get_kernel(figure1) is first
        invalidate_kernel(figure1)
        assert get_kernel(figure1) is not first

    def test_kernel_rebuilt_after_growth(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        before = get_kernel(graph)
        assert evolving_bfs(graph, (0, 0)).reached == {(0, 0): 0, (1, 0): 1}
        graph.add_edge(1, 2, 1)
        assert get_kernel(graph) is not before
        reached = evolving_bfs(graph, (0, 0)).reached
        assert reached == evolving_bfs(graph, (0, 0), backend="python").reached
        assert (2, 1) in reached

    def test_count_preserving_mutation_invalidates_kernel(self):
        """Regression: remove one edge, add another — counts unchanged, cache not.

        The old fingerprint ``(num_timestamps, num_static_edges, is_directed)``
        could not see this mutation and served stale results; the exact
        ``mutation_version`` key must rebuild the kernel.
        """
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], timestamps=[0, 1])
        before = get_kernel(graph)
        stale = evolving_bfs(graph, (0, 0)).reached
        assert (2, 1) in stale

        assert graph.remove_edge(1, 2, 1)
        assert graph.add_edge(2, 3, 1)
        # the mutation preserved every count the old fingerprint looked at
        assert graph.num_timestamps == 2
        assert graph.num_static_edges() == 2

        assert get_kernel(graph) is not before
        fresh = evolving_bfs(graph, (0, 0)).reached
        assert fresh == evolving_bfs(graph, (0, 0), backend="python").reached
        assert fresh != stale
        assert (2, 1) not in fresh

    def test_compiled_artifact_shared_and_version_exact(self):
        from repro.engine import get_compiled

        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        compiled = get_compiled(graph)
        assert get_compiled(graph) is compiled
        assert get_kernel(graph).compiled is compiled
        assert compiled.is_current(graph)
        graph.add_edge(1, 0, 1)
        assert not compiled.is_current(graph)
        assert get_compiled(graph) is not compiled

    def test_tracking_options_fall_back_to_python(self, figure1):
        traced = evolving_bfs(figure1, (1, "t1"), track_parents=True,
                              track_frontiers=True)
        assert traced.parents
        assert traced.frontiers[0] == [(1, "t1")]
        assert traced.reached == evolving_bfs(figure1, (1, "t1")).reached


# --------------------------------------------------------------------------- #
# cost-model accounting                                                        #
# --------------------------------------------------------------------------- #

class TestOperationCounting:
    def test_forward_only_workload_never_builds_transposes(self):
        """The backward-operator stack is lazy: forward searches never pay for it."""
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 0), (2, 3, 1), (0, 2, 1)], directed=True
        )
        lazy = FrontierKernel(graph, counter=OperationCounter())
        assert not lazy.compiled.transposes_built
        lazy.bfs((0, 0))
        lazy.batch([(0, 0), (1, 0)])
        lazy.identity_reach_counts([(0, 0), (1, 0)])
        assert not lazy.compiled.transposes_built

        # prebuilding the transposes changes nothing about the forward cost
        # model: the flop counter accounts the identical multiply-adds, i.e.
        # forward-only workloads never paid for the transposed stack
        eager = FrontierKernel(graph, counter=OperationCounter())
        assert eager.compiled.backward_operators  # force the build
        assert eager.compiled.transposes_built
        eager.bfs((0, 0))
        eager.batch([(0, 0), (1, 0)])
        eager.identity_reach_counts([(0, 0), (1, 0)])
        assert eager.counter.multiply_adds == lazy.counter.multiply_adds
        assert eager.counter.column_checks == lazy.counter.column_checks

        # the first backward query builds the stack on demand
        lazy.bfs((3, 1), direction="backward")
        assert lazy.compiled.transposes_built

    def test_kernel_counter_scales_with_batch_width(self, figure1):
        single = OperationCounter()
        FrontierKernel(figure1, counter=single).bfs((1, "t1"))
        assert single.multiply_adds > 0

        batched = OperationCounter()
        kernel = FrontierKernel(figure1, counter=batched)
        kernel.batch([(1, "t1"), (1, "t1"), (1, "t1")], chunk_size=3)
        # three identical searches share each product, so the per-column
        # accounting must report exactly three times the single-search flops
        assert batched.multiply_adds == 3 * single.multiply_adds


# --------------------------------------------------------------------------- #
# the packed sweep loop vs the Python oracles                                  #
# --------------------------------------------------------------------------- #

def _flipped(graph):
    """The same evolving graph with every edge turned around: ``(v, u, t)``."""
    return AdjacencyListEvolvingGraph(
        [(v, u, t) for u, v, t in graph.temporal_edges()],
        timestamps=list(graph.timestamps),
        directed=graph.is_directed,
    )


@ENGINE_SETTINGS
@given(graphs_with_roots(), st.sampled_from(["forward", "backward"]),
       st.booleans())
def test_bfs_bit_identical_to_python_oracle(graph_root, direction, reverse_edges):
    """Both time directions, with and without ``reverse_edges`` — whose
    reference is the Python search over the same edges turned around."""
    graph, root = graph_root
    search = evolving_bfs if direction == "forward" else backward_bfs
    reference = search(_flipped(graph) if reverse_edges else graph, root,
                       backend="python")
    kernel = FrontierKernel(graph)
    packed = kernel.bfs(root, direction=direction, reverse_edges=reverse_edges)
    assert packed.reached == reference.reached


@ENGINE_SETTINGS
@given(evolving_graphs(), st.data())
def test_multi_source_and_batch_bit_identical_to_python_oracle(graph, data):
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    roots = data.draw(st.lists(st.sampled_from(active), min_size=1, max_size=5))
    kernel = FrontierKernel(graph)
    assert (kernel.multi_source(roots).reached
            == multi_source_bfs(graph, roots, backend="python").reached)
    batched = kernel.batch(roots, chunk_size=3)
    assert set(batched) == set(roots)
    for root in batched:
        assert (batched[root].reached
                == evolving_bfs(graph, root, backend="python").reached)


#: Chunk widths past one byte of lanes: uint16, uint32 and uint64 lanes, and
#: two and three uint64 lanes per node.
WIDE_CHUNKS = [9, 17, 33, 65, 130]


def _small_random_graph(seed, *, nodes=24, times=5, edges=90, directed=True):
    rng = np.random.default_rng(seed)
    triples = [
        (int(u), int(v), int(t))
        for u, v, t in zip(rng.integers(nodes, size=edges),
                           rng.integers(nodes, size=edges),
                           rng.integers(times, size=edges))
        if u != v
    ]
    return AdjacencyListEvolvingGraph(triples, directed=directed)


def _wide_roots(graph, width, seed):
    """``width`` roots drawn from the active slots, repeats allowed."""
    active = graph.active_temporal_nodes()
    picks = np.random.default_rng(seed).integers(len(active), size=width)
    return [active[i] for i in picks.tolist()]


@pytest.mark.parametrize("width", WIDE_CHUNKS)
@pytest.mark.parametrize("directed", [True, False])
def test_wide_chunk_distance_blocks_match_python_oracle(width, directed):
    """One chunk of ``width`` roots, every direction and ``reverse_edges``:
    each column of the lane sweep equals its own Python search."""
    graph = _small_random_graph(width, directed=directed)
    roots = _wide_roots(graph, width, seed=width + 1)
    kernel = FrontierKernel(graph)
    for direction, reverse_edges in (("forward", False), ("backward", False),
                                     ("forward", True), ("backward", True)):
        ((chunk, dist),) = kernel.distance_blocks(
            roots, direction=direction, reverse_edges=reverse_edges,
            chunk_size=width,
        )
        assert chunk == roots and dist.shape[2] == width
        search = evolving_bfs if direction == "forward" else backward_bfs
        oracle_graph = _flipped(graph) if reverse_edges else graph
        for col, root in enumerate(chunk):
            assert (kernel._reached_view(dist, col)
                    == search(oracle_graph, root, backend="python").reached)


class TestFusedSweeps:
    def test_track_parents_reads_tree_off_packed_sweep(self):
        """The parent pass's tie rule: the highest-index spatial in-neighbour
        one level closer, else the same node at the latest earlier snapshot
        (latest later snapshot for backward searches)."""
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (0, 2, 0), (1, 3, 0), (2, 3, 0)], directed=True
        )
        kernel = FrontierKernel(graph)
        assert kernel.node_labels == [0, 1, 2, 3]
        traced = kernel.bfs((0, 0), track_parents=True)
        assert traced.reached == kernel.bfs((0, 0)).reached
        assert traced.parents[(0, 0)] == (0, 0)
        assert traced.parents[(3, 0)] == (2, 0)  # 1 and 2 tie; 2 wins

        # node 5 sits at distance 2 at t=0 and t=1 on the way from (0, 0),
        # and at distance 2 at t=1 and t=2 on the way back from (9, 2)
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 5, 0), (7, 5, 0), (0, 5, 1), (5, 9, 1),
             (5, 7, 2), (5, 1, 2), (1, 9, 2)],
            timestamps=[0, 1, 2], directed=True,
        )
        kernel = FrontierKernel(graph)
        forward = kernel.bfs((0, 0), track_parents=True)
        assert forward.reached[(5, 0)] == forward.reached[(5, 1)] == 2
        assert forward.parents[(5, 2)] == (5, 1)
        backward = kernel.bfs((9, 2), direction="backward", track_parents=True)
        assert backward.reached[(5, 1)] == backward.reached[(5, 2)] == 2
        assert backward.parents[(5, 0)] == (5, 2)

    def test_fused_does_strictly_less_accounted_work(self):
        """On a non-trivial graph the packed sweep's total accounted work
        (multiply-adds + word ops) undercuts the Theorem-5/6 charge of the
        blocked algorithm, read off the distance block: a dense product,
        ``2 · nnz(t) · R``, for every level and snapshot holding a frontier
        slot, plus ``T · N · R`` column checks per level.  Tiny graphs can
        invert this — word bookkeeping has a fixed per-snapshot floor — so
        the assertion runs on a few hundred nodes, where packing pays."""
        rng = np.random.default_rng(7)
        edges = [
            (int(rng.integers(250)), int(rng.integers(250)), int(rng.integers(6)))
            for _ in range(2500)
        ]
        graph = AdjacencyListEvolvingGraph(
            edges, timestamps=list(range(6)), directed=True
        )
        kernel = FrontierKernel(graph, counter=OperationCounter())
        roots = graph.active_temporal_nodes()[:32]
        packed = kernel.batch(roots)
        packed_total = kernel.counter.total()
        assert kernel.counter.word_ops > 0
        assert kernel.counter.multiply_adds > 0

        ((_, dist),) = FrontierKernel(graph).distance_blocks(roots)
        t_count, n, r = dist.shape
        nnz = np.array([m.nnz for m in kernel.compiled.forward_operators])
        theorem = 0
        for level in range(int(dist.max()) + 1):
            holds = (dist == level).any(axis=(1, 2))
            theorem += 2 * int(nnz[holds].sum()) * r + t_count * n * r
        assert theorem == 4_018_688
        assert packed_total < theorem

        for root in roots:
            assert (packed[root].reached
                    == evolving_bfs(graph, root, backend="python").reached)

    def test_zero_one_sweeps_charge_the_counter(self):
        """A 0/1 label sweep runs the BFS level loop, so it charges an
        attached counter the same way: every cost pair charges multiply-adds
        and word ops, and the fewest-hops sweep (``(1, 0)``) undercuts the
        Theorem-5/6 charge read off its label block, one dense product per
        label and snapshot holding a slot at it plus ``T · N · R`` column
        checks per label, on the graph of the BFS test above."""
        rng = np.random.default_rng(7)
        edges = [
            (int(rng.integers(250)), int(rng.integers(250)), int(rng.integers(6)))
            for _ in range(2500)
        ]
        graph = AdjacencyListEvolvingGraph(
            edges, timestamps=list(range(6)), directed=True
        )
        roots = graph.active_temporal_nodes()[:32]
        for costs in ((1, 0), (1, 1), (0, 1), (0, 0)):
            kernel = FrontierKernel(graph, counter=OperationCounter())
            list(kernel.zero_one_labels(
                roots, spatial_cost=costs[0], causal_cost=costs[1]
            ))
            assert kernel.counter.multiply_adds > 0, costs
            assert kernel.counter.word_ops > 0, costs

        kernel = FrontierKernel(graph, counter=OperationCounter())
        hops = kernel.fewest_hops(roots)
        packed_total = kernel.counter.total()
        ((_, labels),) = FrontierKernel(graph).zero_one_labels(roots)
        t_count, n, r = labels.shape
        nnz = np.array([m.nnz for m in kernel.compiled.forward_operators])
        theorem = 0
        for label in range(int(labels.max()) + 1):
            holds = (labels == label).any(axis=(1, 2))
            theorem += 2 * int(nnz[holds].sum()) * r + t_count * n * r
        assert theorem == 3_841_792
        assert packed_total < theorem

        for root in roots:
            assert hops[root] == fewest_spatial_hops_from(graph, root, backend="python")

    def test_resweep_bit_identical_and_batched(self):
        """decrease_only_resweep: the packed rounds agree with a fresh search."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            n_nodes = int(rng.integers(3, 40))
            n_times = int(rng.integers(2, 5))
            edges = [
                (int(rng.integers(n_nodes)), int(rng.integers(n_nodes)),
                 int(rng.integers(n_times)))
                for _ in range(int(rng.integers(5, 60)))
            ]
            graph = AdjacencyListEvolvingGraph(
                edges, timestamps=list(range(n_times)), directed=True
            )
            roots = graph.active_temporal_nodes()
            if not roots:
                continue
            root = roots[int(rng.integers(len(roots)))]
            kernel = FrontierKernel(graph)
            fresh = kernel.distance_block(root)
            # degrade some distances, then re-sweep from the fresh seeds
            degraded = np.where(fresh >= 0, fresh + 2, fresh)
            seeds = [(*kernel._seed_index(root), 0)]
            kernel.decrease_only_resweep(degraded, seeds)
            np.testing.assert_array_equal(degraded, fresh)


# --------------------------------------------------------------------------- #
# batched scaling harness                                                      #
# --------------------------------------------------------------------------- #

def test_measure_batch_scaling_smoke():
    result = measure_batch_scaling(
        30, 3, [60, 90], num_roots=8, seed=7, repeats=1, warmup=1)
    assert len(result.points) == 2
    assert all(p.seconds >= 0 for p in result.points)
    assert all(p.reached_nodes > 0 for p in result.points)
