"""Property-based equivalence for the semiring label-sweep engine (PR 3).

Every label-family readout of the kernel's batched surface (earliest
arrival, latest departure, the 0/1 label sweeps of
:class:`~repro.engine.labels.LabelKernel`, Tang steps) keeps its original
Python implementation as the correctness oracle behind ``backend="python"``.
These tests draw random evolving graphs and assert that the default
vectorized backend reproduces the oracle exactly: earliest
arrival / latest departure / fewest spatial hops (single-target and
all-targets forms), Tang temporal distances and their all-pairs aggregates,
the PageRank family, and the engine's parent-slot tracking mode (which must
yield *a* valid shortest-path tree over the oracle's distances).
"""

from __future__ import annotations

import heapq
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import (
    aggregate_pagerank,
    evolving_pagerank,
    snapshot_pagerank,
)
from repro.algorithms.tang_distance import (
    average_temporal_distance,
    temporal_distance_tang,
    temporal_distances_tang_from,
    temporal_efficiency,
)
from repro.algorithms.temporal_paths import (
    earliest_arrival_time,
    earliest_arrival_times,
    fewest_spatial_hops,
    fewest_spatial_hops_from,
    latest_departure_time,
    latest_departure_times,
)
from repro.core.bfs import evolving_bfs
from repro.engine import FrontierKernel, LabelKernel, bitops, get_compiled, get_kernel
from repro.exceptions import GraphError
from repro.generators import random_temporal_edges
from repro.graph import AdjacencyListEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph

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


ALGO_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# temporal path notions                                                        #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(graphs_with_roots())
def test_earliest_arrival_times_equal_python(graph_root):
    graph, root = graph_root
    assert earliest_arrival_times(graph, root) == earliest_arrival_times(
        graph, root, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots(), node_labels)
def test_earliest_arrival_time_equals_python(graph_root, target):
    graph, root = graph_root
    assert earliest_arrival_time(graph, root, target) == earliest_arrival_time(
        graph, root, target, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_latest_departure_times_equal_python(graph_root):
    graph, target = graph_root
    assert latest_departure_times(graph, target) == latest_departure_times(
        graph, target, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots(), node_labels)
def test_latest_departure_time_equals_python(graph_root, source_node):
    graph, target = graph_root
    assert latest_departure_time(graph, source_node, target) == latest_departure_time(
        graph, source_node, target, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_fewest_spatial_hops_from_equals_python(graph_root):
    graph, root = graph_root
    assert fewest_spatial_hops_from(graph, root) == fewest_spatial_hops_from(
        graph, root, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_fewest_spatial_hops_point_query_equals_python(graph_root):
    graph, root = graph_root
    for target in graph.active_temporal_nodes()[:5]:
        assert fewest_spatial_hops(graph, root, target) == fewest_spatial_hops(
            graph, root, target, backend="python"
        )


def test_path_notions_inactive_endpoints():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1"), (1, 3, "t2")])
    assert earliest_arrival_times(graph, (3, "t1")) == {}
    assert fewest_spatial_hops_from(graph, (3, "t1")) == {}
    assert latest_departure_times(graph, (3, "t1")) == {}
    assert earliest_arrival_time(graph, (3, "t1"), 2) is None
    assert fewest_spatial_hops(graph, (3, "t1"), (3, "t2")) is None
    assert latest_departure_time(graph, 1, (3, "t1")) is None


def test_path_notions_unknown_backend_rejected():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    with pytest.raises(GraphError):
        earliest_arrival_times(graph, (1, "t1"), backend="julia")
    with pytest.raises(GraphError):
        fewest_spatial_hops_from(graph, (1, "t1"), backend="julia")
    with pytest.raises(GraphError):
        latest_departure_times(graph, (1, "t1"), backend="julia")


# --------------------------------------------------------------------------- #
# Tang temporal distances                                                      #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(evolving_graphs(), node_labels, st.sampled_from([1, 2, 10]))
def test_tang_all_targets_equal_python(graph, source, horizon):
    vectorized = temporal_distances_tang_from(graph, source, horizon=horizon)
    python = temporal_distances_tang_from(
        graph, source, horizon=horizon, backend="python"
    )
    assert vectorized == python


@ALGO_SETTINGS
@given(evolving_graphs(), node_labels, node_labels, time_labels)
def test_tang_point_query_equals_python(graph, source, target, start_time):
    assert temporal_distance_tang(
        graph, source, target, start_time=start_time
    ) == temporal_distance_tang(
        graph, source, target, start_time=start_time, backend="python"
    )


@ALGO_SETTINGS
@given(evolving_graphs(max_edges=12), st.sampled_from([1, 3]))
def test_tang_aggregates_equal_python(graph, horizon):
    avg_vec = average_temporal_distance(graph, horizon=horizon)
    avg_py = average_temporal_distance(graph, horizon=horizon, backend="python")
    assert avg_vec == pytest.approx(avg_py, nan_ok=True)
    eff_vec = temporal_efficiency(graph, horizon=horizon)
    eff_py = temporal_efficiency(graph, horizon=horizon, backend="python")
    assert eff_vec == pytest.approx(eff_py, nan_ok=True)


def test_tang_source_outside_graph():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    assert temporal_distances_tang_from(graph, 99) == {99: 0}
    assert temporal_distance_tang(graph, 99, 1) is None
    assert temporal_distance_tang(graph, 99, 99) == 0


# --------------------------------------------------------------------------- #
# PageRank family                                                              #
# --------------------------------------------------------------------------- #

def _assert_scores_close(vectorized, python):
    assert vectorized.keys() == python.keys()
    for key in python:
        assert vectorized[key] == pytest.approx(python[key], rel=1e-8, abs=1e-10)


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_snapshot_pagerank_equals_python(graph_root):
    graph, root = graph_root
    time = root[1]
    _assert_scores_close(
        snapshot_pagerank(graph, time),
        snapshot_pagerank(graph, time, backend="python"),
    )


@ALGO_SETTINGS
@given(evolving_graphs(max_edges=15), st.booleans())
def test_evolving_pagerank_equals_python(graph, warm_start):
    vectorized = evolving_pagerank(graph, warm_start=warm_start)
    python = evolving_pagerank(graph, warm_start=warm_start, backend="python")
    assert vectorized.keys() == python.keys()
    for t in python:
        _assert_scores_close(vectorized[t], python[t])


@ALGO_SETTINGS
@given(evolving_graphs(max_edges=15))
def test_aggregate_pagerank_equals_python(graph):
    _assert_scores_close(
        aggregate_pagerank(graph), aggregate_pagerank(graph, backend="python")
    )


def test_pagerank_unknown_backend_rejected():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    with pytest.raises(GraphError):
        snapshot_pagerank(graph, "t1", backend="julia")
    with pytest.raises(GraphError):
        aggregate_pagerank(graph, backend="julia")


# --------------------------------------------------------------------------- #
# engine parent-slot tracking                                                  #
# --------------------------------------------------------------------------- #

def _assert_valid_shortest_path_tree(graph, result, reference_reached,
                                     reverse_edges=False):
    """``result.parents`` must encode a valid shortest-path tree for the oracle
    distances; with ``reverse_edges`` every spatial hop runs against an edge."""
    assert result.reached == reference_reached
    for child, parent in result.parents.items():
        if child == parent:
            assert result.reached[child] == 0
            continue
        assert parent in result.reached
        assert result.reached[parent] == result.reached[child] - 1
        (cv, ct), (pv, pt) = child, parent
        if pt == ct:
            if reverse_edges:
                assert graph.has_edge(cv, pv, ct)
            else:
                assert graph.has_edge(pv, cv, ct)
        else:
            # causal hop: same node, strictly earlier active appearance
            assert pv == cv
            times = list(graph.timestamps)
            assert times.index(pt) < times.index(ct)
            assert graph.is_active(pv, pt) and graph.is_active(cv, ct)


def _flipped(graph):
    """The same evolving graph with every edge turned around: ``(v, u, t)``."""
    return AdjacencyListEvolvingGraph(
        [(v, u, t) for u, v, t in graph.temporal_edges()],
        timestamps=list(graph.timestamps),
        directed=graph.is_directed,
    )


@ALGO_SETTINGS
@given(graphs_with_roots(), st.booleans())
def test_engine_parent_pointers_form_shortest_path_tree(graph_root, reverse_edges):
    graph, root = graph_root
    # reverse_edges searches the same edges turned around
    searched = _flipped(graph) if reverse_edges else graph
    python = evolving_bfs(searched, root, track_parents=True, backend="python")
    engine = get_kernel(graph).bfs(
        root, reverse_edges=reverse_edges, track_parents=True
    )
    _assert_valid_shortest_path_tree(graph, engine, python.reached, reverse_edges)
    # every python-reachable target reconstructs a path of the same length
    for target in list(python.reached)[:10]:
        engine_path = engine.path_to(*target)
        python_path = python.path_to(*target)
        assert engine_path is not None
        assert len(engine_path) == len(python_path)
        assert engine_path[0] == root and engine_path[-1] == target


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_engine_parent_pointers_backward(graph_root):
    graph, root = graph_root
    from repro.core.backward import backward_bfs

    python = backward_bfs(graph, root, backend="python")
    engine = get_kernel(graph).bfs(root, direction="backward", track_parents=True)
    assert engine.reached == python.reached
    for child, parent in engine.parents.items():
        if child == parent:
            continue
        assert engine.reached[parent] == engine.reached[child] - 1


@ALGO_SETTINGS
@given(evolving_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_betweenness_backends_count_same_path_mass(graph, seed):
    """Both backends sample the same pairs and find paths of the same length
    for exactly the same pairs (the trees themselves may differ), so the
    total counted inner-node mass is backend independent."""
    vectorized = temporal_betweenness_sampled_both(graph, seed, "vectorized")
    python = temporal_betweenness_sampled_both(graph, seed, "python")
    assert sum(vectorized.values()) == pytest.approx(sum(python.values()))


def temporal_betweenness_sampled_both(graph, seed, backend):
    from repro.algorithms.centrality import temporal_betweenness_sampled

    return temporal_betweenness_sampled(
        graph, num_samples=20, seed=seed, backend=backend
    )


def test_betweenness_python_backend_matches_pre_port_behavior(medium_random_graph):
    """The python backend must reproduce the original implementation exactly."""
    from repro.algorithms.centrality import temporal_betweenness_sampled

    scores = temporal_betweenness_sampled(
        medium_random_graph, num_samples=50, seed=0, backend="python"
    )
    assert all(v >= 0 for v in scores.values())


# --------------------------------------------------------------------------- #
# the 0/1 semiring sweep itself                                                #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(graphs_with_roots())
def test_unit_unit_semiring_recovers_paper_distance(graph_root):
    """``(spatial_cost=1, causal_cost=1)`` is exactly the Definition-6 distance."""
    graph, root = graph_root
    kernel = get_kernel(graph)
    expected = evolving_bfs(graph, root, backend="python").reached
    slots = kernel._slots
    for chunk, labels in kernel.zero_one_labels([root], spatial_cost=1, causal_cost=1):
        decoded = {}
        t_arr, v_arr = np.nonzero(labels[:, :, 0] >= 0)
        for ti, vi in zip(t_arr.tolist(), v_arr.tolist()):
            decoded[(slots.labels[vi], slots.times[ti])] = int(labels[ti, vi, 0])
        assert decoded == expected


def test_zero_one_labels_validates_costs():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    kernel = get_kernel(graph)
    with pytest.raises(GraphError):
        list(kernel.zero_one_labels([(1, "t1")], spatial_cost=2))
    with pytest.raises(GraphError):
        list(kernel.zero_one_labels([(1, "t1")], causal_cost=-1))


def test_label_kernel_shares_compiled_artifact():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1"), (2, 3, "t2")])
    kernel = get_kernel(graph)
    labels = LabelKernel(kernel)
    assert labels.compiled is get_compiled(graph)
    assert labels.frontier is kernel


# --------------------------------------------------------------------------- #
# compiled-artifact pickling (the process-pool unit of work)                   #
# --------------------------------------------------------------------------- #

def test_compiled_graph_pickle_roundtrip(medium_random_graph):
    compiled = get_compiled(medium_random_graph)
    clone = pickle.loads(pickle.dumps(compiled))
    assert clone.node_labels == compiled.node_labels
    assert clone.times == compiled.times
    assert clone.mutation_version == compiled.mutation_version
    assert not clone.active_mask.flags.writeable
    np.testing.assert_array_equal(clone.active_mask, compiled.active_mask)
    root = medium_random_graph.active_temporal_nodes()[0]
    original = FrontierKernel(compiled).bfs(root).reached
    assert FrontierKernel(clone).bfs(root).reached == original
    # label sweeps work over the unpickled artifact too
    assert FrontierKernel(clone).earliest_arrivals([root]) == FrontierKernel(
        compiled
    ).earliest_arrivals([root])
    assert FrontierKernel(clone).tang_steps([root[0]]) == FrontierKernel(
        compiled
    ).tang_steps([root[0]])


def test_pickled_artifact_carries_its_operators_once():
    """After sweeps that built the twin, the dense layout, row runs and
    per-snapshot views, a pickle holds the forward stack's three buffers
    and the mask, nothing the engine derived: the unrequested twin, the
    views and the caches on the stack object stay behind."""
    graph = AdjacencyListEvolvingGraph(
        random_temporal_edges(60, 4, 900, seed=8), directed=True
    )
    compiled = CompiledTemporalGraph.from_graph(graph)
    kernel = FrontierKernel(compiled)
    roots = graph.active_temporal_nodes()[:20]
    with bitops.sweep_thresholds(0, 0):  # dense levels: the layout is built
        kernel.batch(roots)
    kernel.batch(roots)  # pushes: the twin
    kernel.tang_steps([roots[0][0]])  # per-snapshot views and their twins
    stack = compiled.stack()
    assert hasattr(stack, "_bitops_layout") and hasattr(stack, "_bitops_rows")
    assert compiled._backward is not None and not compiled.transposes_built
    payload = pickle.dumps(compiled)
    buffers = stack.data.nbytes + stack.indices.nbytes + stack.indptr.nbytes
    assert len(payload) < buffers + compiled.active_mask.nbytes + 4096
    clone = pickle.loads(payload)
    assert clone._backward is None and not clone._views
    assert not hasattr(clone.stack(), "_bitops_layout")
    assert not hasattr(clone.stack(), "_bitops_rows")
    expected = {r: res.reached for r, res in kernel.batch(roots).items()}
    got = {r: res.reached for r, res in FrontierKernel(clone).batch(roots).items()}
    assert got == expected


# --------------------------------------------------------------------------- #
# batched label sweeps vs the Python oracles                                   #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(evolving_graphs(), st.data())
def test_time_readouts_bit_identical_to_python(graph, data):
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    roots = data.draw(st.lists(st.sampled_from(active), min_size=1, max_size=4))
    kernel = FrontierKernel(graph)
    assert kernel.earliest_arrivals(roots) == {
        root: earliest_arrival_times(graph, root, backend="python") for root in roots
    }
    assert kernel.latest_departures(roots) == {
        root: latest_departure_times(graph, root, backend="python") for root in roots
    }
    assert kernel.fewest_hops(roots) == {
        root: fewest_spatial_hops_from(graph, root, backend="python")
        for root in roots
    }


def _zero_one_dijkstra(graph, source, spatial_cost, causal_cost):
    """The Python Dijkstra of ``fewest_spatial_hops_from`` with both edge
    families' costs pluggable (a causal hop keeps the node identity)."""
    best = {source: 0}
    heap = [(0, 0, source)]
    counter = 0
    while heap:
        cost, _, current = heapq.heappop(heap)
        if cost > best.get(current, float("inf")):
            continue
        v, t = current
        for nxt in graph.forward_neighbors(v, t):
            new_cost = cost + (causal_cost if nxt[0] == v else spatial_cost)
            if new_cost < best.get(nxt, float("inf")):
                best[nxt] = new_cost
                counter += 1
                heapq.heappush(heap, (new_cost, counter, nxt))
    return best


@ALGO_SETTINGS
@given(evolving_graphs(), st.data(),
       st.sampled_from([(1, 0), (0, 1), (1, 1), (0, 0)]))
def test_zero_one_labels_bit_identical_to_python_dijkstra(graph, data, costs):
    spatial_cost, causal_cost = costs
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    roots = data.draw(st.lists(st.sampled_from(active), min_size=1, max_size=4))
    kernel = FrontierKernel(graph)
    slots = kernel._slots
    seen = []
    for chunk, block in kernel.zero_one_labels(
        roots, spatial_cost=spatial_cost, causal_cost=causal_cost, chunk_size=3
    ):
        for col, root in enumerate(chunk):
            t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
            decoded = {
                (slots.labels[vi], slots.times[ti]): int(block[ti, vi, col])
                for ti, vi in zip(t_arr.tolist(), v_arr.tolist())
            }
            assert decoded == _zero_one_dijkstra(
                graph, root, spatial_cost, causal_cost
            )
            seen.append(root)
    assert seen == roots


@ALGO_SETTINGS
@given(evolving_graphs(), st.data(), st.integers(min_value=1, max_value=3))
def test_tang_steps_bit_identical_to_python(graph, data, horizon):
    nodes = sorted(graph.nodes()) or [0]
    sources = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
    sources.append("never-a-node")  # inactive/missing sources skip seeding
    start_index = data.draw(
        st.integers(min_value=0, max_value=max(0, graph.num_timestamps - 1)))
    start_time = list(graph.timestamps)[start_index]
    steps = get_kernel(graph).tang_steps(
        sources, horizon=horizon, start_index=start_index
    )
    for source in sources:
        # a source outside the compiled universe still informs itself
        steps[source].setdefault(source, 0)
        assert steps[source] == temporal_distances_tang_from(
            graph, source, start_time=start_time, horizon=horizon,
            backend="python",
        )


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


@pytest.mark.parametrize("width", WIDE_CHUNKS)
def test_wide_chunk_zero_one_labels_match_dijkstra(width):
    """Every cost pair over one chunk of ``width`` roots."""
    graph = _small_random_graph(width, directed=width % 2 == 0)
    active = graph.active_temporal_nodes()
    picks = np.random.default_rng(width).integers(len(active), size=width)
    roots = [active[i] for i in picks.tolist()]
    kernel = FrontierKernel(graph)
    slots = kernel._slots
    for spatial_cost, causal_cost in ((1, 0), (0, 1), (1, 1), (0, 0)):
        ((chunk, block),) = kernel.zero_one_labels(
            roots, spatial_cost=spatial_cost, causal_cost=causal_cost,
            chunk_size=width,
        )
        assert block.shape[2] == width
        for col, root in enumerate(chunk):
            t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
            decoded = {
                (slots.labels[vi], slots.times[ti]): int(block[ti, vi, col])
                for ti, vi in zip(t_arr.tolist(), v_arr.tolist())
            }
            assert decoded == _zero_one_dijkstra(
                graph, root, spatial_cost, causal_cost
            )


@pytest.mark.parametrize("width", WIDE_CHUNKS)
def test_wide_chunk_tang_steps_match_python(width):
    graph = _small_random_graph(width + 7, directed=width % 2 == 1)
    nodes = sorted(graph.nodes())
    picks = np.random.default_rng(width).integers(len(nodes), size=width - 1)
    sources = [nodes[i] for i in picks.tolist()] + ["never-a-node"]
    kernel = get_kernel(graph)
    for horizon, start_index in ((1, 0), (2, 1)):
        start_time = list(graph.timestamps)[start_index]
        steps = kernel.tang_steps(
            sources, horizon=horizon, start_index=start_index, chunk_size=width
        )
        for source in sources:
            steps[source].setdefault(source, 0)
            assert steps[source] == temporal_distances_tang_from(
                graph, source, start_time=start_time, horizon=horizon,
                backend="python",
            )
