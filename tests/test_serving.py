"""The serving layer: equivalence, coalescing, caching, and concurrency.

Four contracts, per ISSUE 6:

* **equivalence** — every served result is bit-identical to calling the
  documented direct function on the same graph, for every query family,
  including across interleaved mutation batches (hypothesis-driven);
* **coalescing** — a micro-batch of same-shape queries executes as *one*
  ``(T, N, R)`` sweep, asserted both on the server's op-stats and on the
  frontier kernel's flop counter;
* **caching** — the LRU respects its bound, entries are invalidated exactly
  when ``mutation_version`` moves (and *only* then), and repeats are served
  without kernel work;
* **concurrency** — many reader threads and a mutating writer make progress
  together without deadlock, corruption, or stale answers after quiescing.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dynamic_walks import broadcast_centrality, receive_centrality
from repro.algorithms.queries import (
    BFSQuery,
    BroadcastCentralityQuery,
    EarliestArrivalQuery,
    FewestHopsQuery,
    LatestDepartureQuery,
    ReachabilityQuery,
    ReceiveCentralityQuery,
    TangDistanceQuery,
    TopKReachQuery,
    describe,
    rank_top_k,
)
from repro.algorithms.tang_distance import temporal_distances_tang_from
from repro.algorithms.temporal_paths import (
    earliest_arrival_times,
    fewest_spatial_hops_from,
    latest_departure_times,
)
from repro.core.bfs import evolving_bfs
from repro.engine import get_compiled, get_kernel
from repro.engine.frontier import FrontierKernel
from repro.exceptions import GraphError, InactiveNodeError, ServingError
from repro.generators import random_evolving_graph
from repro.graph import AdjacencyListEvolvingGraph
from repro.linalg import OperationCounter
from repro.serving import QueryServer, decode_warm_block
from repro.serving import server as server_module

# --------------------------------------------------------------------------- #
# strategies                                                                   #
# --------------------------------------------------------------------------- #

node_labels = st.integers(min_value=0, max_value=9)
time_labels = st.integers(min_value=0, max_value=4)

edge_strategy = st.tuples(node_labels, node_labels, time_labels).filter(
    lambda e: e[0] != e[1]
)


@st.composite
def served_graphs(draw):
    """A small evolving graph plus interleaved mutation batches."""
    edges = draw(st.lists(edge_strategy, min_size=3, max_size=20))
    directed = draw(st.booleans())
    graph = AdjacencyListEvolvingGraph(edges, directed=directed)
    if not graph.active_temporal_nodes():
        graph.add_edge(0, 1, 0)
    batches = draw(
        st.lists(
            st.lists(edge_strategy, min_size=1, max_size=5), min_size=0, max_size=2
        )
    )
    return graph, batches


@st.composite
def signed_served_graphs(draw):
    """A small evolving graph plus signed ``(insertions, removals)`` batches.

    Removals are drawn from the graph's edges, so they can deactivate a
    root; insertions may use node labels 10-12, outside the graph's
    universe, and timestamps it does not have yet.
    """
    graph, _ = draw(served_graphs())
    existing = sorted(graph.temporal_edges_unordered())
    new_labels = st.integers(min_value=0, max_value=12)
    insertions = st.tuples(new_labels, new_labels, time_labels).filter(
        lambda e: e[0] != e[1]
    )
    batches = draw(
        st.lists(
            st.tuples(
                st.lists(insertions, max_size=4),
                st.lists(st.sampled_from(existing), max_size=4, unique=True),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return graph, batches


def _direct_answers(graph, queries):
    """The direct-function oracle for a query list, on the graph as-is.

    The frontier family runs the pure-Python searches, so the oracle shares
    no decode with the served path.
    """
    answers = []
    for query in queries:
        if isinstance(query, BFSQuery):
            answers.append(evolving_bfs(graph, query.root, backend="python").reached)
        elif isinstance(query, ReachabilityQuery):
            result = evolving_bfs(graph, query.root, backend="python")
            answers.append(result.distance(*query.target))
        elif isinstance(query, EarliestArrivalQuery):
            answers.append(
                earliest_arrival_times(graph, query.source, backend="python")
            )
        elif isinstance(query, LatestDepartureQuery):
            answers.append(
                latest_departure_times(graph, query.target, backend="python")
            )
        elif isinstance(query, FewestHopsQuery):
            answers.append(fewest_spatial_hops_from(graph, query.source))
        elif isinstance(query, TangDistanceQuery):
            answers.append(
                temporal_distances_tang_from(
                    graph,
                    query.source_node,
                    start_time=query.start_time,
                    horizon=query.horizon,
                )
            )
        elif isinstance(query, TopKReachQuery):
            roots = graph.active_temporal_nodes()
            counts = (
                get_kernel(graph).identity_reach_counts(
                    roots, direction=query.direction
                )
                if roots
                else {}
            )
            answers.append(rank_top_k(counts, query.k))
        elif isinstance(query, BroadcastCentralityQuery):
            answers.append(broadcast_centrality(graph, query.alpha))
        elif isinstance(query, ReceiveCentralityQuery):
            answers.append(receive_centrality(graph, query.alpha))
        else:  # pragma: no cover - defensive
            raise AssertionError(f"no oracle for {type(query).__name__}")
    return answers


def _query_mix(graph):
    """One query of every family over the graph's first few active roots."""
    active = graph.active_temporal_nodes()
    roots = active[:3]
    queries = []
    for root in roots:
        queries.append(BFSQuery(root=root))
        queries.append(EarliestArrivalQuery(source=root))
        queries.append(LatestDepartureQuery(target=root))
        queries.append(FewestHopsQuery(source=root))
        queries.append(ReachabilityQuery(root=root, target=active[-1]))
        queries.append(TangDistanceQuery(source_node=root[0]))
    queries.append(TopKReachQuery(k=3))
    queries.append(BroadcastCentralityQuery(alpha=0.01))
    queries.append(ReceiveCentralityQuery(alpha=0.01))
    return queries


# --------------------------------------------------------------------------- #
# equivalence (hypothesis)                                                     #
# --------------------------------------------------------------------------- #


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(served_graphs())
def test_served_results_bit_identical_across_mutations(case):
    """Every family's served result equals its direct call, at every version."""
    graph, batches = case
    with QueryServer(graph, window_s=0.005) as server:
        for phase in range(len(batches) + 1):
            queries = _query_mix(graph)
            served = server.query_many(queries)
            direct = _direct_answers(graph, queries)
            for query, got, want in zip(queries, served, direct):
                assert got == want, describe(query)
            # repeats are pure cache hits and still identical
            again = server.query_many(queries)
            assert again == served
            if phase < len(batches):
                version = server.mutate(batches[phase]).result(timeout=30)
                assert version == graph.mutation_version


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(served_graphs())
def test_serving_stats_account_every_query(case):
    graph, _ = case
    queries = _query_mix(graph)
    with QueryServer(graph, window_s=0.005) as server:
        server.query_many(queries)
        server.join()
        stats = server.stats.snapshot()
    assert stats["submitted"] == len(queries)
    assert stats["served"] + stats["failed"] == len(queries)
    assert stats["cache_hits"] + stats["cache_misses"] + stats["inflight_joins"] == len(
        queries
    )


def test_inactive_roots_mirror_direct_semantics():
    """BFS/reachability raise; the readout families answer with empty dicts."""
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=True)
    inactive = (99, 0)
    with QueryServer(graph, window_s=0.0) as server:
        with pytest.raises(InactiveNodeError):
            server.query(BFSQuery(root=inactive))
        with pytest.raises(InactiveNodeError):
            server.query(ReachabilityQuery(root=inactive, target=(1, 0)))
        assert server.query(EarliestArrivalQuery(source=inactive)) == {}
        assert server.query(LatestDepartureQuery(target=inactive)) == {}
        assert server.query(FewestHopsQuery(source=inactive)) == {}
        # Tang: an unknown source still informs itself (the function's answer)
        assert server.query(TangDistanceQuery(source_node=99)) == {99: 0}
        assert server.query(TangDistanceQuery(source_node=0, start_time=77)) == {}


def test_descriptor_validation():
    with pytest.raises(GraphError):
        BFSQuery(root=(0, 0), direction="sideways")
    with pytest.raises(GraphError):
        TopKReachQuery(k=0)
    with pytest.raises(GraphError):
        TangDistanceQuery(source_node=0, horizon=0)
    with pytest.raises(GraphError):
        BFSQuery(root=7)  # not a (node, time) pair
    assert describe(BFSQuery(root=(0, 0))).startswith("BFSQuery")


# --------------------------------------------------------------------------- #
# coalescing                                                                   #
# --------------------------------------------------------------------------- #


def test_micro_batch_coalesces_into_one_sweep():
    """K same-shape queries in one window: one sweep, K columns — and the
    flop counter matches a single batched kernel run, not K single runs."""
    graph = random_evolving_graph(60, 6, 300, seed=11)
    roots = graph.active_temporal_nodes()[:8]
    get_compiled(graph)  # warm the artifact so the window isn't spent compiling

    served_counter = OperationCounter()
    get_kernel(graph).counter = served_counter
    try:
        with QueryServer(graph, window_s=0.5, max_batch=64) as server:
            futures = [server.submit(BFSQuery(root=r)) for r in roots]
            results = [f.result(timeout=30) for f in futures]
            stats = server.stats.snapshot()
    finally:
        get_kernel(graph).counter = None

    assert stats["micro_batches"] == 1
    assert stats["sweeps"] == 1
    assert stats["sweep_columns"] == len(roots)
    assert stats["coalesced_queries"] == len(roots)

    # flop-identical to one batched (T, N, R) sweep over the same roots
    batched_counter = OperationCounter()
    reference = FrontierKernel(get_compiled(graph), counter=batched_counter)
    for _ in reference.distance_blocks(roots, chunk_size=128):
        pass
    assert served_counter.multiply_adds == batched_counter.multiply_adds
    assert served_counter.column_checks == batched_counter.column_checks

    for root, result in zip(roots, results):
        assert result == evolving_bfs(graph, root, backend="python").reached


def test_cross_family_queries_share_the_forward_sweep():
    """BFS + earliest-arrival + reachability from one root: one column, one sweep."""
    graph = random_evolving_graph(40, 5, 150, seed=3)
    root = graph.active_temporal_nodes()[0]
    target = graph.active_temporal_nodes()[-1]
    get_compiled(graph)
    with QueryServer(graph, window_s=0.5) as server:
        futures = [
            server.submit(BFSQuery(root=root)),
            server.submit(EarliestArrivalQuery(source=root)),
            server.submit(ReachabilityQuery(root=root, target=target)),
        ]
        [f.result(timeout=30) for f in futures]
        stats = server.stats.snapshot()
    assert stats["sweeps"] == 1
    assert stats["sweep_columns"] == 1  # all three decoded one shared column
    assert stats["coalesced_queries"] == 3


def test_identical_inflight_queries_join_one_computation():
    graph = random_evolving_graph(40, 5, 150, seed=5)
    root = graph.active_temporal_nodes()[0]
    get_compiled(graph)
    with QueryServer(graph, window_s=0.5) as server:
        futures = [server.submit(BFSQuery(root=root)) for _ in range(5)]
        results = [f.result(timeout=30) for f in futures]
        stats = server.stats.snapshot()
    assert stats["cache_misses"] == 1
    assert stats["inflight_joins"] == 4
    assert stats["sweep_columns"] == 1
    assert all(r == results[0] for r in results)


# --------------------------------------------------------------------------- #
# cache behaviour                                                              #
# --------------------------------------------------------------------------- #


def test_lru_bound_respected():
    graph = random_evolving_graph(40, 5, 150, seed=9)
    roots = graph.active_temporal_nodes()[:10]
    with QueryServer(graph, window_s=0.0, cache_entries=4) as server:
        for root in roots:
            server.query(BFSQuery(root=root))
        assert server.cache_size <= 4
        # the most recent entry is resident; an evicted one is recomputed
        server.query(BFSQuery(root=roots[-1]))
        stats = server.stats.snapshot()
        assert stats["cache_hits"] >= 1
        server.query(BFSQuery(root=roots[0]))
        assert server.stats.snapshot()["cache_misses"] >= len(roots) + 1


def test_invalidation_exactly_on_version_move():
    graph = random_evolving_graph(30, 4, 100, seed=13)
    root = graph.active_temporal_nodes()[0]
    times = list(graph.timestamps)
    existing = next(iter(graph.temporal_edges_unordered()))
    with QueryServer(graph, window_s=0.0) as server:
        first = server.query(BFSQuery(root=root))
        assert server.query(BFSQuery(root=root)) == first
        assert server.stats.cache_hits == 1

        # a no-op batch (duplicate edge) does NOT move mutation_version:
        # nothing may be invalidated and the cache keeps hitting
        version = graph.mutation_version
        assert server.mutate([existing]).result(timeout=30) == version
        assert server.stats.entries_invalidated == 0
        server.query(BFSQuery(root=root))
        assert server.stats.cache_hits == 2

        # a real insertion moves the version: the entry is pruned, so the
        # next query misses and serves the new graph's answer, never the
        # old version's
        fresh = (root[0], -1, times[0])  # -1 is outside the generator's universe
        new_version = server.mutate([fresh]).result(timeout=30)
        assert new_version > version
        assert server.stats.entries_invalidated == 1
        assert server.stats.entries_patched == 0
        assert server.cache_size == 0
        misses = server.stats.cache_misses
        recomputed = server.query(BFSQuery(root=root))
        assert recomputed == evolving_bfs(graph, root, backend="python").reached
        assert (-1, times[0]) in recomputed
        assert recomputed != first
        assert server.stats.cache_misses == misses + 1
        assert server.stats.cache_hits == 2


def test_mutation_future_resolves_to_new_version_and_uses_delta_path():
    graph = random_evolving_graph(50, 6, 200, seed=17)
    root = graph.active_temporal_nodes()[0]
    times = list(graph.timestamps)
    with QueryServer(graph, window_s=0.0) as server:
        server.query(BFSQuery(root=root))
        batch = [(root[0], -2, times[1]), (-2, -3, times[2])]
        version = server.mutate(batch).result(timeout=30)
        assert version == graph.mutation_version
        stats = get_compiled(graph).delta_stats
        # the artifact was refreshed by the writer, not rebuilt per query
        assert stats is None or stats["rebuilt"] <= len(times)
        assert server.query(BFSQuery(root=root)) == evolving_bfs(
            graph, root, backend="python"
        ).reached


# --------------------------------------------------------------------------- #
# concurrency                                                                  #
# --------------------------------------------------------------------------- #


def _client(server, queries, out, idx):
    try:
        out[idx] = server.query_many(queries, timeout=120.0)
    except Exception as exc:  # pragma: no cover - surfaced by the assert below
        out[idx] = exc


def test_concurrent_readers_and_writer_stress():
    """8 reader threads + interleaved mutation batches: no deadlock, no
    corruption, and post-quiesce answers equal the direct functions."""
    graph = random_evolving_graph(60, 6, 250, seed=23)
    roots = graph.active_temporal_nodes()[:12]
    times = list(graph.timestamps)
    batches = [
        [(roots[i % len(roots)][0], 1000 + 3 * i + j, times[i % len(times)])
         for j in range(3)]
        for i in range(4)
    ]
    with QueryServer(graph, window_s=0.002) as server:
        per_thread = [
            [BFSQuery(root=roots[(i + j) % len(roots)]) for j in range(15)]
            + [EarliestArrivalQuery(source=roots[i % len(roots)])]
            for i in range(8)
        ]
        out = [None] * 8
        threads = [
            threading.Thread(target=_client, args=(server, per_thread[i], out, i))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        mutation_futures = [server.mutate(batch) for batch in batches]
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive(), "reader thread deadlocked"
        for future in mutation_futures:
            future.result(timeout=30)
        for result in out:
            assert not isinstance(result, Exception), result
            assert all(isinstance(r, Mapping) for r in result)
        server.join()
        # quiesced: every answer now equals the direct call on the final graph
        for root in roots:
            assert server.query(BFSQuery(root=root)) == evolving_bfs(
                graph, root, backend="python"
            ).reached
        assert server.stats.mutations == len(batches)


def test_readers_share_a_cached_answer_while_the_writer_prunes():
    """8 threads read one cached, not yet decoded BFS answer at once (the
    first read decodes it, without a lock) while a mutation prunes it from
    the cache; iteration, ``len`` and ``dict(...)`` all equal the oracle."""
    graph = random_evolving_graph(60, 6, 250, seed=41)
    root = graph.active_temporal_nodes()[0]
    times = list(graph.timestamps)
    with QueryServer(graph, window_s=0.0) as server:
        for step in range(4):
            answer = server.query(BFSQuery(root=root))
            oracle = evolving_bfs(graph, root, backend="python").reached
            compiled = get_compiled(graph)
            order = sorted(
                oracle,
                key=lambda k: (compiled.time_index[k[1]], compiled.node_index[k[0]]),
            )
            barrier = threading.Barrier(9)
            failures = []

            def read():
                barrier.wait()
                try:
                    for _ in range(3):
                        assert list(answer) == order
                        assert len(answer) == len(oracle)
                        assert dict(answer) == oracle
                except BaseException as exc:  # surfaced by the assert below
                    failures.append(exc)

            readers = [threading.Thread(target=read) for _ in range(8)]
            for reader in readers:
                reader.start()
            barrier.wait()
            batch = [(root[0], 2000 + step, times[step % len(times)])]
            mutation = server.mutate(batch)
            for reader in readers:
                reader.join(timeout=60)
                assert not reader.is_alive()
            mutation.result(timeout=30)
            assert not failures, failures[0]
        assert server.stats_snapshot()["entries_invalidated"] == 4


def test_server_close_and_reject_after_close():
    graph = random_evolving_graph(20, 4, 60, seed=29)
    root = graph.active_temporal_nodes()[0]
    server = QueryServer(graph, window_s=0.0)
    future = server.submit(BFSQuery(root=root))
    server.close()
    assert future.result(timeout=5) == evolving_bfs(
        graph, root, backend="python"
    ).reached
    with pytest.raises(GraphError):
        server.submit(BFSQuery(root=root))
    with pytest.raises(GraphError):
        server.mutate([(0, 1, graph.timestamps[0])])


def test_server_parameter_validation():
    graph = random_evolving_graph(10, 3, 20, seed=31)
    with pytest.raises(GraphError):
        QueryServer(graph, window_s=-1.0)
    with pytest.raises(GraphError):
        QueryServer(graph, max_batch=0)
    with pytest.raises(GraphError):
        QueryServer(graph, cache_entries=0)
    with pytest.raises(GraphError):
        QueryServer(graph, chunk_size=0)
    with QueryServer(graph) as server:
        with pytest.raises(GraphError):
            server.submit("not a query")


# --------------------------------------------------------------------------- #
# pruning on mutation                                                          #
# --------------------------------------------------------------------------- #


def _ring_graph() -> AdjacencyListEvolvingGraph:
    """A directed ring over nodes 0..9 at times 0..2 with room for in-universe
    insertions (chords between existing nodes at existing timestamps)."""
    edges = [(i, (i + 1) % 10, t) for i in range(10) for t in (0, 1, 2)]
    return AdjacencyListEvolvingGraph(edges, directed=True)


def test_mutation_runs_no_sweep(monkeypatch):
    """A mutation prunes the cache and sweeps nothing: no kernel distance
    sweep and no group execution run while the writer applies the batch."""
    graph = _ring_graph()
    queries = [
        BFSQuery(root=(0, 0)),
        EarliestArrivalQuery(source=(3, 1)),
        ReachabilityQuery(root=(0, 0), target=(5, 2)),
    ]
    calls = {"distance_blocks": 0, "execute_group": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with QueryServer(graph, window_s=0.002) as server:
        server.query_many(queries)
        server.join()
        assert server.cache_size == len(queries)
        monkeypatch.setattr(
            FrontierKernel,
            "distance_blocks",
            counted("distance_blocks", FrontierKernel.distance_blocks),
        )
        monkeypatch.setattr(
            server_module,
            "execute_group",
            counted("execute_group", server_module.execute_group),
        )
        server.mutate([(0, 5, 1)], removals=[(3, 4, 1)]).result(timeout=30)
        assert calls == {"distance_blocks": 0, "execute_group": 0}
        assert server.cache_size == 0
        stats = server.stats_snapshot()
        assert stats["entries_invalidated"] == len(queries)
        assert stats["entries_patched"] == 0
        # the pruned queries miss and are recomputed through the counted
        # path, so the zero counts above were live
        for query, want in zip(queries, _direct_answers(graph, queries)):
            assert server.query(query) == want, describe(query)
        assert calls["distance_blocks"] >= 1 and calls["execute_group"] >= 1


def test_decode_warm_block_equals_the_served_answer():
    """The one-column decode reads a root's column like the served path."""
    graph = _ring_graph()
    kernel = get_kernel(graph)
    queries = [
        BFSQuery(root=(0, 0)),
        EarliestArrivalQuery(source=(0, 0)),
        ReachabilityQuery(root=(0, 0), target=(5, 2)),
    ]
    [(_, dist)] = kernel.distance_blocks([(0, 0)])
    with QueryServer(graph, window_s=0.0) as server:
        for query in queries:
            got = decode_warm_block(kernel, query, dist[:, :, 0])
            assert got == server.query(query), describe(query)


def test_root_deactivating_removal_prunes():
    # node 2 touches exactly one edge at time 0 but stays in the universe
    # through its time-1 edge, so removing (1, 2, 0) deactivates the root
    # slot without changing the artifact axes
    graph = AdjacencyListEvolvingGraph(
        [(0, 1, 0), (1, 2, 0), (2, 0, 1), (0, 1, 1)], directed=True
    )
    with QueryServer(graph, window_s=0.002) as server:
        root = (2, 0)
        assert graph.is_active(*root)
        server.query(BFSQuery(root=root))
        server.mutate([], removals=[(1, 2, 0)]).result(timeout=30)
        server.join()
        stats = server.stats.snapshot()
        assert stats["entries_patched"] == 0
        assert stats["entries_invalidated"] == 1
        assert not graph.is_active(*root)
        # the pruned answer is recomputed, so it raises like the direct call
        with pytest.raises(InactiveNodeError):
            server.query(BFSQuery(root=root))


@pytest.mark.parametrize(
    "insertions, removals",
    [
        ([(0, 5, 1)], [(1, 2, 0), (0, 1, 99)]),
        ([(0, 5, 1)], [(1, 2, 0), ([9], 3, 1)]),
        ([(0, 5, 1), (0, 1, "x")], [(1, 2, 0)]),
    ],
    ids=["unregistered", "unhashable", "unorderable"],
)
def test_failed_mutation_applies_nothing(insertions, removals):
    graph = _ring_graph()
    query = BFSQuery(root=(0, 0))
    want = evolving_bfs(graph, (0, 0), backend="python").reached
    edges = set(graph.temporal_edges_unordered())
    version = graph.mutation_version
    with QueryServer(graph, window_s=0.002) as server:
        assert server.query(query) == want
        future = server.mutate(insertions, removals=removals)
        with pytest.raises(GraphError):
            future.result(timeout=30)
        assert set(graph.temporal_edges_unordered()) == edges
        assert graph.mutation_version == version
        assert server.query(query) == want
        assert server.stats.snapshot()["mutations"] == 0


def _assert_served(server, graph, queries):
    """Every query, submitted at once, equals the oracle or raises like it.

    Returns the queries that were answered, hence cached.
    """
    futures = [server.submit(query) for query in queries]
    answered = []
    for query, future in zip(queries, futures):
        try:
            want = _direct_answers(graph, [query])[0]
        except InactiveNodeError:
            with pytest.raises(InactiveNodeError):
                future.result(timeout=30)
        else:
            assert future.result(timeout=30) == want, describe(query)
            answered.append(query)
    return answered


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(signed_served_graphs())
def test_mutation_prunes_every_entry_across_signed_batches(case):
    """Removals (some deactivating a root) and insertions outside the universe:
    a version-moving batch prunes every cached entry, a batch of no-ops
    prunes nothing, and every re-served answer equals the Python oracle."""
    graph, batches = case
    roots = graph.active_temporal_nodes()[:4]
    queries = [BFSQuery(root=r) for r in roots] + [
        EarliestArrivalQuery(source=roots[0]),
        ReachabilityQuery(root=roots[-1], target=roots[0]),
    ]
    with QueryServer(graph, window_s=0.005) as server:
        cached = _assert_served(server, graph, queries)
        for insertions, removals in batches:
            server.join()
            size = server.cache_size
            assert size == len(cached)
            before = server.stats_snapshot()
            version = graph.mutation_version
            server.mutate(insertions, removals=removals).result(timeout=30)
            server.join()
            after = server.stats_snapshot()
            pruned = after["entries_invalidated"] - before["entries_invalidated"]
            assert after["entries_patched"] == 0
            if graph.mutation_version == version:
                assert pruned == 0
                assert server.cache_size == size
            else:
                assert pruned == size
                assert server.cache_size == 0
            cached = _assert_served(server, graph, queries)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(served_graphs())
def test_repeat_queries_bit_identical_after_each_batch(case):
    """Across arbitrary insertion batches every re-served answer, recomputed
    after the prune, equals the direct function on the mutated graph."""
    graph, batches = case
    roots = graph.active_temporal_nodes()[:4]
    queries = [BFSQuery(root=r) for r in roots] + [
        EarliestArrivalQuery(source=roots[0]),
        ReachabilityQuery(root=roots[0], target=roots[-1]),
    ]
    with QueryServer(graph, window_s=0.005) as server:
        server.query_many(queries)
        for batch in batches:
            server.mutate(batch).result(timeout=30)
            server.join()
            served = server.query_many(queries)
            for query, got, want in zip(
                queries, served, _direct_answers(graph, queries)
            ):
                assert got == want, describe(query)


# --------------------------------------------------------------------------- #
# dispatcher failure                                                           #
# --------------------------------------------------------------------------- #


def _gate_execute_group(monkeypatch):
    """Hold the dispatcher inside its first group sweep until released."""
    entered, release = threading.Event(), threading.Event()
    real = server_module.execute_group

    def gated(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=10)
        return real(*args, **kwargs)

    monkeypatch.setattr(server_module, "execute_group", gated)
    return entered, release


def _assert_broken(server, futures, injected):
    """Every future fails with ``injected`` as cause; new work raises; close returns."""
    for future in futures:
        error = future.exception(timeout=5)
        assert isinstance(error, ServingError)
        assert error.__cause__ is injected
    with pytest.raises(ServingError):
        server.submit(BFSQuery(root=(0, 0)))
    with pytest.raises(ServingError):
        server.mutate([(0, 7, 2)])
    server.join(timeout=5)
    server.close(timeout=5)
    assert not server._dispatcher.is_alive()


def test_dispatcher_failure_in_scatter_fails_every_waiting_future(monkeypatch):
    """An exception outside the per-group handler (here: the cache insert)
    fails the ticket in hand, its in-flight joiner, the pending ticket and
    the queued mutation, instead of killing the dispatcher silently."""
    graph = _ring_graph()
    entered, release = _gate_execute_group(monkeypatch)
    injected = RuntimeError("injected cache failure")
    server = QueryServer(graph, window_s=0.0)

    def put(*args, **kwargs):
        raise injected

    monkeypatch.setattr(server._cache, "put", put)
    first = server.submit(BFSQuery(root=(0, 0)))
    assert entered.wait(timeout=5)
    futures = [
        first,
        server.submit(BFSQuery(root=(0, 0))),  # joins the computation in hand
        server.submit(BFSQuery(root=(3, 1))),  # waits in the queue
        server.mutate([(0, 5, 1)]),
    ]
    release.set()
    _assert_broken(server, futures, injected)
    assert server.stats_snapshot()["failed"] == 3


def test_dispatcher_failure_in_mutation_fails_every_waiting_future(monkeypatch):
    """``_apply_mutation`` prunes the cache outside its ``try``: a failure
    there fails both drained mutations and the drained query."""
    graph = _ring_graph()
    want = evolving_bfs(graph, (0, 0), backend="python").reached
    entered, release = _gate_execute_group(monkeypatch)
    injected = RuntimeError("injected prune failure")
    server = QueryServer(graph, window_s=0.0)

    def prune_stale(version):
        raise injected

    monkeypatch.setattr(server._cache, "prune_stale", prune_stale)
    answered = server.submit(BFSQuery(root=(0, 0)))
    assert entered.wait(timeout=5)
    futures = [
        server.mutate([(0, 5, 1)]),
        server.mutate([(0, 6, 1)]),
        server.submit(BFSQuery(root=(3, 1))),
    ]
    release.set()
    assert answered.result(timeout=5) == want
    _assert_broken(server, futures, injected)


def test_dispatcher_failure_wakes_blocked_submitters(monkeypatch):
    """A submitter parked by ``admission="block"`` raises instead of waiting
    on a queue that a dead dispatcher will never drain."""
    graph = _ring_graph()
    entered, release = _gate_execute_group(monkeypatch)
    injected = RuntimeError("injected cache failure")
    server = QueryServer(graph, window_s=0.0, max_pending=1, admission="block")

    def put(*args, **kwargs):
        raise injected

    monkeypatch.setattr(server._cache, "put", put)
    futures = [server.submit(BFSQuery(root=(0, 0)))]
    assert entered.wait(timeout=5)
    futures.append(server.submit(BFSQuery(root=(1, 0))))  # fills the queue
    raised = []

    def parked():
        with pytest.raises(ServingError) as info:
            server.submit(BFSQuery(root=(2, 0)))
        raised.append(info.value)

    submitter = threading.Thread(target=parked, daemon=True)
    submitter.start()
    release.set()
    submitter.join(timeout=5)
    assert not submitter.is_alive()
    assert raised and raised[0].__cause__ is injected
    _assert_broken(server, futures, injected)


# --------------------------------------------------------------------------- #
# client cancellation                                                          #
# --------------------------------------------------------------------------- #


def _oracle(graph, root):
    return evolving_bfs(graph, root, backend="python").reached


def _assert_accounted(server):
    stats = server.stats_snapshot()
    assert stats["served"] + stats["failed"] + stats["cancelled"] == (
        stats["submitted"] - stats["rejected"]
    )
    return stats


def test_cancelled_queued_queries_never_sweep(monkeypatch):
    """A query cancelled while queued spends no sweep column: not at the
    drain, and not when a newcomer sheds it (the shedding submit must not
    raise); the server keeps serving."""
    graph = _ring_graph()
    entered, release = _gate_execute_group(monkeypatch)
    server = QueryServer(graph, window_s=0.0, max_pending=1, admission="shed-oldest")
    blocker = server.submit(BFSQuery(root=(0, 0)))
    assert entered.wait(timeout=5)
    victim = server.submit(BFSQuery(root=(1, 0)))
    assert victim.cancel()
    drained = server.submit(BFSQuery(root=(2, 0)))  # sheds the cancelled query
    assert drained.cancel()
    release.set()
    assert blocker.result(timeout=5) == _oracle(graph, (0, 0))
    server.join(timeout=5)
    stats = _assert_accounted(server)
    assert stats["sweep_columns"] == 1
    assert stats["cancelled"] == 2 and stats["shed"] == 0 and stats["failed"] == 0
    assert server.query(BFSQuery(root=(2, 0)), timeout=5) == _oracle(graph, (2, 0))
    server.close(timeout=5)


def test_cancelled_joiners_leave_the_other_waiters_answered(monkeypatch):
    """A late in-flight joiner and a queued query's own future are cancelled;
    the sweep in hand and the queued query's other joiner are still answered."""
    graph = _ring_graph()
    entered, release = _gate_execute_group(monkeypatch)
    server = QueryServer(graph, window_s=0.0)
    blocker = server.submit(BFSQuery(root=(0, 0)))
    assert entered.wait(timeout=5)
    late = server.submit(BFSQuery(root=(0, 0)))  # joins the sweep in hand
    owner = server.submit(BFSQuery(root=(3, 1)))
    joiner = server.submit(BFSQuery(root=(3, 1)))  # joins the queued query
    assert late.cancel() and owner.cancel()
    release.set()
    assert blocker.result(timeout=5) == _oracle(graph, (0, 0))
    assert joiner.result(timeout=5) == _oracle(graph, (3, 1))
    assert late.cancelled() and owner.cancelled()
    server.join(timeout=5)
    stats = _assert_accounted(server)
    assert stats["cancelled"] == 2 and stats["failed"] == 0
    assert server.query(BFSQuery(root=(5, 2)), timeout=5) == _oracle(graph, (5, 2))
    server.close(timeout=5)


def test_cancelled_pending_mutation_is_never_applied(monkeypatch):
    """A mutation cancelled before the writer takes it leaves the graph as it
    was; the next one applies, and answers follow the graph."""
    graph = _ring_graph()
    want = _oracle(graph, (0, 0))
    entered, release = _gate_execute_group(monkeypatch)
    server = QueryServer(graph, window_s=0.0)
    blocker = server.submit(BFSQuery(root=(0, 0)))
    assert entered.wait(timeout=5)
    before = graph.mutation_version
    cancelled = server.mutate([(0, 5, 1)])
    applied = server.mutate([(0, 6, 1)])
    assert cancelled.cancel()
    release.set()
    assert blocker.result(timeout=5) == want
    assert applied.result(timeout=5) > before
    assert cancelled.cancelled()
    assert not graph.has_edge(0, 5, 1) and graph.has_edge(0, 6, 1)
    assert server.stats_snapshot()["mutations"] == 1
    assert server.query(BFSQuery(root=(0, 1)), timeout=5) == _oracle(graph, (0, 1))
    server.close(timeout=5)


def _scribble(answer) -> None:
    """Every edit a client might try on a dict answer; a read-only one refuses each."""
    key = next(iter(answer))
    for edit in (
        lambda: answer.__setitem__(key, "edited"),
        lambda: answer.__delitem__(key),
        lambda: answer.update({"x": 1}),
        lambda: answer.clear(),
    ):
        try:
            edit()
        except (AttributeError, TypeError):
            pass


@pytest.mark.parametrize(
    ("make", "oracle"),
    [
        (lambda root: EarliestArrivalQuery(source=root), earliest_arrival_times),
        (lambda root: LatestDepartureQuery(target=root), latest_departure_times),
    ],
    ids=["earliest_arrival", "latest_departure"],
)
def test_an_edited_time_answer_leaves_the_joiner_and_the_cache_intact(
    monkeypatch, make, oracle
):
    """The cache entry and every in-flight joiner share one answer object: a
    client that edits its earliest-arrival or latest-departure answer must
    not change what the joiner or a later cache hit receives."""
    graph = _ring_graph()
    root = (3, 1)
    want = oracle(graph, root, backend="python")
    entered, release = _gate_execute_group(monkeypatch)
    server = QueryServer(graph, window_s=0.0)
    first = server.submit(make(root))
    assert entered.wait(timeout=5)
    joiner = server.submit(make(root))  # joins the computation in hand
    release.set()
    _scribble(first.result(timeout=5))
    assert joiner.result(timeout=5) == want
    assert server.query(make(root), timeout=5) == want  # a cache hit
    stats = server.stats_snapshot()
    assert stats["inflight_joins"] == 1 and stats["cache_hits"] == 1
    server.close(timeout=5)
