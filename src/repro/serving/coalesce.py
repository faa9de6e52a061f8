"""Coalesced execution of query groups as shared ``(T, N, R)`` block sweeps.

The server (:class:`repro.serving.QueryServer`) groups the queries of one
micro-batch by :meth:`~repro.algorithms.queries.Query.sweep_key`; this module
executes each group with the *minimum* number of kernel sweeps:

* every **frontier-family** query (BFS, reachability probes,
  earliest-arrival, latest-departure) contributes its root as one column of
  a single batched distance sweep on the shared
  :class:`~repro.engine.frontier.FrontierKernel` — the per-query answers are
  then *decoded* from the common ``(T, N, R)`` distance block with exactly
  the readouts the direct functions use, so served results stay bit-identical
  to :func:`repro.core.bfs.evolving_bfs`,
  :func:`repro.algorithms.temporal_paths.earliest_arrival_times` and
  friends;
* **fewest-hops** queries pack their sources into one 0/1-semiring label
  sweep on the :class:`~repro.engine.labels.LabelKernel`;
* **Tang-distance** queries with equal ``(start_time, horizon)`` pack their
  source nodes into one :meth:`~repro.engine.labels.LabelKernel.tang_steps`
  sweep;
* **whole-graph** queries (top-k reach counts, spectral broadcast/receive
  centrality) are computed once per group and fanned out to every query in
  it.

Duplicate queries never reach this module — the server dedupes on
``cache_key`` first — so the ``R`` columns of a group sweep are all distinct
roots.  Results and per-query exceptions are returned positionally; the
server owns futures, caching and locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.queries import (
    BFSQuery,
    EarliestArrivalQuery,
    LatestDepartureQuery,
    Query,
    ReachabilityQuery,
    rank_top_k,
)
from repro.exceptions import GraphError, InactiveNodeError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = ["GroupOutcome", "decode_warm_block", "execute_group"]


@dataclass
class GroupOutcome:
    """Result of one coalesced group execution.

    ``results[i]`` / ``errors[i]`` align with the input queries (exactly one
    of the pair is set per query; ``errors[i] is None`` on success).
    ``columns`` counts the distinct roots packed into the shared sweep
    (``1`` for whole-graph groups), ``sweeps`` the number of batched kernel
    executions (one per group unless the group was empty).  No distance
    block outlives the group: a server refreshing a cached answer across a
    mutation re-sweeps its root instead.
    """

    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    columns: int = 0
    sweeps: int = 0


def execute_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
    *,
    chunk_size: int = 128,
    num_workers: int = 1,
    driver=None,
) -> GroupOutcome:
    """Answer every query in one sweep-shape group with shared kernel work.

    ``driver`` (a :class:`~repro.engine.sharded_sweep.ShardedSweepDriver`)
    reroutes the frontier, zero-one, Tang and reach-count families through
    the pipelined time-shard sweeps — served results stay bit-identical; the
    driver's backend supplies the parallelism, so the ``num_workers`` thread
    fan-out is bypassed.  The spectral family has no sharded formulation
    (its resolvent chains are global in time) and always executes on the
    monolithic kernel.
    """
    family = sweep_key[0]
    if family == "frontier":
        return _frontier_group(
            graph, sweep_key, queries, chunk_size, num_workers, driver
        )
    if family == "zero_one":
        return _zero_one_group(
            graph, sweep_key, queries, chunk_size, num_workers, driver
        )
    if family == "tang":
        return _tang_group(graph, sweep_key, queries, chunk_size, driver)
    if family == "reach_counts":
        return _reach_counts_group(graph, sweep_key, queries, chunk_size, driver)
    if family == "spectral":
        return _spectral_group(graph, sweep_key, queries)
    raise GraphError(f"unknown sweep family {family!r}")


def _query_root(query: Query) -> TemporalNodeTuple:
    if isinstance(query, (BFSQuery, ReachabilityQuery)):
        return query.root
    if isinstance(query, EarliestArrivalQuery):
        return query.source
    if isinstance(query, LatestDepartureQuery):
        return query.target
    raise GraphError(f"{type(query).__name__} is not a frontier-family query")


def _chunked_blocks(run_chunk, roots, chunk_size, num_workers):
    """``(chunk, block)`` pairs for ``roots``, optionally fanned over threads.

    Reuses the thread fan-out of :func:`repro.parallel.batch.fan_out_chunks`
    — the same machinery ``batch_bfs(backend="vectorized")`` spreads its root
    chunks with — so a large coalesced group overlaps its SpMM chunks
    wherever SciPy releases the GIL.
    """
    from repro.parallel.batch import fan_out_chunks

    parts = fan_out_chunks(
        run_chunk, roots, chunk_size=chunk_size, num_workers=num_workers
    )
    for part in parts:
        yield from part


def _decode_frontier(query: Query, dist: np.ndarray, col: int, *, surface, bfs_decode):
    """Decode one frontier-family query from its ``(T, N, R)`` sweep column.

    The single decode used both for fresh coalesced sweeps and for
    warm-start answers refreshed across mutations
    (:func:`decode_warm_block`) — sharing it is what makes refreshed answers
    bit-identical to fresh ones by construction.  ``bfs_decode`` is the
    sweeper's ``{(node, time): distance}`` readout (kernel or shard driver).
    """
    if isinstance(query, BFSQuery):
        return bfs_decode(dist, col)
    if isinstance(query, ReachabilityQuery):
        slot = surface.slot(*query.target)
        if slot is None or dist[slot[0], slot[1], col] < 0:
            return None
        return int(dist[slot[0], slot[1], col])
    labels = surface.node_labels
    times = surface.times
    reached = dist[:, :, col] >= 0
    hit = reached.any(axis=0)
    if isinstance(query, EarliestArrivalQuery):
        # the running-minimum readout of LabelKernel.earliest_arrivals
        first = reached.argmax(axis=0)
        return {labels[vi]: times[first[vi]] for vi in np.nonzero(hit)[0].tolist()}
    # LatestDepartureQuery: the mirrored running maximum
    last = surface.num_snapshots - 1 - reached[::-1].argmax(axis=0)
    return {labels[vi]: times[last[vi]] for vi in np.nonzero(hit)[0].tolist()}


def decode_warm_block(kernel, query: Query, block: np.ndarray):
    """Decode ``query``'s answer from its root's ``(T, N)`` distance column.

    Used by the server when it refreshes a warm cache entry across a
    mutation: ``block`` is the root's column of a fresh
    :meth:`FrontierKernel.distance_blocks
    <repro.engine.frontier.FrontierKernel.distance_blocks>` sweep on the
    post-mutation artifact (any ``(T, N)`` view), wrapped as a one-column
    sweep and run through the exact decode of a coalesced sweep, so a
    refreshed answer equals a recomputed one.
    """
    dist = block[:, :, None]
    return _decode_frontier(
        query,
        dist,
        0,
        surface=kernel.compiled,
        bfs_decode=lambda d, c: kernel._reached_dict(d, c),
    )


def _frontier_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
    num_workers: int,
    driver=None,
) -> GroupOutcome:
    """BFS / reachability / earliest-arrival / latest-departure, one sweep."""
    _, direction, reverse_edges = sweep_key
    if driver is not None:
        surface = driver.sharded
        decode = driver.reached_dict
        sweeper = driver
    else:
        from repro.engine import get_kernel

        kernel = get_kernel(graph)
        surface = kernel.compiled
        decode = lambda dist, col: kernel._reached_dict(dist, col)  # noqa: E731
        sweeper = kernel
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))

    # roots become sweep columns; inactive roots never enter the sweep —
    # BFS/reachability mirror the functions' InactiveNodeError, the
    # earliest/latest readouts mirror their documented empty-dict result
    roots: list[TemporalNodeTuple] = []
    seen: dict[TemporalNodeTuple, int] = {}
    pending: list[int] = []
    for i, query in enumerate(queries):
        root = _query_root(query)
        if not surface.is_active(*root):
            if isinstance(query, (BFSQuery, ReachabilityQuery)):
                outcome.errors[i] = InactiveNodeError(*root)
            else:
                outcome.results[i] = {}
            continue
        if root not in seen:
            seen[root] = len(roots)
            roots.append(root)
        pending.append(i)
    if not roots:
        return outcome

    def run_chunk(chunk_roots):
        return list(
            sweeper.distance_blocks(
                chunk_roots,
                direction=direction,
                reverse_edges=reverse_edges,
                chunk_size=chunk_size,
            )
        )

    if driver is not None:
        # the driver's shard backend supplies the parallelism (and, for the
        # thread/process backends, pipelines the chunks through the shards)
        block_iter = run_chunk(roots)
    else:
        block_iter = _chunked_blocks(run_chunk, roots, chunk_size, num_workers)
    blocks: dict[TemporalNodeTuple, tuple[np.ndarray, int]] = {}
    for chunk, dist in block_iter:
        for col, root in enumerate(chunk):
            blocks[root] = (dist, col)
    outcome.columns = len(roots)
    outcome.sweeps = 1

    for i in pending:
        query = queries[i]
        dist, col = blocks[_query_root(query)]
        outcome.results[i] = _decode_frontier(
            query, dist, col, surface=surface, bfs_decode=decode
        )
    return outcome


def _zero_one_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
    num_workers: int,
    driver=None,
) -> GroupOutcome:
    """Fewest-spatial-hops sources packed into one 0/1-semiring sweep."""
    _, spatial_cost, causal_cost = sweep_key
    if driver is not None:
        surface = driver.sharded
        sweeper = driver
    else:
        from repro.engine import get_label_kernel

        sweeper = get_label_kernel(graph)
        surface = sweeper.compiled
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))

    roots: list[TemporalNodeTuple] = []
    seen: set[TemporalNodeTuple] = set()
    pending: list[int] = []
    for i, query in enumerate(queries):
        source = query.source
        if not surface.is_active(*source):
            outcome.results[i] = {}  # fewest_spatial_hops_from's inactive answer
            continue
        if source not in seen:
            seen.add(source)
            roots.append(source)
        pending.append(i)
    if not roots:
        return outcome

    def run_chunk(chunk_roots):
        return list(
            sweeper.zero_one_labels(
                chunk_roots,
                spatial_cost=spatial_cost,
                causal_cost=causal_cost,
                chunk_size=chunk_size,
            )
        )

    if driver is not None:
        block_iter = run_chunk(roots)
    else:
        block_iter = _chunked_blocks(run_chunk, roots, chunk_size, num_workers)
    labels = surface.node_labels
    times = surface.times
    decoded: dict[TemporalNodeTuple, dict] = {}
    for chunk, block in block_iter:
        for col, root in enumerate(chunk):
            t_arr, v_arr = np.nonzero(block[:, :, col] >= 0)
            hops = block[t_arr, v_arr, col]
            decoded[root] = {
                (labels[vi], times[ti]): int(h)
                for ti, vi, h in zip(t_arr.tolist(), v_arr.tolist(), hops.tolist())
            }
    outcome.columns = len(roots)
    outcome.sweeps = 1
    for i in pending:
        outcome.results[i] = decoded[queries[i].source]
    return outcome


def _tang_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
    driver=None,
) -> GroupOutcome:
    """Tang snapshot-count sources packed into one batched time sweep."""
    _, start_time, horizon = sweep_key
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))
    times = list(graph.timestamps)
    # the edge semantics of temporal_distances_tang_from, replicated exactly
    if start_time is not None and start_time not in times:
        outcome.results = [{} for _ in queries]
        return outcome
    if not times:
        outcome.results = [{query.source_node: 0} for query in queries]
        return outcome
    start_index = 0 if start_time is None else times.index(start_time)

    sources = []
    seen = set()
    for query in queries:
        if query.source_node not in seen:
            seen.add(query.source_node)
            sources.append(query.source_node)
    if driver is not None:
        sweeper = driver
    else:
        from repro.engine import get_label_kernel

        sweeper = get_label_kernel(graph)
    steps = sweeper.tang_steps(
        sources,
        horizon=horizon,
        start_index=start_index,
        chunk_size=chunk_size,
    )
    outcome.columns = len(sources)
    outcome.sweeps = 1
    for i, query in enumerate(queries):
        result = steps[query.source_node]
        result.setdefault(query.source_node, 0)
        outcome.results[i] = result
    return outcome


def _reach_counts_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
    driver=None,
) -> GroupOutcome:
    """One whole-graph reach-count sweep serves every top-k ranking in the group."""
    _, direction = sweep_key
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))
    roots = graph.active_temporal_nodes()
    counts: dict[TemporalNodeTuple, int] = {}
    if roots:
        if driver is not None:
            sweeper = driver
        else:
            from repro.engine import get_kernel

            sweeper = get_kernel(graph)
        counts = sweeper.identity_reach_counts(
            roots, direction=direction, chunk_size=chunk_size
        )
        outcome.columns = len(roots)
        outcome.sweeps = 1
    for i, query in enumerate(queries):
        outcome.results[i] = rank_top_k(counts, query.k)
    return outcome


def _spectral_group(
    graph: BaseEvolvingGraph,
    sweep_key: tuple,
    queries: list[Query],
) -> GroupOutcome:
    """Broadcast/receive centrality; the resolvent LU cache is shared per alpha."""
    from repro.algorithms.dynamic_walks import broadcast_centrality, receive_centrality

    _, kind, alpha = sweep_key
    fn = broadcast_centrality if kind == "broadcast" else receive_centrality
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))
    try:
        value = fn(graph, alpha, backend="vectorized")
    except Exception as exc:  # alpha outside the convergence region, etc.
        outcome.errors = [exc] * len(queries)
        return outcome
    outcome.columns = 1
    outcome.sweeps = 1
    outcome.results = [value] * len(queries)
    return outcome
