"""Coalesced execution of query groups as shared ``(T, N, R)`` block sweeps.

The server (:class:`repro.serving.QueryServer`) groups the queries of one
micro-batch by :meth:`~repro.algorithms.queries.Query.sweep_key`; this module
executes each group with the *minimum* number of kernel sweeps, on one
sweeper chosen once per group — the graph's cached
:class:`~repro.engine.frontier.FrontierKernel`, or the
:class:`~repro.engine.sharded_sweep.ShardedSweepDriver` the server was
built with — through the batched surface both share
(:class:`~repro.engine.sharded_sweep.BatchedSweeps`):

* every **frontier-family** query (BFS, reachability probes,
  earliest-arrival, latest-departure) contributes its root as one column of
  a single batched distance sweep — the per-query answers are then
  read off the common ``(T, N, R)`` distance block with exactly the
  readouts the direct functions use, so served results stay bit-identical
  to :func:`repro.core.bfs.evolving_bfs` (a BFS answer is the same
  read-only :class:`~repro.engine.reached.ReachedView` over its root's
  column),
  :func:`repro.algorithms.temporal_paths.earliest_arrival_times` and
  friends;
* **fewest-hops** queries pack their sources into one 0/1-semiring label
  sweep (``zero_one_labels``);
* **Tang-distance** queries with equal ``(start_time, horizon)`` pack their
  source nodes into one ``tang_steps`` sweep;
* **whole-graph** queries (top-k reach counts, spectral broadcast/receive
  centrality) are computed once per group and fanned out to every query in
  it.

The sweeper runs a group's chunks itself; the group is not fanned out over
threads.  Duplicate queries never reach this module — the server's
admission attaches a repeat of an in-flight ``cache_key`` to that query's
pending computation — so the ``R`` columns of a group sweep are all
distinct roots.  Results and per-query exceptions are returned
positionally; the server owns futures, caching and locking.
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
from repro.engine.reached import ReachedView
from repro.engine.sharded_sweep import _decode_times, _time_hits
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
    block outlives the group: a BFS or fewest-hops answer keeps only its
    root's own column.  A server prunes its cached answers on a mutation,
    so a repeat after one is a miss that rides the next group's sweep.
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
    driver=None,
) -> GroupOutcome:
    """Answer every query in one sweep-shape group with shared kernel work.

    ``driver`` (a :class:`~repro.engine.sharded_sweep.ShardedSweepDriver`)
    replaces the graph's kernel as the sweeper of the frontier, zero-one,
    Tang and reach-count families — served results stay bit-identical.  The
    spectral family has no sharded formulation (its resolvent chains are
    global in time) and always executes on the monolithic kernel.
    """
    family = sweep_key[0]
    if family == "spectral":
        return _spectral_group(graph, sweep_key, queries)
    run = _SWEEP_GROUPS.get(family)
    if run is None:
        raise GraphError(f"unknown sweep family {family!r}")
    if driver is None:
        from repro.engine import get_kernel

        sweeper = get_kernel(graph)
    else:
        sweeper = driver
    return run(graph, sweeper, sweep_key, queries, chunk_size)


def _query_root(query: Query) -> TemporalNodeTuple:
    if isinstance(query, (BFSQuery, ReachabilityQuery)):
        return query.root
    if isinstance(query, EarliestArrivalQuery):
        return query.source
    if isinstance(query, LatestDepartureQuery):
        return query.target
    raise GraphError(f"{type(query).__name__} is not a frontier-family query")


def _decode_frontier(query: Query, dist: np.ndarray, col: int, sweeper):
    """Read one frontier-family answer off its ``(T, N, R)`` sweep column.

    The one decode of every frontier-family answer, whether the query had
    a column of its own or shared its root's column with other queries.  A
    BFS answer is the batched surface's ``reached`` view of the column,
    which copies the column out of the block and decodes on read; the
    earliest-arrival and latest-departure answers use the first/last-hit
    readouts (:func:`~repro.engine.sharded_sweep._time_hits`).
    """
    if isinstance(query, BFSQuery):
        return sweeper._reached_view(dist, col)
    if isinstance(query, ReachabilityQuery):
        slot = sweeper._axes.slot(*query.target)
        if slot is None or dist[slot[0], slot[1], col] < 0:
            return None
        return int(dist[slot[0], slot[1], col])
    kind = "first" if isinstance(query, EarliestArrivalQuery) else "last"
    hits = _time_hits(dist[:, :, col : col + 1], kind)
    return _decode_times(sweeper._slots, hits, 0)


def decode_warm_block(kernel, query: Query, block: np.ndarray):
    """Decode ``query``'s answer from its root's ``(T, N)`` distance column.

    The one-column form of the coalesced decode: ``block`` is any
    ``(T, N)`` view of the root's column of a
    :meth:`FrontierKernel.distance_blocks
    <repro.engine.frontier.FrontierKernel.distance_blocks>` sweep on
    ``kernel``'s artifact, wrapped as a one-column sweep and read with the
    exact readouts of a served answer, so the result equals the served
    one.  Nothing in the package calls it; it stays public for callers
    that hold a distance column of their own.
    """
    return _decode_frontier(query, block[:, :, None], 0, kernel)


def _frontier_group(
    graph: BaseEvolvingGraph,
    sweeper,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
) -> GroupOutcome:
    """BFS / reachability / earliest-arrival / latest-departure, one sweep."""
    _, direction, reverse_edges = sweep_key
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))

    # roots become sweep columns; inactive roots never enter the sweep —
    # BFS/reachability mirror the functions' InactiveNodeError, the
    # earliest/latest readouts mirror their documented empty-dict result
    roots: list[TemporalNodeTuple] = []
    seen: set[TemporalNodeTuple] = set()
    pending: list[int] = []
    for i, query in enumerate(queries):
        root = _query_root(query)
        if not sweeper.is_active(*root):
            if isinstance(query, (BFSQuery, ReachabilityQuery)):
                outcome.errors[i] = InactiveNodeError(*root)
            else:
                outcome.results[i] = {}
            continue
        if root not in seen:
            seen.add(root)
            roots.append(root)
        pending.append(i)
    if not roots:
        return outcome

    blocks: dict[TemporalNodeTuple, tuple[np.ndarray, int]] = {}
    for chunk, dist in sweeper.distance_blocks(
        roots, direction=direction, reverse_edges=reverse_edges, chunk_size=chunk_size
    ):
        for col, root in enumerate(chunk):
            blocks[root] = (dist, col)
    outcome.columns = len(roots)
    outcome.sweeps = 1

    for i in pending:
        query = queries[i]
        dist, col = blocks[_query_root(query)]
        outcome.results[i] = _decode_frontier(query, dist, col, sweeper)
    return outcome


def _zero_one_group(
    graph: BaseEvolvingGraph,
    sweeper,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
) -> GroupOutcome:
    """Fewest-spatial-hops sources packed into one 0/1-semiring sweep."""
    _, spatial_cost, causal_cost = sweep_key
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))
    roots: list[TemporalNodeTuple] = []
    seen: set[TemporalNodeTuple] = set()
    pending: list[int] = []
    for i, query in enumerate(queries):
        source = query.source
        if not sweeper.is_active(*source):
            outcome.results[i] = {}  # fewest_spatial_hops_from's inactive answer
            continue
        if source not in seen:
            seen.add(source)
            roots.append(source)
        pending.append(i)
    if not roots:
        return outcome
    hops: dict[TemporalNodeTuple, ReachedView] = {}
    for chunk, block in sweeper.zero_one_labels(
        roots,
        spatial_cost=spatial_cost,
        causal_cost=causal_cost,
        chunk_size=chunk_size,
    ):
        for col, root in enumerate(chunk):
            hops[root] = sweeper._reached_view(block, col)
    outcome.columns = len(roots)
    outcome.sweeps = 1
    for i in pending:
        outcome.results[i] = hops[queries[i].source]
    return outcome


def _tang_group(
    graph: BaseEvolvingGraph,
    sweeper,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
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
    sources = list(dict.fromkeys(query.source_node for query in queries))
    steps = sweeper.tang_steps(
        sources, horizon=horizon, start_index=start_index, chunk_size=chunk_size
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
    sweeper,
    sweep_key: tuple,
    queries: list[Query],
    chunk_size: int,
) -> GroupOutcome:
    """One whole-graph reach-count sweep serves every top-k ranking in the group."""
    _, direction = sweep_key
    outcome = GroupOutcome(results=[None] * len(queries), errors=[None] * len(queries))
    roots = graph.active_temporal_nodes()
    counts: dict[TemporalNodeTuple, int] = {}
    if roots:
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


#: The sweep-family groups, keyed by the first element of a sweep key.
_SWEEP_GROUPS = {
    "frontier": _frontier_group,
    "zero_one": _zero_one_group,
    "tang": _tang_group,
    "reach_counts": _reach_counts_group,
}
