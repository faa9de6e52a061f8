"""Alternative temporal shortest-path notions, for comparison with the paper's distance.

The paper's Definition 6 minimises the *hop count* of a temporal path, where
causal hops count just like spatial hops.  Other papers minimise different
quantities; the three most common are implemented here so the differences can
be measured (``benchmarks/bench_distance_notions.py`` ablates all of them
against the Python oracles and writes
``benchmark_reports/distance_ablation.json``):

* :func:`earliest_arrival_time` — the smallest timestamp at which the target
  node can be reached at all (Tang-style temporal reachability),
* :func:`fewest_spatial_hops` — the minimum number of *static* edges
  traversed, with causal waiting free of charge (the dynamic-walk convention
  of Grindrod & Higham),
* :func:`latest_departure_time` — the latest time one can leave the source
  and still reach the target (useful for backward scheduling).

Backends
--------
Every function accepts ``backend="python" | "vectorized"``.  The default
``"vectorized"`` routes through the batched sweep surface of the graph's
cached frontier kernel (:func:`repro.engine.get_kernel`): earliest arrival
is a running minimum over one forward boolean sweep, latest departure the
mirrored maximum over one backward sweep, and fewest spatial hops a
``(min, +)`` sweep of the same level loop with 0-cost causal edges
(:meth:`FrontierKernel._run <repro.engine.frontier.FrontierKernel._run>`).
``"python"`` is the original per-node implementation, kept as the
correctness oracle.

The engine's answers are read-only mappings equal to the oracle's dicts,
decoded into a dict only when a caller reads every entry: the all-targets
earliest-arrival and latest-departure answers are a
:class:`~repro.engine.reached.TimesView` over the root's ``(N,)`` hit
column, and the fewest-hops answer a
:class:`~repro.engine.reached.ReachedView`.  ``copy()`` gives a plain dict.

The ``*_times`` / ``*_from`` variants answer the query for *all* targets in
the same single sweep — the point of the engine port: one sweep per source
replaces one traversal per (source, target) pair.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from typing import Hashable

from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "earliest_arrival_time",
    "earliest_arrival_times",
    "fewest_spatial_hops",
    "fewest_spatial_hops_from",
    "latest_departure_time",
    "latest_departure_times",
]


def _time_positions(graph: BaseEvolvingGraph) -> dict[Hashable, int]:
    """Timestamp label -> position, for order comparisons independent of label type."""
    return {t: i for i, t in enumerate(graph.timestamps)}


def earliest_arrival_times(
    graph: BaseEvolvingGraph,
    source: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> Mapping[Hashable, Hashable]:
    """Earliest reachable timestamp of *every* node identity, in one sweep.

    Returns ``{node: time}`` for every node reachable from ``source``
    (including the source itself at its own time); unreachable nodes are
    absent.  An inactive source reaches nothing (Definition 4), giving ``{}``.
    The engine's answer is a read-only
    :class:`~repro.engine.reached.TimesView` equal to the oracle's dict.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    source = (source[0], source[1])
    if not graph.is_active(*source):
        return {}
    if backend == "vectorized":
        return get_kernel(graph).earliest_arrivals([source])[source]
    from repro.core.bfs import evolving_bfs

    position = _time_positions(graph)
    out: dict[Hashable, Hashable] = {}
    for v, t in evolving_bfs(graph, source, backend="python").reached:
        if v not in out or position[t] < position[out[v]]:
            out[v] = t
    return out


def earliest_arrival_time(
    graph: BaseEvolvingGraph,
    source: TemporalNodeTuple,
    target_node: Hashable,
    *,
    backend: str = "vectorized",
):
    """Earliest timestamp at which ``target_node`` is reachable from ``source``.

    Returns ``None`` when no temporal path reaches the node.  The source
    itself counts: if ``source = (v, t)`` and ``target_node == v`` the answer
    is ``t`` (provided the source is active).
    """
    source = (source[0], source[1])
    if not graph.is_active(*source):
        return None
    if source[0] == target_node:
        return source[1]
    return earliest_arrival_times(graph, source, backend=backend).get(target_node)


def fewest_spatial_hops_from(
    graph: BaseEvolvingGraph,
    source: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> Mapping[TemporalNodeTuple, int]:
    """Minimal static-edge count from ``source`` to every reachable temporal node.

    One ``(min, +)`` label sweep (static edges cost 1, causal edges cost 0)
    answers the Grindrod–Higham hop question for all targets at once; the
    Python oracle is the equivalent 0/1-weight Dijkstra run to exhaustion.
    An inactive source reaches nothing, giving ``{}``.  The engine's answer
    is a read-only :class:`~repro.engine.reached.ReachedView` equal to the
    oracle's dict.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    source = (source[0], source[1])
    if not graph.is_active(*source):
        return {}
    if backend == "vectorized":
        return get_kernel(graph).fewest_hops([source])[source]
    best: dict[TemporalNodeTuple, int] = {source: 0}
    heap: list[tuple[int, int, TemporalNodeTuple]] = [(0, 0, source)]
    counter = 0
    while heap:
        cost, _, current = heapq.heappop(heap)
        if cost > best.get(current, float("inf")):
            continue
        v, t = current
        for nxt in graph.forward_neighbors(v, t):
            step = 0 if nxt[0] == v else 1
            new_cost = cost + step
            if new_cost < best.get(nxt, float("inf")):
                best[nxt] = new_cost
                counter += 1
                heapq.heappush(heap, (new_cost, counter, nxt))
    return best


def fewest_spatial_hops(
    graph: BaseEvolvingGraph,
    source: TemporalNodeTuple,
    target: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
):
    """Minimum number of *static* edges on any temporal path from ``source`` to ``target``.

    Causal hops (waiting on the same node) are free, which is exactly the
    dynamic-walk length convention of Grindrod & Higham that the paper
    contrasts with its own distance.  Returns ``None`` when the target is
    unreachable.
    """
    source = (source[0], source[1])
    target = (target[0], target[1])
    return fewest_spatial_hops_from(graph, source, backend=backend).get(target)


def latest_departure_times(
    graph: BaseEvolvingGraph,
    target: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> Mapping[Hashable, Hashable]:
    """Latest departure timestamp of *every* node that can still reach ``target``.

    Returns ``{node: time}``: the largest ``t`` such that ``(node, t)``
    reaches ``target`` (the target itself maps to its own time).  One
    backward sweep on the lazily transposed operator stacks answers the
    question for all sources at once.  An inactive target gives ``{}``.
    The engine's answer is a read-only
    :class:`~repro.engine.reached.TimesView` equal to the oracle's dict.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    target = (target[0], target[1])
    if not graph.is_active(*target):
        return {}
    if backend == "vectorized":
        return get_kernel(graph).latest_departures([target])[target]
    from repro.core.backward import backward_bfs

    position = _time_positions(graph)
    out: dict[Hashable, Hashable] = {}
    for v, t in backward_bfs(graph, target, backend="python").reached:
        if v not in out or position[t] > position[out[v]]:
            out[v] = t
    return out


def latest_departure_time(
    graph: BaseEvolvingGraph,
    source_node: Hashable,
    target: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
):
    """Latest timestamp ``t`` such that ``(source_node, t)`` can still reach ``target``.

    Computed with one backward sweep from the target.  Returns ``None`` when
    no active appearance of ``source_node`` reaches the target.
    """
    target = (target[0], target[1])
    return latest_departure_times(graph, target, backend=backend).get(source_node)
