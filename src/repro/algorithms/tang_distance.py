"""Tang et al. temporal distance metrics (the second comparison baseline).

Tang, Musolesi, Mascolo & Latora ("Temporal distance metrics for social
network analysis", WOSN 2009) measure the *temporal distance* between two
nodes as the number of time steps (snapshots, inclusive) needed to reach the
destination, assuming within each snapshot a message can traverse a bounded
number of edges (the "horizon", usually 1 or unbounded).  The paper under
reproduction explicitly distinguishes its hop-count distance from this
"number of time steps" notion; these routines make the comparison concrete.

Backends
--------
Every function accepts ``backend="python" | "vectorized"``.  The default
``"vectorized"`` runs Tang's spreading process on the semiring label-sweep
engine (:meth:`FrontierKernel.tang_steps
<repro.engine.frontier.FrontierKernel.tang_steps>`): one masked running-minimum
sweep along the time axis per batch of sources, with horizon-bounded SpMM
rounds inside each snapshot.  One sweep answers *all* targets of a source —
and :func:`average_temporal_distance` / :func:`temporal_efficiency` batch
all sources into the columns of the same sweep instead of running one
Python spread per ordered pair.  ``"python"`` is the original set-walking
oracle.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.base import BaseEvolvingGraph

__all__ = [
    "temporal_distance_tang",
    "temporal_distances_tang_from",
    "average_temporal_distance",
    "temporal_efficiency",
]


def _spread_python(
    graph: BaseEvolvingGraph,
    source_node: Hashable,
    start_idx: int,
    horizon: int,
) -> dict[Hashable, int]:
    """Tang's spreading process from one source; ``{node: steps}`` (source: 0)."""
    times = list(graph.timestamps)
    informed = {source_node}
    steps_of: dict[Hashable, int] = {source_node: 0}
    for steps, t in enumerate(times[start_idx:], start=1):
        # spread within the snapshot for `horizon` rounds
        for _ in range(max(1, horizon)):
            newly = set()
            for v in informed:
                for w in graph.out_neighbors_at(v, t):
                    if w not in informed:
                        newly.add(w)
            if not newly:
                break
            informed |= newly
        for v in informed:
            steps_of.setdefault(v, steps)
    return steps_of


def temporal_distances_tang_from(
    graph: BaseEvolvingGraph,
    source_node: Hashable,
    *,
    start_time=None,
    horizon: int = 1,
    backend: str = "vectorized",
) -> dict[Hashable, int]:
    """Tang temporal distance from ``source_node`` to *every* node, in one sweep.

    Returns ``{node: steps}`` for every node ever informed (the source maps
    to 0); nodes the spreading process never reaches are absent.  Returns
    ``{}`` when ``start_time`` does not label a snapshot.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    times = list(graph.timestamps)
    if start_time is None:
        start_idx = 0
    else:
        if start_time not in times:
            return {}
        start_idx = times.index(start_time)
    if not times:
        return {source_node: 0}
    if backend == "vectorized":
        steps = get_kernel(graph).tang_steps(
            [source_node], horizon=horizon, start_index=start_idx
        )[source_node]
        # a source outside the compiled universe still informs itself
        steps.setdefault(source_node, 0)
        return steps
    return _spread_python(graph, source_node, start_idx, horizon)


def temporal_distance_tang(
    graph: BaseEvolvingGraph,
    source_node: Hashable,
    target_node: Hashable,
    *,
    start_time=None,
    horizon: int = 1,
    backend: str = "vectorized",
):
    """Number of snapshots (inclusive) needed to get from ``source_node`` to ``target_node``.

    Starting at ``start_time`` (default: the first timestamp), information
    spreads through at most ``horizon`` static edges per snapshot and persists
    on nodes between snapshots (no activeness requirement — that is Tang's
    convention, not the paper's).  Returns the number of time steps from
    ``start_time`` to the first snapshot at which ``target_node`` is informed,
    counting inclusively; ``0`` when source equals target; ``None`` when the
    target is never informed.
    """
    if source_node == target_node:
        return 0
    # an unknown start_time yields {} below, so the .get returns None
    return temporal_distances_tang_from(
        graph,
        source_node,
        start_time=start_time,
        horizon=horizon,
        backend=backend,
    ).get(target_node)


def average_temporal_distance(
    graph: BaseEvolvingGraph,
    *,
    horizon: int = 1,
    backend: str = "vectorized",
) -> float:
    """Average Tang temporal distance over all ordered node pairs, ignoring unreachable pairs.

    Returns ``nan`` when no pair is reachable.  The vectorized backend packs
    every source into one column of a single batched sweep; the Python
    oracle runs one spreading process per ordered pair.
    """
    from repro.engine import resolve_backend

    backend = resolve_backend(backend)
    nodes = sorted(graph.nodes(), key=repr)
    if backend == "vectorized":
        if not nodes or graph.num_timestamps == 0:
            return float("nan")
        distances = []
        for s, steps in _batched_tang_steps(graph, nodes, horizon).items():
            distances.extend(d for v, d in steps.items() if v != s)
        return float(np.mean(distances)) if distances else float("nan")
    distances = []
    for s in nodes:
        for d in nodes:
            if s == d:
                continue
            dist = temporal_distance_tang(
                graph, s, d, horizon=horizon, backend="python"
            )
            if dist is not None:
                distances.append(dist)
    return float(np.mean(distances)) if distances else float("nan")


def temporal_efficiency(
    graph: BaseEvolvingGraph,
    *,
    horizon: int = 1,
    backend: str = "vectorized",
) -> float:
    """Temporal global efficiency: mean of ``1 / distance`` over ordered pairs.

    Unreachable pairs contribute 0, so the quantity is always defined (0 for
    an edgeless graph with at least two nodes, ``nan`` for fewer than two nodes).
    """
    from repro.engine import resolve_backend

    backend = resolve_backend(backend)
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) < 2:
        return float("nan")
    count = len(nodes) * (len(nodes) - 1)
    if backend == "vectorized":
        if graph.num_timestamps == 0:
            return 0.0
        total = 0.0
        for s, steps in _batched_tang_steps(graph, nodes, horizon).items():
            total += sum(1.0 / d for v, d in steps.items() if v != s and d > 0)
        return total / count
    total = 0.0
    for s in nodes:
        for d in nodes:
            if s == d:
                continue
            dist = temporal_distance_tang(
                graph, s, d, horizon=horizon, backend="python"
            )
            total += 0.0 if dist in (None, 0) else 1.0 / dist
    return total / count


def _batched_tang_steps(
    graph: BaseEvolvingGraph,
    sources: list[Hashable],
    horizon: int,
) -> dict[Hashable, dict[Hashable, int]]:
    """All-sources Tang sweep: every source is one column of the batched sweep."""
    from repro.engine import get_kernel

    return get_kernel(graph).tang_steps(sources, horizon=horizon)
