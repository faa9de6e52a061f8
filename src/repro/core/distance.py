"""Temporal distances (Definition 6) and reachability (Definition 7).

The distance from ``(v, t)`` to ``(w, s)`` is the smallest number of hops of
any temporal path between them, where *both* static-edge hops and causal-edge
hops count — this is the quantity Algorithm 1 minimises, and what makes the
paper's notion of distance differ from the dynamic-walk distance of Grindrod
& Higham (causal hops not counted) and from the temporal distance of Tang et
al. (number of time steps).  Those alternative notions are implemented as
baselines in :mod:`repro.algorithms.dynamic_walks` and
:mod:`repro.algorithms.tang_distance`.

Note that the distance is *not* a metric: it is generally asymmetric because
temporal paths cannot go backward in time.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.bfs import evolving_bfs
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "temporal_distance",
    "is_reachable",
    "reachable_set",
    "distance_dict",
    "all_pairs_distances",
    "temporal_eccentricity",
]


def temporal_distance(
    graph: BaseEvolvingGraph,
    origin: TemporalNodeTuple,
    target: TemporalNodeTuple,
) -> int | None:
    """Distance from ``origin`` to ``target`` (Definition 6), or ``None`` when unreachable.

    The distance to the origin itself is 0.  Inactive origins reach nothing
    (their temporal paths are empty), so the result is ``None`` unless
    ``origin == target`` is itself... also inactive — then still ``None``.
    """
    origin = tuple(origin)
    target = tuple(target)
    if not graph.is_active(*origin):
        return None
    if origin == target:
        return 0
    result = evolving_bfs(graph, origin)
    return result.reached.get(target)


def is_reachable(
    graph: BaseEvolvingGraph,
    origin: TemporalNodeTuple,
    target: TemporalNodeTuple,
) -> bool:
    """Whether ``target`` is reachable from ``origin`` (Definition 7)."""
    return temporal_distance(graph, origin, target) is not None


def distance_dict(
    graph: BaseEvolvingGraph, origin: TemporalNodeTuple
) -> dict[TemporalNodeTuple, int]:
    """All distances from ``origin``: the ``reached`` dictionary of Algorithm 1.

    A plain ``dict`` the caller owns (the engine's ``reached`` is a
    read-only view; its ``copy()`` decodes it once).
    """
    origin = tuple(origin)
    if not graph.is_active(*origin):
        return {}
    return evolving_bfs(graph, origin).reached.copy()


def reachable_set(
    graph: BaseEvolvingGraph, origin: TemporalNodeTuple
) -> set[TemporalNodeTuple]:
    """The set of temporal nodes reachable from ``origin`` (including ``origin``)."""
    return set(distance_dict(graph, origin))


def all_pairs_distances(
    graph: BaseEvolvingGraph,
    origins: Iterable[TemporalNodeTuple] | None = None,
) -> dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]]:
    """Distances from every origin in ``origins`` (default: every active temporal node).

    This runs one BFS per origin and is therefore ``O(|V| (|V| + |E|))`` in
    the worst case; intended for analysis of small and medium graphs.
    """
    if origins is None:
        origins = graph.active_temporal_nodes()
    out: dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]] = {}
    for origin in origins:
        origin = tuple(origin)
        out[origin] = distance_dict(graph, origin)
    return out


def temporal_eccentricity(graph: BaseEvolvingGraph, origin: TemporalNodeTuple) -> int:
    """Largest finite distance from ``origin`` to any reachable temporal node."""
    distances = distance_dict(graph, origin)
    return max(distances.values(), default=0)
