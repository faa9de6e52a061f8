"""Reachability and influence sets over evolving graphs.

These are the building blocks of the Section V citation-network application:

* forward influence ``T(a, t)`` — everything a temporal node can reach,
* backward influence ``T⁻¹(a, t)`` — everything that can reach it,
* node-level influence — the same sets collapsed onto node identities,
* reachability matrices over a set of seeds (used by the temporal
  connected-component routines).

Every function accepts ``backend="python" | "vectorized"`` (default
``"vectorized"``) and forwards it to the underlying search;
:func:`influence_sizes` additionally packs its roots into the engine's
batched identity reach counts, one traversal per frontier level for all of
them instead of one BFS per root.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.core.backward import backward_bfs
from repro.core.bfs import evolving_bfs, multi_source_bfs
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "forward_influence_set",
    "backward_influence_set",
    "influence_node_identities",
    "influenced_by",
    "earliest_influence_time",
    "influence_sizes",
]


def forward_influence_set(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> set[TemporalNodeTuple]:
    """``T(root)``: every temporal node reachable from ``root`` (excluding the root itself).

    Returns the empty set for inactive roots (their temporal paths are empty).
    """
    root = tuple(root)
    if not graph.is_active(*root):
        return set()
    reached = evolving_bfs(graph, root, backend=backend).reached
    return {tn for tn in reached if tn != root}


def backward_influence_set(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> set[TemporalNodeTuple]:
    """``T⁻¹(root)``: every temporal node that can reach ``root`` (excluding the root itself)."""
    root = tuple(root)
    if not graph.is_active(*root):
        return set()
    reached = backward_bfs(graph, root, backend=backend).reached
    return {tn for tn in reached if tn != root}


def influence_node_identities(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    *,
    backward: bool = False,
    backend: str = "vectorized",
) -> set[Hashable]:
    """Node identities influenced by (or influencing, when ``backward``) the root."""
    root = tuple(root)
    temporal = (
        backward_influence_set(graph, root, backend=backend)
        if backward
        else forward_influence_set(graph, root, backend=backend)
    )
    return {v for v, _ in temporal if v != root[0]}


def influenced_by(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple],
    *,
    backend: str = "vectorized",
) -> set[TemporalNodeTuple]:
    """Union of forward influence over several roots, computed in one multi-source BFS."""
    root_list = [tuple(r) for r in roots]
    active = [r for r in root_list if graph.is_active(*r)]
    if not active:
        return set()
    reached = multi_source_bfs(graph, active, backend=backend).reached
    active_set = set(active)
    return {tn for tn in reached if tn not in active_set}


def earliest_influence_time(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    node: Hashable,
    *,
    backend: str = "vectorized",
):
    """The earliest timestamp at which ``node`` is influenced by ``root``, or ``None``.

    "Influenced" means some temporal path from ``root`` ends at ``(node, t)``;
    the minimum such ``t`` is returned.
    """
    root = tuple(root)
    if not graph.is_active(*root):
        return None
    reached = evolving_bfs(graph, root, backend=backend).reached
    times = [t for v, t in reached if v == node and (v, t) != root]
    return min(times) if times else None


def influence_sizes(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple] | None = None,
    *,
    backend: str = "vectorized",
) -> dict[TemporalNodeTuple, int]:
    """Number of *node identities* influenced by each root (a simple influence ranking).

    When ``roots`` is omitted, every active temporal node is used.  The
    returned counts exclude the root's own node identity; an inactive root
    counts 0.  With ``backend="vectorized"`` the distinct active roots are
    packed into the engine's batched mode, so all searches share one
    traversal per frontier level instead of looping one BFS per root, and
    the counts are read off the sweep without decoding any reached set.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    if roots is None:
        roots = graph.active_temporal_nodes()
    root_list = [tuple(r) for r in roots]

    if backend == "vectorized" and graph.num_timestamps > 0:
        kernel = get_kernel(graph)
        active = dict.fromkeys(r for r in root_list if kernel.is_active(*r))
        counts = kernel.identity_reach_counts(active)
        return {root: counts.get(root, 0) for root in root_list}

    out: dict[TemporalNodeTuple, int] = {}
    for root in root_list:
        out[root] = len(influence_node_identities(graph, root, backend=backend))
    return out
