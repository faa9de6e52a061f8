"""Algorithm 1: breadth-first search over an evolving graph.

``evolving_bfs`` is a faithful implementation of the paper's Algorithm 1: a
level-synchronous BFS whose expansion step visits the *forward neighbours* of
each frontier node — the spatial neighbours within the current snapshot plus
the same node at later active times (causal edges).  The return value is the
``reached`` dictionary mapping every reachable temporal node to its distance
from the root (Definition 6), optionally augmented with the BFS tree and the
per-iteration frontier trace (which reproduces Figure 3).

Complexity is ``O(|E| + |V|)`` over the expanded graph ``G = (V, E~ ∪ E')``
(Theorem 2) when the underlying representation answers forward-neighbour
queries in output-sensitive time, as
:class:`~repro.graph.adjacency_list.AdjacencyListEvolvingGraph` does.

Backends
--------
Both search drivers accept ``backend="python" | "vectorized"``:

* ``"vectorized"`` (default) routes the search through the shared sparse
  frontier engine (:mod:`repro.engine`): frontiers become packed bit lanes,
  and each BFS level is one windowed advance over the stacked snapshot
  operators (push, pull or dense, chosen once per level), which is much
  faster than walking Python dictionaries (see
  ``benchmarks/bench_engine.py``).
* ``"python"`` is this module's original node-at-a-time implementation,
  kept verbatim as the reference oracle.

Searches that record discovery-order artefacts (``track_parents``,
``track_frontiers``) or override ``neighbor_fn`` always use the Python
path, whose insertion order is part of the documented behaviour.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable

from repro.exceptions import InactiveNodeError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = ["BFSResult", "evolving_bfs", "evolving_bfs_tree", "multi_source_bfs"]


@dataclass
class BFSResult:
    """Result of a breadth-first search over an evolving graph.

    Attributes
    ----------
    root:
        The temporal node (or tuple of temporal nodes for multi-source
        searches) the traversal started from.
    reached:
        ``{(v, t): distance}`` for every temporal node reachable from the
        root, including the root itself at distance 0.  This is exactly the
        ``reached`` dictionary returned by the paper's Algorithm 1.  The
        Python path returns a ``dict``; the engine returns an equal,
        read-only :class:`~repro.engine.reached.ReachedView` over the root's
        distance column (``copy()`` gives a plain ``dict``).
    parents:
        ``{(v, t): (u, s)}`` BFS-tree parent pointers (roots map to
        themselves).  Only populated when the search is run with
        ``track_parents=True``.
    frontiers:
        ``frontiers[k]`` is the list of temporal nodes at distance ``k``, in
        discovery order; ``frontiers[0]`` is the root set.  Only populated
        when the search is run with ``track_frontiers=True``.
    """

    root: TemporalNodeTuple | tuple[TemporalNodeTuple, ...]
    reached: Mapping[TemporalNodeTuple, int]
    parents: dict[TemporalNodeTuple, TemporalNodeTuple] = field(default_factory=dict)
    frontiers: list[list[TemporalNodeTuple]] = field(default_factory=list)

    def distance(self, node: Hashable, time: Hashable) -> int | None:
        """Distance from the root to ``(node, time)`` or ``None`` when unreachable."""
        return self.reached.get((node, time))

    def is_reachable(self, node: Hashable, time: Hashable) -> bool:
        """Whether ``(node, time)`` was reached by the search (Definition 7)."""
        return (node, time) in self.reached

    def max_distance(self) -> int:
        """Eccentricity of the root within its reachable set."""
        return max(self.reached.values(), default=0)

    def nodes_at_distance(self, k: int) -> set[TemporalNodeTuple]:
        """All temporal nodes at distance exactly ``k`` (the k-forward neighbours)."""
        return {tn for tn, d in self.reached.items() if d == k}

    def reachable_node_identities(self) -> set[Hashable]:
        """Distinct node identities (ignoring time) reached by the search."""
        return {v for v, _ in self.reached}

    def path_to(self, node: Hashable, time: Hashable) -> list[TemporalNodeTuple] | None:
        """Reconstruct a shortest temporal path from the root to ``(node, time)``.

        Requires the search to have been run with ``track_parents=True``;
        returns ``None`` when the target is unreachable.
        """
        target = (node, time)
        if target not in self.reached:
            return None
        if not self.parents:
            raise ValueError(
                "parent pointers were not tracked; rerun with track_parents=True"
            )
        chain = [target]
        while self.parents[chain[-1]] != chain[-1]:
            chain.append(self.parents[chain[-1]])
        chain.reverse()
        return chain

    def __len__(self) -> int:
        return len(self.reached)


def evolving_bfs(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    *,
    track_parents: bool = False,
    track_frontiers: bool = False,
    neighbor_fn: Callable[[Hashable, Hashable], Iterable[TemporalNodeTuple]]
    | None = None,
    backend: str = "vectorized",
) -> BFSResult:
    """Breadth-first search over an evolving graph from ``root`` (Algorithm 1).

    Parameters
    ----------
    graph:
        Any evolving-graph representation.
    root:
        The active temporal node ``(v, t)`` to start from.  Rooting a search
        at an inactive node raises :class:`InactiveNodeError`, because
        temporal paths from inactive nodes are empty by Definition 4.
    track_parents, track_frontiers:
        Record BFS-tree parent pointers / per-level frontiers (needed to
        reconstruct shortest paths and to reproduce the Figure-3 trace).
    neighbor_fn:
        Override for the forward-neighbour expansion, e.g. to reuse this
        driver for the time-reversed search.  Defaults to
        ``graph.forward_neighbors``.  Forces the Python backend.
    backend:
        ``"vectorized"`` (default) runs on the sparse frontier engine;
        ``"python"`` runs the original reference implementation.  Tracking
        options and ``neighbor_fn`` always use the Python path.

    Returns
    -------
    BFSResult
        With ``reached[(v, t)]`` equal to the Definition-6 distance from the
        root for every reachable temporal node.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    root = (root[0], root[1])
    graph.require_active(*root)
    if (
        backend == "vectorized"
        and neighbor_fn is None
        and not track_parents
        and not track_frontiers
        and graph.num_timestamps > 0
    ):
        return get_kernel(graph).bfs(root)
    expand = neighbor_fn if neighbor_fn is not None else graph.forward_neighbors
    return _level_loop(
        root,
        [root],
        expand,
        track_parents=track_parents,
        track_frontiers=track_frontiers,
    )


def _level_loop(
    root: TemporalNodeTuple | tuple[TemporalNodeTuple, ...],
    sources: list[TemporalNodeTuple],
    expand: Callable[[Hashable, Hashable], Iterable[TemporalNodeTuple]],
    *,
    track_parents: bool,
    track_frontiers: bool,
) -> BFSResult:
    """Algorithm 1's level-synchronous loop from ``sources`` (all at distance 0).

    Level ``k`` expands the frontier nodes in discovery order and records
    every undiscovered neighbour at distance ``k``; the Figure-3 trace and
    the parent pointers depend on that order.  ``root`` is the result's
    ``root`` field.
    """
    reached: dict[TemporalNodeTuple, int] = {r: 0 for r in sources}
    parents: dict[TemporalNodeTuple, TemporalNodeTuple] = (
        {r: r for r in sources} if track_parents else {}
    )
    frontiers: list[list[TemporalNodeTuple]] = (
        [list(sources)] if track_frontiers else []
    )
    frontier: list[TemporalNodeTuple] = list(sources)
    k = 1
    while frontier:
        next_frontier: list[TemporalNodeTuple] = []
        for v, t in frontier:
            for neighbor in expand(v, t):
                if neighbor not in reached:
                    reached[neighbor] = k
                    if track_parents:
                        parents[neighbor] = (v, t)
                    next_frontier.append(neighbor)
        if track_frontiers and next_frontier:
            frontiers.append(next_frontier)
        frontier = next_frontier
        k += 1

    return BFSResult(root=root, reached=reached, parents=parents, frontiers=frontiers)


def evolving_bfs_tree(graph: BaseEvolvingGraph, root: TemporalNodeTuple) -> BFSResult:
    """Convenience wrapper: BFS with parent pointers and frontier trace enabled."""
    return evolving_bfs(graph, root, track_parents=True, track_frontiers=True)


def multi_source_bfs(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple],
    *,
    track_parents: bool = False,
    neighbor_fn: Callable[[Hashable, Hashable], Iterable[TemporalNodeTuple]]
    | None = None,
    backend: str = "vectorized",
) -> BFSResult:
    """BFS from several roots at once: distance to the *nearest* root.

    Used by the community-mining application of Section V, which expands
    forward from all leaves of a backward influence tree simultaneously.
    Inactive roots are skipped (their temporal paths are empty); if every root
    is inactive, an :class:`InactiveNodeError` is raised.  With
    ``backend="vectorized"`` (default) all roots seed one engine frontier, so
    the whole search costs a single traversal.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    expand = neighbor_fn if neighbor_fn is not None else graph.forward_neighbors

    root_list = [(r[0], r[1]) for r in roots]
    active_roots = [r for r in root_list if graph.is_active(*r)]
    if not active_roots:
        if root_list:
            raise InactiveNodeError(*root_list[0])
        raise ValueError("multi_source_bfs requires at least one root")

    if (
        backend == "vectorized"
        and neighbor_fn is None
        and not track_parents
        and graph.num_timestamps > 0
    ):
        return get_kernel(graph).multi_source(active_roots)

    return _level_loop(
        tuple(active_roots),
        active_roots,
        expand,
        track_parents=track_parents,
        track_frontiers=False,
    )
