"""Temporal connected components of an evolving graph.

Two natural notions arise from the Theorem-1 expansion ``G = (V, E~ ∪ E')``:

* **weak temporal components** — connected components of the expansion with
  edge directions ignored; temporal nodes in different weak components can
  never influence each other in either direction.
* **strong temporal components** — maximal sets of temporal nodes that are
  mutually reachable by temporal paths.  Because causal edges only run
  forward in time, nontrivial strong components can only live inside a single
  timestamp (they need a cycle within one snapshot), which the implementation
  exploits.

Both are defined on *active temporal nodes* (inactive nodes belong to no
component, mirroring their exclusion from ``V``).

Backends
--------
``backend="vectorized"`` (the default) hands the shared
:class:`~repro.graph.compiled.CompiledTemporalGraph`'s forward stack — the
block-diagonal matrix of the snapshot operators over all ``T · N``
temporal slots — to :func:`scipy.sparse.csgraph.connected_components`,
plus, for the weak notion, one chain of causal links per node (consecutive
active appearances), which is enough for connectivity.
``backend="python"`` walks the explicit Theorem-1 expansion node by node,
kept as the correctness oracle.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from repro.core.expansion import build_static_expansion
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "weak_temporal_components",
    "strong_temporal_components",
    "num_weak_components",
    "component_of",
]


def _sort_components(
    components: list[set[TemporalNodeTuple]],
) -> list[set[TemporalNodeTuple]]:
    """Decreasing size, ties broken deterministically (shared with the oracle)."""
    components.sort(key=lambda c: (-len(c), sorted(map(repr, c))))
    return components


def _components_vectorized(
    graph: BaseEvolvingGraph, *, strong: bool
) -> list[set[TemporalNodeTuple]]:
    """Both component notions via one ``csgraph.connected_components`` call.

    Runs on the ``(T · N, T · N)`` block matrix of the expansion: the
    artifact's forward stack and, for the weak notion, causal links between
    consecutive active appearances of each node (all-pairs causal edges add
    nothing to connectivity).  Strong components skip the causal links
    entirely — they run strictly forward in time, so no cycle crosses a
    snapshot boundary.
    """
    from repro.engine import get_compiled

    if graph.num_timestamps == 0:
        return []
    compiled = get_compiled(graph)
    active = compiled.active_mask
    t_count, n = active.shape
    if n == 0 or not active.any():
        return []

    block = compiled.stack()
    if not strong and t_count > 1:
        # one causal chain per node: consecutive active appearances
        v_arr, t_arr = np.nonzero(active.T)  # node-major, time-ascending per node
        same_node = v_arr[1:] == v_arr[:-1]
        rows = t_arr[:-1][same_node] * n + v_arr[:-1][same_node]
        cols = t_arr[1:][same_node] * n + v_arr[1:][same_node]
        links = np.ones(rows.shape[0], dtype=block.dtype)
        block = block + sp.csr_matrix((links, (rows, cols)), shape=block.shape)
    _, labels = csgraph.connected_components(
        block,
        directed=True,
        connection="strong" if strong else "weak",
    )

    node_labels = compiled.node_labels
    times = compiled.times
    t_idx, v_idx = np.nonzero(active)
    grouped: dict[int, set[TemporalNodeTuple]] = {}
    slot_labels = labels[t_idx * n + v_idx]
    for t, v, lab in zip(t_idx.tolist(), v_idx.tolist(), slot_labels.tolist()):
        grouped.setdefault(lab, set()).add((node_labels[v], times[t]))
    return _sort_components(list(grouped.values()))


def weak_temporal_components(
    graph: BaseEvolvingGraph, *, backend: str = "vectorized"
) -> list[set[TemporalNodeTuple]]:
    """Connected components of the expansion, ignoring edge direction.

    Returned in decreasing order of size (ties broken deterministically).
    """
    from repro.engine import resolve_backend

    if resolve_backend(backend) == "vectorized":
        return _components_vectorized(graph, strong=False)
    expansion = build_static_expansion(graph)
    g = expansion.graph
    seen: set[TemporalNodeTuple] = set()
    components: list[set[TemporalNodeTuple]] = []
    for start in expansion.node_order:
        if start in seen:
            continue
        component: set[TemporalNodeTuple] = {start}
        seen.add(start)
        queue: deque[TemporalNodeTuple] = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.successors(u) + g.predecessors(u):
                if w not in seen:
                    seen.add(w)
                    component.add(w)
                    queue.append(w)
        components.append(component)
    return _sort_components(components)


def num_weak_components(
    graph: BaseEvolvingGraph, *, backend: str = "vectorized"
) -> int:
    """Number of weak temporal components."""
    return len(weak_temporal_components(graph, backend=backend))


def component_of(
    graph: BaseEvolvingGraph,
    temporal_node: TemporalNodeTuple,
    *,
    backend: str = "vectorized",
) -> set[TemporalNodeTuple]:
    """The weak temporal component containing ``temporal_node`` (empty set if inactive)."""
    temporal_node = tuple(temporal_node)
    if not graph.is_active(*temporal_node):
        return set()
    for component in weak_temporal_components(graph, backend=backend):
        if temporal_node in component:
            return component
    return set()


def strong_temporal_components(
    graph: BaseEvolvingGraph, *, backend: str = "vectorized"
) -> list[set[TemporalNodeTuple]]:
    """Maximal sets of mutually reachable temporal nodes.

    Since causal edges are strictly forward in time, any cycle in the
    expansion must stay within a single timestamp, so the strongly connected
    components of the expansion are exactly the per-snapshot strongly
    connected components (plus singletons).  The vectorized backend runs one
    strong-connectivity pass over the block-diagonal snapshot matrix; the
    Python oracle runs Tarjan's algorithm on each snapshot independently.
    """
    from repro.engine import resolve_backend

    if resolve_backend(backend) == "vectorized":
        return _components_vectorized(graph, strong=True)
    components: list[set[TemporalNodeTuple]] = []
    for t in graph.timestamps:
        active = graph.active_nodes_at(t)
        if not active:
            continue
        # iterative Tarjan on the snapshot restricted to active nodes
        index_counter = 0
        indices: dict[Hashable, int] = {}
        lowlink: dict[Hashable, int] = {}
        on_stack: dict[Hashable, bool] = {}
        stack: list[Hashable] = []

        adjacency = {
            v: [w for w in graph.out_neighbors_at(v, t) if w != v and w in active]
            for v in active
        }

        for root in sorted(active, key=repr):
            if root in indices:
                continue
            work: list[tuple[Hashable, int]] = [(root, 0)]
            while work:
                v, edge_idx = work.pop()
                if edge_idx == 0:
                    indices[v] = index_counter
                    lowlink[v] = index_counter
                    index_counter += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                neighbors = adjacency[v]
                for i in range(edge_idx, len(neighbors)):
                    w = neighbors[i]
                    if w not in indices:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack.get(w, False):
                        lowlink[v] = min(lowlink[v], indices[w])
                if recurse:
                    continue
                if lowlink[v] == indices[v]:
                    scc: set[TemporalNodeTuple] = set()
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        scc.add((w, t))
                        if w == v:
                            break
                    components.append(scc)
                if work:
                    parent, _ = work[-1]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
    return _sort_components(components)
