"""Citation-network influence mining (the Section V application).

Section V describes the intended application of the evolving-graph BFS:

* ``T(a, t)`` — the set of authors influenced by author ``a``'s work at time
  ``t``, computed by a forward BFS from ``(a, t)``.  (In a citation network
  the edge ``i -> j`` means "i cites j", so influence flows *against* the
  citation direction; pass ``follow_citations=False`` — the default — to
  traverse incoming citation edges, or ``True`` to follow outgoing edges if
  the graph already encodes "influences" directly.)
* ``T⁻¹(a, t)`` — the authors that influenced ``a`` at time ``t``, found by
  searching backward in time.
* a *community* of ``a`` at time ``t`` — the researchers influenced by the
  same sources as ``a``: search backward to find the leaves (the original
  influencers), then search forward from every leaf and union the results.

All functions operate at the level of node identities (authors), collapsing
the temporal detail that the underlying BFS provides, because that is how the
paper phrases the application; the temporal sets are also available for
callers that need them.

Backends
--------
Every function accepts ``backend="python" | "vectorized"`` (default
``"vectorized"``): the engine runs the citation-flipped expansions natively
(``reverse_edges`` swaps the spatial operator stack while keeping the time
direction), and ``top_influencers`` batches every author's earliest
appearance into one batched reach-count sweep, one packed root lane per
author.  ``influence_tree_leaves`` reads the leaf test straight off the compiled
stacks — a backward-reached slot is a leaf iff its spatial expansion column
is empty (out-degree columns of the forward operators, or in-degree rows
when following citations) and the node has no earlier active appearance
(a shifted cumulative OR over the activeness mask) — and ``community_of``
unions the forward sweeps of all leaves as columns of one batched engine
block.  The dict-walking implementations are kept verbatim as the
``backend="python"`` oracles.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.bfs import evolving_bfs
from repro.exceptions import InactiveNodeError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "influence_set",
    "influencer_set",
    "influence_tree_leaves",
    "community_of",
    "top_influencers",
]


def _forward_expansion(graph: BaseEvolvingGraph, follow_citations: bool):
    """Influence propagates along incoming citations by default (cited -> citing)."""
    if follow_citations:
        return graph.forward_neighbors
    return _influence_neighbors(graph)


def _backward_expansion(graph: BaseEvolvingGraph, follow_citations: bool):
    if follow_citations:
        return graph.backward_neighbors
    return _influenced_by_neighbors(graph)


def _influence_neighbors(graph: BaseEvolvingGraph):
    """Forward-in-time expansion that walks citation edges backwards (cited -> citer)."""

    def expand(node: Hashable, time) -> list[TemporalNodeTuple]:
        if not graph.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in graph.in_neighbors_at(node, time):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        for t_later in graph.causal_out_times(node, time):
            result.append((node, t_later))
        return result

    return expand


def _influenced_by_neighbors(graph: BaseEvolvingGraph):
    """Backward-in-time expansion that walks citation edges forwards (citer -> cited)."""

    def expand(node: Hashable, time) -> list[TemporalNodeTuple]:
        if not graph.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in graph.out_neighbors_at(node, time):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        for t_earlier in graph.causal_in_times(node, time):
            result.append((node, t_earlier))
        return result

    return expand


def influence_set(
    graph: BaseEvolvingGraph,
    author: Hashable,
    time,
    *,
    follow_citations: bool = False,
    backend: str = "vectorized",
) -> set[Hashable]:
    """``T(author, time)``: authors influenced by ``author``'s work at ``time``.

    Raises :class:`InactiveNodeError` when the author did not publish (is not
    active) at ``time``.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    if not graph.is_active(author, time):
        raise InactiveNodeError(author, time)
    if backend == "vectorized":
        result = get_kernel(graph).bfs(
            (author, time), direction="forward", reverse_edges=not follow_citations
        )
        return {v for v, _ in result.reached if v != author}
    expand = _forward_expansion(graph, follow_citations)
    reached = evolving_bfs(
        graph, (author, time), neighbor_fn=expand, backend="python"
    ).reached
    return {v for v, _ in reached if v != author}


def influencer_set(
    graph: BaseEvolvingGraph,
    author: Hashable,
    time,
    *,
    follow_citations: bool = False,
    backend: str = "vectorized",
) -> set[Hashable]:
    """``T⁻¹(author, time)``: authors whose work influenced ``author`` at ``time``."""
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    if not graph.is_active(author, time):
        raise InactiveNodeError(author, time)
    if backend == "vectorized":
        result = get_kernel(graph).bfs(
            (author, time), direction="backward", reverse_edges=not follow_citations
        )
        return {v for v, _ in result.reached if v != author}
    expand = _backward_expansion(graph, follow_citations)
    reached = evolving_bfs(
        graph, (author, time), neighbor_fn=expand, backend="python"
    ).reached
    return {v for v, _ in reached if v != author}


def influence_tree_leaves(
    graph: BaseEvolvingGraph,
    author: Hashable,
    time,
    *,
    follow_citations: bool = False,
    backend: str = "vectorized",
) -> set[TemporalNodeTuple]:
    """Leaves of the backward influence tree ``T⁻¹(author, time)``.

    A leaf is a temporal node in the backward-reachable set with no further
    backward expansion: an "original source" of the influence chain.  These
    are the temporal nodes the paper uses to seed the forward community
    search.

    The vectorized backend runs one backward engine sweep and evaluates the
    leaf predicate on the whole ``(T, N)`` reached block at once: the
    spatial half is the per-snapshot expansion-column emptiness read off
    the compiled CSR stacks (out-degree columns, or in-degree rows when
    ``follow_citations``), the causal half is a shifted cumulative OR over
    the activeness mask (an earlier active appearance of the same node).
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    if not graph.is_active(author, time):
        raise InactiveNodeError(author, time)
    if backend == "vectorized":
        kernel = get_kernel(graph)
        for _, dist in kernel.distance_blocks(
            [(author, time)],
            direction="backward",
            reverse_edges=not follow_citations,
        ):
            block = dist[:, :, 0]
        reached = block >= 0  # (T, N)
        leaf_mask = (
            reached
            & ~_spatial_expandable(kernel.compiled, follow_citations)
            & ~_earlier_active(kernel.compiled)
        )
        if not leaf_mask.any():
            # every reached node still expands (cyclic snapshot): fall back
            # to the deepest frontier so the community search always has seeds
            leaf_mask = reached & (block == block[reached].max())
        labels = kernel.compiled.node_labels
        times = kernel.compiled.times
        t_idx, v_idx = np.nonzero(leaf_mask)
        return {
            (labels[vi], times[ti]) for ti, vi in zip(t_idx.tolist(), v_idx.tolist())
        }
    expand = _backward_expansion(graph, follow_citations)
    reached = evolving_bfs(
        graph, (author, time), neighbor_fn=expand, backend="python"
    ).reached
    leaves: set[TemporalNodeTuple] = set()
    for tn in reached:
        if not expand(*tn):
            leaves.add(tn)
    # If every reached node still expands (cyclic snapshot), fall back to the
    # deepest frontier so the community search always has seeds.
    if not leaves:
        max_depth = max(reached.values())
        leaves = {tn for tn, d in reached.items() if d == max_depth}
    return leaves


def _spatial_expandable(compiled, follow_citations: bool) -> np.ndarray:
    """``(T, N)`` mask: the backward spatial expansion of ``(v, t)`` is non-empty.

    With ``follow_citations=False`` the backward search expands along
    *out*-edges (the citation-flipped orientation), so the test is column
    non-emptiness of the forward operators ``F[t]`` (column ``v`` holds the
    out-edges of ``v``); with ``follow_citations=True`` it expands along
    in-edges, which are exactly the rows of ``F[t]``.  Both reads come
    straight off the CSR structure — no transpose is ever built for this.
    Self-loops are already dropped from the compiled operators, matching
    the oracle's ``w != node`` filter.
    """
    t_count = compiled.num_snapshots
    n = compiled.num_nodes
    out = np.zeros((t_count, n), dtype=bool)
    for ti, mat in enumerate(compiled.forward_operators):
        if follow_citations:
            out[ti] = np.diff(mat.indptr) > 0
        else:
            out[ti, mat.indices] = True
    return out


def _earlier_active(compiled) -> np.ndarray:
    """``(T, N)`` mask: the node has an active appearance strictly before ``t``."""
    active = compiled.active_mask
    earlier = np.zeros_like(active)
    if active.shape[0] > 1:
        earlier[1:] = np.logical_or.accumulate(active, axis=0)[:-1]
    return earlier


def community_of(
    graph: BaseEvolvingGraph,
    author: Hashable,
    time,
    *,
    follow_citations: bool = False,
    include_author: bool = False,
    backend: str = "vectorized",
) -> set[Hashable]:
    """The community of ``author`` at ``time``: researchers influenced by the same sources.

    Implements the Section V recipe: find the leaves of ``T⁻¹(author, time)``,
    then union the forward influence sets of all leaves, i.e.
    ``T(l1, t1) ∪ T(l2, t2) ∪ ... ∪ T(lk, tk)``.

    The vectorized backend seeds every leaf as one column of a batched
    engine sweep, collapses each column to reached node identities, masks
    out each leaf's own identity, and ORs the columns — the whole union is
    a handful of array reductions instead of one Python BFS per leaf.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    leaves = influence_tree_leaves(
        graph, author, time, follow_citations=follow_citations, backend=backend
    )
    if backend == "vectorized":
        kernel = get_kernel(graph)
        node_index = kernel.compiled.node_index
        labels = kernel.compiled.node_labels
        n = kernel.compiled.num_nodes
        member = np.zeros(n, dtype=bool)
        for chunk, dist in kernel.distance_blocks(
            sorted(leaves, key=repr),
            direction="forward",
            reverse_edges=not follow_citations,
        ):
            identity = (dist >= 0).any(axis=0)  # (N, R)
            for col, (leaf_author, _) in enumerate(chunk):
                identity[node_index[leaf_author], col] = False
            member |= identity.any(axis=1)
        community = {labels[vi] for vi in np.nonzero(member)[0].tolist()}
        if not include_author:
            community.discard(author)
        return community
    expand = _forward_expansion(graph, follow_citations)
    # The union T(l1, t1) ∪ ... ∪ T(lk, tk) of the paper: each leaf's influence
    # set excludes that leaf's own identity, but a leaf may of course appear in
    # another leaf's influence set.
    community: set[Hashable] = set()
    for leaf_author, leaf_time in sorted(leaves, key=repr):
        reached = evolving_bfs(
            graph, (leaf_author, leaf_time), neighbor_fn=expand, backend="python"
        ).reached
        community |= {v for v, _ in reached if v != leaf_author}
    if not include_author:
        community.discard(author)
    return community


def top_influencers(
    graph: BaseEvolvingGraph,
    *,
    top_k: int = 10,
    follow_citations: bool = False,
    backend: str = "vectorized",
) -> list[tuple[Hashable, int]]:
    """Rank authors by the size of their widest influence set over all their active times.

    For each author the influence set is computed from their *earliest*
    active appearance (the earliest appearance always yields the largest
    forward-reachable set, since every later appearance is itself reachable
    from it via causal edges).  The vectorized backend packs every author's
    earliest appearance into one batched reach-count sweep.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    roots: list[TemporalNodeTuple] = []
    for author in sorted(graph.nodes(), key=repr):
        times = graph.active_times(author)
        if times:
            roots.append((author, times[0]))
    if not roots:
        return []
    if backend == "vectorized":
        counts = get_kernel(graph).identity_reach_counts(
            roots, direction="forward", reverse_edges=not follow_citations
        )
        scores = {author: counts[(author, t)] for author, t in roots}
    else:
        scores = {
            author: len(
                influence_set(
                    graph,
                    author,
                    t,
                    follow_citations=follow_citations,
                    backend="python",
                )
            )
            for author, t in roots
        }
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], repr(kv[0])))
    return ranked[:top_k]
