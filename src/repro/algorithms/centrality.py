"""Temporal centrality measures built on the evolving-graph BFS.

Section V motivates the BFS as a tool for mining influence in citation
networks; the natural node-level summaries of the BFS output are temporal
analogues of classical centralities.  All of them operate on the paper's own
distance (hop count over static *and* causal edges):

* :func:`temporal_out_reach` / :func:`temporal_in_reach` — how many node
  identities a temporal node can influence / be influenced by,
* :func:`temporal_closeness` — inverse mean distance to the reachable set,
* :func:`temporal_betweenness_sampled` — fraction of sampled shortest
  temporal paths passing through each node identity,
* :func:`temporal_katz` — Katz-style weighted path count from powers of the
  block adjacency matrix ``A_n`` (converges for any attenuation factor below
  the reciprocal spectral radius; always converges for acyclic snapshots
  because ``A_n`` is then nilpotent, Lemma 1).

Backends
--------
Every measure accepts ``backend="python" | "vectorized"``.  The default
``"vectorized"`` runs all roots through the shared frontier engine as
batched sweeps, one packed root lane per root
(:meth:`FrontierKernel.identity_reach_counts
<repro.engine.frontier.FrontierKernel.identity_reach_counts>` and friends);
the sampled betweenness reconstructs its shortest paths from the engine's
parent-slot tracking mode instead of Python BFS trees.  ``"python"`` is the
original one-dictionary-BFS-per-root oracle.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.core.backward import backward_bfs
from repro.core.bfs import evolving_bfs
from repro.core.block_matrix import build_block_adjacency
from repro.exceptions import ConvergenceError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = [
    "temporal_out_reach",
    "temporal_in_reach",
    "temporal_closeness",
    "temporal_betweenness_sampled",
    "temporal_katz",
]


def _reach_vectorized(
    graph: BaseEvolvingGraph, direction: str
) -> dict[TemporalNodeTuple, int]:
    from repro.engine import get_kernel

    roots = graph.active_temporal_nodes()
    if not roots:
        return {}
    return get_kernel(graph).identity_reach_counts(roots, direction=direction)


def temporal_out_reach(
    graph: BaseEvolvingGraph,
    *,
    backend: str = "vectorized",
) -> dict[TemporalNodeTuple, int]:
    """For every active temporal node, the number of distinct node identities it can reach."""
    from repro.engine import resolve_backend

    if resolve_backend(backend) == "vectorized":
        return _reach_vectorized(graph, "forward")
    out: dict[TemporalNodeTuple, int] = {}
    for root in graph.active_temporal_nodes():
        reached = evolving_bfs(graph, root, backend="python").reached
        out[root] = len({v for v, _ in reached} - {root[0]})
    return out


def temporal_in_reach(
    graph: BaseEvolvingGraph,
    *,
    backend: str = "vectorized",
) -> dict[TemporalNodeTuple, int]:
    """For every active temporal node, the number of distinct node identities that can reach it."""
    from repro.engine import resolve_backend

    if resolve_backend(backend) == "vectorized":
        return _reach_vectorized(graph, "backward")
    out: dict[TemporalNodeTuple, int] = {}
    for root in graph.active_temporal_nodes():
        reached = backward_bfs(graph, root, backend="python").reached
        out[root] = len({v for v, _ in reached} - {root[0]})
    return out


def temporal_closeness(
    graph: BaseEvolvingGraph,
    *,
    backend: str = "vectorized",
) -> dict[TemporalNodeTuple, float]:
    """Harmonic temporal closeness: mean of ``1/distance`` to every other active temporal node.

    Harmonic (rather than classic) closeness is used so unreachable nodes
    contribute zero instead of making the measure undefined.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    active = graph.active_temporal_nodes()
    n = len(active)
    if not active:
        return {}
    if backend == "vectorized":
        sums = get_kernel(graph).harmonic_closeness_sums(active)
        if n <= 1:
            return {root: 0.0 for root in active}
        return {root: sums[root] / (n - 1) for root in active}
    out: dict[TemporalNodeTuple, float] = {}
    for root in active:
        reached = evolving_bfs(graph, root, backend="python").reached
        total = sum(1.0 / d for tn, d in reached.items() if d > 0)
        out[root] = total / (n - 1) if n > 1 else 0.0
    return out


def temporal_betweenness_sampled(
    graph: BaseEvolvingGraph,
    *,
    num_samples: int = 100,
    seed: int | np.random.Generator | None = None,
    backend: str = "vectorized",
) -> dict[Hashable, float]:
    """Sampled temporal betweenness of node identities.

    Samples ``num_samples`` ordered pairs of active temporal nodes, finds one
    shortest temporal path per reachable pair (BFS parent pointers), and
    counts how often each node identity appears strictly inside those paths.
    Returns normalised frequencies (they sum to 1 when any path was found).

    With ``backend="vectorized"`` (the default) the shortest-path trees come
    from the engine's parent-slot tracking mode
    (:meth:`FrontierKernel.bfs <repro.engine.frontier.FrontierKernel.bfs>`
    with ``track_parents=True``), one batched sweep per distinct sampled
    source.  Both backends draw the same sample pairs for a given ``seed``
    and find a path for exactly the same pairs (path lengths are backend
    independent), but the engine may pick a different — equally shortest —
    path than the Python oracle's discovery order, so the sampled scores
    can differ between backends on graphs with ties.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    active = graph.active_temporal_nodes()
    if len(active) < 2:
        return {}
    pairs: list[tuple[TemporalNodeTuple, TemporalNodeTuple]] = []
    for _ in range(num_samples):
        i, j = rng.integers(0, len(active), size=2)
        if i == j:
            continue
        pairs.append((active[int(i)], active[int(j)]))

    # group by source so each tree is built once yet only one is held live
    targets_of: dict[TemporalNodeTuple, list[TemporalNodeTuple]] = {}
    for source, target in pairs:
        targets_of.setdefault(source, []).append(target)

    counts: dict[Hashable, float] = {}
    total = 0
    for source, targets in targets_of.items():
        if backend == "vectorized":
            tree = get_kernel(graph).bfs(source, track_parents=True)
        else:
            tree = evolving_bfs(graph, source, track_parents=True, backend="python")
        for target in targets:
            path = tree.path_to(*target)
            if path is None or len(path) < 3:
                continue
            total += 1
            for v, _ in path[1:-1]:
                counts[v] = counts.get(v, 0.0) + 1.0
    if total:
        counts = {v: c / total for v, c in counts.items()}
    return counts


def temporal_katz(
    graph: BaseEvolvingGraph,
    *,
    alpha: float = 0.25,
    max_terms: int | None = None,
    tol: float = 1e-12,
    backend: str = "vectorized",
) -> dict[TemporalNodeTuple, float]:
    """Katz-style centrality from the block adjacency matrix ``A_n``.

    ``katz(v, t) = Σ_k alpha^k · (number of temporal paths of k hops ending at (v, t))``
    computed by accumulating ``alpha^k (A_n^T)^k 1``.  For acyclic snapshots
    ``A_n`` is nilpotent, so the series is a finite sum regardless of
    ``alpha``; otherwise the series must converge within ``max_terms`` terms
    (default: number of active temporal nodes) or :class:`ConvergenceError`
    is raised.

    The vectorized backend never materializes ``A_n``: the engine applies
    its diagonal blocks as per-snapshot CSR products and all causal blocks
    at once as a masked cumulative sum along the time axis.
    """
    from repro.engine import get_kernel, resolve_backend

    backend = resolve_backend(backend)
    if backend == "vectorized":
        if graph.num_timestamps == 0 or not graph.active_temporal_nodes():
            return {}
        return get_kernel(graph).katz_scores(alpha=alpha, max_terms=max_terms, tol=tol)
    block = build_block_adjacency(graph)
    n = block.num_active_nodes
    if n == 0:
        return {}
    limit = max_terms if max_terms is not None else max(n, 1)
    at = block.transpose().astype(np.float64)
    term = np.ones(n, dtype=np.float64)
    score = np.zeros(n, dtype=np.float64)
    converged = False
    for _ in range(limit):
        term = alpha * (at @ term)
        if not np.isfinite(term).all():
            raise ConvergenceError("temporal Katz series diverged; decrease alpha")
        score += term
        if np.abs(term).max() < tol:
            converged = True
            break
    if not converged and not block.is_nilpotent():
        raise ConvergenceError(
            f"temporal Katz did not converge within {limit} terms; decrease alpha"
        )
    return {block.temporal_node_at(i): float(score[i]) for i in range(n)}
