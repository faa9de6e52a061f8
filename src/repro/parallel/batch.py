"""Batch execution of many independent searches.

Workloads like the Section V citation analysis or the all-pairs statistics of
:mod:`repro.analysis` run one BFS per root over the same (read-only) evolving
graph.  :func:`batch_bfs` routes such a batch on the ``backend`` vocabulary
every other entry point uses (:func:`repro.engine.resolve_backend`):

* ``"vectorized"`` (the default) packs ``chunk_size`` roots into the root
  lanes of one sweep of the shared frontier engine, so every frontier
  advance serves the whole chunk — with ``shards`` the same sweeps run on
  the pipelined time-shard driver, whose ``"process"`` backend is the
  package's one parallel mechanism;
* ``"python"`` runs the Algorithm-1 oracle once per root.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.bfs import BFSResult, evolving_bfs
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple
from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["batch_bfs"]


def batch_bfs(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple],
    *,
    backend: str = "vectorized",
    chunk_size: int = 128,
    compiled: CompiledTemporalGraph | None = None,
    shards: int | None = None,
) -> dict[TemporalNodeTuple, BFSResult]:
    """Run one evolving-graph BFS per root and collect the results.

    Inactive roots are skipped silently (their searches would be empty).
    ``backend="vectorized"`` runs :meth:`FrontierKernel.batch
    <repro.engine.sharded_sweep.BatchedSweeps.batch>`, ``chunk_size`` roots
    per sweep; ``backend="python"`` runs the per-root Algorithm-1 oracle.

    ``compiled`` lets streaming callers hand the engine an artifact they
    already hold — typically the delta-patched one maintained by
    :func:`repro.generators.stream.apply_stream` — instead of resolving it
    through the dispatch cache.  It must have been compiled from ``graph``
    itself and describe its current contents (``compiled.is_current(graph)``);
    the python backend ignores it.

    ``shards`` (vectorized backend only) routes the sweeps through the
    pipelined time-shard driver (:func:`repro.engine.get_sweeper`) instead
    of the monolithic kernel, with bit-identical results; the shard backend
    follows ``REPRO_SHARD_BACKEND``.
    """
    from repro.engine import FrontierKernel, get_sweeper, resolve_backend

    backend = resolve_backend(backend)
    if shards is not None:
        if backend != "vectorized":
            raise GraphError(
                "shards= requires backend='vectorized' (the shard driver "
                "replaces the monolithic engine sweep)"
            )
        if compiled is not None:
            raise GraphError(
                "shards= resolves its artifact through the dispatch cache; "
                "drop the compiled= argument"
            )
    if backend == "python":
        return {
            tuple(r): evolving_bfs(graph, r, backend="python")
            for r in roots
            if graph.is_active(*r)
        }
    if compiled is None:
        return get_sweeper(graph, shards).batch(roots, chunk_size=chunk_size)
    if not compiled.is_current(graph):
        raise GraphError(
            "the supplied compiled artifact does not describe this graph: it "
            "was compiled from another graph object or at another version "
            f"(artifact version {compiled.mutation_version}, graph "
            f"version {graph.mutation_version}); recompile it first"
        )
    # kernel construction over a pre-built artifact compiles nothing, so the
    # supplied artifact is used even when the per-graph dispatch cache is cold
    return FrontierKernel(compiled).batch(roots, chunk_size=chunk_size)
