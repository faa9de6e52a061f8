"""Batch execution of many independent searches.

Workloads like the Section V citation analysis or the all-pairs statistics of
:mod:`repro.analysis` run one BFS per root over the same (read-only) evolving
graph.  :func:`batch_bfs` routes such a batch on the ``backend`` vocabulary
every other entry point uses (:func:`repro.engine.resolve_backend`):

* ``"vectorized"`` (the default) packs ``chunk_size`` roots into the root
  lanes of one sweep of the graph's cached frontier kernel, so every
  frontier advance serves the whole chunk;
* ``"python"`` runs the Algorithm-1 oracle once per root.

The same sweeps run in parallel on a
:class:`~repro.engine.sharded_sweep.ShardedSweepDriver` with
``backend="process"``, the package's one parallel mechanism: build one over
the graph's time shards and call its ``batch``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.bfs import BFSResult, evolving_bfs
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = ["batch_bfs"]


def batch_bfs(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple],
    *,
    backend: str = "vectorized",
    chunk_size: int = 128,
) -> dict[TemporalNodeTuple, BFSResult]:
    """Run one evolving-graph BFS per root and collect the results.

    Inactive roots are skipped silently (their searches would be empty).
    ``backend="vectorized"`` runs :meth:`FrontierKernel.batch
    <repro.engine.sharded_sweep.BatchedSweeps.batch>` on the graph's cached
    kernel (:func:`repro.engine.get_kernel`), ``chunk_size`` roots per
    sweep; ``backend="python"`` runs the per-root Algorithm-1 oracle.
    """
    from repro.engine import get_kernel, resolve_backend

    if resolve_backend(backend) == "python":
        return {
            tuple(r): evolving_bfs(graph, r, backend="python")
            for r in roots
            if graph.is_active(*r)
        }
    return get_kernel(graph).batch(roots, chunk_size=chunk_size)
