"""Batch execution of many independent searches.

Workloads like the Section V citation analysis or the all-pairs statistics of
:mod:`repro.analysis` run one BFS per root over the same (read-only) evolving
graph.  These searches are independent, so they parallelise at the task level
rather than inside one traversal — a far better fit for Python than
intra-traversal parallelism:

* the **thread** backend shares the graph object (zero copies) and benefits
  whenever forward-neighbour expansion releases the GIL (NumPy-backed
  representations) or on GIL-free CPython builds;
* the **process** backend ships the *compiled artifact*
  (:class:`~repro.graph.compiled.CompiledTemporalGraph` — a picklable bundle
  of CSR stacks and index tables) to each worker instead of pickling the
  whole graph object, builds one :class:`~repro.engine.frontier.FrontierKernel`
  per worker, and runs batched engine sweeps over root chunks there; this
  scales with physical cores while paying only the artifact's serialization
  cost (under the default ``fork`` start method on Linux even that is
  inherited copy-on-write);
* the **vectorized** backend packs all roots into the columns of a dense
  block and advances them by one CSR × dense-block product per snapshot on
  the shared frontier engine (:mod:`repro.engine`), amortizing the
  traversal across roots — usually far faster than any pool of Python
  traversals.  With ``num_workers > 1`` the root chunks are additionally
  fanned out over a thread pool: every worker drives the *same* cached
  kernel over the *same* compiled artifact
  (:class:`~repro.graph.compiled.CompiledTemporalGraph`), so the graph is
  compiled exactly once per mutation version no matter how many workers or
  calls run, and the SpMM inner loops overlap wherever SciPy releases the
  GIL;
* the **serial** backend is the reference implementation and the default.

The ablation benchmarks ``bench_parallel.py`` and ``bench_engine.py``
measure all of them.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Literal, Sequence

from repro.core.bfs import BFSResult, evolving_bfs
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple
from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["batch_bfs", "fan_out_chunks", "map_over_roots"]

_WORKER_KERNEL = None


def _init_worker(compiled: CompiledTemporalGraph) -> None:
    """Build one frontier kernel per worker over the shipped compiled artifact."""
    from repro.engine.frontier import FrontierKernel

    global _WORKER_KERNEL
    _WORKER_KERNEL = FrontierKernel(compiled)


def _worker_batch(
    chunk: list[TemporalNodeTuple],
) -> dict[TemporalNodeTuple, dict]:
    assert _WORKER_KERNEL is not None, "worker not initialised"
    results = _WORKER_KERNEL.batch(chunk, chunk_size=len(chunk))
    # ship plain reached dictionaries back; BFSResult is rebuilt in the parent
    return {root: result.reached for root, result in results.items()}


def fan_out_chunks(
    fn: Callable[[list], object],
    items: Sequence,
    *,
    chunk_size: int,
    num_workers: int = 1,
) -> list[object]:
    """Apply ``fn`` to ``items`` split into ``chunk_size`` chunks, in order.

    The shared chunking/fan-out primitive of the batch layer: with
    ``num_workers > 1`` the chunks are spread over a thread pool (the SpMM
    inner loops overlap wherever SciPy releases the GIL), otherwise they run
    inline.  Used by :func:`batch_bfs`'s vectorized backend.  Returns one
    result per chunk, in chunk order.
    """
    if chunk_size < 1:
        raise GraphError("chunk_size must be at least 1")
    chunks = [
        list(items[start : start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]
    if num_workers <= 1 or len(chunks) <= 1:
        return [fn(chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=num_workers) as pool:
        return list(pool.map(fn, chunks))


def map_over_roots(
    graph: BaseEvolvingGraph,
    roots: Sequence[TemporalNodeTuple],
    func: Callable[[BaseEvolvingGraph, TemporalNodeTuple], object],
    *,
    backend: Literal["serial", "thread"] = "serial",
    num_workers: int | None = None,
) -> list[object]:
    """Apply ``func(graph, root)`` to every root, optionally with a thread pool.

    The generic mapper accepts arbitrary callables and therefore cannot use
    processes (the callable may not be picklable); use :func:`batch_bfs` for
    the process backend.
    """
    roots = [tuple(r) for r in roots]
    if backend == "serial" or len(roots) <= 1:
        return [func(graph, r) for r in roots]
    if backend != "thread":
        raise GraphError(f"unsupported backend {backend!r} for map_over_roots")
    workers = num_workers or min(8, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(func, graph, r) for r in roots]
        return [f.result() for f in futures]


def batch_bfs(
    graph: BaseEvolvingGraph,
    roots: Iterable[TemporalNodeTuple],
    *,
    backend: Literal["serial", "thread", "process", "vectorized"] = "serial",
    num_workers: int | None = None,
    chunk_size: int = 128,
    mp_context: str | None = None,
    compiled: CompiledTemporalGraph | None = None,
    shards: int | None = None,
) -> dict[TemporalNodeTuple, BFSResult]:
    """Run one evolving-graph BFS per root and collect the results.

    Inactive roots are skipped silently (their searches would be empty).
    ``backend="vectorized"`` packs ``chunk_size`` roots at a time into the
    frontier engine's batched multi-source mode (one CSR × dense-block
    product per snapshot per level), optionally spreading the chunks over
    ``num_workers`` threads that all share the one cached compiled kernel.
    ``backend="process"`` ships the picklable compiled artifact — never the
    graph object itself — to each worker process and runs the same batched
    engine sweeps there, one root chunk per task (``mp_context`` selects the
    multiprocessing start method, e.g. ``"spawn"``; default: the platform
    default).  ``serial`` and ``thread`` run one Python traversal per root.

    ``compiled`` lets streaming callers hand the engine backends an artifact
    they already hold — typically the delta-patched one maintained by
    :func:`repro.generators.stream.apply_stream` — instead of resolving it
    through the dispatch cache.  It must describe ``graph``'s current
    contents (``compiled.is_current(graph)``); the python backends ignore it.

    ``shards`` (vectorized backend only) routes the batched sweeps through
    the pipelined time-shard driver
    (:func:`repro.engine.get_sharded_driver`) instead of the monolithic
    kernel — ``num_workers``/``chunk_size`` become the driver's pipeline
    parameters and the shard backend follows ``REPRO_SHARD_BACKEND`` —
    with bit-identical results.
    """
    root_list = [tuple(r) for r in roots]
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
        from repro.engine import get_sharded_driver

        driver = get_sharded_driver(
            graph, shards, num_workers=num_workers, chunk_size=chunk_size
        )
        return driver.batch(root_list, chunk_size=chunk_size)
    if compiled is not None and backend in ("vectorized", "process"):
        if not compiled.is_current(graph):
            raise GraphError(
                "the supplied compiled artifact is stale for this graph "
                f"(artifact version {compiled.mutation_version}, graph "
                f"version {graph.mutation_version}); recompile it first"
            )
        active_roots = [r for r in root_list if compiled.is_active(*r)]
    else:
        active_roots = [r for r in root_list if graph.is_active(*r)]
    workers = num_workers or min(8, os.cpu_count() or 1)

    if backend == "vectorized":
        if not active_roots:
            return {}
        if compiled is not None:
            from repro.engine.frontier import FrontierKernel

            # kernel construction over a pre-built artifact is reference-only
            # (no compilation), so the supplied artifact is used even when
            # the per-graph dispatch cache is cold
            kernel = FrontierKernel(compiled)
        else:
            from repro.engine import get_kernel

            kernel = get_kernel(graph)
        # fan the chunks out over threads; every worker shares the same
        # compiled artifact, so nothing is recompiled per worker or per call
        results = {}
        for part in fan_out_chunks(
            lambda chunk: kernel.batch(chunk, chunk_size=chunk_size),
            active_roots,
            chunk_size=chunk_size,
            num_workers=num_workers or 1,
        ):
            results.update(part)
        return results

    results: dict[TemporalNodeTuple, BFSResult] = {}
    if backend == "serial" or len(active_roots) <= 1:
        for root in active_roots:
            results[root] = evolving_bfs(graph, root, backend="python")
        return results

    if backend == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                root: pool.submit(evolving_bfs, graph, root, backend="python")
                for root in active_roots
            }
            for root, future in futures.items():
                results[root] = future.result()
        return results

    if backend == "process":
        if not active_roots:
            return {}
        if compiled is None:
            from repro.engine import get_compiled

            compiled = get_compiled(graph)
        # cap the chunk size so every worker gets at least one task; without
        # this, root counts below chunk_size would run on a single worker
        per_worker = -(-len(active_roots) // workers)
        effective_chunk = max(1, min(chunk_size, per_worker))
        chunks = [
            active_roots[start : start + effective_chunk]
            for start in range(0, len(active_roots), effective_chunk)
        ]
        context = (
            multiprocessing.get_context(mp_context) if mp_context is not None else None
        )
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(compiled,),
            mp_context=context,
        ) as pool:
            for part in pool.map(_worker_batch, chunks):
                for root, reached in part.items():
                    results[root] = BFSResult(root=root, reached=reached)
        return results

    raise GraphError(f"unsupported backend {backend!r}")
