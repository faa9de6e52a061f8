"""Backend selection and version-exact artifact caching for the engine.

Every search entry point (``evolving_bfs``, ``multi_source_bfs``,
``backward_bfs``, ``algebraic_bfs_blocked``, ``batch_bfs``) and every ported
analytics function (centrality, components, influence) accepts a ``backend``
flag:

* ``"vectorized"`` (the default) — route through the shared
  :class:`~repro.engine.frontier.FrontierKernel`;
* ``"python"`` — the original dictionary-walking reference implementation,
  kept as the correctness oracle.

Compiling a graph costs one pass over the edges, so the compiled artifact
(:class:`~repro.graph.compiled.CompiledTemporalGraph`) and its kernels — the
:class:`~repro.engine.frontier.FrontierKernel`, whose batched surface also
serves the label families, and the
:class:`~repro.engine.spectral.SpectralKernel` — are cached per graph
object (weakly, so graphs remain garbage-collectable) and keyed on the
graph's exact :attr:`~repro.graph.base.BaseEvolvingGraph.mutation_version`.
Any in-place edit — including count-preserving ones such as removing one
edge and adding another — bumps the version and therefore refreshes the
entry; the old count-based fingerprint that missed those mutations is gone.

A version mismatch does not discard the cached artifact: the stale entry
is *patched* via delta compilation
(:meth:`~repro.graph.compiled.CompiledTemporalGraph.recompile`), which
rebuilds only the snapshots whose per-snapshot version stamps moved and
shares every untouched CSR stack, transpose and mask row with the previous
artifact.  Streaming mutation patterns (one edge batch per step, as in the
Figure-5 growth experiment) therefore pay per step only for the touched
snapshots.  That patch is the one incremental path: everything derived
from the artifact is rebuilt over the patched result.  The kernels are
constructed afresh (a few object constructions; the
:class:`~repro.engine.spectral.SpectralKernel` starts with empty LU and
radius caches), and the shard drivers re-slice it.
:func:`invalidate_kernel` remains for callers that want to drop a cached
artifact eagerly (e.g. to free memory, or to force the next compile from
scratch).

Time-sharded execution has its own version-exact cache
(:func:`get_sharded_driver`); :func:`get_sweeper` hands a caller either the
kernel or, with ``shards``, the driver, so the algorithms layer chooses
once and calls the shared batched readouts.

The cache is thread-safe: lookups on a current entry are lock-free, while
entry creation and delta recompilation are double-checked under a module
lock so concurrent first-touch (the :class:`repro.serving.QueryServer`
reader threads) compiles each ``(graph, mutation_version)`` exactly once.
"""

from __future__ import annotations

import atexit
import os
import threading
import weakref

from repro.engine.frontier import FrontierKernel
from repro.engine.sharded_sweep import SHARD_BACKENDS, ShardedSweepDriver
from repro.engine.spectral import SpectralKernel
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph
from repro.graph.sharded import ShardedTemporalGraph

__all__ = [
    "BACKENDS",
    "get_compiled",
    "get_kernel",
    "get_sharded_driver",
    "get_spectral_kernel",
    "get_sweeper",
    "invalidate_kernel",
    "resolve_backend",
]

#: Recognised values of the ``backend`` flag.
BACKENDS = ("python", "vectorized")

_CACHE: "weakref.WeakKeyDictionary[BaseEvolvingGraph, tuple]" = (
    weakref.WeakKeyDictionary()
)

#: Serializes cache-entry creation and delta recompilation.  Concurrent
#: first-touch from :class:`repro.serving.QueryServer` reader threads used to
#: race ``_entry``: two threads could each compile the graph (duplicate
#: kernels, wasted work) or one could patch a stale entry while another was
#: mid-read of its quadruple.  Reads stay lock-free (the version-checked
#: lookup below only dereferences an immutable tuple, which is safe under
#: concurrent replacement); entry construction is double-checked under this
#: lock, so exactly one thread compiles per ``(graph, mutation_version)``.
#: The lock is global rather than per-graph — compile misses are rare and the
#: hit path never takes it, so cross-graph contention is negligible.
_CACHE_LOCK = threading.RLock()


def resolve_backend(backend: str) -> str:
    """Validate a ``backend`` flag value, returning it unchanged."""
    if backend not in BACKENDS:
        raise GraphError(f"unsupported backend {backend!r}; expected one of {BACKENDS}")
    return backend


def _entry(
    graph: BaseEvolvingGraph,
) -> tuple[CompiledTemporalGraph, FrontierKernel, SpectralKernel]:
    """The cached ``(compiled, kernel, spectral_kernel)`` triple.

    Rebuilt on version mismatch; every kernel shares the one compiled
    artifact (kernel construction is cheap — all per-kernel state is lazy).
    """
    version = graph.mutation_version
    try:
        cached = _CACHE.get(graph)
    except TypeError:  # unhashable graph object
        cached = None
    if cached is not None and cached[0] == version:
        return cached[1], cached[2], cached[3]
    with _CACHE_LOCK:
        # double-check: another thread may have compiled while we waited
        version = graph.mutation_version
        try:
            cached = _CACHE.get(graph)
        except TypeError:
            cached = None
        if cached is not None and cached[0] == version:
            return cached[1], cached[2], cached[3]
        # delta-aware refresh: patch the stale artifact in place of a full
        # rebuild, reusing every snapshot whose version stamp did not move
        previous = cached[1] if cached is not None else None
        compiled = CompiledTemporalGraph.recompile(graph, previous)
        kernel = FrontierKernel(compiled)
        spectral_kernel = SpectralKernel(compiled)
        if graph.mutation_version == version:
            # only publish an entry whose stamp still matches the graph; a
            # writer that mutated mid-compile forces the next reader to
            # recompile rather than ever caching a stale artifact
            try:
                _CACHE[graph] = (version, compiled, kernel, spectral_kernel)
            except TypeError:  # unhashable or non-weakrefable graph object
                pass
        return compiled, kernel, spectral_kernel


def get_compiled(graph: BaseEvolvingGraph) -> CompiledTemporalGraph:
    """The cached compiled artifact for ``graph``, exact to its mutation version.

    Shared by the kernels, the vectorized analytics layer and the
    batch/scaling harnesses, so one compilation serves them all.
    """
    return _entry(graph)[0]


def get_kernel(graph: BaseEvolvingGraph) -> FrontierKernel:
    """The cached :class:`FrontierKernel` for ``graph``, exact to its version."""
    return _entry(graph)[1]


def get_spectral_kernel(graph: BaseEvolvingGraph) -> SpectralKernel:
    """The cached :class:`SpectralKernel` for ``graph``, sharing the compiled artifact.

    Rides the same cache entry as the frontier kernel, so the
    spectral family (communicability, broadcast/receive centrality, dynamic
    walk counts) never compiles the graph separately — and its lazy LU /
    radius caches survive as long as the graph stays unmutated.
    """
    return _entry(graph)[2]


#: Per-graph sharded-driver cache: ``graph -> (mutation_version, {key: driver})``.
#: A version bump evicts the whole per-graph map (drivers hold compiled shard
#: slices of the stale artifact) and closes any pipeline worker processes.
_SHARD_CACHE: "weakref.WeakKeyDictionary[BaseEvolvingGraph, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _close_cached_drivers() -> None:
    """Close every cached shard driver's worker pipeline, for interpreter exit.

    Close-on-evict only fires when a graph *mutates*; a process that exits
    with entries still cached would otherwise leave persistent
    process-backend workers blocked on their task queues (their ``__del__``
    is not guaranteed to run during teardown).  Registered with
    :mod:`atexit` so the sentinel/join shutdown always happens while the
    interpreter is still able to do it.
    """
    with _CACHE_LOCK:
        for cached in list(_SHARD_CACHE.values()):
            for driver in cached[1].values():
                try:
                    driver.close()
                except Exception:  # pragma: no cover - teardown best effort
                    pass


atexit.register(_close_cached_drivers)


def get_sharded_driver(
    graph: BaseEvolvingGraph,
    shards: int,
    *,
    backend: str | None = None,
    num_workers: int | None = None,
    chunk_size: int = 128,
) -> ShardedSweepDriver:
    """The cached pipelined shard driver for ``graph``, exact to its version.

    Shards the cached compiled artifact into ``shards`` contiguous snapshot
    ranges (nnz-weighted) and wraps it in a
    :class:`~repro.engine.sharded_sweep.ShardedSweepDriver`.  ``backend``
    defaults to the ``REPRO_SHARD_BACKEND`` environment variable when set,
    else ``"serial"``.  Drivers are cached per
    ``(mutation_version, shard layout, backend, workers, chunk size)`` so
    repeated algorithm calls with the same routing reuse the shard slices
    (and, for the process backend, the persistent worker pipeline).  After
    a graph mutation the next call closes every stale driver for that graph
    and slices the delta-patched artifact afresh
    (:meth:`~repro.graph.sharded.ShardedTemporalGraph.from_compiled`).
    Clean snapshots keep their operator objects through the delta
    recompile, so the new slices share them; the new driver's shard kernels
    and process workers start cold.  A cached driver that was closed — a
    process-backend worker died under it — is replaced by a fresh one on
    the next call.
    """
    if backend is None:
        backend = os.environ.get("REPRO_SHARD_BACKEND", "serial")
    if backend not in SHARD_BACKENDS:
        raise GraphError(
            f"unsupported shard backend {backend!r}; expected one of {SHARD_BACKENDS}"
        )
    compiled = get_compiled(graph)
    version = compiled.mutation_version
    key = (int(shards), backend, num_workers, int(chunk_size))
    try:
        cached = _SHARD_CACHE.get(graph)
    except TypeError:  # unhashable graph object
        cached = None
    if cached is not None and cached[0] == version:
        driver = cached[1].get(key)
        if driver is not None and not driver._closed:
            return driver
    with _CACHE_LOCK:
        try:
            cached = _SHARD_CACHE.get(graph)
        except TypeError:
            cached = None
        if cached is not None and cached[0] != version:
            # the graph mutated: every driver holds slices of the stale
            # artifact, so close them all before slicing the patched one
            for stale in cached[1].values():
                stale.close()
            cached = None
        if cached is not None:
            # a closed driver (its process pipeline lost a worker) is rebuilt
            driver = cached[1].get(key)
            if driver is not None and not driver._closed:
                return driver
        driver = ShardedSweepDriver(
            ShardedTemporalGraph.from_compiled(compiled, shards),
            backend=backend,
            num_workers=num_workers,
            chunk_size=chunk_size,
        )
        entry = cached if cached is not None else (version, {})
        entry[1][key] = driver
        try:
            _SHARD_CACHE[graph] = entry
        except TypeError:  # unhashable or non-weakrefable graph object
            pass
        return driver


def get_sweeper(
    graph: BaseEvolvingGraph, shards: int | None = None
) -> FrontierKernel | ShardedSweepDriver:
    """The cached batched sweep surface for ``graph``, exact to its version.

    The :class:`FrontierKernel` (:func:`get_kernel`), or with ``shards`` the
    pipelined time-shard driver (:func:`get_sharded_driver`); both carry the
    same :class:`~repro.engine.sharded_sweep.BatchedSweeps` methods with
    bit-identical answers, so a caller picks one here and runs any family.
    """
    if shards is None:
        return get_kernel(graph)
    return get_sharded_driver(graph, shards)


def invalidate_kernel(graph: BaseEvolvingGraph) -> None:
    """Drop the cached artifact for ``graph`` (to rebuild or free it eagerly)."""
    with _CACHE_LOCK:
        try:
            _CACHE.pop(graph, None)
        except TypeError:
            pass
        try:
            stale = _SHARD_CACHE.pop(graph, None)
        except TypeError:
            stale = None
        if stale is not None:
            for driver in stale[1].values():
                driver.close()
