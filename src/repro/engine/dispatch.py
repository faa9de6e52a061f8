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
splices the batch's net edits into every stack the previous artifact built
and shares its node index.  Streaming mutation patterns (one edge batch
per step, as in the Figure-5 growth experiment) therefore pay per step
O(batch) work plus one buffer copy per stack, and the next sweep over
the patched stacks converts nothing.  That patch is the one incremental
path: everything derived from the artifact is rebuilt over the patched
result.  The kernels are constructed afresh (a few object constructions;
the :class:`~repro.engine.spectral.SpectralKernel` starts with empty LU and
radius caches).  :func:`invalidate_kernel` remains for callers that want
to drop a cached artifact eagerly (e.g. to free memory, or to force the
next compile from scratch).

Time-sharded execution is not cached here.  A caller builds a
:class:`~repro.engine.sharded_sweep.ShardedSweepDriver` over
``ShardedTemporalGraph.from_compiled(get_compiled(graph), n)`` (or over a
store from :func:`repro.io.load_sharded`), owns it and closes it; after a
mutation it builds a new one over the patched artifact.

The cache is thread-safe: lookups on a current entry are lock-free, while
entry creation and delta recompilation are double-checked under a module
lock so concurrent first-touch (the :class:`repro.serving.QueryServer`
reader threads) compiles each ``(graph, mutation_version)`` exactly once.
"""

from __future__ import annotations

import threading
import weakref

from repro.engine.frontier import FrontierKernel
from repro.engine.spectral import SpectralKernel
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph

__all__ = [
    "BACKENDS",
    "get_compiled",
    "get_kernel",
    "get_spectral_kernel",
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


def invalidate_kernel(graph: BaseEvolvingGraph) -> None:
    """Drop the cached artifact for ``graph`` (to rebuild or free it eagerly)."""
    with _CACHE_LOCK:
        try:
            _CACHE.pop(graph, None)
        except TypeError:
            pass
