"""Unified sparse execution engine for evolving-graph searches.

* :class:`~repro.engine.frontier.FrontierKernel` — frontiers as packed
  root lanes, each level one windowed advance over the stacked snapshot
  operators: one level loop for the paper's distances and every 0/1
  edge-cost pair (fewest spatial hops among them), plus the Tang sweep,
  the single-source search, the incremental-maintenance primitives of the
  streaming layer and the Katz series.
* :class:`~repro.engine.sharded_sweep.BatchedSweeps` — the one batched
  surface: ``multi_source``, ``batch``, ``distance_blocks``, identity reach
  counts, harmonic-closeness sums, earliest arrivals, latest departures,
  0/1-semiring label blocks, fewest hops and Tang snapshot counts, each
  written once.  Every method runs chunks of roots as plans through a chain
  of shard sweeps and merges the per-shard partials; the frontier kernel
  inherits it as the one-shard chain (itself, global start 0, empty
  boundary, swept lazily one chunk at a time).
* :class:`~repro.engine.reached.ReachedView` — the ``reached`` of every
  slot-keyed result: a read-only mapping over the root's ``(T, N)``
  distance column that equals the oracle's dict and decodes into one only
  when a caller reads every entry; :class:`~repro.engine.reached.TimesView`
  is the same over the ``(N,)`` hit column of an earliest-arrival or
  latest-departure answer.
* :class:`~repro.engine.sharded_sweep.ShardedSweepDriver` — the same
  surface over :class:`~repro.graph.sharded.ShardedTemporalGraph` time
  shards: each shard calls the kernels' own sweep loops, started from the
  incoming :class:`~repro.engine.sharded_sweep.BoundaryBlock`, and every
  shard but the last hands the merged block downstream.  The serial backend
  sweeps in-memory layouts lazily like the kernel and store-backed layouts
  shard-major with eviction (the out-of-core path); the process backend
  pipelines chunks through persistent shard-owning workers.  Results are
  bit-identical to the monolithic kernel.
* :class:`~repro.engine.spectral.SpectralKernel` — the spectral sibling:
  cached sparse-LU resolvent chains (communicability, broadcast/receive
  centrality without ever materializing ``Q``), certified sparse
  spectral-radius bounds replacing dense ``eigvals``, and exact int64
  SpMV walk counting, all over the lazily derived symmetrized stack of the
  same artifact.
* :func:`~repro.engine.dispatch.get_compiled` — per-graph cache of the
  shared :class:`~repro.graph.compiled.CompiledTemporalGraph` artifact,
  keyed on the graph's exact ``mutation_version``.  On a version mismatch
  the stale artifact is *delta-recompiled*
  (:meth:`~repro.graph.compiled.CompiledTemporalGraph.recompile`): only the
  snapshots whose per-snapshot stamps moved are rebuilt, the rest are
  shared, so streaming mutation patterns pay per batch only for what the
  batch touched.
* :func:`~repro.engine.dispatch.get_kernel` /
  :func:`~repro.engine.dispatch.get_spectral_kernel` — the cached kernels
  over that artifact, used by the ``backend="vectorized"`` paths of
  :mod:`repro.core`, :mod:`repro.algorithms` and :mod:`repro.parallel`.
  Shard drivers are not cached: a caller builds one over
  ``ShardedTemporalGraph.from_compiled(get_compiled(graph), n)`` or
  :func:`repro.io.load_sharded`, and closes it.
* :func:`~repro.engine.dispatch.resolve_backend` — validation of the
  ``backend`` flag shared by every search entry point.
* :mod:`~repro.engine.bitops` — the packed sweep primitives every sweep
  family runs on: frontier/visited state stays packed as node-major root
  lanes (one bitset of root columns per node, the MS-BFS layout), the
  ``T`` snapshot operators are stacked into one block-diagonal operator,
  and each BFS level is one spatial advance over the snapshots that can
  still change (ORing neighbour lanes along the CSR, push vs pull vs dense
  chosen once per level from lane popcounts), then the prefix-OR causal
  step and one fused masked update per run of open snapshots.  Each
  family has exactly one engine loop; the pure-Python Algorithm-1 functions
  (``backend="python"``) are the equivalence reference.
"""

from repro.engine import bitops
from repro.engine.dispatch import (
    BACKENDS,
    get_compiled,
    get_kernel,
    get_spectral_kernel,
    invalidate_kernel,
    resolve_backend,
)
from repro.engine.frontier import FrontierKernel
from repro.engine.reached import ReachedView, TimesView
from repro.engine.sharded_sweep import (
    SHARD_BACKENDS,
    BatchedSweeps,
    BoundaryBlock,
    ShardedSweepDriver,
)
from repro.engine.spectral import SpectralKernel, SpectralOpStats

__all__ = [
    "BACKENDS",
    "SHARD_BACKENDS",
    "BatchedSweeps",
    "BoundaryBlock",
    "FrontierKernel",
    "ReachedView",
    "ShardedSweepDriver",
    "SpectralKernel",
    "SpectralOpStats",
    "TimesView",
    "bitops",
    "get_compiled",
    "get_kernel",
    "get_spectral_kernel",
    "invalidate_kernel",
    "resolve_backend",
]
