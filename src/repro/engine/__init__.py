"""Unified sparse execution engine for evolving-graph searches.

* :class:`~repro.engine.frontier.FrontierKernel` — frontiers as packed
  root lanes advanced by one CSR gather per snapshot, with a
  batched multi-source mode that packs many roots into the columns of one
  block, plus the batched analytics primitives (identity reach counts,
  harmonic-closeness sums, Katz series) the ported algorithms layer uses.
* :func:`~repro.engine.dispatch.get_compiled` — per-graph cache of the
  shared :class:`~repro.graph.compiled.CompiledTemporalGraph` artifact,
  keyed on the graph's exact ``mutation_version``.  On a version mismatch
  the stale artifact is *delta-recompiled*
  (:meth:`~repro.graph.compiled.CompiledTemporalGraph.recompile`): only the
  snapshots whose per-snapshot stamps moved are rebuilt, the rest are
  shared, so streaming mutation patterns pay per batch only for what the
  batch touched.  The frontier kernel's masked decrease-only re-sweep
  (:meth:`~repro.engine.frontier.FrontierKernel.decrease_only_resweep`)
  rides the same artifact to keep
  :class:`~repro.algorithms.incremental.IncrementalBFS` distances current
  without full re-searches.
* :class:`~repro.engine.labels.LabelKernel` — the semiring label-sweep
  sibling: numeric ``(T, N, R)`` labels (earliest arrival, latest departure,
  fewest spatial hops under 0/1 edge costs, Tang snapshot counts) propagated
  over the same compiled artifact with the same cumulative-masked causal
  step.
* :class:`~repro.engine.spectral.SpectralKernel` — the spectral sibling:
  cached sparse-LU resolvent chains (communicability, broadcast/receive
  centrality without ever materializing ``Q``), certified sparse
  spectral-radius bounds replacing dense ``eigvals``, and exact int64
  SpMV walk counting, all over the lazily derived symmetrized stack of the
  same artifact.
* :func:`~repro.engine.dispatch.get_kernel` /
  :func:`~repro.engine.dispatch.get_label_kernel` /
  :func:`~repro.engine.dispatch.get_spectral_kernel` — the cached kernels
  over that artifact, used by the ``backend="vectorized"`` paths of
  :mod:`repro.core`, :mod:`repro.algorithms` and :mod:`repro.parallel`.
* :func:`~repro.engine.dispatch.resolve_backend` — validation of the
  ``backend`` flag shared by every search entry point.
* :class:`~repro.engine.sharded_sweep.ShardedSweepDriver` — the pipelined
  execution layer over :class:`~repro.graph.sharded.ShardedTemporalGraph`
  time shards: each shard calls the kernels' own sweep loops, started from
  the incoming :class:`~repro.engine.sharded_sweep.BoundaryBlock` (a
  monolithic sweep is the one-shard, empty-boundary case), and hands the
  merged block downstream, so chunks of roots flow through the shard chain
  concurrently (thread or persistent-process backends) or shard-major with
  eviction (serial backend over a memory-mapped store — the out-of-core
  path).  Results are
  bit-identical to the monolithic kernels;
  :func:`~repro.engine.dispatch.get_sharded_driver` is the version-exact
  cache behind the algorithm layer's ``shards=`` flag.
* :mod:`~repro.engine.bitops` — the packed sweep primitives every sweep
  family runs on: frontier/visited state stays packed as node-major root
  lanes (one bitset of root columns per node, the MS-BFS layout), each
  snapshot's spatial advance ORs neighbour lanes along the CSR and is fused
  with the causal carry into one pass over the operator stack, and every
  advance direction-optimizes push vs pull vs dense per snapshot per round
  from lane popcounts.  Each
  family has exactly one engine loop; the pure-Python Algorithm-1 functions
  (``backend="python"``) are the equivalence reference.
"""

from repro.engine import bitops
from repro.engine.dispatch import (
    BACKENDS,
    get_compiled,
    get_kernel,
    get_label_kernel,
    get_sharded_driver,
    get_spectral_kernel,
    invalidate_kernel,
    resolve_backend,
    resweep_cached_block,
)
from repro.engine.frontier import FrontierKernel
from repro.engine.labels import LabelKernel
from repro.engine.sharded_sweep import (
    SHARD_BACKENDS,
    BoundaryBlock,
    ShardedSweepDriver,
)
from repro.engine.spectral import SpectralKernel, SpectralOpStats

__all__ = [
    "BACKENDS",
    "SHARD_BACKENDS",
    "BoundaryBlock",
    "FrontierKernel",
    "LabelKernel",
    "ShardedSweepDriver",
    "SpectralKernel",
    "SpectralOpStats",
    "bitops",
    "get_compiled",
    "get_kernel",
    "get_label_kernel",
    "get_sharded_driver",
    "get_spectral_kernel",
    "invalidate_kernel",
    "resolve_backend",
    "resweep_cached_block",
]
