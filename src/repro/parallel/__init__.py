"""Batched searches and the weighted partitions behind the shard layout.

* :func:`~repro.parallel.batch.batch_bfs` — many independent searches over
  a shared graph, on the ``"vectorized"`` engine or the ``"python"``
  per-root oracle.
* :mod:`~repro.parallel.partition` — the nnz-weighted contiguous split that
  chooses time-shard boundaries and the weight-balanced chunking that
  assigns shards to the shard driver's process workers.

The package's one parallel mechanism is the shard driver's persistent
process pipeline (:class:`repro.engine.ShardedSweepDriver` with
``backend="process"``); the paper's Figure-5 experiment is single-core.
"""

from repro.parallel.batch import batch_bfs
from repro.parallel.partition import chunk_by_weight

__all__ = ["batch_bfs", "chunk_by_weight"]
