"""Concurrent query serving over the compiled-kernel engine.

The layer above :mod:`repro.engine` on the road to the "millions of users"
north star: :class:`QueryServer` accepts query descriptors
(:mod:`repro.algorithms.queries`) from many threads, dedupes and caches them
against the graph's exact ``mutation_version``, coalesces same-shape queries
into shared ``(T, N, R)`` block sweeps, and admits streamed mutations
between micro-batches through the delta-recompile path.  A mutation prunes
every cached answer of an older version and runs no sweep; a repeat after
it misses and rides the next micro-batch's coalesced sweep.
:func:`decode_warm_block` is the one-column form of the served decode.

>>> from repro.serving import QueryServer
>>> from repro.algorithms.queries import BFSQuery, EarliestArrivalQuery
>>> with QueryServer(graph) as server:                        # doctest: +SKIP
...     fut = server.submit(BFSQuery(root=("a", 0)))
...     ea = server.query(EarliestArrivalQuery(source=("a", 0)))
...     server.mutate([("a", "b", 1)]).result()
"""

from repro.serving.coalesce import GroupOutcome, decode_warm_block, execute_group
from repro.serving.server import (
    ADMISSION_POLICIES,
    LatencyHistogram,
    QueryServer,
    ServingStats,
)

__all__ = [
    "ADMISSION_POLICIES",
    "GroupOutcome",
    "LatencyHistogram",
    "QueryServer",
    "ServingStats",
    "decode_warm_block",
    "execute_group",
]
