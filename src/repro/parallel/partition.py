"""The weighted partitions behind the time-shard layout.

* :func:`compiled_snapshot_weights` reads per-snapshot stored-entry counts
  off a compiled artifact — including every *materialized* operator stack,
  not just the forward one — and is the weighting
  :func:`repro.graph.sharded.compute_shard_layout` uses to choose shard
  boundaries;
* :func:`weighted_contiguous_split` is the contiguous balanced partition
  over those weights (time shards must be contiguous snapshot ranges —
  causal edges only cross them forward in time);
* :func:`chunk_by_weight` balances *non-contiguous* assignments: which
  process worker owns which shard in
  :class:`repro.engine.sharded_sweep.ShardedSweepDriver` when there are
  fewer workers than shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, TypeVar

import numpy as np

from repro.exceptions import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.graph.compiled import CompiledTemporalGraph

T = TypeVar("T")

__all__ = ["chunk_by_weight", "compiled_snapshot_weights", "weighted_contiguous_split"]


def chunk_by_weight(
    items: Sequence[T],
    weights: Sequence[float],
    num_chunks: int,
) -> list[list[T]]:
    """Split ``items`` into chunks of near-equal total weight (greedy longest-processing-time).

    Used to assign shards to process workers by shard nnz; preserves no
    particular order within chunks.
    """
    if len(items) != len(weights):
        raise GraphError("items and weights must have the same length")
    if num_chunks < 1:
        raise GraphError("num_chunks must be at least 1")
    order = sorted(range(len(items)), key=lambda i: -float(weights[i]))
    k = min(num_chunks, max(1, len(items)))
    chunk_items: list[list[T]] = [[] for _ in range(k)]
    chunk_weights = [0.0] * k
    for idx in order:
        target = min(range(k), key=lambda c: chunk_weights[c])
        chunk_items[target].append(items[idx])
        chunk_weights[target] += float(weights[idx])
    return [c for c in chunk_items if c]


def weighted_contiguous_split(
    weights: Sequence[float], num_parts: int
) -> list[tuple[int, int]]:
    """Split positions ``0..len(weights)`` into contiguous ranges of balanced weight.

    Returns at most ``num_parts`` half-open ``(start, stop)`` ranges covering
    every position in order (fewer when there are fewer items than parts).
    This is the partition rule time-sharding needs — shards must be
    contiguous snapshot ranges — behind the
    :class:`~repro.graph.sharded.ShardedTemporalGraph` layout.
    """
    if num_parts < 1:
        raise GraphError("num_parts must be at least 1")
    count = len(weights)
    if not count:
        return []
    total = float(sum(weights))
    target = total / min(num_parts, count)
    ranges: list[tuple[int, int]] = []
    start = 0
    acc = 0.0
    for i, w in enumerate(weights):
        acc += float(w)
        if acc >= target and len(ranges) < num_parts - 1:
            ranges.append((start, i + 1))
            start = i + 1
            acc = 0.0
    if start < count:
        ranges.append((start, count))
    return ranges


def compiled_snapshot_weights(compiled: "CompiledTemporalGraph") -> list[int]:
    """Per-snapshot stored-entry weights over every *materialized* operator stack.

    Each snapshot's entries are read off the forward stack's ``indptr`` at
    snapshot edges.  They count twice once a directed artifact's backward
    stack has been asked for (its blocks hold as many; an undirected
    artifact's aliases the forward one), so a layout balances what a store
    writes.  The ``+ 1`` floor keeps empty snapshots from collapsing to zero
    weight, so a run of empty snapshots still spreads across parts, and
    makes the chosen boundaries sensitive to that per-snapshot multiplier.
    """
    edges = np.arange(compiled.num_snapshots + 1) * compiled.num_nodes
    ends = compiled.stack().indptr[edges].tolist()
    stacks = 2 if compiled.is_directed and compiled.transposes_built else 1
    return [stacks * (b - a) + 1 for a, b in zip(ends, ends[1:])]
