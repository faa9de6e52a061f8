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

    The forward stack always counts; the backward (transpose) stack counts
    only when it has been materialized as distinct matrices (directed
    graphs — the undirected backward stack aliases the forward one at zero
    cost, and the symmetrized spectral stack always aliases one of the two).
    The ``+ 1`` floor keeps empty snapshots from collapsing to zero weight,
    so a run of empty snapshots still spreads across parts.  Counting all
    materialized stacks matters twice: byte budgeting for the out-of-core
    shard store scales with what is actually stored, and the constant floor
    makes the balance between empty and heavy snapshots — hence the chosen
    boundaries — sensitive to the per-snapshot byte multiplier.
    """
    stacks = [compiled.forward_operators]
    if compiled.transposes_built and compiled.is_directed:
        stacks.append(compiled.backward_operators)
    return [
        sum(int(stack[k].nnz) for stack in stacks) + 1
        for k in range(compiled.num_snapshots)
    ]

