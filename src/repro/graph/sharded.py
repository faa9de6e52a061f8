"""Time-sharded compiled artifacts: the engine's unit of out-of-core scale.

A :class:`~repro.graph.compiled.CompiledTemporalGraph` holds the full
``(T, N)`` operator stack in one process's RAM, which caps both the snapshot
count and the node count well below the production-scale target.
:class:`ShardedTemporalGraph` breaks that cap along the *time* axis: the
artifact becomes a sequence of per-snapshot-range shards, each itself a
``CompiledTemporalGraph`` over the **full node universe** but only its own
contiguous slice of snapshots.  The causal cumulative-OR step is a prefix
operation over snapshots, so a sweep over shard ``i`` depends on earlier
shards only through one packed boundary block (root lane planes) — see
:mod:`repro.engine.sharded_sweep` for the pipelined driver that exploits
this.

Shard boundaries are chosen by the weighted contiguous partition of
:mod:`repro.parallel.partition` (:func:`~repro.parallel.partition.weighted_contiguous_split`
over :func:`~repro.parallel.partition.compiled_snapshot_weights`), so every
shard carries a near-equal share of the stored entries rather than a
near-equal snapshot count.

Two storage regimes share this one class:

* **in-memory** (:meth:`ShardedTemporalGraph.from_compiled`) — each shard's
  stacks are the diagonal blocks of the monolithic stacks over its
  snapshots (:meth:`~repro.graph.compiled.CompiledTemporalGraph.time_slice`:
  one rebased copy of the block's ``indices`` and ``indptr``, ``data`` and
  the activeness rows shared).  Shards pickle independently, which is what
  the process-pipeline backend ships to its persistent workers once at
  startup;
* **store-backed** (:func:`repro.io.mmap_store.load_sharded`) — shards are
  opened lazily from memory-mapped CSR buffers on disk, straight into their
  stacks, and can be :meth:`released <release>` between uses, so a sweep
  holds one shard's operators in address space at a time.
  :attr:`peak_open_bytes` records the high-water mark of simultaneously
  open operator bytes, which the out-of-core benchmark gates against its
  memory budget.

A shard's operator bytes are its stored stacks in the store's per-snapshot
CSR layout, fixed when the shard opens: a twin that a sweep's push builds
later changes neither what :meth:`release` subtracts nor the peak.

A sharded artifact is never patched in place.  After a mutation, the
monolithic artifact is delta-recompiled
(:meth:`~repro.graph.compiled.CompiledTemporalGraph.recompile`) and
sliced again with :meth:`ShardedTemporalGraph.from_compiled`.  A store is
likewise written afresh as a new ``v<mutation_version>`` directory with
:func:`repro.io.mmap_store.save_sharded`.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph, Node, Time
from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["ShardedTemporalGraph", "compute_shard_layout", "operator_stack_bytes"]


def operator_stack_bytes(operators: Sequence) -> int:
    """Total CSR buffer bytes (``data`` + ``indices`` + ``indptr``) of a stack."""
    return int(
        sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in operators)
    )


def _stored_bytes(shard: CompiledTemporalGraph) -> int:
    """A shard's operator bytes in the per-snapshot CSR layout a store writes.

    ``data`` and ``indices`` plus one ``(N + 1)``-entry ``indptr`` per
    snapshot, for the forward stack and, once asked for, the backward one:
    what :func:`operator_stack_bytes` reads off the per-snapshot views,
    without slicing them.
    """
    stacks = [shard.stack()]
    if shard.is_directed and shard.transposes_built:
        stacks.append(shard.stack(False))
    rows = shard.num_snapshots * (shard.num_nodes + 1)
    return sum(
        m.data.nbytes + m.indices.nbytes + rows * m.indptr.itemsize for m in stacks
    )


def compute_shard_layout(
    compiled: CompiledTemporalGraph, num_shards: int
) -> tuple[tuple[int, int], ...]:
    """Contiguous ``(start, stop)`` snapshot ranges balancing stored entries.

    The nnz-weighted layout rule of :meth:`ShardedTemporalGraph.from_compiled`
    and of :func:`repro.io.save_sharded` with ``num_shards``: same artifact,
    same requested shard count — same boundaries, deterministically.
    """
    from repro.parallel.partition import (
        compiled_snapshot_weights,
        weighted_contiguous_split,
    )

    weights = compiled_snapshot_weights(compiled)
    return tuple(weighted_contiguous_split(weights, num_shards))


class ShardStore(Protocol):
    """What a lazy shard backend must provide (see :mod:`repro.io.mmap_store`)."""

    def open_shard(self, index: int) -> CompiledTemporalGraph:
        """Materialize shard ``index`` (memory-mapped buffers allowed)."""
        ...  # pragma: no cover - protocol

    def shard_bytes(self, index: int) -> int:
        """Logical operator bytes of shard ``index``, without opening it."""
        ...  # pragma: no cover - protocol


class ShardedTemporalGraph:
    """A compiled evolving graph as a sequence of per-time-range shards.

    Construct with :meth:`from_compiled` (in-memory slicing) or
    :func:`repro.io.mmap_store.load_sharded` (lazy memory-mapped shards).
    Like the monolithic artifact this is an immutable *snapshot* of the
    source graph, stamped with its ``mutation_version``; :meth:`is_current`
    tells caches and the serving layer exactly when it is stale.
    """

    def __init__(
        self,
        *,
        node_labels: Sequence[Node],
        times: Sequence[Time],
        boundaries: Sequence[tuple[int, int]],
        mutation_version: int,
        is_directed: bool,
        active_mask: np.ndarray,
        shards: Sequence[CompiledTemporalGraph | None] | None = None,
        shard_nnz: Sequence[int] | None = None,
        store: ShardStore | None = None,
    ) -> None:
        self._labels: list[Node] = list(node_labels)
        self._node_index: dict[Node, int] = {v: i for i, v in enumerate(self._labels)}
        self._times: list[Time] = list(times)
        self._time_index: dict[Time, int] = {t: i for i, t in enumerate(self._times)}
        self._boundaries: list[tuple[int, int]] = [
            (int(a), int(b)) for a, b in boundaries
        ]
        self._validate_boundaries()
        self._version = int(mutation_version)
        self._directed = bool(is_directed)
        self._n = len(self._labels)
        mask = np.asarray(active_mask, dtype=bool)
        if mask.shape != (len(self._times), self._n):
            raise GraphError(
                f"active mask shape {mask.shape} does not match "
                f"({len(self._times)}, {self._n})"
            )
        self._active = mask
        self._store = store
        if shards is None:
            if store is None:
                raise GraphError("ShardedTemporalGraph needs shards or a store")
            self._shards: list[CompiledTemporalGraph | None] = [None] * len(
                self._boundaries
            )
        else:
            self._shards = list(shards)
            if len(self._shards) != len(self._boundaries):
                raise GraphError(
                    f"got {len(self._shards)} shards for "
                    f"{len(self._boundaries)} boundary ranges"
                )
        if shard_nnz is not None:
            self._shard_nnz = [int(x) for x in shard_nnz]
        else:
            self._shard_nnz = [
                shard.nnz if shard is not None else 0 for shard in self._shards
            ]
        # the in-memory shards' operator bytes, counted now, so a twin that
        # a sweep builds later leaves them as they are (a store's shards
        # count their manifest's bytes)
        self._memory_bytes = [
            _stored_bytes(shard) if shard is not None else 0 for shard in self._shards
        ]
        # open-bytes accounting: for store-backed artifacts this is the
        # out-of-core contract the benchmark gates (one shard resident at a
        # time under the serial driver); in-memory shards are always "open"
        self._open_bytes = sum(
            self._shard_operator_bytes(i)
            for i, shard in enumerate(self._shards)
            if shard is not None
        )
        self.peak_open_bytes = self._open_bytes

    def _validate_boundaries(self) -> None:
        if not self._boundaries:
            raise GraphError("ShardedTemporalGraph requires at least one shard")
        expected = 0
        for a, b in self._boundaries:
            if a != expected or b <= a:
                raise GraphError(
                    f"shard boundaries {self._boundaries} are not a contiguous "
                    f"cover of the {len(self._times)} snapshots"
                )
            expected = b
        if expected != len(self._times):
            raise GraphError(
                f"shard boundaries {self._boundaries} do not cover all "
                f"{len(self._times)} snapshots"
            )

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_compiled(
        cls,
        compiled: CompiledTemporalGraph,
        num_shards: int | None = None,
        *,
        boundaries: Sequence[tuple[int, int]] | None = None,
    ) -> "ShardedTemporalGraph":
        """Slice a monolithic artifact into in-memory time shards.

        Boundaries default to the nnz-weighted contiguous layout of
        :func:`compute_shard_layout`; pass explicit ``boundaries`` for a
        custom (e.g. deliberately ragged) layout.  Each shard is
        :meth:`compiled.time_slice(a, b)
        <repro.graph.compiled.CompiledTemporalGraph.time_slice>`: its stacks
        are the monolithic ones' diagonal blocks, and it shares the node
        index and activeness rows.
        """
        if boundaries is None:
            if num_shards is None:
                raise GraphError("from_compiled needs num_shards or boundaries")
            boundaries = compute_shard_layout(compiled, num_shards)
        return cls(
            node_labels=compiled.node_labels,
            times=compiled.times,
            boundaries=boundaries,
            mutation_version=compiled.mutation_version,
            is_directed=compiled.is_directed,
            active_mask=compiled.active_mask,
            shards=[compiled.time_slice(a, b) for a, b in boundaries],
        )

    # ------------------------------------------------------------------ #
    # structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def node_labels(self) -> list[Node]:
        """Node labels of the shared universe (identical across shards)."""
        return list(self._labels)

    @property
    def node_index(self) -> dict[Node, int]:
        """Mapping from node label to its row/column index."""
        return dict(self._node_index)

    @property
    def times(self) -> tuple[Time, ...]:
        """All snapshot labels, in time order, across every shard."""
        return tuple(self._times)

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def num_snapshots(self) -> int:
        return len(self._times)

    @property
    def num_shards(self) -> int:
        return len(self._boundaries)

    @property
    def boundaries(self) -> tuple[tuple[int, int], ...]:
        """Half-open global snapshot ranges, one per shard, in time order."""
        return tuple(self._boundaries)

    @property
    def mutation_version(self) -> int:
        return self._version

    @property
    def is_directed(self) -> bool:
        return self._directed

    @property
    def active_mask(self) -> np.ndarray:
        """The full ``(T, N)`` activeness mask (eager — it is the small part)."""
        return self._active

    @property
    def shard_nnz(self) -> list[int]:
        """Forward-stack stored entries per shard (pipeline load balancing)."""
        return list(self._shard_nnz)

    @property
    def store_backed(self) -> bool:
        """Whether shards can be released back to their on-disk store."""
        return self._store is not None

    @property
    def open_bytes(self) -> int:
        """Operator bytes of the shards currently materialized in memory."""
        return self._open_bytes

    def is_current(self, graph: BaseEvolvingGraph) -> bool:
        """Whether this artifact still describes ``graph`` exactly."""
        return graph.mutation_version == self._version

    def is_active(self, node: Node, time: Time) -> bool:
        """Whether ``(node, time)`` is active, per the eager global mask."""
        ti = self._time_index.get(time)
        vi = self._node_index.get(node)
        if ti is None or vi is None:
            return False
        return bool(self._active[ti, vi])

    def slot(self, node: Node, time: Time) -> tuple[int, int] | None:
        """The global ``(time index, node index)`` of a temporal node."""
        ti = self._time_index.get(time)
        vi = self._node_index.get(node)
        if ti is None or vi is None:
            return None
        return ti, vi

    def shard_of_snapshot(self, position: int) -> int:
        """Index of the shard containing global snapshot ``position``."""
        for i, (a, b) in enumerate(self._boundaries):
            if a <= position < b:
                return i
        raise GraphError(f"snapshot position {position} out of range")

    # ------------------------------------------------------------------ #
    # shard access                                                        #
    # ------------------------------------------------------------------ #

    def shard(self, index: int) -> CompiledTemporalGraph:
        """The shard artifact at ``index``, opening it from the store if lazy."""
        shard = self._shards[index]
        if shard is None:
            shard = self._store.open_shard(index)
            self._shards[index] = shard
            self._shard_nnz[index] = shard.nnz
            self._open_bytes += self._shard_operator_bytes(index)
            self.peak_open_bytes = max(self.peak_open_bytes, self._open_bytes)
        return shard

    def release(self, index: int) -> None:
        """Drop a store-backed shard from memory (no-op for in-memory shards).

        The next :meth:`shard` call reopens it from the memory-mapped store;
        releasing between shards is what keeps the serial out-of-core sweep's
        :attr:`peak_open_bytes` at one shard instead of the whole stack.
        """
        if self._store is None:
            return
        if self._shards[index] is not None:
            self._open_bytes -= self._shard_operator_bytes(index)
            self._shards[index] = None

    def _shard_operator_bytes(self, index: int) -> int:
        if self._store is not None:
            return self._store.shard_bytes(index)
        return self._memory_bytes[index]

    @property
    def operator_bytes(self) -> int:
        """Logical operator bytes across *all* shards (open or not)."""
        return sum(self._shard_operator_bytes(i) for i in range(self.num_shards))

    def stats(self) -> dict:
        """Shard-layout and residency accounting (benchmarks and tests)."""
        return {
            "num_shards": self.num_shards,
            "boundaries": self.boundaries,
            "shard_nnz": self.shard_nnz,
            "shard_bytes": [
                self._shard_operator_bytes(i) for i in range(self.num_shards)
            ],
            "operator_bytes": self.operator_bytes,
            "open_bytes": self.open_bytes,
            "peak_open_bytes": self.peak_open_bytes,
            "store_backed": self.store_backed,
            "mutation_version": self._version,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedTemporalGraph shards={self.num_shards} "
            f"snapshots={self.num_snapshots} nodes={self.num_nodes} "
            f"version={self._version} store_backed={self.store_backed}>"
        )
