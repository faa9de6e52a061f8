"""Pipelined cross-shard sweeps over a :class:`ShardedTemporalGraph`.

The causal step of every kernel sweep is a *prefix* operation over
snapshots: influence crosses a time-shard boundary only forward (or, for
backward searches, only backward), and the complete cross-boundary state of
a sweep is one packed block per root column — which node identities the
earlier shards reached, at what minimal level.  That is what makes the
sweeps of :class:`~repro.engine.frontier.FrontierKernel` and
:class:`~repro.engine.labels.LabelKernel` shardable *bit-identically* (the
paper's Theorem 4 reading: causal blocks act only forward in time):

* shard ``i`` calls the kernel's own sweep loop over its ``(T_i, N, L)``
  root lanes (:mod:`~repro.engine.bitops`: one bitset of root columns per
  node, the MS-BFS layout of Then et al., PVLDB 2014), started from the
  incoming boundary — the loop injects the external nodes whose minimal
  earlier-shard level is ``m`` into the causal carry at round ``m + 1``
  (BFS), the zero-cost saturation
  (``causal_cost=0`` label sweeps) or the unit expansion
  (``causal_cost=1``), which is precisely when and how a monolithic carry
  would have delivered them.  A monolithic sweep is the one-shard,
  empty-boundary case of the same loop;
* injecting each node once, at its *minimal* level, is exact: a causal
  carry reaches every later snapshot of the node in one step, so the first
  injection visits every slot a later appearance could, and the sweep's
  visited masking makes the later firings no-ops;
* the shard hands downstream a :class:`BoundaryBlock` — the element-wise
  minimum of its own per-node levels with the incoming block — and the
  Tang sweep, whose state is time-free, hands its raw ``(N, L)`` informed
  lanes.  This module only does that bookkeeping; it holds no sweep loop.

:class:`ShardedSweepDriver` schedules those shard sweeps three ways:

* ``backend="serial"`` — shard-major in one process: every root-chunk's
  sweep visits shard 0, then every sweep visits shard 1, …  With a
  store-backed graph each shard is :meth:`released
  <repro.graph.sharded.ShardedTemporalGraph.release>` before the next is
  opened, so peak operator residency is one shard — the out-of-core path;
* ``backend="thread"`` — root-chunks flow through the shard chain
  concurrently (chunk ``c`` sweeps shard 2 while chunk ``c+1`` sweeps
  shard 0): software pipelining over root-batches, sharing the in-process
  shard artifacts;
* ``backend="process"`` — persistent workers each *own* a subset of shards
  permanently (the picklable compiled artifacts ship once, at startup);
  thereafter only task tuples and packed boundary blocks (one ``(N, L)``
  lane plane per level) cross process boundaries.  Shards are assigned to
  workers by :func:`~repro.parallel.partition.chunk_by_weight` over shard
  nnz.

Every public method mirrors its monolithic kernel twin — same arguments,
same decoded shapes, bit-identical results (``tests/test_sharded.py``
hypothesis-asserts this across families, shard counts and backends).  Even
the float harmonic sums are exact: shards ship per-snapshot partial rows
and the driver folds them in canonical global snapshot order, replaying
the monolithic reduction addition-for-addition.  Obtain a cached driver
via :func:`repro.engine.get_sharded_driver`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.bfs import BFSResult
from repro.engine import bitops
from repro.engine.frontier import (
    _DIRECTIONS,
    FrontierKernel,
    _chunked,
    _decode_column,
    _harmonic_accumulate,
    _harmonic_rows,
    _slot_keys,
)
from repro.engine.labels import LabelKernel
from repro.exceptions import GraphError, InactiveNodeError
from repro.graph.base import Node, TemporalNodeTuple, Time
from repro.graph.sharded import ShardedTemporalGraph

__all__ = ["BoundaryBlock", "ShardedSweepDriver", "SHARD_BACKENDS"]

SHARD_BACKENDS = ("serial", "thread", "process")

#: Sentinel level for nodes no earlier shard has reached (same headroom
#: contract as the frontier kernel's ``_UNREACHED``: never wins a minimum,
#: ``_FAR + 1`` cannot overflow int32).
_FAR = np.int32(2**30)


# --------------------------------------------------------------------------- #
# the boundary block                                                          #
# --------------------------------------------------------------------------- #


class BoundaryBlock:
    """The complete cross-shard state of a BFS/label sweep, packed.

    For each node identity and root column: the minimal level (distance or
    label) at which any earlier shard reached that node, stored as one
    ``(N, L)`` plane of root lanes per distinct level.  This is the only
    thing that crosses a shard boundary — and, under the process backend,
    the only payload besides task tuples that crosses a *process* boundary.

    Instances are immutable and picklable; :meth:`merged_with` produces the
    outgoing block from the incoming one plus a shard's own levels.
    """

    __slots__ = ("num_columns", "num_nodes", "levels")

    def __init__(
        self, num_columns: int, num_nodes: int, levels: dict[int, np.ndarray]
    ) -> None:
        self.num_columns = int(num_columns)
        self.num_nodes = int(num_nodes)
        self.levels = levels

    @classmethod
    def empty(cls, num_columns: int, num_nodes: int) -> "BoundaryBlock":
        """The boundary entering the first shard of a chain: nothing reached."""
        return cls(num_columns, num_nodes, {})

    @classmethod
    def from_min_levels(cls, min_levels: np.ndarray) -> "BoundaryBlock":
        """Encode an ``(N, R)`` int32 array of minimal levels (``_FAR`` = none)."""
        n, r = min_levels.shape
        levels: dict[int, np.ndarray] = {}
        for level in np.unique(min_levels[min_levels < _FAR]).tolist():
            levels[int(level)] = bitops.pack_bits(min_levels == level)
        return cls(r, n, levels)

    def lanes(self, level: int) -> np.ndarray | None:
        """The ``(N, L)`` lanes of nodes at exactly ``level``, if any."""
        return self.levels.get(level)

    @property
    def max_level(self) -> int:
        """The largest stored level; ``-1`` when the block is empty."""
        return max(self.levels) if self.levels else -1

    def decode(self) -> np.ndarray:
        """Back to the dense ``(N, R)`` int32 min-level array (``_FAR`` = none)."""
        out = np.full((self.num_nodes, self.num_columns), _FAR, dtype=np.int32)
        for level in sorted(self.levels, reverse=True):
            out[bitops.unpack_bits(self.levels[level], self.num_columns)] = level
        return out

    def merged_with(self, shard_min_levels: np.ndarray) -> "BoundaryBlock":
        """The outgoing boundary: element-wise min with a shard's own levels."""
        if not self.levels:
            return self.from_min_levels(shard_min_levels.astype(np.int32))
        return self.from_min_levels(np.minimum(self.decode(), shard_min_levels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryBlock):
            return NotImplemented
        return (
            self.num_columns == other.num_columns
            and self.num_nodes == other.num_nodes
            and set(self.levels) == set(other.levels)
            and all(
                np.array_equal(lanes, other.levels[level])
                for level, lanes in self.levels.items()
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<BoundaryBlock columns={self.num_columns} nodes={self.num_nodes} "
            f"levels={sorted(self.levels)}>"
        )


# --------------------------------------------------------------------------- #
# per-shard sweeps (module-level and picklable: every backend runs these)     #
# --------------------------------------------------------------------------- #


def _bfs_spec(direction: str, reverse_edges: bool = False) -> tuple:
    """The picklable spec of a BFS-family sweep; unknown directions raise."""
    if direction not in _DIRECTIONS:
        raise GraphError(f"unsupported direction {direction!r}")
    return ("bfs", direction == "forward", bool(reverse_edges))


def _handoff(block: np.ndarray, boundary: BoundaryBlock) -> BoundaryBlock:
    """The outgoing boundary: the incoming one merged with a shard's minima.

    ``block`` is the shard's ``(T_i, N, R)`` level block (``-1`` = none);
    its per-node minimum over the shard's snapshots is the only part of it
    a later shard needs.
    """
    shard_min = np.where(block >= 0, block, _FAR).min(axis=0)  # (N, R)
    return boundary.merged_with(shard_min)


def _bfs_shard_sweep(
    kernel: FrontierKernel,
    seeds_per_column: Sequence[Sequence[tuple[int, int]]],
    boundary: BoundaryBlock,
    *,
    forward: bool,
    reverse_edges: bool,
) -> tuple[np.ndarray, BoundaryBlock]:
    """One shard's slice of a BFS sweep; ``((T_i, N, R) dist, boundary out)``.

    :meth:`FrontierKernel._run` over the shard's own snapshots, started
    from ``boundary``.
    """
    block = kernel._run(
        seeds_per_column,
        "forward" if forward else "backward",
        reverse_edges=reverse_edges,
        boundary=boundary,
    )
    return block, _handoff(block, boundary)


def _run_shard_task(
    kernel: FrontierKernel,
    spec: tuple,
    kind: str,
    seeds: Sequence[Sequence[tuple[int, int]]],
    boundary,
    global_start: int,
) -> tuple[object, object]:
    """Execute one (shard, chunk) sweep and reduce its block to a partial.

    ``spec`` is a picklable family tuple — ``("bfs", forward, reverse_edges)``,
    ``("zero_one", spatial_cost, causal_cost)`` or ``("tang", horizon,
    start_index)`` — and ``kind`` picks the partial shipped back to the
    driver, so the process backend returns reductions (reach masks, harmonic
    sums, hit indices, decoded dictionaries) instead of full blocks whenever
    the readout allows.  Label-family sweeps run through a
    :class:`LabelKernel` built on the shard's kernel.
    """
    family = spec[0]
    if family == "tang":
        # the incoming informed lanes and their column count are the
        # boundary; global step numbers (global snapshot - start_index + 1)
        # keep the per-shard partials disjoint, because nodes informed
        # upstream are never fresh here
        _, horizon, start_index = spec
        informed, r = boundary
        informed = informed.copy()
        steps = np.full((kernel.num_nodes, r), -1, dtype=np.int32)
        first = max(0, start_index - global_start)
        LabelKernel(kernel)._tang_sweep(
            informed, steps, first, global_start + first - start_index + 1, horizon
        )
        return steps, (informed, r)
    if family == "bfs":
        block, boundary_out = _bfs_shard_sweep(
            kernel, seeds, boundary, forward=spec[1], reverse_edges=spec[2]
        )
    else:
        block = LabelKernel(kernel)._zero_one_run(
            seeds, spec[1], spec[2], boundary=boundary
        )
        boundary_out = _handoff(block, boundary)
    return _reduce_block(kernel, kind, block, global_start), boundary_out


def _reduce_block(
    kernel: FrontierKernel, kind: str, block: np.ndarray, global_start: int
) -> object:
    """Collapse a shard's ``(T_i, N, R)`` block to the partial a readout needs."""
    if kind == "block":
        return block
    if kind == "reach":
        return (block >= 0).any(axis=0)  # (N, R) identity-hit mask
    if kind == "harmonic":
        # per-snapshot (T_i, R) rows via the monolithic kernel's canonical
        # reduction; the driver folds them in global snapshot order, so the
        # float sums are bit-identical to the monolithic readout
        return _harmonic_rows(block)
    if kind in ("first", "last"):
        reached = block >= 0
        hit = reached.any(axis=0)
        if kind == "first":
            local = reached.argmax(axis=0)
        else:
            local = block.shape[0] - 1 - reached[::-1].argmax(axis=0)
        return np.where(hit, np.int32(global_start) + local, -1).astype(np.int32)
    if kind == "reached":
        # decoded per-column dictionaries: the shard owns the full node
        # universe and its own slice of real time labels, so local decoding
        # is globally correct (and what keeps process results small)
        return [kernel._reached_dict(block, col) for col in range(block.shape[2])]
    raise GraphError(f"unknown shard partial kind {kind!r}")


def _merge_partials(kind: str, parts: Sequence) -> object:
    """Combine per-shard partials (ascending shard index) into the global one."""
    if kind == "block":
        return np.concatenate(parts, axis=0)
    if kind == "reach":
        merged = parts[0].copy()
        for part in parts[1:]:
            merged |= part
        return merged
    if kind == "harmonic":
        # concatenating ascending-shard partials restores global snapshot
        # order; the sequential fold then performs the exact same float
        # additions, in the exact same order, as the monolithic kernel —
        # run it even for a single part so one-shard layouts match too
        return _harmonic_accumulate(np.concatenate(parts, axis=0))
    if kind in ("first", "last"):
        merged = parts[0].copy()
        combine = np.minimum if kind == "first" else np.maximum
        for part in parts[1:]:
            merged = np.where(
                merged < 0, part, np.where(part < 0, merged, combine(merged, part))
            )
        return merged
    if kind == "reached":
        merged = [dict(d) for d in parts[0]]
        for part in parts[1:]:
            for col, d in enumerate(part):
                merged[col].update(d)
        return merged
    if kind == "steps":
        merged = parts[0].copy()
        for part in parts[1:]:
            merged = np.where(merged < 0, part, merged)
        return merged
    raise GraphError(f"unknown shard partial kind {kind!r}")


def _pipeline_worker(payload, in_q, out_q):  # pragma: no cover - subprocess body
    """Process-backend worker loop: owns its shards for the driver's lifetime.

    ``payload`` is ``[(shard index, compiled artifact, global start), ...]``
    shipped once, at startup, through the PR-3 pickling path; thereafter the
    input queue carries only task tuples with packed boundary state, and the
    output queue only ``(chunk, shard, partial, boundary out)`` results.
    """
    kernels = {}
    starts = {}
    for shard_index, artifact, global_start in payload:
        kernels[shard_index] = FrontierKernel(artifact)
        starts[shard_index] = global_start
    while True:
        message = in_q.get()
        if message is None:
            break
        chunk_id, shard_index, spec, kind, seeds, boundary = message
        try:
            partial, boundary_out = _run_shard_task(
                kernels[shard_index], spec, kind, seeds, boundary, starts[shard_index]
            )
            out_q.put((chunk_id, shard_index, partial, boundary_out, None))
        except Exception as exc:  # noqa: BLE001 - relayed to the driver
            out_q.put((chunk_id, shard_index, None, None, repr(exc)))


# --------------------------------------------------------------------------- #
# the driver                                                                  #
# --------------------------------------------------------------------------- #


class ShardedSweepDriver:
    """Runs every kernel sweep family across the shards of one artifact.

    Parameters
    ----------
    sharded:
        The :class:`~repro.graph.sharded.ShardedTemporalGraph` to sweep.
    backend:
        ``"serial"`` (shard-major, store-release between shards — the
        out-of-core path), ``"thread"`` (root-chunks pipeline through the
        shard chain on a thread pool) or ``"process"`` (persistent workers
        own shards; only packed boundaries cross process boundaries).
    num_workers:
        Worker count for the thread/process backends (default: the shard
        count, capped at 4 for processes).
    chunk_size:
        Default root-batch width per sweep, as in the monolithic kernels.

    The driver mirrors the monolithic kernel surface method-for-method and
    is itself what :func:`repro.engine.get_sharded_driver` caches under
    ``(mutation_version, shard layout, backend, num_workers)``.  Process
    backends hold OS resources: :meth:`close` them (context-manager
    supported); the dispatch cache closes evicted drivers.
    """

    def __init__(
        self,
        sharded: ShardedTemporalGraph,
        *,
        backend: str = "serial",
        num_workers: int | None = None,
        chunk_size: int = 128,
        mp_context: str | None = None,
    ) -> None:
        if backend not in SHARD_BACKENDS:
            raise GraphError(
                f"unsupported shard backend {backend!r}; "
                f"expected one of {SHARD_BACKENDS}"
            )
        if chunk_size < 1:
            raise GraphError("chunk_size must be at least 1")
        self.sharded = sharded
        self.backend = backend
        self.chunk_size = int(chunk_size)
        if num_workers is None:
            num_workers = (
                sharded.num_shards
                if backend == "process"
                else min(sharded.num_shards, 4)
            )
        self.num_workers = max(1, int(num_workers))
        self._mp_context = mp_context
        self._labels = sharded.node_labels
        self._node_index = sharded.node_index
        self._times = sharded.times
        self._keys: np.ndarray | None = None  # slot key table, built on first decode
        self._kernels: dict[int, FrontierKernel] = {}
        self._processes: list = []
        self._task_queues: dict[int, object] = {}
        self._result_queue = None
        self._owner: dict[int, int] = {}
        self._closed = False

    # ------------------------------------------------------------------ #
    # metadata surface (what serving and the algorithms layer read)       #
    # ------------------------------------------------------------------ #

    @property
    def node_labels(self) -> list[Node]:
        return list(self._labels)

    @property
    def times(self) -> tuple[Time, ...]:
        return tuple(self._times)

    @property
    def num_nodes(self) -> int:
        return self.sharded.num_nodes

    @property
    def num_snapshots(self) -> int:
        return self.sharded.num_snapshots

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def mutation_version(self) -> int:
        return self.sharded.mutation_version

    def is_active(self, node: Node, time: Time) -> bool:
        return self.sharded.is_active(node, time)

    def require_current(self, graph) -> None:
        """Raise :class:`GraphError` when the artifact no longer matches ``graph``."""
        if not self.sharded.is_current(graph):
            raise GraphError(
                "sharded artifact is stale for this graph (artifact version "
                f"{self.sharded.mutation_version}, graph version "
                f"{graph.mutation_version}); rebuild via get_sharded_driver"
            )

    # ------------------------------------------------------------------ #
    # seeds and scheduling                                                #
    # ------------------------------------------------------------------ #

    def _seed_index(self, root: TemporalNodeTuple) -> tuple[int, int]:
        node, time = root
        slot = self.sharded.slot(node, time)
        if slot is None or not self.sharded.active_mask[slot]:
            raise InactiveNodeError(node, time)
        return slot

    def _kernel(self, shard_index: int) -> FrontierKernel:
        kernel = self._kernels.get(shard_index)
        if kernel is None:
            kernel = FrontierKernel(self.sharded.shard(shard_index))
            self._kernels[shard_index] = kernel
        return kernel

    def adopt_kernels(self, previous: "ShardedSweepDriver") -> int:
        """Carry over per-shard kernels whose shard artifact is unchanged.

        After a delta re-shard (:meth:`ShardedTemporalGraph.recompile
        <repro.graph.sharded.ShardedTemporalGraph.recompile>`) every clean
        shard is the *same object* as in the previous artifact, so the old
        driver's lazily-warmed :class:`FrontierKernel` for it — operator
        degrees, parent coordinates, the slot key table — stays exact and is
        reused verbatim.  Returns the number of kernels adopted.  (Serial/thread
        backends only: process workers own their kernels remotely.)
        """
        adopted = 0
        for index, kernel in previous._kernels.items():
            if (
                index < self.sharded.num_shards
                and self.sharded.materialized(index)
                and kernel.compiled is self.sharded.shard(index)
                and index not in self._kernels
            ):
                self._kernels[index] = kernel
                adopted += 1
        return adopted

    def _chain(self, spec: tuple) -> list[int]:
        """Shard processing order for a sweep family (the pipeline order)."""
        count = self.sharded.num_shards
        if spec[0] == "bfs" and not spec[1]:
            return list(range(count - 1, -1, -1))
        if spec[0] == "tang":
            start_index = spec[2]
            return [
                i
                for i, (_, stop) in enumerate(self.sharded.boundaries)
                if stop > start_index
            ]
        return list(range(count))

    def _chunks(self, items: Iterable, chunk_size: int | None) -> list[list]:
        """``items`` in chunks of ``chunk_size`` (``None``: the driver default)."""
        width = self.chunk_size if chunk_size is None else chunk_size
        return _chunked(list(items), width)

    def _split_seeds(
        self, seeds_per_column: Sequence[Sequence[tuple[int, int]]]
    ) -> list[list[list[tuple[int, int]]]]:
        """Global seed slots, rebased to per-shard local snapshot indices."""
        out = []
        for start, stop in self.sharded.boundaries:
            out.append(
                [
                    [(ti - start, vi) for ti, vi in seeds if start <= ti < stop]
                    for seeds in seeds_per_column
                ]
            )
        return out

    def _run_chunks(
        self, spec: tuple, kind: str, plans: Sequence[tuple]
    ) -> list:
        """Run every chunk's sweep chain; returns merged partials per chunk.

        ``plans`` holds ``(per-shard seeds, initial boundary)`` per chunk —
        for Tang sweeps the "boundary" is the informed lanes with their
        column count, and the seeds are unused.
        """
        if self._closed:
            raise GraphError("driver is closed")
        if not plans:
            return []
        chain = self._chain(spec)
        merge_kind = "steps" if spec[0] == "tang" else kind
        if not chain:
            raise GraphError("sweep chain is empty")  # pragma: no cover - guarded
        if self.backend == "process":
            per_chunk = self._run_process(spec, kind, plans, chain)
        elif self.backend == "thread" and len(plans) > 1:
            with ThreadPoolExecutor(max_workers=self.num_workers) as pool:
                per_chunk = list(
                    pool.map(
                        lambda plan: self._run_chain(spec, kind, plan, chain), plans
                    )
                )
        elif self.backend == "serial" and self.sharded.store_backed:
            per_chunk = self._run_serial_shard_major(spec, kind, plans, chain)
        else:
            per_chunk = [self._run_chain(spec, kind, plan, chain) for plan in plans]
        return [_merge_partials(merge_kind, parts) for parts in per_chunk]

    def _run_chain(
        self, spec: tuple, kind: str, plan: tuple, chain: Sequence[int]
    ) -> list:
        """One chunk through the whole shard chain, in-process."""
        seeds_by_shard, boundary = plan
        parts: dict[int, object] = {}
        for shard_index in chain:
            partial, boundary = _run_shard_task(
                self._kernel(shard_index),
                spec,
                kind,
                seeds_by_shard[shard_index] if seeds_by_shard else None,
                boundary,
                self.sharded.boundaries[shard_index][0],
            )
            parts[shard_index] = partial
        return [parts[i] for i in sorted(parts)]

    def _run_serial_shard_major(
        self, spec: tuple, kind: str, plans: Sequence[tuple], chain: Sequence[int]
    ) -> list:
        """Shard-major serial order: open each shard once across all chunks.

        This is the out-of-core schedule — a store-backed shard is released
        (and its kernel dropped) before the next one opens, so peak operator
        residency stays at one shard regardless of chain length.
        """
        count = len(plans)
        parts: list[dict[int, object]] = [{} for _ in range(count)]
        boundaries = [plan[1] for plan in plans]
        for shard_index in chain:
            kernel = self._kernel(shard_index)
            global_start = self.sharded.boundaries[shard_index][0]
            for c, plan in enumerate(plans):
                seeds_by_shard = plan[0]
                parts[c][shard_index], boundaries[c] = _run_shard_task(
                    kernel,
                    spec,
                    kind,
                    seeds_by_shard[shard_index] if seeds_by_shard else None,
                    boundaries[c],
                    global_start,
                )
            self._kernels.pop(shard_index, None)
            self.sharded.release(shard_index)
        return [[chunk_parts[i] for i in sorted(chunk_parts)] for chunk_parts in parts]

    # ------------------------------------------------------------------ #
    # the process pipeline                                                #
    # ------------------------------------------------------------------ #

    def _ensure_processes(self) -> None:
        if self._processes:
            return
        import multiprocessing

        ctx = multiprocessing.get_context(self._mp_context)
        from repro.parallel.partition import chunk_by_weight

        shard_ids = list(range(self.sharded.num_shards))
        weights = [nnz + 1 for nnz in self.sharded.shard_nnz]
        assignment = chunk_by_weight(shard_ids, weights, self.num_workers)
        self._result_queue = ctx.Queue()
        for worker_id, owned in enumerate(assignment):
            payload = [
                (i, self.sharded.shard(i), self.sharded.boundaries[i][0])
                for i in owned
            ]
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=_pipeline_worker,
                args=(payload, task_queue, self._result_queue),
                daemon=True,
            )
            process.start()
            self._processes.append(process)
            for i in owned:
                self._task_queues[i] = task_queue

    def _run_process(
        self, spec: tuple, kind: str, plans: Sequence[tuple], chain: Sequence[int]
    ) -> list:
        """Software-pipelined schedule over the persistent shard owners.

        Every chunk is enqueued at the chain's first shard up front; as each
        ``(chunk, shard)`` result returns, its boundary block is routed to
        the owner of the next shard — so shard ``i`` sweeps chunk ``c + 1``
        while shard ``i + 1`` sweeps chunk ``c`` after the pipeline fills.
        """
        self._ensure_processes()
        next_in_chain = {
            shard: chain[pos + 1] for pos, shard in enumerate(chain[:-1])
        }
        parts: list[dict[int, object]] = [{} for _ in plans]

        def submit(chunk_id: int, shard_index: int, boundary) -> None:
            seeds_by_shard = plans[chunk_id][0]
            self._task_queues[shard_index].put(
                (
                    chunk_id,
                    shard_index,
                    spec,
                    kind,
                    seeds_by_shard[shard_index] if seeds_by_shard else None,
                    boundary,
                )
            )

        for chunk_id, plan in enumerate(plans):
            submit(chunk_id, chain[0], plan[1])
        pending = len(plans) * len(chain)
        while pending:
            chunk_id, shard_index, partial, boundary, error = self._result_queue.get()
            if error is not None:
                self.close()
                raise GraphError(f"shard worker failed: {error}")
            pending -= 1
            parts[chunk_id][shard_index] = partial
            follower = next_in_chain.get(shard_index)
            if follower is not None:
                submit(chunk_id, follower, boundary)
        return [[chunk_parts[i] for i in sorted(chunk_parts)] for chunk_parts in parts]

    def close(self) -> None:
        """Shut down process workers (no-op for serial/thread backends)."""
        self._closed = True
        for task_queue in set(self._task_queues.values()):
            try:
                task_queue.put(None)
            except Exception:  # pragma: no cover - teardown races
                pass
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
        self._processes = []
        self._task_queues = {}
        self._result_queue = None

    def __enter__(self) -> "ShardedSweepDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            if self._processes:
                self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # frontier-family sweeps                                              #
    # ------------------------------------------------------------------ #

    def _frontier_chunks(
        self,
        roots: Sequence[TemporalNodeTuple],
        spec: tuple,
        kind: str,
        chunk_size: int | None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], object]]:
        """Chunk roots and pipeline all chunks through the shard chain at once.

        Every chunk's plan is built up front so the thread/process backends
        can overlap chunks at different chain positions (software pipelining
        over root-batches); the merged partials are then yielded chunk by
        chunk in root order, matching the kernels' chunked iterators.  The
        chunk width is checked on the call, the sweeps run on iteration.
        """
        chunks = self._chunks(roots, chunk_size)
        n = self.sharded.num_nodes

        def pipeline() -> Iterator[tuple[list[TemporalNodeTuple], object]]:
            plans = [
                (
                    self._split_seeds([[self._seed_index(r)] for r in chunk]),
                    BoundaryBlock.empty(len(chunk), n),
                )
                for chunk in chunks
            ]
            yield from zip(chunks, self._run_chunks(spec, kind, plans))

        return pipeline()

    def bfs(
        self,
        root: TemporalNodeTuple,
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
    ) -> BFSResult:
        """Single-source search; equals ``FrontierKernel.bfs`` bit-for-bit."""
        root = (root[0], root[1])
        spec = _bfs_spec(direction, reverse_edges)
        for _, merged in self._frontier_chunks([root], spec, "reached", 1):
            return BFSResult(root=root, reached=merged[0])
        raise GraphError("empty sweep")  # pragma: no cover - single chunk above

    def multi_source(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
    ) -> BFSResult:
        """One search seeded at several roots, as ``FrontierKernel.multi_source``."""
        spec = _bfs_spec(direction)
        root_list = [(r[0], r[1]) for r in roots]
        active_roots = [r for r in root_list if self.is_active(*r)]
        if not active_roots:
            if root_list:
                raise InactiveNodeError(*root_list[0])
            raise ValueError("multi_source requires at least one root")
        seeds = [[self._seed_index(r) for r in active_roots]]
        boundary = BoundaryBlock.empty(1, self.sharded.num_nodes)
        plan = (self._split_seeds(seeds), boundary)
        (merged,) = self._run_chunks(spec, "reached", [plan])
        return BFSResult(root=tuple(active_roots), reached=merged[0])

    def batch(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, BFSResult]:
        """Many independent searches, as ``FrontierKernel.batch`` (inactive skipped)."""
        spec = _bfs_spec(direction)
        root_list = [(r[0], r[1]) for r in roots]
        active_roots = [r for r in root_list if self.is_active(*r)]
        results: dict[TemporalNodeTuple, BFSResult] = {}
        for chunk, merged in self._frontier_chunks(
            active_roots, spec, "reached", chunk_size
        ):
            for col, root in enumerate(chunk):
                results[root] = BFSResult(root=root, reached=merged[col])
        return results

    def distance_blocks(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """Raw global ``(T, N, R)`` distance blocks, chunked as the kernel's."""
        spec = _bfs_spec(direction, reverse_edges)
        root_list = [(r[0], r[1]) for r in roots]
        return self._frontier_chunks(root_list, spec, "block", chunk_size)

    def identity_reach_counts(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, int]:
        """Per root: reached node identities minus itself, pipelined per shard.

        Shards ship ``(N, R)`` identity-hit masks; the driver ORs and counts,
        so the result is bit-identical to the monolithic reduction.
        """
        spec = _bfs_spec(direction, reverse_edges)
        out: dict[TemporalNodeTuple, int] = {}
        root_list = [(r[0], r[1]) for r in roots]
        for chunk, merged in self._frontier_chunks(
            root_list, spec, "reach", chunk_size
        ):
            counts = merged.sum(axis=0)
            for col, root in enumerate(chunk):
                out[root] = int(counts[col]) - 1
        return out

    def harmonic_closeness_sums(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, float]:
        """Per root: ``sum(1/d)`` over reached slots at distance > 0.

        Each shard reduces its own slice of the (bit-identical) distance
        block to per-snapshot ``(T_i, R)`` rows via the monolithic kernel's
        canonical reduction; the driver concatenates them back into global
        snapshot order and folds sequentially, so the float sums are
        *bit-identical* to the monolithic kernel — not merely close.
        """
        spec = _bfs_spec(direction)
        out: dict[TemporalNodeTuple, float] = {}
        root_list = [(r[0], r[1]) for r in roots]
        for chunk, merged in self._frontier_chunks(
            root_list, spec, "harmonic", chunk_size
        ):
            for col, root in enumerate(chunk):
                out[root] = float(merged[col])
        return out

    # ------------------------------------------------------------------ #
    # label-family sweeps                                                 #
    # ------------------------------------------------------------------ #

    def earliest_arrivals(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per root: earliest reachable time per node identity (forward sweep).

        Shards ship ``(N, R)`` global first-hit snapshot indices; the driver
        keeps the minimum, which equals the monolithic running-minimum
        readout exactly.
        """
        spec = _bfs_spec("forward")
        out: dict[TemporalNodeTuple, dict[Node, Time]] = {}
        root_list = [(r[0], r[1]) for r in roots]
        for chunk, first in self._frontier_chunks(
            root_list, spec, "first", chunk_size
        ):
            for col, root in enumerate(chunk):
                hits = np.nonzero(first[:, col] >= 0)[0]
                out[root] = {
                    self._labels[vi]: self._times[first[vi, col]]
                    for vi in hits.tolist()
                }
        return out

    def latest_departures(
        self,
        targets: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per target: latest departing time per node identity (backward sweep)."""
        spec = _bfs_spec("backward")
        out: dict[TemporalNodeTuple, dict[Node, Time]] = {}
        target_list = [(r[0], r[1]) for r in targets]
        for chunk, last in self._frontier_chunks(
            target_list, spec, "last", chunk_size
        ):
            for col, target in enumerate(chunk):
                hits = np.nonzero(last[:, col] >= 0)[0]
                out[target] = {
                    self._labels[vi]: self._times[last[vi, col]]
                    for vi in hits.tolist()
                }
        return out

    def zero_one_labels(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        spatial_cost: int = 1,
        causal_cost: int = 0,
        chunk_size: int | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """(min, +) labels with 0/1 edge-family costs, as the label kernel's."""
        for cost, name in (
            (spatial_cost, "spatial_cost"),
            (causal_cost, "causal_cost"),
        ):
            if cost not in (0, 1):
                raise GraphError(f"{name} must be 0 or 1, got {cost!r}")
        spec = ("zero_one", int(spatial_cost), int(causal_cost))
        root_list = [(r[0], r[1]) for r in roots]
        return self._frontier_chunks(root_list, spec, "block", chunk_size)

    def fewest_hops(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]]:
        """Per root: minimal static-edge count per reached slot (hops decoded)."""
        spec = ("zero_one", 1, 0)
        out: dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]] = {}
        root_list = [(r[0], r[1]) for r in roots]
        for chunk, merged in self._frontier_chunks(
            root_list, spec, "reached", chunk_size
        ):
            for col, root in enumerate(chunk):
                out[root] = merged[col]
        return out

    def tang_steps(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
        chunk_size: int | None = None,
    ) -> dict[Node, dict[Node, int]]:
        """Tang snapshot-count distances, the informed lanes flowing shard to shard."""
        if start_index < 0 or start_index >= self.sharded.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        spec = ("tang", int(horizon), int(start_index))
        n = self.sharded.num_nodes
        chunks = self._chunks(source_nodes, chunk_size)
        plans: list[tuple] = []
        for chunk in chunks:
            slots = (self._node_index.get(source) for source in chunk)
            seeds = [[vi] if vi is not None else [] for vi in slots]
            plans.append((None, (bitops.seed_lanes((n,), seeds), len(chunk))))
        out: dict[Node, dict[Node, int]] = {}
        for chunk, steps in zip(chunks, self._run_chunks(spec, "steps", plans)):
            for col, source in enumerate(chunk):
                vi = self._node_index.get(source)
                if vi is not None:
                    steps[vi, col] = 0
                known = np.nonzero(steps[:, col] >= 0)[0]
                out[source] = {
                    self._labels[v]: int(steps[v, col]) for v in known.tolist()
                }
        return out

    # ------------------------------------------------------------------ #
    # decoding helpers (the serving layer's surface)                      #
    # ------------------------------------------------------------------ #

    def reached_dict(
        self, dist: np.ndarray, col: int
    ) -> dict[TemporalNodeTuple, int]:
        """Decode one column of a global ``(T, N, R)`` block, as the kernel does."""
        if self._keys is None:
            self._keys = _slot_keys(self._labels, self._times)
        return _decode_column(self._keys, dist, col)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedSweepDriver backend={self.backend} "
            f"shards={self.sharded.num_shards} workers={self.num_workers}>"
        )
