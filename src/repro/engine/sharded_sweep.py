"""The batched sweep surface, and its execution over time shards.

The causal step of every kernel sweep is a *prefix* operation over
snapshots: influence crosses a time-shard boundary only forward (or, for
backward searches, only backward), and the complete cross-boundary state of
a sweep is one packed block per root column — which node identities the
earlier shards reached, at what minimal level.  That is what makes the
sweeps of :class:`~repro.engine.frontier.FrontierKernel` shardable
*bit-identically* (the paper's Theorem 4 reading: causal blocks act only
forward in time), and a monolithic sweep the one-shard case of a sharded
one:

* shard ``i`` calls the kernel's own sweep loop over its ``(T_i, N, L)``
  root lanes (:mod:`~repro.engine.bitops`: one bitset of root columns per
  node, the MS-BFS layout of Then et al., PVLDB 2014), started from the
  incoming boundary — the loop ORs the external nodes whose minimal
  earlier-shard level is ``m`` into every snapshot's causal reach: into
  the carry of level ``m + 1`` beside the prefix-OR of level ``m``'s
  frontier when causal edges cost 1 (BFS and the unit-causal label
  sweeps), and into level ``m`` itself when they are free, which is
  precisely when and how the monolithic prefix-OR would have delivered
  them;
* injecting each node once, at its *minimal* level, is exact: the causal
  step reaches every later snapshot of the node in one level, so the first
  injection visits every slot a later appearance could, and the sweep's
  visited masking makes the later firings no-ops;
* every shard but the last of a chain hands downstream a
  :class:`BoundaryBlock`: the element-wise minimum of its own per-node
  levels with the incoming block, or, for a reach readout, whose reached
  set does not depend on levels, one level-0 plane of every identity
  reached so far, which the next shard enters at level 1.  The Tang
  sweep, whose state is time-free, hands its raw ``(N, L)`` informed
  lanes.  The last shard hands nothing on.

:class:`BatchedSweeps` is the one batched surface: ``multi_source``,
``batch``, ``distance_blocks``, the identity-reach, harmonic-closeness and
first/last-hit time readouts, the 0/1 label blocks, fewest hops and Tang
steps.  Each method chunks its roots, seeds one plan per chunk (the
per-shard seed slots and the empty boundary entering the chain), runs the
plans through the chain with :func:`_run_shard_task` — which reduces each
shard's block to the partial its readout needs (:func:`_reduce_block`) —
and folds the per-shard partials with :func:`_merge_partials`.  The
slot-keyed results (``bfs``, ``batch``, ``multi_source``, ``fewest_hops``)
merge plain blocks, so process workers ship int32 blocks, and hand out
each root's column as a :class:`~repro.engine.reached.ReachedView`.
:class:`~repro.engine.frontier.FrontierKernel` inherits it as the one-shard
chain: itself, global start 0, its plans swept lazily one chunk at a time,
no hand-off built, and the single partial returned uncopied.

:class:`ShardedSweepDriver` inherits the same surface and runs its shard
chain on one of two backends:

* ``backend="serial"`` — in the calling thread.  In-memory layouts sweep
  chain-major and lazily, like the kernel.  Store-backed layouts sweep
  shard-major: every root-chunk's sweep visits shard 0, then every sweep
  visits shard 1, …, and each shard is :meth:`released
  <repro.graph.sharded.ShardedTemporalGraph.release>` before the next is
  opened, so peak operator residency is one shard — the out-of-core path;
* ``backend="process"`` — persistent workers each *own* a subset of shards
  permanently (the picklable compiled artifacts ship once, at startup,
  under the platform's default start method); thereafter only task tuples,
  packed ``(N, L)`` lane planes and the readouts' partials cross process
  boundaries, and root-chunks pipeline through the chain.  Shards
  are assigned to workers by
  :func:`~repro.parallel.partition.chunk_by_weight` over shard nnz.  A
  worker that dies makes the next wait raise :class:`ShardWorkerError`
  instead of hanging.  This pipeline is the package's one parallel
  mechanism: there is no thread fan-out and no per-call process pool.

Results are bit-identical to the monolithic kernel on every family
(``tests/test_sharded.py`` hypothesis-asserts this across families, shard
counts and backends).  Even the float harmonic sums are exact: shards ship
per-snapshot partial rows and the chain folds them in canonical global
snapshot order, replaying the monolithic reduction addition-for-addition.
Build a driver over ``ShardedTemporalGraph.from_compiled(get_compiled(g), n)``
or :func:`repro.io.load_sharded`; the caller owns it and closes it.
"""

from __future__ import annotations

import queue
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.bfs import BFSResult
from repro.engine import bitops
from repro.engine.reached import ReachedView, SlotTable, TimesView
from repro.exceptions import GraphError, InactiveNodeError, ShardWorkerError
from repro.graph.base import Node, TemporalNodeTuple, Time
from repro.graph.sharded import ShardedTemporalGraph

if TYPE_CHECKING:
    from repro.engine.frontier import FrontierKernel

__all__ = ["BatchedSweeps", "BoundaryBlock", "ShardedSweepDriver", "SHARD_BACKENDS"]

SHARD_BACKENDS = ("serial", "process")

_DIRECTIONS = ("forward", "backward")

#: Sentinel level for nodes no earlier shard has reached, and the frontier
#: kernel's distance for unreached slots in its re-sweeps and parent scan
#: (large enough that it never wins a minimum, small enough that
#: ``_FAR + 1`` cannot overflow int32).
_FAR = np.int32(2**30)

#: Seconds the process backend waits for a result before it checks that
#: every worker is still alive.
_WORKER_POLL_S = 0.2


# --------------------------------------------------------------------------- #
# the boundary block                                                          #
# --------------------------------------------------------------------------- #


class BoundaryBlock:
    """The complete cross-shard state of a BFS/label sweep, packed.

    For each node identity and root column: the minimal level (distance or
    label) at which any earlier shard reached that node, stored as one
    ``(N, L)`` plane of root lanes per distinct level (a reach chain keeps
    only level 0).  This is the only thing that crosses a shard boundary —
    and, under the process backend, the only payload besides task tuples
    that crosses a *process* boundary.

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
# readouts: what a shard's block reduces to, and how partials combine         #
# --------------------------------------------------------------------------- #


def _time_hits(block: np.ndarray, kind: str, global_start: int = 0) -> np.ndarray:
    """Per node and column, the snapshot of its first or last reached slot.

    ``block`` is a ``(T_i, N, R)`` level block (``-1`` = unreached) whose
    first snapshot is global snapshot ``global_start``; ``kind`` is
    ``"first"`` (the earliest-arrival readout, a running minimum over time)
    or ``"last"`` (the latest-departure readout, a running maximum).
    Returns ``(N, R)`` int32 global snapshot indices, ``-1`` where the node
    is never reached.
    """
    reached = block >= 0
    hit = reached.any(axis=0)
    if kind == "first":
        local = reached.argmax(axis=0)
    else:
        local = block.shape[0] - 1 - reached[::-1].argmax(axis=0)
    return np.where(hit, np.int32(global_start) + local, -1).astype(np.int32)


def _harmonic_rows(dist: np.ndarray) -> np.ndarray:
    """Per-snapshot harmonic partial rows of a ``(T, N, R)`` distance block.

    The canonical first reduction stage of the harmonic-closeness sum: for
    each snapshot, ``sum(1/d)`` over its nodes as ONE contiguous pairwise
    reduction along the node axis.  Every shard of every chain reduces
    through this function, so a shard boundary never changes which floats
    meet inside the node-axis reduction — the remaining time-axis
    accumulation (:func:`_harmonic_accumulate`) is then performed in
    explicit global snapshot order, making any two layouts bit-identical.
    """
    inverse = np.where(dist > 0, 1.0 / np.maximum(dist, 1), 0.0)
    # (T, R, N) C-contiguous so the node-axis sum is a flat pairwise pass
    return np.ascontiguousarray(inverse.transpose(0, 2, 1)).sum(axis=2)


def _harmonic_accumulate(rows: np.ndarray) -> np.ndarray:
    """Fold ``(T, R)`` per-snapshot harmonic rows in time order, sequentially.

    Plain left-to-right float addition over the time axis — deliberately NOT
    ``rows.sum(axis=0)``, whose pairwise tree would depend on T and therefore
    on shard boundaries when partials are folded shard by shard.
    """
    sums = np.zeros(rows.shape[1:], dtype=np.float64)
    for row in rows:
        sums = sums + row
    return sums


def _reduce_block(kind: str, block: np.ndarray, global_start: int) -> object:
    """Collapse a shard's level block to the partial a readout needs.

    The block is ``(T_i, N, R)``, except for ``"reach"``, whose sweep
    returns the ``(N, L)`` plane of the identities it reached; that plane
    is the reach partial, and the chain ORs the partials.
    """
    if kind in ("block", "reach"):
        return block
    if kind == "harmonic":
        return _harmonic_rows(block)
    if kind in ("first", "last"):
        return _time_hits(block, kind, global_start)
    raise GraphError(f"unknown shard partial kind {kind!r}")


def _merge_partials(kind: str, parts: Sequence) -> object:
    """Combine per-shard partials (ascending shard index) into the global one.

    A one-part merge returns its part itself, uncopied — except the
    harmonic fold, which every layout runs so that one-shard and
    many-shard sums perform the same additions in the same order.
    """
    if kind == "harmonic":
        # concatenating ascending-shard partials restores global snapshot order
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
        return _harmonic_accumulate(rows)
    if len(parts) == 1:
        return parts[0]
    if kind == "block":
        return np.concatenate(parts, axis=0)
    if kind == "reach":
        merged = parts[0].copy()
        for part in parts[1:]:
            merged |= part
        return merged
    if kind in ("first", "last"):
        merged = parts[0]
        combine = np.minimum if kind == "first" else np.maximum
        for part in parts[1:]:
            merged = np.where(
                merged < 0, part, np.where(part < 0, merged, combine(merged, part))
            )
        return merged
    if kind == "steps":
        merged = parts[0]
        for part in parts[1:]:
            merged = np.where(merged < 0, part, merged)
        return merged
    raise GraphError(f"unknown shard partial kind {kind!r}")


# --------------------------------------------------------------------------- #
# per-shard sweeps (module-level and picklable: every backend runs these)     #
# --------------------------------------------------------------------------- #


def _bfs_spec(direction: str, reverse_edges: bool = False) -> tuple:
    """The picklable spec of a BFS-family sweep; unknown directions raise."""
    if direction not in _DIRECTIONS:
        raise GraphError(f"unsupported direction {direction!r}")
    return ("bfs", direction == "forward", bool(reverse_edges))


def _zero_one_spec(spatial_cost: int, causal_cost: int) -> tuple:
    """The picklable spec of a 0/1 label sweep; costs outside ``{0, 1}`` raise."""
    for cost, name in ((spatial_cost, "spatial_cost"), (causal_cost, "causal_cost")):
        if cost not in (0, 1):
            raise GraphError(f"{name} must be 0 or 1, got {cost!r}")
    return ("zero_one", int(spatial_cost), int(causal_cost))


def _handoff(block: np.ndarray, boundary: BoundaryBlock) -> BoundaryBlock:
    """The outgoing boundary: the incoming one merged with a shard's minima.

    ``block`` is the shard's ``(T_i, N, R)`` level block (``-1`` = none) of
    a distance or label chain; its per-node minimum over time is the only
    part of it a later shard needs.
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
    handoff: bool = True,
    per_identity: bool = False,
) -> tuple[np.ndarray, BoundaryBlock | None]:
    """One shard's slice of a BFS sweep; ``(level block, boundary out)``.

    :meth:`FrontierKernel._run` over the shard's own snapshots, started
    from ``boundary``: the block is ``(T_i, N, R)`` per-slot distances, or
    with ``per_identity`` the ``(N, L)`` plane of the identities reached,
    handed on ORed with ``boundary`` as one level-0 plane.  The outgoing
    boundary is ``None`` without ``handoff`` (the last shard of a chain).
    """
    block = kernel._run(
        seeds_per_column,
        "forward" if forward else "backward",
        reverse_edges=reverse_edges,
        boundary=boundary,
        per_identity=per_identity,
    )
    if not handoff:
        return block, None
    if not per_identity:
        return block, _handoff(block, boundary)
    reached = np.bitwise_or.reduce([block, *boundary.levels.values()])
    return block, BoundaryBlock(boundary.num_columns, boundary.num_nodes, {0: reached})


def _run_shard_task(
    kernel: FrontierKernel,
    spec: tuple,
    kind: str,
    seeds: Sequence[Sequence[tuple[int, int]]] | None,
    boundary,
    global_start: int,
    *,
    handoff: bool = True,
) -> tuple[object, object]:
    """Execute one (shard, chunk) sweep and reduce its block to a partial.

    ``spec`` is a picklable family tuple — ``("bfs", forward, reverse_edges)``,
    ``("zero_one", spatial_cost, causal_cost)`` or ``("tang", horizon,
    start_index)`` — and ``kind`` picks the partial shipped back to the
    chain, so the process backend returns reductions (reach masks, harmonic
    rows, hit indices) instead of full blocks whenever the readout allows.
    Returns ``(partial, boundary out)``; the boundary out is ``None``
    without ``handoff`` (the last shard of a chain).  A 0/1 label sweep is
    the shard kernel's :meth:`~repro.engine.frontier.FrontierKernel._run`
    at the spec's costs, and a Tang sweep its
    :meth:`~repro.engine.frontier.FrontierKernel._tang_sweep`.
    """
    family = spec[0]
    if family == "tang":
        # the incoming informed lanes and their column count are the
        # boundary, owned by the chain, so the sweep advances them in
        # place; global step numbers (global snapshot - start_index + 1)
        # keep the per-shard partials disjoint, because nodes informed
        # upstream are never fresh here
        _, horizon, start_index = spec
        informed, r = boundary
        steps = np.full((kernel.num_nodes, r), -1, dtype=np.int32)
        first = max(0, start_index - global_start)
        kernel._tang_sweep(
            informed, steps, first, global_start + first - start_index + 1, horizon
        )
        return steps, (informed, r) if handoff else None
    if family == "bfs":
        block, boundary_out = _bfs_shard_sweep(
            kernel,
            seeds,
            boundary,
            forward=spec[1],
            reverse_edges=spec[2],
            handoff=handoff,
            per_identity=kind == "reach",
        )
    else:
        block = kernel._run(
            seeds,
            "forward",
            boundary=boundary,
            spatial_cost=spec[1],
            causal_cost=spec[2],
        )
        boundary_out = _handoff(block, boundary) if handoff else None
    return _reduce_block(kind, block, global_start), boundary_out


def _pipeline_worker(payload, in_q, out_q):  # pragma: no cover - subprocess body
    """Process-backend worker loop: owns its shards for the driver's lifetime.

    ``payload`` is ``[(shard index, compiled artifact, global start), ...]``
    shipped once, at startup, through the compiled artifact's pickling path;
    thereafter the input queue carries only task tuples with packed
    boundary state, and the output queue only ``(chunk, shard, partial,
    boundary out, error)`` results.
    """
    from repro.engine.frontier import FrontierKernel

    kernels = {}
    starts = {}
    for shard_index, artifact, global_start in payload:
        kernels[shard_index] = FrontierKernel(artifact)
        starts[shard_index] = global_start
    while True:
        message = in_q.get()
        if message is None:
            break
        chunk_id, shard_index, spec, kind, seeds, boundary, handoff = message
        try:
            partial, boundary_out = _run_shard_task(
                kernels[shard_index],
                spec,
                kind,
                seeds,
                boundary,
                starts[shard_index],
                handoff=handoff,
            )
            out_q.put((chunk_id, shard_index, partial, boundary_out, None))
        except Exception as exc:  # noqa: BLE001 - relayed to the driver
            out_q.put((chunk_id, shard_index, None, None, repr(exc)))


# --------------------------------------------------------------------------- #
# the batched surface                                                         #
# --------------------------------------------------------------------------- #


class BatchedSweeps:
    """The batched sweep surface, written once for the kernel and the driver.

    Every method runs its roots ``chunk_size`` at a time (``None``: the
    class default) as plans through the sweep chain and decodes the merged
    partials; the chunk width, directions and costs are checked on the
    call.  The chain is described by four members:

    * ``_boundaries`` — the half-open global snapshot range of each shard;
    * :meth:`_kernel` — the :class:`~repro.engine.frontier.FrontierKernel`
      sweeping shard ``i``;
    * :meth:`_schedule` — how the plans' chains execute.  The default runs
      them lazily in the calling thread, one chunk's whole chain per step;
    * ``_axes`` — the artifact whose ``(T, N)`` axes seed every block
      (``slot``, ``active_mask``, ``is_active``), with ``_slots``, the
      :class:`~repro.engine.reached.SlotTable` that labels them and that
      every ``reached`` view shares.

    A kernel is its own one shard over ``((0, T),)``; the sharded driver
    names its shards and overrides :meth:`_schedule` by backend.
    """

    #: Default root-batch width of every chunked method.
    chunk_size = 128

    # ------------------------------------------------------------------ #
    # structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def node_labels(self) -> list[Node]:
        """Node labels indexing the node axis of every block."""
        return list(self._slots.labels)

    @property
    def num_nodes(self) -> int:
        """Size ``N`` of the shared node universe."""
        return self._axes.num_nodes

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T``."""
        return self._axes.num_snapshots

    def is_active(self, node: Node, time: Time) -> bool:
        """Whether ``(node, time)`` is active (Definition 3)."""
        return self._axes.is_active(node, time)

    def _seed_index(self, root: TemporalNodeTuple) -> tuple[int, int]:
        node, time = root
        slot = self._axes.slot(node, time)
        if slot is None or not self._axes.active_mask[slot]:
            raise InactiveNodeError(node, time)
        return slot

    def _reached_view(self, dist: np.ndarray, col: int) -> ReachedView:
        """One column of a ``(T, N, R)`` block as a ``reached`` mapping."""
        return ReachedView(dist[:, :, col], self._slots)

    # ------------------------------------------------------------------ #
    # plans and the chain                                                 #
    # ------------------------------------------------------------------ #

    def _kernel(self, shard_index: int) -> FrontierKernel:
        """The :class:`~repro.engine.frontier.FrontierKernel` of one shard."""
        raise NotImplementedError

    def _chain(self, spec: tuple) -> list[int]:
        """Shard order of a sweep: backward searches run the chain in reverse,
        and Tang sweeps skip the shards that end before their start."""
        indices = range(len(self._boundaries))
        if spec[0] == "bfs" and not spec[1]:
            return list(reversed(indices))
        if spec[0] == "tang":
            return [i for i in indices if self._boundaries[i][1] > spec[2]]
        return list(indices)

    def _chunks(self, items: Iterable, chunk_size: int | None) -> list[list]:
        """``items`` in consecutive chunks; widths below 1 raise ``GraphError``."""
        width = self.chunk_size if chunk_size is None else chunk_size
        if width < 1:
            raise GraphError(f"chunk_size must be at least 1, got {width}")
        items = list(items)
        return [items[i : i + width] for i in range(0, len(items), width)]

    def _split_seeds(
        self, seeds_per_column: Sequence[Sequence[tuple[int, int]]]
    ) -> list[list[list[tuple[int, int]]]]:
        """Global seed slots, rebased to each shard's local snapshot indices."""
        return [
            [
                [(ti - start, vi) for ti, vi in seeds if start <= ti < stop]
                for seeds in seeds_per_column
            ]
            for start, stop in self._boundaries
        ]

    def _plan(self, seeds_per_column: Sequence[Sequence[tuple[int, int]]]) -> tuple:
        """One chunk's plan: its per-shard seeds and the empty boundary."""
        return (
            self._split_seeds(seeds_per_column),
            BoundaryBlock.empty(len(seeds_per_column), self.num_nodes),
        )

    def _run_chain(
        self, spec: tuple, kind: str, plan: tuple, chain: Sequence[int]
    ) -> list:
        """One plan through the whole chain, in-process; partials in shard order."""
        seeds_by_shard, boundary = plan
        last = chain[-1]
        parts: dict[int, object] = {}
        for shard_index in chain:
            parts[shard_index], boundary = _run_shard_task(
                self._kernel(shard_index),
                spec,
                kind,
                seeds_by_shard[shard_index],
                boundary,
                self._boundaries[shard_index][0],
                handoff=shard_index != last,
            )
        return [parts[i] for i in sorted(parts)]

    def _schedule(
        self, spec: tuple, kind: str, plans: Iterable[tuple], chain: Sequence[int]
    ) -> Iterable[list]:
        """Each plan's partials in shard order: lazily, one chain per step."""
        return (self._run_chain(spec, kind, plan, chain) for plan in plans)

    def _run_plans(
        self, spec: tuple, kind: str, plans: Iterable[tuple]
    ) -> Iterator[object]:
        """The merged partial of each plan, in plan order, as each completes."""
        for parts in self._schedule(spec, kind, plans, self._chain(spec)):
            yield _merge_partials(kind, parts)

    def _sweep_chunks(
        self,
        roots: Iterable[TemporalNodeTuple],
        spec: tuple,
        kind: str,
        chunk_size: int | None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], object]]:
        """``(chunk, merged partial)`` per chunk of single-root columns.

        The chunk width is checked on the call; each chunk is seeded and
        swept when the iterator reaches it, unless the schedule pipelines.
        """
        chunks = self._chunks(((r[0], r[1]) for r in roots), chunk_size)
        plans = (self._plan([[self._seed_index(r)] for r in chunk]) for chunk in chunks)
        return zip(chunks, self._run_plans(spec, kind, plans))

    # ------------------------------------------------------------------ #
    # frontier family                                                     #
    # ------------------------------------------------------------------ #

    def multi_source(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
    ) -> BFSResult:
        """One search seeded at several roots: distance to the *nearest* root.

        Inactive roots are skipped; when every root is inactive an
        :class:`InactiveNodeError` is raised (matching
        :func:`repro.core.bfs.multi_source_bfs`).
        """
        spec = _bfs_spec(direction)
        root_list = [(r[0], r[1]) for r in roots]
        active_roots = [r for r in root_list if self.is_active(*r)]
        if not active_roots:
            if root_list:
                raise InactiveNodeError(*root_list[0])
            raise ValueError("multi_source requires at least one root")
        plan = self._plan([[self._seed_index(r) for r in active_roots]])
        (dist,) = self._run_plans(spec, "block", [plan])
        return BFSResult(root=tuple(active_roots), reached=self._reached_view(dist, 0))

    def batch(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, BFSResult]:
        """Many *independent* single-source searches, amortized over one traversal.

        The roots are packed ``chunk_size`` at a time into the root lanes of
        one sweep, so every frontier advance serves the whole chunk.
        Inactive roots are skipped silently (matching
        :func:`repro.parallel.batch.batch_bfs`).  Each result's ``reached``
        is a read-only :class:`~repro.engine.reached.ReachedView` over its
        root's own distance column, decoded into a dict only on a full read.
        """
        spec = _bfs_spec(direction)
        active_roots = [(r[0], r[1]) for r in roots if self.is_active(r[0], r[1])]
        results: dict[TemporalNodeTuple, BFSResult] = {}
        for chunk, dist in self._sweep_chunks(active_roots, spec, "block", chunk_size):
            for col, root in enumerate(chunk):
                reached = self._reached_view(dist, col)
                results[root] = BFSResult(root=root, reached=reached)
        return results

    def distance_blocks(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """Run independent searches ``chunk_size`` roots at a time.

        Yields ``(chunk, dist)`` pairs where ``dist`` is the raw global
        ``(T, N, R)`` int32 distance block whose column ``r`` belongs to
        ``chunk[r]`` (``-1`` = unreached) — the array-level form that the
        serving layer and the engine-backed algorithms (influence-leaf
        detection, community unions) consume; :meth:`batch` is the
        slot-keyed form.
        """
        spec = _bfs_spec(direction, reverse_edges)
        return self._sweep_chunks(roots, spec, "block", chunk_size)

    def identity_reach_counts(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, int]:
        """Per root: how many *other* node identities its search reaches.

        Equals ``len({v for (v, t) in reached} - {root_node})`` of the
        per-root Python BFS, computed without ever materializing the reached
        dictionaries: each shard's sweep writes no level and returns the
        packed ``(N, L)`` plane of the identities it reached, the chain ORs
        the planes, and the counts are read off one unpack per chunk.  Powers
        :func:`repro.algorithms.centrality.temporal_out_reach`,
        ``temporal_in_reach`` and ``top_influencers``.
        """
        spec = _bfs_spec(direction, reverse_edges)
        out: dict[TemporalNodeTuple, int] = {}
        for chunk, reached in self._sweep_chunks(roots, spec, "reach", chunk_size):
            counts = bitops.unpack_bits(reached, len(chunk)).sum(axis=0)
            for col, root in enumerate(chunk):
                # the root's own identity is always reached (distance 0)
                out[root] = int(counts[col]) - 1
        return out

    def harmonic_closeness_sums(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        direction: str = "forward",
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, float]:
        """Per root: ``sum(1/d)`` over reached temporal nodes at distance > 0.

        The unnormalized harmonic-closeness numerator of
        :func:`repro.algorithms.centrality.temporal_closeness`, reduced in
        the *canonical* order: one pairwise reduction over nodes per
        snapshot (:func:`_harmonic_rows`), then a sequential accumulation of
        the per-snapshot rows in global time order, so the sums are
        bit-identical across shard layouts and backends.
        """
        spec = _bfs_spec(direction)
        out: dict[TemporalNodeTuple, float] = {}
        for chunk, sums in self._sweep_chunks(roots, spec, "harmonic", chunk_size):
            for col, root in enumerate(chunk):
                out[root] = float(sums[col])
        return out

    # ------------------------------------------------------------------ #
    # label family                                                        #
    # ------------------------------------------------------------------ #

    def earliest_arrivals(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, TimesView]:
        """Per root: the earliest reachable time stamp of *every* node identity.

        One forward sweep per chunk of roots, then the running-minimum
        readout along the time axis (:func:`_time_hits`): node ``v`` maps to
        the smallest ``t`` with ``(v, t)`` reached.  Roots themselves map to
        their own time.  Each answer is a read-only
        :class:`~repro.engine.reached.TimesView` over its root's hit column,
        decoded into a ``{node: time}`` dict only on a full read.
        """
        return self._time_readouts(roots, "forward", "first", chunk_size)

    def latest_departures(
        self,
        targets: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, TimesView]:
        """Per target: the latest time stamp from which every node can still reach it.

        The mirrored readout of :meth:`earliest_arrivals`: one *backward*
        sweep (on the lazily transposed operator stacks), then the running
        maximum along the time axis, each answer a
        :class:`~repro.engine.reached.TimesView`.
        """
        return self._time_readouts(targets, "backward", "last", chunk_size)

    def _time_readouts(
        self,
        roots: Iterable[TemporalNodeTuple],
        direction: str,
        kind: str,
        chunk_size: int | None,
    ) -> dict[TemporalNodeTuple, TimesView]:
        out: dict[TemporalNodeTuple, TimesView] = {}
        for chunk, hits in self._sweep_chunks(
            roots, _bfs_spec(direction), kind, chunk_size
        ):
            for col, root in enumerate(chunk):
                out[root] = TimesView(hits[:, col], self._slots)
        return out

    def zero_one_labels(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        spatial_cost: int = 1,
        causal_cost: int = 0,
        chunk_size: int | None = None,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """(min, +) labels with per-edge-family costs drawn from ``{0, 1}``.

        Yields ``(chunk, labels)`` pairs where ``labels`` is the ``(T, N, R)``
        int32 block of minimal path costs (``-1`` unreachable), swept by
        the level loop :meth:`FrontierKernel._run
        <repro.engine.frontier.FrontierKernel._run>` at these costs.
        ``(spatial_cost=1, causal_cost=0)`` is the Grindrod–Higham
        fewest-spatial-hops convention; ``(1, 1)`` recovers the paper's
        Definition-6 distance.
        """
        spec = _zero_one_spec(spatial_cost, causal_cost)
        return self._sweep_chunks(roots, spec, "block", chunk_size)

    def fewest_hops(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int | None = None,
    ) -> dict[TemporalNodeTuple, ReachedView]:
        """Per root: minimal static-edge count to every reachable temporal node.

        The slot-keyed form of the ``(spatial_cost=1, causal_cost=0)`` sweep —
        the dynamic-walk hop convention in which causal waiting is free.
        """
        out: dict[TemporalNodeTuple, ReachedView] = {}
        for chunk, hops in self._sweep_chunks(
            roots, _zero_one_spec(1, 0), "block", chunk_size
        ):
            for col, root in enumerate(chunk):
                out[root] = self._reached_view(hops, col)
        return out

    def tang_steps(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
        chunk_size: int | None = None,
    ) -> dict[Node, dict[Node, int]]:
        """Per source node: Tang snapshot-count distance to every node identity.

        Seeds one column per source and sweeps the time axis once
        (:meth:`FrontierKernel._tang_sweep
        <repro.engine.frontier.FrontierKernel._tang_sweep>`), the informed lanes
        flowing shard to shard: within-snapshot spreading runs at most
        ``horizon`` advance rounds, and informed nodes persist across
        snapshots with no activeness requirement — Tang's convention,
        deliberately *not* the paper's.  Labels count snapshots inclusively
        from ``start_index``; sources are 0; nodes never informed are
        absent.
        """
        if start_index < 0 or start_index >= self.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        spec = ("tang", int(horizon), int(start_index))
        chunks = self._chunks(source_nodes, chunk_size)
        plans = (self._tang_plan(chunk) for chunk in chunks)
        out: dict[Node, dict[Node, int]] = {}
        for chunk, steps in zip(chunks, self._run_plans(spec, "steps", plans)):
            labels = self._slots.labels
            for col, source in enumerate(chunk):
                vi = self._slots.node_index.get(source)
                if vi is not None:
                    steps[vi, col] = 0
                known = np.flatnonzero(steps[:, col] >= 0)
                out[source] = {labels[v]: int(steps[v, col]) for v in known.tolist()}
        return out

    def _tang_plan(self, sources: Sequence[Node]) -> tuple:
        """One chunk's Tang plan: no seed slots, and the informed lanes of the
        sources inside the node universe (the boundary entering the chain)."""
        index = self._slots.node_index
        seeds = [[index[s]] if s in index else [] for s in sources]
        informed = bitops.seed_lanes((self.num_nodes,), seeds)
        return [None] * len(self._boundaries), (informed, len(sources))


# --------------------------------------------------------------------------- #
# the driver                                                                  #
# --------------------------------------------------------------------------- #


class ShardedSweepDriver(BatchedSweeps):
    """Runs every kernel sweep family across the shards of one artifact.

    Parameters
    ----------
    sharded:
        The :class:`~repro.graph.sharded.ShardedTemporalGraph` to sweep.
    backend:
        ``"serial"`` (in the calling thread; shard-major with store release
        between shards for store-backed layouts — the out-of-core path) or
        ``"process"`` (persistent workers own shards; only packed
        boundaries cross process boundaries).
    num_workers:
        Worker count of the process backend (default: one per shard).
    chunk_size:
        Default root-batch width per sweep, as in the monolithic kernels.

    The driver carries the kernel's :class:`BatchedSweeps` surface
    method-for-method.  Process backends hold OS resources: :meth:`close`
    them (context-manager supported).  A driver is never rebuilt for you:
    after a graph mutation, or once a dead worker has closed it, build a new
    one.
    """

    def __init__(
        self,
        sharded: ShardedTemporalGraph,
        *,
        backend: str = "serial",
        num_workers: int | None = None,
        chunk_size: int = 128,
    ) -> None:
        if backend not in SHARD_BACKENDS:
            raise GraphError(
                f"unsupported shard backend {backend!r}; "
                f"expected one of {SHARD_BACKENDS}"
            )
        if chunk_size < 1:
            raise GraphError("chunk_size must be at least 1")
        self.sharded = sharded
        self._axes = sharded
        self.backend = backend
        self.chunk_size = int(chunk_size)
        if num_workers is None:
            num_workers = sharded.num_shards
        self.num_workers = max(1, int(num_workers))
        self._slots = SlotTable(sharded.node_labels, sharded.times)
        self._kernels: dict[int, FrontierKernel] = {}
        self._processes: list = []
        self._task_queues: dict[int, object] = {}
        self._result_queue = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # metadata surface                                                    #
    # ------------------------------------------------------------------ #

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    @property
    def mutation_version(self) -> int:
        return self.sharded.mutation_version

    @property
    def _boundaries(self) -> tuple[tuple[int, int], ...]:
        return self.sharded.boundaries

    def require_current(self, graph) -> None:
        """Raise :class:`GraphError` when the artifact no longer matches ``graph``."""
        if not self.sharded.is_current(graph):
            raise GraphError(
                "sharded artifact is stale for this graph (artifact version "
                f"{self.sharded.mutation_version}, graph version "
                f"{graph.mutation_version}); build a new driver over "
                "ShardedTemporalGraph.from_compiled(get_compiled(graph), n)"
            )

    # ------------------------------------------------------------------ #
    # shard kernels and scheduling                                        #
    # ------------------------------------------------------------------ #

    def _kernel(self, shard_index: int) -> FrontierKernel:
        kernel = self._kernels.get(shard_index)
        if kernel is None:
            from repro.engine.frontier import FrontierKernel

            kernel = FrontierKernel(self.sharded.shard(shard_index))
            self._kernels[shard_index] = kernel
        return kernel

    def _schedule(
        self, spec: tuple, kind: str, plans: Iterable[tuple], chain: Sequence[int]
    ) -> Iterable[list]:
        """Each plan's partials in shard order, on the driver's backend.

        In-memory serial layouts run the inherited lazy chain-major order;
        the process pipeline and the store-backed shard-major order take
        every plan up front.
        """
        if self._closed:
            raise GraphError("driver is closed")
        if self.backend == "process":
            return self._run_process(spec, kind, list(plans), chain)
        if self.sharded.store_backed:
            return self._run_serial_shard_major(spec, kind, list(plans), chain)
        return super()._schedule(spec, kind, plans, chain)

    def _run_serial_shard_major(
        self, spec: tuple, kind: str, plans: Sequence[tuple], chain: Sequence[int]
    ) -> list:
        """Shard-major serial order: open each shard once across all chunks.

        This is the out-of-core schedule — a store-backed shard is released
        (and its kernel dropped) before the next one opens, so peak operator
        residency stays at one shard regardless of chain length.
        """
        parts: list[dict[int, object]] = [{} for _ in plans]
        boundaries = [plan[1] for plan in plans]
        last = chain[-1]
        for shard_index in chain:
            kernel = self._kernel(shard_index)
            global_start = self._boundaries[shard_index][0]
            for c, (seeds_by_shard, _) in enumerate(plans):
                parts[c][shard_index], boundaries[c] = _run_shard_task(
                    kernel,
                    spec,
                    kind,
                    seeds_by_shard[shard_index],
                    boundaries[c],
                    global_start,
                    handoff=shard_index != last,
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

        from repro.parallel.partition import chunk_by_weight

        shard_ids = list(range(self.sharded.num_shards))
        weights = [nnz + 1 for nnz in self.sharded.shard_nnz]
        assignment = chunk_by_weight(shard_ids, weights, self.num_workers)
        self._result_queue = multiprocessing.Queue()
        for owned in assignment:
            payload = [
                (i, self.sharded.shard(i), self._boundaries[i][0]) for i in owned
            ]
            task_queue = multiprocessing.Queue()
            process = multiprocessing.Process(
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
        next_in_chain = {shard: chain[pos + 1] for pos, shard in enumerate(chain[:-1])}
        parts: list[dict[int, object]] = [{} for _ in plans]

        def submit(chunk_id: int, shard_index: int, boundary) -> None:
            self._task_queues[shard_index].put(
                (
                    chunk_id,
                    shard_index,
                    spec,
                    kind,
                    plans[chunk_id][0][shard_index],
                    boundary,
                    shard_index in next_in_chain,
                )
            )

        for chunk_id, plan in enumerate(plans):
            submit(chunk_id, chain[0], plan[1])
        pending = len(plans) * len(chain)
        while pending:
            chunk_id, shard_index, partial, boundary, error = self._next_result()
            if error is not None:
                self.close()
                raise ShardWorkerError(f"shard worker failed: {error}")
            pending -= 1
            parts[chunk_id][shard_index] = partial
            follower = next_in_chain.get(shard_index)
            if follower is not None:
                submit(chunk_id, follower, boundary)
        return [[chunk_parts[i] for i in sorted(chunk_parts)] for chunk_parts in parts]

    def _next_result(self) -> tuple:
        """The next worker result, checking worker liveness while it waits.

        A worker that died (killed, or crashed outside the task's ``try``)
        can never answer, so waiting on would hang the sweep: the driver is
        closed and :class:`ShardWorkerError` raised instead.
        """
        while True:
            try:
                return self._result_queue.get(timeout=_WORKER_POLL_S)
            except queue.Empty:
                dead = [p for p in self._processes if not p.is_alive()]
                if dead:
                    self.close()
                    raise ShardWorkerError(
                        f"shard worker pid {dead[0].pid} exited with code "
                        f"{dead[0].exitcode} mid-sweep; the driver is closed"
                    ) from None

    def close(self) -> None:
        """Shut down process workers (no-op for the serial backend)."""
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
    # single-source search                                                #
    # ------------------------------------------------------------------ #

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
        ((_, dist),) = self._sweep_chunks([root], spec, "block", 1)
        return BFSResult(root=root, reached=self._reached_view(dist, 0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardedSweepDriver backend={self.backend} "
            f"shards={self.sharded.num_shards} workers={self.num_workers}>"
        )
