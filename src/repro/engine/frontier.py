"""The vectorized sparse frontier kernel shared by every BFS variant.

The paper's algebraic reading of Algorithm 2 (Section III-C) advances a
*block frontier vector* — one length-``N`` component per snapshot — by one
application of the block operator ``M_n`` per level.
:class:`FrontierKernel` is that computation expressed on NumPy/SciPy arrays
instead of Python dictionaries:

* the frontier of ``R`` independent searches over ``T`` snapshots and ``N``
  nodes is a ``(T, N, L)`` block of root lanes — one bitset of root
  columns per node, the MS-BFS layout of Then et al. (PVLDB 2014), see
  :mod:`~repro.engine.bitops` — and so is the visited set;
* the **spatial step** is one direction-optimized advance (Beamer et al.,
  SC 2012; :func:`~repro.engine.bitops.advance_blocked`: push, pull or
  dense, chosen once per level) over the block-diagonal stack of the
  compiled operators ``F[t]`` (out-edge expansion) or their transposes
  (in-edge expansion), windowed to the snapshots that hold both frontier
  and undiscovered bits (a saturated snapshot's frontier never enters it);
  it ORs neighbour lanes along the CSR, so ``R`` roots share a single
  traversal of the matrix;
* the **causal step** is a shifted prefix-OR of the level's frontier along
  the time axis masked by the per-snapshot activeness pattern — exactly
  the action of all off-diagonal blocks ``M[s, t]^T`` at once, computed
  without forming them (the ``⊙`` product of
  :func:`repro.core.algebraic.odot`, vectorized); one pass over the lanes
  of the snapshots that can still gain bits then fuses it with the spatial
  reach and every mask (:func:`~repro.engine.bitops.fused_update`);
* a temporal node is newly reached at level ``k`` when a bit lands on a
  slot outside the visited lanes; only the snapshots holding such bits are
  unpacked to write the ``(T, N, R)`` int32 distance block.  A reach
  readout, which asks only *which node identities* a search reaches, writes
  no level at all: its sweep returns the visited lanes ORed over time, one
  packed ``(N, L)`` plane of reached identities.

The kernel executes over a shared
:class:`~repro.graph.compiled.CompiledTemporalGraph` (pass either the
artifact or a graph, which is compiled on the spot).  Its batched entry
points — ``multi_source``, ``batch``, ``distance_blocks``, identity reach
counts, harmonic-closeness sums and the label-family readouts
(``earliest_arrivals``, ``latest_departures``, ``zero_one_labels``,
``fewest_hops``, ``tang_steps``) — are the one surface
:class:`~repro.engine.sharded_sweep.BatchedSweeps` it shares with the
sharded driver: the kernel runs each chunk of roots as a one-shard chain
(itself, global snapshot 0, an empty incoming boundary), lazily, one chunk
per step.  On top of those it keeps the single-source ``bfs``, the
incremental-maintenance primitives of the streaming layer, and the Katz
series over the temporal block matrix.

The kernel's ``reached`` results equal the dictionaries of the pure-Python
reference implementations (Theorem 4 equivalence); each is a read-only
:class:`~repro.engine.reached.ReachedView` over the root's distance column,
decoded into that dictionary only when a caller reads every entry.  The
property-based suites ``tests/test_engine.py`` and
``tests/test_algorithms_vectorized.py`` assert this on random evolving
graphs.  :meth:`FrontierKernel._run` is the one sweep loop of the BFS
family: it optionally starts from an incoming
boundary (the state earlier time shards reached), so every shard of every
chain calls it.  ``bfs(track_parents=True)`` reads a valid
shortest-path tree off the finished distance block in one pass (used by the
ported sampled betweenness).  The tree may differ from the Python
implementation's discovery order on ties, so searches whose *documented*
behaviour is that insertion order (``track_frontiers``, ``neighbor_fn``
overrides, ``evolving_bfs(track_parents=True)``) still run the Python
reference path — see :func:`repro.core.bfs.evolving_bfs`.

Cost model: with a :class:`~repro.linalg.csr.OperationCounter` attached, the
kernel charges the actually-gathered sparse work to ``multiply_adds`` (push:
``2 · Σ out-degree`` over frontier cells; pull: ``2 · nnz`` of the
candidate rows per column; dense: ``2 · nnz · R`` over the window, one CSC
gaxpy of Theorem 6 per column and snapshot) and its packed bookkeeping to
``word_ops`` — one unit per 64-bit word of lanes.  Each advance charges at
most the dense product, and a packed level costs a few word ops per 64
slots, so the total stays below the Theorem 5/6 charge of the blocked
algorithm (a dense product for every snapshot holding a frontier slot plus
``T · N · R`` column checks per level) once blocks are more than a few
words wide; the unit tests assert this on a few hundred nodes.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.bfs import BFSResult
from repro.engine import bitops
from repro.engine.reached import SlotTable
from repro.engine.sharded_sweep import _DIRECTIONS, _FAR, BatchedSweeps, BoundaryBlock
from repro.exceptions import ConvergenceError, GraphError
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple, Time
from repro.graph.compiled import CompiledTemporalGraph
from repro.linalg.csr import OperationCounter

__all__ = ["FrontierKernel"]

def _write_level(dist: np.ndarray, lanes: np.ndarray, level: int) -> None:
    """Write ``level`` into a ``(W, N, R)`` distance window at the new bits of
    its ``(W, N, L)`` lanes.

    Every new bit still holds the -1 sentinel (a slot's bit enters visited
    exactly once), so the write is a branch-free blend,
    ``dist += (level + 1) * bits``.
    When fewer than a quarter of the window's slots gained bits — the
    tiny-frontier levels of deep sweeps, where unpacking the whole window
    would cost more than the level's advance — it runs over just those
    slots' rows; otherwise over each run of snapshots holding new bits, so
    a snapshot that gained none is never unpacked.
    """
    r = dist.shape[-1]
    flat = lanes.reshape(-1, lanes.shape[-1])
    slots = flat.any(axis=-1).nonzero()[0]
    if 4 * slots.size < len(flat):
        rows = dist.reshape(-1, r)
        bits = bitops.unpack_bits(flat[slots], r)
        rows[slots] += np.multiply(bits, level + 1, dtype=np.int32)
        return
    for a, b in bitops.runs(bitops.snapshot_any(lanes)):
        bits = bitops.unpack_bits(lanes[a:b], r)
        dist[a:b] += np.multiply(bits, level + 1, dtype=np.int32)


class FrontierKernel(BatchedSweeps):
    """Sparse execution engine for frontier expansion over one evolving graph.

    Parameters
    ----------
    source:
        Either a pre-built :class:`~repro.graph.compiled.CompiledTemporalGraph`
        (the shared artifact, preferred — see
        :func:`repro.engine.get_kernel`) or any evolving-graph
        representation, which is compiled on construction.
    counter:
        Optional :class:`~repro.linalg.csr.OperationCounter`; when given,
        every kernel invocation accounts its flops per column (the
        Theorem 5/6 cost model).

    Notes
    -----
    The kernel executes over an immutable compiled snapshot of the graph:
    mutating the graph afterwards does not update the kernel.  The
    dispatch-level cache (:func:`repro.engine.dispatch.get_kernel`) rebuilds
    kernels exactly when the graph's
    :attr:`~repro.graph.base.BaseEvolvingGraph.mutation_version` changes.
    """

    def __init__(
        self,
        source: CompiledTemporalGraph | BaseEvolvingGraph,
        *,
        counter: OperationCounter | None = None,
    ) -> None:
        if isinstance(source, CompiledTemporalGraph):
            compiled = source
        elif isinstance(source, BaseEvolvingGraph):
            compiled = CompiledTemporalGraph.from_graph(source)
        else:
            raise GraphError(
                "FrontierKernel requires a CompiledTemporalGraph or an "
                f"evolving graph, got {type(source).__name__}"
            )
        self.compiled = compiled
        self._axes = compiled
        self.counter = counter
        # the one-shard chain of the batched surface: the kernel is its own
        # only shard, spanning every snapshot
        self._boundaries = ((0, compiled.num_snapshots),)

    # ------------------------------------------------------------------ #
    # structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def timestamps(self) -> Sequence[Time]:
        """Snapshot labels, in time order."""
        return self.compiled.times

    @property
    def nnz(self) -> int:
        """Stored entries summed over all snapshot matrices."""
        return self.compiled.nnz

    @cached_property
    def _slots(self) -> SlotTable:
        """The decode tables every result shares, built on first decode."""
        return SlotTable(self.compiled.node_labels, self.compiled.times)

    def _kernel(self, shard_index: int) -> FrontierKernel:
        """The kernel sweeping shard ``shard_index``: itself, the only shard."""
        return self

    # ------------------------------------------------------------------ #
    # searches                                                            #
    # ------------------------------------------------------------------ #

    def bfs(
        self,
        root: TemporalNodeTuple,
        *,
        direction: str = "forward",
        reverse_edges: bool = False,
        track_parents: bool = False,
    ) -> BFSResult:
        """Single-source search from ``root``; equals Algorithm 1 on ``reached``.

        ``direction="backward"`` runs the time-reversed search of Section V
        (spatial in-neighbours, earlier active appearances).
        ``reverse_edges=True`` flips only the *spatial* orientation while
        keeping the time direction — the expansion the Section V citation
        mining uses, where influence flows against the citation edges.
        ``track_parents=True`` additionally records, per reached slot, the
        ``(t, v)`` slot of one shortest-path tree (:meth:`_parent_slots`):
        distances are identical to the Python reference, but the tree may
        pick a different (equally shortest) parent than the dict
        implementation's discovery order.
        """
        root = (root[0], root[1])
        dist = self._run(
            [[self._seed_index(root)]], direction, reverse_edges=reverse_edges
        )
        result = BFSResult(root=root, reached=self._reached_view(dist, 0))
        if track_parents:
            parent_t, parent_v = self._parent_slots(dist, direction, reverse_edges)
            result.parents = self._parents_dict(dist, parent_t, parent_v, 0)
        return result

    # ------------------------------------------------------------------ #
    # incremental maintenance (the streaming layer)                       #
    # ------------------------------------------------------------------ #

    def distance_block(self, root: TemporalNodeTuple) -> np.ndarray:
        """Single-source distances as a raw ``(T, N)`` int32 block.

        ``-1`` marks unreachable slots.  This is the array form of
        :meth:`bfs` that :class:`repro.algorithms.incremental.IncrementalBFS`
        keeps as its mutable state between stream batches (decoding to label
        dictionaries only on demand).
        """
        seed = self._seed_index((root[0], root[1]))
        return self._run([[seed]], "forward")[:, :, 0]

    def decrease_only_resweep(
        self,
        dist: np.ndarray,
        seeds: Sequence[tuple[int, int, int]],
    ) -> int:
        """Masked decrease-only relaxation from dirty slots, in place.

        ``dist`` is a writable ``(T, N)`` int32 distance block (``-1`` =
        unreachable); ``seeds`` are ``(t, v, candidate)`` improvements for
        the temporal slots whose in-neighbourhood a mutation batch changed.
        Each candidate that beats the recorded distance is applied and its
        improvement propagated forward: improvements are popped in
        increasing distance order (Dial's bucket discipline on unit edges,
        so every slot is finalized the round it is popped) and each round
        expands one masked frontier like a :meth:`_run` level —
        one advance over the stacked operators, windowed to the *touched*
        snapshots, plus the prefix-OR causal step.  The sparse products (the
        dominant term) therefore track the region whose distances actually
        change; each round also pays
        ``O(T * N)`` boolean bookkeeping for the frontier masks and the
        causal accumulate, same as one :meth:`_run` level.  Returns the
        number of slots whose distance improved.
        """
        active = self.compiled.active_mask
        t_count, n = active.shape
        if dist.shape != (t_count, n):
            raise GraphError(
                f"distance block shape {dist.shape} does not match the "
                f"compiled artifact's {(t_count, n)}"
            )
        work = np.where(dist < 0, _FAR, dist.astype(np.int32))
        improved = np.zeros((t_count, n), dtype=bool)
        for ti, vi, candidate in seeds:
            if candidate < work[ti, vi]:
                work[ti, vi] = candidate
                improved[ti, vi] = True
        if not improved.any():
            return 0
        changed = self._resweep_fused(work, improved, active)
        dist[:] = np.where(work >= _FAR, -1, work)
        return changed

    def patch_distance_block(
        self,
        dist: np.ndarray,
        insertions: Sequence[tuple],
        *,
        pinned: tuple[int, int] | None = None,
    ) -> int:
        """Fold a pure-insertion edge batch into a ``(T, N)`` distance block.

        ``dist`` is a writable forward-search distance block (``-1`` =
        unreachable) computed against an artifact with *this* kernel's axes;
        ``insertions`` are the ``(u, v, t)`` edges added since.  Edge
        insertions only ever shorten distances, so the update is a batched
        decrease-only relaxation: the dirty temporal slots are the edge
        endpoints at their insertion times plus every later active
        appearance of those endpoints (which may have gained a causal
        in-edge); each seed's candidate distance is read
        straight off the compiled stacks (spatial in-neighbours are one CSR
        row slice, causal predecessors one masked column prefix-minimum), and
        :meth:`decrease_only_resweep` propagates the improvements.  The
        result is bit-identical to a fresh search on the post-insertion
        artifact — ``IncrementalBFS`` relies on exactly this contract.

        ``pinned`` names one ``(t, v)`` slot whose distance is fixed (the
        search root, at distance 0); it is excluded from seeding.  Endpoints
        or timestamps outside the compiled universe contribute no seeds (the
        caller guarantees axis compatibility; the delta recompile keeps axes
        whenever insertions stay inside the universe).  Returns the number of
        slots whose distance improved.
        """
        compiled = self.compiled
        active = compiled.active_mask
        t_count = compiled.num_snapshots
        time_index = compiled.time_index
        node_index = compiled.node_index
        endpoint_t: list[int] = []
        endpoint_v: list[int] = []
        for u, v, t in insertions:
            ti = time_index.get(t)
            if ti is None:
                continue
            for endpoint in (u, v):
                vi = node_index.get(endpoint)
                if vi is not None:
                    endpoint_t.append(ti)
                    endpoint_v.append(vi)
        if not endpoint_t:
            return 0
        # dirty slots, vectorized: each endpoint at its insertion time (if
        # active) plus every later active appearance of that endpoint
        ep_t = np.asarray(endpoint_t, dtype=np.int64)
        ep_v = np.asarray(endpoint_v, dtype=np.int64)
        columns = active[:, ep_v]  # (T, E)
        touched = columns & (np.arange(t_count)[:, None] > ep_t[None, :])
        touched[ep_t, np.arange(ep_t.size)] = columns[ep_t, np.arange(ep_t.size)]
        tt, ee = np.nonzero(touched)
        keys = np.unique(tt * compiled.num_nodes + ep_v[ee])
        seed_t, seed_v = keys // compiled.num_nodes, keys % compiled.num_nodes
        if pinned is not None:  # the root's distance is pinned at 0
            not_root = (seed_t != pinned[0]) | (seed_v != pinned[1])
            seed_t, seed_v = seed_t[not_root], seed_v[not_root]
        if not seed_t.size:
            return 0
        big = _FAR  # matches the re-sweep's unreached sentinel
        # causal candidates in one masked prefix-min sweep — restricted to
        # the seed columns, so this stays O(T * |batch|), not O(T * N):
        # the best reached earlier appearance of each seeded node
        seed_cols = np.unique(seed_v)
        col_of = np.searchsorted(seed_cols, seed_v)
        masked = np.where(
            active[:, seed_cols] & (dist[:, seed_cols] >= 0), dist[:, seed_cols], big
        )
        run = np.minimum.accumulate(masked, axis=0)
        causal = np.full(seed_t.shape, big, dtype=np.int32)
        has_earlier = seed_t > 0
        causal[has_earlier] = run[seed_t[has_earlier] - 1, col_of[has_earlier]]
        # spatial candidates: one ragged gather over the forward stack's
        # rows (row t * N + v lists the slots of v's in-neighbours at t)
        stacked = compiled.stack()
        rows = seed_t * compiled.num_nodes + seed_v
        starts = stacked.indptr[rows]
        lens = stacked.indptr[rows + 1] - starts
        spatial = np.full(seed_t.shape, big, dtype=np.int32)
        # reduceat over the non-empty segments only: empty segments would
        # otherwise echo a neighbour's element (and, when trailing, clamp
        # away the last value of the preceding segment)
        nonempty = lens > 0
        if nonempty.any():
            starts, lens = starts[nonempty], lens[nonempty]
            offsets = np.cumsum(lens) - lens
            gather = np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))
            vals = dist.reshape(-1)[stacked.indices[gather]]
            vals = np.where(vals >= 0, vals, big).astype(np.int32)
            spatial[nonempty] = np.minimum.reduceat(vals, offsets)
        candidate = np.minimum(spatial, causal).astype(np.int64) + 1
        current = dist[seed_t, seed_v]
        improvable = candidate < np.where(current < 0, int(big), current)
        if not improvable.any():
            return 0
        return self.decrease_only_resweep(
            dist,
            list(
                zip(
                    seed_t[improvable].tolist(),
                    seed_v[improvable].tolist(),
                    candidate[improvable].tolist(),
                )
            ),
        )

    def patch_distance_blocks(
        self,
        blocks: Sequence[np.ndarray],
        insertions: Sequence[tuple],
        *,
        pinned: Sequence[tuple[int, int] | None] | None = None,
    ) -> list[int]:
        """Fold one pure-insertion batch into many ``(T, N)`` blocks.

        :meth:`patch_distance_block` applied to each block in turn, after
        every block's shape has been checked, so a mismatched block raises
        before any block is modified.  ``pinned`` optionally names each
        block's root slot.  Returns the improved-slot count per block.

        Nothing in the package calls this; it stays only because the layer
        ledger (``benchmarks/ledger/layers.py``) wraps it by name, and goes
        when the ledger reads in-source instrumentation instead.
        """
        self._check_blocks(blocks)
        if pinned is None:
            pinned = [None] * len(blocks)
        return [
            self.patch_distance_block(block, insertions, pinned=pin)
            for block, pin in zip(blocks, pinned, strict=True)
        ]

    def shrink_distance_block(
        self,
        dist: np.ndarray,
        removals: Sequence[tuple],
        previous_active: np.ndarray,
    ) -> int:
        """Fold a pure-removal edge batch into a ``(T, N)`` distance block.

        The increase-aware counterpart of :meth:`patch_distance_block`:
        ``dist`` was computed against the *pre-removal* graph,
        ``previous_active`` is that graph's ``(T, N)`` activeness mask, and
        this kernel's compiled artifact already reflects the removals.
        Removals only ever lengthen temporal shortest paths, so the update is
        invalidate-and-redescend: compute the cut level ``dmin`` — the
        smallest distance any removed tight edge or deactivated reachable
        slot carried — below which every recorded distance is provably still
        exact (a shortest path to a ``< dmin`` slot can only use slots at
        smaller distances, none of which a removal touched); invalidate every
        slot at ``>= dmin``; then rediscover the true ``dmin`` frontier with
        ONE masked spatial+causal step from the complete ``dmin - 1`` level
        and let :meth:`decrease_only_resweep` redescend from there.  The
        result is bit-identical to a fresh search on the post-removal
        artifact.

        Raises :class:`~repro.exceptions.GraphError` when a removal
        deactivated the search root itself (``dmin == 0``) — the caller must
        drop the block and recompute.  Returns the number of slots whose
        distance changed.

        Nothing in the package calls this: ``IncrementalBFS.apply`` re-sweeps
        any batch with a removal from the root.  It stays only because the
        layer ledger (``benchmarks/ledger/layers.py``) wraps it by name, and
        goes when the ledger reads in-source instrumentation instead.
        """
        active = self.compiled.active_mask
        t_count, n = active.shape
        if dist.shape != (t_count, n):
            raise GraphError(
                f"distance block shape {dist.shape} does not match the "
                f"compiled artifact's {(t_count, n)}"
            )
        if previous_active.shape != (t_count, n):
            raise GraphError(
                f"previous_active shape {previous_active.shape} does not "
                f"match the compiled artifact's {(t_count, n)}"
            )
        old = dist.copy()
        prepared = self._shrink_levels(dist[:, :, None], removals, previous_active)
        if prepared is None:
            return 0
        dmin, seeds_mask = prepared
        level = int(dmin[0])
        tt, vv, _ = np.nonzero(seeds_mask)
        if tt.size:
            seeds = [(ti, vi, level) for ti, vi in zip(tt.tolist(), vv.tolist())]
            self.decrease_only_resweep(dist, seeds)
        return int((dist != old).sum())

    def shrink_distance_blocks(
        self,
        blocks: Sequence[np.ndarray],
        removals: Sequence[tuple],
        previous_active: np.ndarray,
    ) -> list[int]:
        """Fold one pure-removal batch into many ``(T, N)`` blocks.

        :meth:`shrink_distance_block` applied to each block in turn.  Every
        shape is checked first, and so is every root: when the removals
        deactivated a slot that some block holds at distance 0, this raises
        :class:`~repro.exceptions.GraphError` before any block is modified
        (drop those blocks first).  Returns the changed-slot count per block.

        Nothing in the package calls this; it stays only because the layer
        ledger (``benchmarks/ledger/layers.py``) wraps it by name, and goes
        when the ledger reads in-source instrumentation instead.
        """
        self._check_blocks(blocks, previous_active)
        deactivated = previous_active & ~self.compiled.active_mask
        if any((block[deactivated] == 0).any() for block in blocks):
            raise GraphError(
                "a removal batch deactivated a search root; drop the block "
                "and recompute it from scratch"
            )
        return [
            self.shrink_distance_block(block, removals, previous_active)
            for block in blocks
        ]

    def _check_blocks(
        self,
        blocks: Sequence[np.ndarray],
        previous_active: np.ndarray | None = None,
    ) -> None:
        """Raise unless the blocks and the mask have the artifact's ``(T, N)`` shape."""
        shape = self.compiled.active_mask.shape
        for block in blocks:
            if block.shape != shape:
                raise GraphError(
                    f"distance block shape {block.shape} does not match the "
                    f"compiled artifact's {shape}"
                )
        if previous_active is not None and previous_active.shape != shape:
            raise GraphError(
                f"previous_active shape {previous_active.shape} does not "
                f"match the compiled artifact's {shape}"
            )

    def _shrink_levels(
        self,
        dist: np.ndarray,
        removals: Sequence[tuple],
        previous_active: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Shared shrink preamble over a stacked ``(T, N, R)`` block.

        Computes each column's cut level ``dmin`` (the smallest distance a
        removed *tight* edge delivered or a deactivated reachable slot
        held — non-tight edges lie on no shortest path, so removing them
        changes nothing), invalidates every slot at ``>= dmin`` in place,
        and discovers the redescent seeds with one masked spatial+causal
        step from the complete ``dmin - 1`` frontier: every slot whose true
        post-removal distance is ``dmin`` has a predecessor at ``dmin - 1``,
        and the ``< dmin`` region is exact, so that single step finds the
        full ``dmin`` level.  Returns ``(dmin, seeds_mask)``, or ``None``
        when no column is affected.
        """
        compiled = self.compiled
        active = compiled.active_mask
        t_count, n = active.shape
        r_count = dist.shape[2]
        big = int(_FAR)
        dmin = np.full(r_count, big, dtype=np.int64)
        time_index = compiled.time_index
        node_index = compiled.node_index
        directed = compiled.is_directed
        for u, v, t in removals:
            ti = time_index.get(t)
            iu = node_index.get(u)
            iv = node_index.get(v)
            if ti is None or iu is None or iv is None or iu == iv:
                continue  # outside the universe, or a self-loop (never tight)
            pairs = ((iu, iv),) if directed else ((iu, iv), (iv, iu))
            for a, b in pairs:
                tail = dist[ti, a, :].astype(np.int64)
                head = dist[ti, b, :].astype(np.int64)
                tight = (tail >= 0) & (head == tail + 1)
                dmin = np.where(tight, np.minimum(dmin, head), dmin)
        deactivated = previous_active & ~active
        if deactivated.any():
            vals = dist[deactivated].astype(np.int64)  # (K, R)
            vals = np.where(vals >= 0, vals, big)
            dmin = np.minimum(dmin, vals.min(axis=0))
        if (dmin >= big).all():
            return None
        if (dmin == 0).any():
            raise GraphError(
                "a removal batch deactivated a search root; drop the block "
                "and recompute it from scratch"
            )
        invalid = dist >= dmin[None, None, :]
        frontier = dist == (dmin - 1)[None, None, :]
        dist[invalid] = -1
        mats = compiled.forward_operators
        counter = self.counter
        reach = np.zeros((t_count, n, r_count), dtype=bool)
        touched = np.flatnonzero(frontier.any(axis=(1, 2)))
        for ti in touched.tolist():
            reach[ti] = (mats[ti] @ frontier[ti].astype(np.int32)) > 0
            if counter is not None:
                counter.multiply_adds += 2 * int(mats[ti].nnz) * r_count
        if t_count > 1:
            carried = np.logical_or.accumulate(frontier, axis=0)
            reach[1:] |= carried[:-1]
            if counter is not None:
                counter.column_checks += t_count * n * r_count
        seeds_mask = (
            reach
            & active[:, :, None]
            & (dist < 0)
            & (dmin < big)[None, None, :]
        )
        return dmin, seeds_mask

    def _resweep_fused(
        self, work: np.ndarray, improved: np.ndarray, active: np.ndarray
    ) -> int:
        """Single-block re-sweep rounds: one stacked advance plus a prefix-OR each.

        Each round's frontier is a ``(T, N)`` bool mask, and one root
        column's lanes are exactly that mask's bytes, so the advance reads
        it through a view with no packing.  A round is one push-or-dense
        advance over the stacked operators, windowed to the snapshots that
        hold frontier bits, and one shifted prefix-OR along time for the
        causal step.  Dirty regions are small but spread over dense
        snapshots, so most advances take the one-column dense product.
        Pull is not attempted here: the undiscovered set of a re-sweep
        ("slots whose distance can still improve") is not tracked as lanes,
        and the dirty regions are too small for pull to win.
        """
        t_count, n = active.shape
        stacked, twin = self.compiled.stack(), self.compiled.twin()
        counter = self.counter
        changed = 0
        while improved.any():
            level = int(work[improved].min())
            frontier = improved & (work == level)
            changed += int(frontier.sum())
            improved &= ~frontier
            lo, hi = bitops.span(frontier.any(axis=1))
            lanes = frontier.view(np.uint8)[:, :, None]
            spatial = bitops.advance_blocked(
                stacked,
                lanes.reshape(t_count * n, 1),
                1,
                twin=twin,
                counter=counter,
                window=(lo * n, hi * n),
            ).reshape(lanes.shape)
            spatial[lo:] |= bitops.causal_or_accumulate(lanes[lo:])
            # one-column lanes hold 0 or 1, so they are bools again
            reach = spatial[:, :, 0].view(bool) & active
            if counter is not None:
                counter.word_ops += 4 * bitops.word_count(lanes)
            better = reach & (work > level + 1)
            work[better] = level + 1
            improved |= better
        return changed

    def katz_scores(
        self,
        *,
        alpha: float = 0.25,
        max_terms: int | None = None,
        tol: float = 1e-12,
    ) -> dict[TemporalNodeTuple, float]:
        """Katz centrality over the temporal block matrix, without forming it.

        Accumulates ``Σ_k alpha^k (A_n^T)^k 1`` exactly as
        :func:`repro.algorithms.centrality.temporal_katz` does, but the block
        matrix--vector product is executed blockwise on the compiled stacks:
        the diagonal (spatial) blocks are one product with the stacked
        forward operators and the action of *all* causal blocks at once is a
        shifted cumulative sum along the time axis masked by activeness.
        """
        active = self.compiled.active_mask
        t_count, n = active.shape
        n_active = int(active.sum())
        if n_active == 0:
            return {}
        limit = max_terms if max_terms is not None else max(n_active, 1)
        stacked = self.compiled.stack()
        counter = self.counter
        term = active.astype(np.float64)  # ones on every active temporal node
        score = np.zeros_like(term)
        converged = False
        for _ in range(limit):
            spatial = (stacked @ term.reshape(-1)).reshape(term.shape)
            if counter is not None:
                counter.multiply_adds += 2 * int(stacked.nnz)
            causal = np.zeros_like(term)
            if t_count > 1:
                causal[1:] = np.cumsum(term, axis=0)[:-1]
                causal *= active
                if counter is not None:
                    counter.column_checks += t_count * n
            term = alpha * (spatial + causal)
            if not np.isfinite(term).all():
                raise ConvergenceError("temporal Katz series diverged; decrease alpha")
            score += term
            if np.abs(term).max() < tol:
                converged = True
                break
        if not converged and not self._is_nilpotent():
            raise ConvergenceError(
                f"temporal Katz did not converge within {limit} terms; decrease alpha"
            )
        labels = self.compiled.node_labels
        times = self.compiled.times
        t_idx, v_idx = np.nonzero(active)
        return {
            (labels[v], times[t]): float(score[t, v])
            for t, v in zip(t_idx.tolist(), v_idx.tolist())
        }

    def _is_nilpotent(self) -> bool:
        """Whether the temporal block matrix is nilpotent (Lemma 1).

        Causal edges run strictly forward in time, so the block matrix is
        nilpotent exactly when every snapshot is acyclic.
        """
        from repro.linalg.nilpotence import is_nilpotent

        return all(is_nilpotent(m) for m in self.compiled.forward_operators)

    # ------------------------------------------------------------------ #
    # the engine loop                                                     #
    # ------------------------------------------------------------------ #

    def _run(
        self,
        seeds_per_column: Sequence[Sequence[tuple[int, int]]],
        direction: str,
        *,
        reverse_edges: bool = False,
        boundary: BoundaryBlock | None = None,
        per_identity: bool = False,
    ) -> np.ndarray:
        """Level-synchronous expansion of ``R`` seed sets; an int32 level block.

        The block is ``(T, N, R)``: each temporal node's distance per root
        column, ``-1`` where unreached.  With ``per_identity`` it writes no
        level and returns the visited lanes ORed over time: one packed
        ``(N, L)`` plane of the node *identities* reached — all that
        identity-reach readouts and their shard hand-off read.

        The one sweep loop of the BFS family.  Frontier and visited state
        stay packed as ``(T, N, L)`` root lanes across rounds, and each level
        is one application of the paper's block operator ``M_n``
        (Algorithm 2) to the whole block.  The active lanes are masked once
        per sweep to each column's time horizon
        (:func:`~repro.engine.bitops.time_horizon`: the snapshots from its
        earliest seed on, for backward searches up to its latest, every
        snapshot for a column fed by ``boundary``, none for a column with
        neither), so ``active & ~visited`` holds only the slots a column can
        still discover: the saturation check, the pull choice and the
        termination test see no slot before a forward column's seed, and
        the sweep ends with its last discovery.  Each level runs:

        * one :func:`~repro.engine.bitops.advance_blocked` over the
          artifact's stack of one orientation
          (:meth:`~repro.graph.compiled.CompiledTemporalGraph.stack`, its
          push scattering along the other orientation's, the
          :meth:`~repro.graph.compiled.CompiledTemporalGraph.twin`),
          windowed to the snapshots holding both frontier bits and
          undiscovered bits, with push, pull or dense chosen once for the
          level; the frontier of a saturated snapshot (every active slot
          visited in every column) is cleared first, so it is neither
          pushed nor pulled from;
        * the causal step, the shifted prefix-OR of the level's frontier
          along time (:func:`~repro.engine.bitops.causal_or_accumulate`),
          plus the lanes entering from earlier shards;
        * :func:`~repro.engine.bitops.fused_update` over the snapshots that
          can gain bits — open and fed by a frontier or carry bit — once per
          run of them (one run, unless a saturated snapshot sits between
          two), and one level write over the snapshots that did (none with
          ``per_identity``).

        ``boundary`` is the state earlier time shards reached (a
        :class:`~repro.engine.sharded_sweep.BoundaryBlock`; ``None`` or an
        empty block for the first shard of a chain): at the round assigning
        distance ``m + 1`` the nodes it holds at minimal level ``m`` join
        every snapshot's causal reach — exactly the lanes a monolithic carry
        would hold when entering this snapshot range at that level — and
        rounds keep running past frontier death while later boundary levels
        can still revive the sweep.
        """
        if direction not in _DIRECTIONS:
            raise GraphError(f"unsupported direction {direction!r}")
        forward = direction == "forward"
        active_mask = self.compiled.active_mask
        t_count, n = active_mask.shape
        r = len(seeds_per_column)
        frontier = bitops.seed_lanes((t_count, n), seeds_per_column)
        if not per_identity:
            dist = np.full((t_count, n, r), -1, dtype=np.int32)
            for col, seeds in enumerate(seeds_per_column):
                for ti, vi in seeds:
                    dist[ti, vi, col] = 0
        visited = frontier.copy()
        # only the slots inside a column's time horizon are discoverable
        active = bitops.lane_mask(active_mask, r)
        active &= bitops.time_horizon(
            t_count,
            seeds_per_column,
            forward=forward,
            entering=boundary.levels.values() if boundary is not None else (),
        )
        # spatial expansion: forward time follows out-edges (the forward
        # operator), backward time follows in-edges (its transpose);
        # reverse_edges flips that choice for the citation-mining searches
        use_forward_ops = forward != reverse_edges
        stacked = self.compiled.stack(use_forward_ops)
        twin = self.compiled.twin(use_forward_ops)
        counter = self.counter
        slots = (t_count * n, frontier.shape[-1])
        # the snapshots holding frontier bits: after the seeds, a level's gain
        holds = bitops.snapshot_any(frontier)
        max_ext = boundary.max_level if boundary is not None else -1
        level = 0
        alive = bool(frontier.any())
        while alive or level <= max_ext:
            level += 1
            ext = boundary.lanes(level - 1) if boundary is not None else None
            if not alive and ext is None:
                continue  # nothing to advance until the next boundary level
            remaining = active & ~visited
            if counter is not None:
                counter.word_ops += 2 * bitops.word_count(remaining)  # saturation probe
            open_ = bitops.snapshot_any(remaining)
            # a snapshot can gain bits only while it is open and its own
            # frontier or the causal carry (earlier frontiers, for backward
            # searches later ones, and the boundary) feeds it
            if ext is not None:
                live = open_
            elif forward:
                live = open_ & np.logical_or.accumulate(holds)
            else:
                live = open_ & np.logical_or.accumulate(holds[::-1])[::-1]
            if not live.any():
                frontier = np.zeros(frontier.shape, frontier.dtype)
                holds = np.zeros(t_count, dtype=bool)
                alive = False
                continue
            spans = bitops.runs(live)
            lo, hi = spans[0][0], spans[-1][1]
            if forward:
                carry = bitops.causal_or_accumulate(frontier[:hi])[lo:]
            else:
                carry = bitops.causal_or_accumulate(frontier[lo:], forward=False)
                carry = carry[: hi - lo]
            if ext is not None:
                carry |= ext
            # a saturated snapshot's spatial reach lands on visited slots
            # only, so its frontier, already in the carry, leaves the advance
            closed = holds & ~open_
            if closed.any():
                frontier[closed] = 0
            moving = holds & open_
            if moving.any():
                s_lo, s_hi = bitops.span(moving)
                spatial = bitops.advance_blocked(
                    stacked,
                    frontier.reshape(slots),
                    r,
                    twin=twin,
                    remaining=remaining.reshape(slots),
                    counter=counter,
                    window=(s_lo * n, s_hi * n),
                ).reshape(frontier.shape)
            else:
                spatial = np.zeros(frontier.shape, frontier.dtype)
            fresh = np.zeros(frontier.shape, frontier.dtype)
            # the update runs over the live snapshots only: a saturated one
            # inside the window cannot gain a bit
            for a, b in spans:
                bitops.fused_update(
                    spatial[a:b],
                    carry[a - lo : b - lo],
                    active[a:b],
                    visited[a:b],
                    frontier[a:b],
                    fresh[a:b],
                )
                if counter is not None:
                    words = bitops.word_count(fresh[a:b])
                    counter.word_ops += bitops.FUSED_UPDATE_WORD_OPS * words
            gained = bitops.snapshot_any(fresh[lo:hi])
            alive = bool(gained.any())
            holds = np.zeros(t_count, dtype=bool)
            holds[lo:hi] = gained
            if alive and not per_identity:
                a, b = bitops.span(gained)
                _write_level(dist[lo + a : lo + b], fresh[lo + a : lo + b], level)
            frontier = fresh
        if per_identity:
            return np.bitwise_or.reduce(visited, axis=0)
        return dist

    def _parent_slots(
        self, dist: np.ndarray, direction: str, reverse_edges: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """One shortest-path-tree parent per reached slot of a ``(T, N, R)`` block.

        Read off the finished distances in one pass, with a fixed tie rule:
        a slot at distance ``d`` takes as parent the highest-index spatial
        in-neighbour (in the sweep's operator orientation) at ``d - 1`` in
        the same snapshot; failing that, the same node at ``d - 1`` at the
        latest earlier snapshot (for backward searches, the latest later
        snapshot).  Seeds point at themselves.  Returns ``(parent_t,
        parent_v)`` int32 blocks, ``-1`` on unreached slots.
        """
        forward = direction == "forward"
        t_count, n, r = dist.shape
        # spatial parents: the highest in-neighbour one level closer, read off
        # the stack's (dst slot, src slot) entries in one pass
        stacked = self.compiled.stack(forward != reverse_edges)
        cols = stacked.indices
        # one index dtype throughout keeps ``maximum.at`` on numpy's fast path
        rows = np.repeat(
            np.arange(t_count * n, dtype=cols.dtype), np.diff(stacked.indptr)
        )
        flat = dist.reshape(t_count * n, r)
        src = flat[cols]
        tight = (src >= 0) & (flat[rows] == src + 1)
        source = np.zeros((t_count * n, r), dtype=cols.dtype)  # source slot + 1
        np.maximum.at(source, rows, np.where(tight, cols[:, None] + 1, 0))
        parent_t = np.where(source > 0, (source - 1) // n, -1).astype(np.int32)
        parent_v = np.where(source > 0, (source - 1) % n, -1).astype(np.int32)
        parent_t = parent_t.reshape(t_count, n, r)
        parent_v = parent_v.reshape(t_count, n, r)
        nodes = np.arange(n, dtype=np.int32)[:, None]
        # causal parents: a time scan keeping each node's smallest distance
        # so far and the latest snapshot holding it — the causal parent of a
        # slot at d exists exactly when that smallest earlier distance is d - 1
        best = np.full((n, r), _FAR, dtype=np.int32)
        best_t = np.zeros((n, r), dtype=np.int32)
        order = range(t_count) if forward else range(t_count - 1, -1, -1)
        for ti in order:
            d = dist[ti]
            causal = (parent_t[ti] < 0) & (d > 0) & (best == d - 1)
            parent_t[ti][causal] = best_t[causal]
            parent_v[ti] = np.where(causal, nodes, parent_v[ti])
            reached = d >= 0
            # ties move to the later snapshot; a backward scan meets the
            # latest snapshot first, so there only strict improvements move
            better = reached & ((d <= best) if forward else (d < best))
            best[better] = d[better]
            best_t[better] = ti
        tt, vv, cc = np.nonzero(dist == 0)  # seeds point at themselves
        parent_t[tt, vv, cc] = tt
        parent_v[tt, vv, cc] = vv
        return parent_t, parent_v

    def _parents_dict(
        self,
        dist: np.ndarray,
        parent_t: np.ndarray,
        parent_v: np.ndarray,
        col: int,
    ) -> dict[TemporalNodeTuple, TemporalNodeTuple]:
        """Decode one column of the parent-slot arrays into temporal-node labels."""
        keys = self._slots.key_table()
        flat = np.flatnonzero(dist[:, :, col].ravel() >= 0)
        parents = parent_t[:, :, col].ravel()[flat].astype(np.int64)
        parents *= self.compiled.num_nodes
        parents += parent_v[:, :, col].ravel()[flat]
        return dict(zip(keys[flat].tolist(), keys[parents].tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FrontierKernel snapshots={self.num_snapshots} "
            f"nodes={self.num_nodes} nnz={self.nnz}>"
        )
