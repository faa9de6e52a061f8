"""The semiring label-sweep engine: numeric labels over the compiled stacks.

:class:`~repro.engine.frontier.FrontierKernel` propagates *boolean* frontiers
— enough for reachability, distances and the batched reach/closeness/Katz
reductions, but not for the comparison baselines the codebase cites, which
ask for numeric labels per temporal node:

* **earliest arrival** (Tang-style reachability) is a running *minimum* of
  reached time stamps along the time axis;
* **latest departure** is the mirrored running *maximum*, executed on the
  lazily transposed backward-operator stacks;
* **fewest spatial hops** (the Grindrod–Higham dynamic-walk hop convention)
  is a *(min, +)* sweep in which static edges cost 1 and causal edges cost
  0;
* **Tang temporal distance** (WOSN 2009 snapshot counting) is a masked
  running minimum of snapshot indices under horizon-bounded within-snapshot
  spreading, with *no* activeness requirement (Tang's convention, not the
  paper's).

:class:`LabelKernel` executes all four as batched ``(T, N, R)`` sweeps over
the same shared :class:`~repro.graph.compiled.CompiledTemporalGraph` the
frontier kernel runs on — ``R`` independent sources per CSR × dense-block
product — using the same cumulative-masked causal step.  The 0/1-cost
semiring sweep (:meth:`zero_one_labels`) is pluggable: ``(spatial_cost=1,
causal_cost=0)`` yields fewest spatial hops, ``(1, 1)`` recovers the paper's
own Definition-6 distance (a cross-check the test suite exercises), and
``(0, 1)`` charges waiting instead of moving.  Zero-cost edge families are
saturated to a fixpoint between unit-cost expansions, which is exactly
Dijkstra with 0/1 weights expressed as blocked sparse products.

Each family has one packed sweep loop (:meth:`LabelKernel._zero_one_run`,
:meth:`LabelKernel._tang_sweep`; the time readouts ride
:meth:`FrontierKernel._run <repro.engine.frontier.FrontierKernel._run>`),
which keeps its state as root lanes — one bitset of root columns per node,
the MS-BFS layout of Then et al. (PVLDB 2014), see :mod:`repro.engine.bitops`
— and optionally starts from the state earlier time shards reached: the
sharded driver's shard sweeps call these same loops.

Use :func:`repro.engine.get_label_kernel` for the cached instance; the
algorithms layer (:mod:`repro.algorithms.temporal_paths`,
:mod:`repro.algorithms.tang_distance`) rides it behind the usual
``backend="python" | "vectorized"`` flag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.engine import bitops
from repro.engine.frontier import FrontierKernel, _chunked
from repro.exceptions import GraphError
from repro.graph.base import BaseEvolvingGraph, Node, TemporalNodeTuple, Time
from repro.graph.compiled import CompiledTemporalGraph

if TYPE_CHECKING:
    from repro.engine.sharded_sweep import BoundaryBlock

__all__ = ["LabelKernel"]


class LabelKernel:
    """Numeric label propagation over one compiled evolving graph.

    Parameters
    ----------
    source:
        A :class:`~repro.graph.compiled.CompiledTemporalGraph`, an evolving
        graph (compiled on the spot), or a :class:`FrontierKernel` whose
        compiled artifact should be shared.
    frontier:
        Optional pre-built :class:`FrontierKernel` over the *same* artifact;
        when omitted one is constructed (construction is cheap — the
        compilation is the artifact, not the kernel).
    """

    def __init__(
        self,
        source: CompiledTemporalGraph | BaseEvolvingGraph | FrontierKernel,
        *,
        frontier: FrontierKernel | None = None,
    ) -> None:
        if isinstance(source, FrontierKernel):
            frontier = source
            compiled = source.compiled
        elif isinstance(source, CompiledTemporalGraph):
            compiled = source
        elif isinstance(source, BaseEvolvingGraph):
            compiled = CompiledTemporalGraph.from_graph(source)
        else:
            raise GraphError(
                "LabelKernel requires a CompiledTemporalGraph, an evolving "
                f"graph or a FrontierKernel, got {type(source).__name__}"
            )
        if frontier is None:
            frontier = FrontierKernel(compiled)
        elif frontier.compiled is not compiled:
            raise GraphError("frontier kernel compiled over a different artifact")
        self.compiled = compiled
        self.frontier = frontier
        self._labels: list[Node] = compiled.node_labels
        self._times: tuple[Time, ...] = compiled.times

    # ------------------------------------------------------------------ #
    # min/max time readouts (earliest arrival, latest departure)          #
    # ------------------------------------------------------------------ #

    def earliest_arrivals(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per root: the earliest reachable time stamp of *every* node identity.

        One forward boolean sweep per chunk of roots, then a running-minimum
        readout along the time axis: node ``v`` maps to the smallest ``t``
        with ``(v, t)`` reached.  Roots themselves map to their own time.
        """
        out: dict[TemporalNodeTuple, dict[Node, Time]] = {}
        for chunk, dist in self.frontier.distance_blocks(
            roots, direction="forward", chunk_size=chunk_size
        ):
            reached = dist >= 0  # (T, N, R)
            hit = reached.any(axis=0)
            first = reached.argmax(axis=0)  # index of the first True per (N, R)
            for col, root in enumerate(chunk):
                out[root] = {
                    self._labels[vi]: self._times[first[vi, col]]
                    for vi in np.nonzero(hit[:, col])[0].tolist()
                }
        return out

    def latest_departures(
        self,
        targets: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
    ) -> dict[TemporalNodeTuple, dict[Node, Time]]:
        """Per target: the latest time stamp from which every node can still reach it.

        The mirrored readout of :meth:`earliest_arrivals`: one *backward*
        boolean sweep (executed on the lazily built transposed stacks), then
        a running maximum along the time axis.
        """
        t_count = self.compiled.num_snapshots
        out: dict[TemporalNodeTuple, dict[Node, Time]] = {}
        for chunk, dist in self.frontier.distance_blocks(
            targets, direction="backward", chunk_size=chunk_size
        ):
            reached = dist >= 0
            hit = reached.any(axis=0)
            last = t_count - 1 - reached[::-1].argmax(axis=0)
            for col, target in enumerate(chunk):
                out[target] = {
                    self._labels[vi]: self._times[last[vi, col]]
                    for vi in np.nonzero(hit[:, col])[0].tolist()
                }
        return out

    # ------------------------------------------------------------------ #
    # the 0/1-cost semiring sweep (fewest spatial hops and friends)       #
    # ------------------------------------------------------------------ #

    def zero_one_labels(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        spatial_cost: int = 1,
        causal_cost: int = 0,
        chunk_size: int = 128,
    ) -> Iterator[tuple[list[TemporalNodeTuple], np.ndarray]]:
        """(min, +) labels with per-edge-family costs drawn from ``{0, 1}``.

        Yields ``(chunk, labels)`` pairs where ``labels`` is the ``(T, N, R)``
        int32 block of minimal path costs (``-1`` unreachable).  Dijkstra
        with 0/1 weights degenerates into a level sweep: saturate every
        zero-cost edge family to a fixpoint (causal edges via the cumulative
        masked step, spatial edges via repeated SpMM), then take one
        unit-cost expansion.  ``(spatial_cost=1, causal_cost=0)`` is the
        Grindrod–Higham fewest-spatial-hops convention; ``(1, 1)`` recovers
        the paper's Definition-6 distance.  The costs and ``chunk_size`` are
        checked on the call; each chunk's sweep runs when the iterator
        reaches it.
        """
        cost_flags = ((spatial_cost, "spatial_cost"), (causal_cost, "causal_cost"))
        for cost, name in cost_flags:
            if cost not in (0, 1):
                raise GraphError(f"{name} must be 0 or 1, got {cost!r}")
        chunks = _chunked([(r[0], r[1]) for r in roots], chunk_size)
        seed = self.frontier._seed_index
        return (
            (
                chunk,
                self._zero_one_run(
                    [[seed(r)] for r in chunk], spatial_cost, causal_cost
                ),
            )
            for chunk in chunks
        )

    def _zero_one_run(
        self,
        seeds_per_column: Sequence[Sequence[tuple[int, int]]],
        spatial_cost: int,
        causal_cost: int,
        *,
        boundary: BoundaryBlock | None = None,
    ) -> np.ndarray:
        """The one sweep loop of the 0/1 family; ``(T, N, R)`` int32 labels.

        State lives as ``(T, N, L)`` root lanes; the spatial step is the
        direction-optimizing :func:`~repro.engine.bitops.advance_blocked`
        per snapshot and the causal step is the lane-wise
        :func:`~repro.engine.bitops.causal_or_accumulate`, so each level's
        saturation/expansion makes one pass over packed lanes.

        ``boundary`` is the state earlier time shards reached (``None`` for
        a monolithic sweep).  Its nodes at minimal label ``m`` are injected
        where the monolithic causal step would deliver them: into the
        cost-``m`` zero-cost saturation when causal edges are free, or into
        the cost-``m`` unit expansion (producing ``m + 1``) when causal
        edges cost one.
        """
        t_count, n = self.compiled.active_mask.shape
        r = len(seeds_per_column)
        mats = self.compiled.forward_operators
        degrees = self.frontier._operator_degrees(True)
        active = bitops.lane_mask(self.compiled.active_mask, r)
        labels = np.full((t_count, n, r), -1, dtype=np.int32)
        frontier = bitops.seed_lanes((t_count, n), seeds_per_column)
        for col, seeds in enumerate(seeds_per_column):
            for ti, vi in seeds:
                labels[ti, vi, col] = 0
        reached = frontier.copy()

        def spatial_step(block: np.ndarray) -> np.ndarray:
            out = np.zeros_like(block)
            for ti in range(t_count):
                if mats[ti].nnz and block[ti].any():
                    out[ti] = bitops.advance_blocked(
                        mats[ti],
                        block[ti],
                        r,
                        out_degrees=degrees[ti],
                        remaining=active[ti] & ~reached[ti],
                    )
            return out

        max_ext = boundary.max_level if boundary is not None else -1
        cost = 0
        while frontier.any() or cost <= max_ext:
            ext = boundary.lanes(cost) if boundary is not None else None
            # an external node is strictly earlier than every snapshot here, so
            # its causal reach is the node's lane at all of them, active-masked
            ext_block = ext[None] & active if ext is not None else None
            # saturate zero-cost edge families at the current cost level
            while True:
                grow = np.zeros_like(frontier)
                if causal_cost == 0:
                    grow |= bitops.causal_or_accumulate(frontier, active)
                    if ext_block is not None:
                        grow |= ext_block
                if spatial_cost == 0:
                    grow |= spatial_step(frontier)
                grow &= active
                grow &= ~reached
                if not grow.any():
                    break
                labels[bitops.unpack_bits(grow, r)] = cost
                reached |= grow
                frontier |= grow
            # one unit-cost expansion
            step = np.zeros_like(frontier)
            if spatial_cost == 1:
                step |= spatial_step(frontier)
            if causal_cost == 1:
                step |= bitops.causal_or_accumulate(frontier, active)
                if ext_block is not None:
                    step |= ext_block
            frontier = step & active & ~reached
            cost += 1
            labels[bitops.unpack_bits(frontier, r)] = cost
            reached |= frontier
        return labels

    def fewest_hops(
        self,
        roots: Iterable[TemporalNodeTuple],
        *,
        chunk_size: int = 128,
    ) -> dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]]:
        """Per root: minimal static-edge count to every reachable temporal node.

        The decoded form of the ``(spatial_cost=1, causal_cost=0)`` sweep —
        the dynamic-walk hop convention in which causal waiting is free.
        """
        out: dict[TemporalNodeTuple, dict[TemporalNodeTuple, int]] = {}
        for chunk, labels in self.zero_one_labels(
            roots,
            spatial_cost=1,
            causal_cost=0,
            chunk_size=chunk_size,
        ):
            for col, root in enumerate(chunk):
                t_arr, v_arr = np.nonzero(labels[:, :, col] >= 0)
                hops = labels[t_arr, v_arr, col]
                out[root] = {
                    (self._labels[vi], self._times[ti]): int(h)
                    for ti, vi, h in zip(
                        t_arr.tolist(), v_arr.tolist(), hops.tolist()
                    )
                }
        return out

    # ------------------------------------------------------------------ #
    # Tang snapshot-count sweep                                           #
    # ------------------------------------------------------------------ #

    def tang_steps(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
        chunk_size: int = 128,
    ) -> dict[Node, dict[Node, int]]:
        """Per source node: Tang snapshot-count distance to every node identity.

        Seeds one column per source and sweeps the time axis once:
        within-snapshot spreading runs at most ``horizon`` SpMM rounds (early
        exit on fixpoint), and informed nodes persist across snapshots with
        no activeness requirement — Tang's convention, deliberately *not*
        the paper's.  Labels count snapshots inclusively from
        ``start_index``; sources are 0; ``-1`` entries are never informed
        and are dropped from the decoded dictionaries.
        """
        if start_index < 0 or start_index >= self.compiled.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        out: dict[Node, dict[Node, int]] = {}
        for chunk in _chunked(list(source_nodes), chunk_size):
            steps = self.tang_steps_block(
                chunk, horizon=horizon, start_index=start_index
            )
            for col, source in enumerate(chunk):
                known = np.nonzero(steps[:, col] >= 0)[0]
                out[source] = {
                    self._labels[vi]: int(steps[vi, col]) for vi in known.tolist()
                }
        return out

    def tang_steps_block(
        self,
        source_nodes: Iterable[Node],
        *,
        horizon: int = 1,
        start_index: int = 0,
    ) -> np.ndarray:
        """Raw ``(N, R)`` Tang step block for one chunk of sources.

        The array form of :meth:`tang_steps` (one column per source, ``-1``
        = never informed) that incremental callers keep as mutable state
        between stream batches and repair with :meth:`tang_patch`.
        """
        if start_index < 0 or start_index >= self.compiled.num_snapshots:
            raise GraphError(f"start_index {start_index} out of range")
        node_index = self.compiled._node_index
        n = self.compiled.num_nodes
        slots = [node_index.get(source) for source in source_nodes]
        seeds = [[vi] if vi is not None else [] for vi in slots]
        informed = bitops.seed_lanes((n,), seeds)
        steps = np.full((n, len(seeds)), -1, dtype=np.int32)
        for col, vi in enumerate(slots):
            if vi is not None:
                steps[vi, col] = 0
        self._tang_sweep(informed, steps, start_index, 1, horizon)
        return steps

    def tang_patch(
        self,
        steps: np.ndarray,
        touched_times: Iterable[Time],
        *,
        horizon: int = 1,
        start_index: int = 0,
    ) -> int:
        """Repair a Tang step block after a mutation batch, in place.

        ``steps`` is a :meth:`tang_steps_block` result computed against the
        pre-batch artifact; ``touched_times`` are the timestamps the batch's
        insertions/removals touched (the dirty snapshots of the delta
        recompile — read them off the signed journal).  The Tang recurrence
        is purely forward in time — the informed set entering snapshot ``i``
        depends only on snapshots before ``i`` — so the patch is
        truncate-and-resweep: every label at or beyond the earliest touched
        step is invalidated (labels below it were derived exclusively from
        untouched snapshots and stay exact, for removals as much as
        insertions), and the sweep loop re-runs from the earliest touched
        snapshot on this kernel's post-batch operators.  Bit-identical to
        recomputing the block from scratch; costs only the suffix the batch
        could have affected.  Returns the number of entries that changed.
        """
        compiled = self.compiled
        n = compiled.num_nodes
        t_count = compiled.num_snapshots
        if start_index < 0 or start_index >= t_count:
            raise GraphError(f"start_index {start_index} out of range")
        if steps.ndim != 2 or steps.shape[0] != n:
            raise GraphError(
                f"step block shape {steps.shape} does not match the "
                f"compiled artifact's {n} nodes"
            )
        time_index = compiled.time_index
        touched = [
            ti
            for ti in (time_index.get(t) for t in touched_times)
            if ti is not None and ti >= start_index
        ]
        if not touched:
            return 0  # every touched snapshot predates the sweep window
        ti_min = min(touched)
        s0 = ti_min - start_index + 1
        old = steps.copy()
        steps[steps >= s0] = -1
        informed = bitops.pack_bits(steps >= 0)
        self._tang_sweep(informed, steps, ti_min, s0, horizon)
        return int((steps != old).sum())

    def _tang_sweep(
        self,
        informed: np.ndarray,
        steps: np.ndarray,
        first_snapshot: int,
        first_step: int,
        horizon: int,
    ) -> None:
        """The one sweep loop of the Tang family, in place.

        ``informed`` holds the ``(N, L)`` root lanes of the nodes informed
        before ``first_snapshot``; snapshot ``first_snapshot + k`` is step
        ``first_step + k``, and every node it newly informs gets that step
        in the ``(N, R)`` block ``steps``.  Each within-snapshot round is
        one :func:`~repro.engine.bitops.advance_blocked` whose remaining
        lanes are the uninformed ones (Tang's convention has no activeness
        requirement), and only the fresh lanes are decoded.  The Tang state
        is time-free, so the lanes left in ``informed`` are the whole state
        a later time shard needs.
        """
        mats = self.compiled.forward_operators
        t_count = self.compiled.num_snapshots
        n, r = steps.shape
        every = bitops.lane_mask(np.ones(n, dtype=bool), r)
        degrees = self.frontier._operator_degrees(True)
        counter = self.frontier.counter
        for step, ti in enumerate(range(first_snapshot, t_count), start=first_step):
            if bitops.popcount(informed) == n * r:
                break
            if not mats[ti].nnz:
                continue
            fresh = np.zeros_like(informed)
            for _ in range(max(1, horizon)):
                spread = bitops.advance_blocked(
                    mats[ti],
                    informed,
                    r,
                    out_degrees=degrees[ti],
                    remaining=every & ~informed,
                    counter=counter,
                )
                newly = spread & ~informed
                if not newly.any():
                    break
                informed |= newly
                fresh |= newly
            if fresh.any():
                steps[bitops.unpack_bits(fresh, r)] = step

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LabelKernel snapshots={self.compiled.num_snapshots} "
            f"nodes={self.compiled.num_nodes} nnz={self.compiled.nnz}>"
        )
