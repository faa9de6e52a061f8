"""The semiring label-sweep loops: numeric labels over the compiled stacks.

:class:`~repro.engine.frontier.FrontierKernel` propagates *boolean* frontiers
— enough for reachability, distances and the batched reach/closeness/Katz
reductions, but not for the comparison baselines the codebase cites, which
ask for numeric labels per temporal node:

* **earliest arrival** (Tang-style reachability) is a running *minimum* of
  reached time stamps along the time axis;
* **latest departure** is the mirrored running *maximum*, read off a
  backward sweep on the lazily transposed backward-operator stacks;
* **fewest spatial hops** (the Grindrod–Higham dynamic-walk hop convention)
  is a *(min, +)* sweep in which static edges cost 1 and causal edges cost
  0;
* **Tang temporal distance** (WOSN 2009 snapshot counting) is a masked
  running minimum of snapshot indices under horizon-bounded within-snapshot
  spreading, with *no* activeness requirement (Tang's convention, not the
  paper's).

The two time readouts ride the BFS family's loop
(:meth:`FrontierKernel._run <repro.engine.frontier.FrontierKernel._run>`);
:class:`LabelKernel` holds the one packed sweep loop of each of the other
two families — :meth:`LabelKernel._zero_one_run` and
:meth:`LabelKernel._tang_sweep` — over the same shared
:class:`~repro.graph.compiled.CompiledTemporalGraph` the frontier kernel
runs on.  Both keep their state as root lanes (one bitset of root columns
per node, the MS-BFS layout of Then et al., PVLDB 2014, see
:mod:`repro.engine.bitops`) and optionally start from the state earlier
time shards reached.  The 0/1-cost semiring sweep is pluggable:
``(spatial_cost=1, causal_cost=0)`` yields fewest spatial hops, ``(1, 1)``
recovers the paper's own Definition-6 distance (a cross-check the test
suite exercises), and ``(0, 1)`` charges waiting instead of moving.
Zero-cost edge families are saturated to a fixpoint between unit-cost
expansions, which is exactly Dijkstra with 0/1 weights expressed as blocked
sparse products.

The batched entry points (``earliest_arrivals``, ``latest_departures``,
``zero_one_labels``, ``fewest_hops``, ``tang_steps``) live on the shared
surface :class:`~repro.engine.sharded_sweep.BatchedSweeps` of the frontier
kernel (:func:`repro.engine.get_kernel`) and the sharded driver, which
build a :class:`LabelKernel` over each shard's kernel to run these loops.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.engine import bitops

if TYPE_CHECKING:
    from repro.engine.frontier import FrontierKernel
    from repro.engine.sharded_sweep import BoundaryBlock

__all__ = ["LabelKernel"]


class LabelKernel:
    """The 0/1 label and Tang sweep loops over one frontier kernel's artifact.

    ``frontier`` supplies the compiled artifact, its cached stacked
    operators and its optional operation counter.
    """

    def __init__(self, frontier: FrontierKernel) -> None:
        self.frontier = frontier
        self.compiled = frontier.compiled

    def _zero_one_run(
        self,
        seeds_per_column: Sequence[Sequence[tuple[int, int]]],
        spatial_cost: int,
        causal_cost: int,
        *,
        boundary: BoundaryBlock | None = None,
    ) -> np.ndarray:
        """The one sweep loop of the 0/1 family; ``(T, N, R)`` int32 labels.

        State lives as ``(T, N, L)`` root lanes; the spatial step is one
        direction-optimizing :func:`~repro.engine.bitops.advance_blocked`
        over the stacked operators, windowed to the snapshots holding both
        frontier and unreached bits, and the causal step is the lane-wise
        :func:`~repro.engine.bitops.causal_or_accumulate`, so each
        saturation or expansion step advances every snapshot at once.  The
        causal step runs forward only, so the active lanes are masked to
        each column's forward time horizon
        (:func:`~repro.engine.bitops.time_horizon`), the same notion of
        discoverable slot the BFS loop uses.

        ``boundary`` is the state earlier time shards reached (``None`` for
        a monolithic sweep).  Its nodes at minimal label ``m`` are injected
        where the monolithic causal step would deliver them: into the
        cost-``m`` zero-cost saturation when causal edges are free, or into
        the cost-``m`` unit expansion (producing ``m + 1``) when causal
        edges cost one.
        """
        t_count, n = self.compiled.active_mask.shape
        r = len(seeds_per_column)
        stacked = self.frontier._stacked(True)
        active = bitops.lane_mask(self.compiled.active_mask, r)
        active &= bitops.time_horizon(
            t_count,
            seeds_per_column,
            entering=boundary.levels.values() if boundary is not None else (),
        )
        labels = np.full((t_count, n, r), -1, dtype=np.int32)
        frontier = bitops.seed_lanes((t_count, n), seeds_per_column)
        for col, seeds in enumerate(seeds_per_column):
            for ti, vi in seeds:
                labels[ti, vi, col] = 0
        reached = frontier.copy()
        slots = (t_count * n, frontier.shape[-1])

        def spatial_step(block: np.ndarray) -> np.ndarray:
            remaining = active & ~reached
            moving = bitops.snapshot_any(block) & bitops.snapshot_any(remaining)
            if not moving.any():
                return np.zeros_like(block)
            lo, hi = bitops.span(moving)
            return bitops.advance_blocked(
                stacked,
                block.reshape(slots),
                r,
                remaining=remaining.reshape(slots),
                window=(lo * n, hi * n),
            ).reshape(block.shape)

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
