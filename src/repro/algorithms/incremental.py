"""Incremental maintenance of an evolving-graph BFS under edge insertions.

The paper positions itself against the incremental-update strand of
evolving-graph research (Bahmani et al., "PageRank on an evolving graph"),
and its Figure-5 experiment is itself built by *consecutively adding* random
edges and re-searching.  This module closes that loop: instead of recomputing
Algorithm 1 from scratch after every insertion, :class:`IncrementalBFS`
maintains the ``reached`` map of a fixed root as static edges arrive.

Edge insertions can only *shorten* distances or make new temporal nodes
reachable (temporal paths are never invalidated by adding edges), so the
update is a standard decrease-only relaxation: seed the affected temporal
nodes — the endpoints of the new edge at its timestamp, plus any later
appearance of those nodes that gained a causal in-edge — recompute their best
distance from their backward neighbours, and propagate improvements forward.

Edge *removals* can only lengthen temporal paths, so :meth:`IncrementalBFS.apply`
handles a mixed batch in two sound phases: first the removals are folded in
with an increase-aware invalidate-and-redescend
(:meth:`~repro.engine.frontier.FrontierKernel.shrink_distance_block` — every
distance below the cut level is provably still exact, everything at or above
it is re-derived from the cut frontier), then the insertions run the usual
decrease-only relaxation against the post-insertion artifact.  Interleaving
the two phases would be unsound — a slot can land on its *insertion*-shortened
value during the redescend and then never propagate — which is why the batch
is split, not fused.

Backends
--------
Like every ported search, the class accepts ``backend="python" | "vectorized"``:

* ``"vectorized"`` (the default) keeps the distances as a raw ``(T, N)``
  block aligned with the shared compiled artifact
  (:class:`~repro.graph.compiled.CompiledTemporalGraph`).  Each insertion
  batch first *delta-recompiles* the artifact — only the snapshots the batch
  touched are rebuilt, everything else is shared with the previous artifact —
  and then runs a masked decrease-only re-sweep on the frontier engine
  (:meth:`~repro.engine.frontier.FrontierKernel.decrease_only_resweep`)
  seeded from the dirty temporal slots.  Per batch this costs one snapshot
  compile plus work proportional to the region whose distances change,
  instead of a full recompile plus a full search
  (``benchmarks/bench_incremental.py`` measures the gap).
* ``"python"`` is the original per-node dictionary relaxation, kept verbatim
  as the correctness oracle (``tests/test_delta_streaming.py`` asserts the
  two agree after every stream batch).

The cost of one update is proportional to the part of the BFS tree whose
distances actually change, which for typical streams is far smaller than the
whole graph; the worst case degrades gracefully to a full re-expansion.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable

import numpy as np

from repro.core.bfs import BFSResult, evolving_bfs
from repro.exceptions import GraphError
from repro.graph.adjacency_list import AdjacencyListEvolvingGraph
from repro.graph.base import TemporalEdgeTuple, TemporalNodeTuple
from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["IncrementalBFS", "IncrementalEarliestArrival"]


class IncrementalBFS:
    """Maintain Algorithm 1's result from a fixed root while edges are inserted.

    Parameters
    ----------
    graph:
        The mutable adjacency-list evolving graph to search.  The instance
        takes ownership of updates: always insert edges through
        :meth:`add_edge` / :meth:`add_edges_from` so the distance map stays
        consistent with the graph.
    root:
        The temporal node to search from.  It does not need to be active yet;
        the search starts producing results once an inserted edge activates it.
    backend:
        ``"vectorized"`` (default) maintains the distances on the frontier
        engine over the delta-recompiled artifact; ``"python"`` is the
        dictionary-walking reference implementation.

    Examples
    --------
    >>> g = AdjacencyListEvolvingGraph(timestamps=[0, 1])
    >>> inc = IncrementalBFS(g, (0, 0))
    >>> inc.add_edge(0, 1, 0)
    True
    >>> inc.distances[(1, 0)]
    1
    """

    def __init__(
        self,
        graph: AdjacencyListEvolvingGraph,
        root: TemporalNodeTuple,
        *,
        backend: str = "vectorized",
    ) -> None:
        if not isinstance(graph, AdjacencyListEvolvingGraph):
            raise GraphError(
                "IncrementalBFS requires the mutable adjacency-list representation"
            )
        from repro.engine import resolve_backend

        self._backend = resolve_backend(backend)
        self._graph = graph
        self._root: TemporalNodeTuple = (root[0], root[1])
        self._updates = 0
        # python-backend state: the reached dictionary itself
        self._reached: dict[TemporalNodeTuple, int] = {}
        # vectorized-backend state: a (T, N) distance block aligned with
        # ``_axes`` (the compiled artifact it was built against), decoded to
        # a label dictionary lazily
        self._dist: np.ndarray | None = None
        self._axes: CompiledTemporalGraph | None = None
        self._decoded: dict[TemporalNodeTuple, int] | None = None
        if graph.is_active(*self._root):
            self._initial_search()

    # ------------------------------------------------------------------ #
    # read access                                                         #
    # ------------------------------------------------------------------ #

    @property
    def root(self) -> TemporalNodeTuple:
        """The search root."""
        return self._root

    @property
    def graph(self) -> AdjacencyListEvolvingGraph:
        """The underlying evolving graph (do not mutate it directly)."""
        return self._graph

    @property
    def backend(self) -> str:
        """The execution backend this instance maintains its state on."""
        return self._backend

    @property
    def distances(self) -> dict[TemporalNodeTuple, int]:
        """Current ``{(v, t): distance}`` map (a copy; equal to a fresh BFS result)."""
        if self._backend == "python":
            return dict(self._reached)
        return dict(self._decode())

    @property
    def num_updates(self) -> int:
        """Number of edge insertions processed since construction."""
        return self._updates

    def distance(self, node: Hashable, time) -> int | None:
        """Distance from the root to ``(node, time)``, or ``None`` if unreachable."""
        if self._backend == "python":
            return self._reached.get((node, time))
        if self._dist is None or self._axes is None:
            return None
        slot = self._axes.slot(node, time)
        if slot is None:
            return None
        value = int(self._dist[slot])
        return value if value >= 0 else None

    def is_reachable(self, node: Hashable, time) -> bool:
        """Whether ``(node, time)`` is currently reachable from the root."""
        return self.distance(node, time) is not None

    def as_result(self) -> BFSResult:
        """Snapshot the current state as a :class:`~repro.core.bfs.BFSResult`."""
        return BFSResult(root=self._root, reached=self.distances)

    # ------------------------------------------------------------------ #
    # updates                                                             #
    # ------------------------------------------------------------------ #

    def add_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Insert the static edge ``u -> v`` at ``time`` and update distances.

        Returns ``True`` when the edge was new (duplicates leave both the
        graph and the distance map untouched).
        """
        was_new = self._graph.add_edge(u, v, time)
        if not was_new:
            return False
        self._updates += 1
        if self._backend == "python":
            self._apply_insertion(u, v, time)
        else:
            self._apply_batch([(u, v, time)])
        return True

    def add_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Insert many edges; returns the number that were new.

        On the vectorized backend the whole batch is folded into *one* delta
        recompile and *one* masked re-sweep, which is how streaming callers
        (:func:`repro.generators.stream.apply_stream`) amortize update costs.
        """
        if self._backend == "python":
            added = 0
            for u, v, t in edges:
                added += self.add_edge(u, v, t)
            return added
        # validate the whole batch before the first insertion: a malformed
        # item must not leave edges in the graph that the distance block
        # never folded in
        items: list[TemporalEdgeTuple] = []
        for item in edges:
            try:
                u, v, t = item
            except (TypeError, ValueError) as exc:
                raise GraphError(
                    f"temporal edges must be (u, v, t) triples, got {item!r}"
                ) from exc
            items.append((u, v, t))
        new_edges: list[TemporalEdgeTuple] = []
        try:
            for edge in items:
                if self._graph.add_edge(*edge):
                    new_edges.append(edge)
        finally:
            # fold whatever was inserted even if a later add_edge raised
            # (e.g. an unhashable node) — the distance block must never lag
            # edges that made it into the graph
            if new_edges:
                self._updates += len(new_edges)
                self._apply_batch(new_edges)
        return len(new_edges)

    def remove_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Remove the static edge ``u -> v`` at ``time`` and update distances.

        Returns ``True`` when the edge existed (removing an absent edge
        leaves both the graph and the distance map untouched).
        """
        _, removed = self.apply(removals=[(u, v, time)])
        return bool(removed)

    def remove_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Remove many edges; returns the number that existed.

        The whole batch is folded into one delta recompile and one
        increase-aware shrink re-sweep.
        """
        _, removed = self.apply(removals=edges)
        return removed

    def apply(
        self,
        insertions: Iterable[TemporalEdgeTuple] = (),
        removals: Iterable[TemporalEdgeTuple] = (),
    ) -> tuple[int, int]:
        """Fold one mixed insert/remove batch; returns ``(added, removed)``.

        The two mutation kinds are applied in separate sound phases —
        removals first (increase-aware shrink against the mid-batch
        artifact), then insertions (decrease-only patch against the final
        artifact) — so the maintained distances stay bit-identical to a
        fresh search after every batch, for any mix.  The python oracle
        backend recomputes from scratch whenever a batch removes edges.
        """
        ins = self._validate_triples(insertions)
        rem = self._validate_triples(removals)
        graph = self._graph
        if self._backend == "python":
            removed = 0
            for u, v, t in rem:
                if graph.remove_edge(u, v, t):
                    removed += 1
            if not removed:
                return (self.add_edges_from(ins) if ins else 0), 0
            added = 0
            for u, v, t in ins:
                if graph.add_edge(u, v, t):
                    added += 1
            self._updates += added + removed
            self.recompute()
            return added, removed
        # phase 1 — removals: capture the pre-removal activeness (the mask
        # the maintained block was computed under), mutate, shrink
        prev_active = (
            self._axes.active_mask
            if self._axes is not None and self._dist is not None
            else None
        )
        removed_edges: list[TemporalEdgeTuple] = []
        for edge in rem:
            if graph.remove_edge(*edge):
                removed_edges.append(edge)
        if removed_edges:
            self._updates += len(removed_edges)
            self._shrink_batch(removed_edges, prev_active)
        # phase 2 — insertions: the usual decrease-only relaxation
        added_edges: list[TemporalEdgeTuple] = []
        try:
            for edge in ins:
                if graph.add_edge(*edge):
                    added_edges.append(edge)
        finally:
            if added_edges:
                self._updates += len(added_edges)
                self._apply_batch(added_edges)
        return len(added_edges), len(removed_edges)

    @staticmethod
    def _validate_triples(
        edges: Iterable[TemporalEdgeTuple],
    ) -> list[TemporalEdgeTuple]:
        items: list[TemporalEdgeTuple] = []
        for item in edges:
            try:
                u, v, t = item
            except (TypeError, ValueError) as exc:
                raise GraphError(
                    f"temporal edges must be (u, v, t) triples, got {item!r}"
                ) from exc
            items.append((u, v, t))
        return items

    def recompute(self) -> dict[TemporalNodeTuple, int]:
        """Recompute from scratch (used for verification); also resyncs the state."""
        active = self._graph.is_active(*self._root)
        if self._backend == "python":
            if active:
                self._reached = dict(
                    evolving_bfs(self._graph, self._root, backend="python").reached
                )
            else:
                self._reached = {}
        elif active:
            self._initial_search()
        else:
            self._dist = None
            self._axes = None
            self._decoded = None
        return self.distances

    # ------------------------------------------------------------------ #
    # vectorized internals (engine-backed decrease-only maintenance)      #
    # ------------------------------------------------------------------ #

    def _initial_search(self) -> None:
        """Full engine (or oracle) search; the root just became active."""
        if self._backend == "python":
            self._reached = dict(
                evolving_bfs(self._graph, self._root, backend="python").reached
            )
            return
        from repro.engine import get_kernel

        kernel = get_kernel(self._graph)
        self._axes = kernel.compiled
        self._dist = np.ascontiguousarray(kernel.distance_block(self._root))
        self._decoded = None

    def _decode(self) -> dict[TemporalNodeTuple, int]:
        """Label dictionary view of the distance block, cached until the next batch."""
        if self._decoded is None:
            if self._dist is None or self._axes is None:
                self._decoded = {}
            else:
                from repro.engine.reached import _decode_column, _slot_keys

                keys = _slot_keys(self._axes.node_labels, self._axes.times)
                self._decoded = _decode_column(keys, self._dist)
        return self._decoded

    def _remap(self, compiled: CompiledTemporalGraph) -> None:
        """Re-align the distance block with a recompiled artifact's axes.

        Delta recompiles keep the axes (insertions into existing snapshots
        never change the node universe), so the common case is a no-op; a
        full rebuild that grew the universe scatters the old block into the
        new shape (new slots start unreached, which is exactly right for the
        decrease-only relaxation to fill in).
        """
        old = self._axes
        if old is None or self._dist is None:
            self._axes = compiled
            return
        if (
            old.num_nodes == compiled.num_nodes
            and old.times == compiled.times
            and old.node_labels == compiled.node_labels
        ):
            self._axes = compiled
            return
        new_dist = np.full(
            (compiled.num_snapshots, compiled.num_nodes), -1, dtype=np.int32
        )
        time_index = compiled.time_index
        node_index = compiled.node_index
        old_rows, new_rows = [], []
        for i, t in enumerate(old.times):
            j = time_index.get(t)
            if j is not None:
                old_rows.append(i)
                new_rows.append(j)
        old_cols, new_cols = [], []
        for i, label in enumerate(old.node_labels):
            j = node_index.get(label)
            if j is not None:
                old_cols.append(i)
                new_cols.append(j)
        if old_rows and old_cols:
            new_dist[np.ix_(new_rows, new_cols)] = self._dist[
                np.ix_(old_rows, old_cols)
            ]
        self._dist = new_dist
        self._axes = compiled

    def _apply_batch(self, batch: list[TemporalEdgeTuple]) -> None:
        """Fold one batch of new edges into the distance block.

        The seeding rule and its decrease-only propagation live on the
        kernel (:meth:`~repro.engine.frontier.FrontierKernel.patch_distance_block`);
        this wrapper only keeps the block aligned with the delta-recompiled
        artifact and pins the root slot at distance 0.
        """
        self._decoded = None
        graph = self._graph
        if self._dist is None:
            # the root may only just have become active (or the insertions
            # may predate it, in which case nothing reachable changes)
            if graph.is_active(*self._root):
                self._initial_search()
            return
        from repro.engine import get_kernel

        kernel = get_kernel(graph)  # delta-recompiled on version mismatch
        compiled = kernel.compiled
        if compiled is not self._axes:
            self._remap(compiled)
        kernel.patch_distance_block(
            self._dist, batch, pinned=compiled.slot(*self._root)
        )

    def _shrink_batch(
        self,
        removals: list[TemporalEdgeTuple],
        prev_active: np.ndarray | None,
    ) -> None:
        """Fold one batch of removed edges into the distance block.

        Runs against the *mid-batch* artifact (post-removal, pre-insertion).
        Falls back to a fresh search when the maintained block cannot be
        proven exact: no block yet, a shrunken universe (stale values are
        not upper bounds under removals, so remapping is unsound), or a
        deactivated root (the block is simply dropped until the root
        reactivates).
        """
        self._decoded = None
        graph = self._graph
        if self._dist is None or self._axes is None or prev_active is None:
            if graph.is_active(*self._root):
                self._initial_search()
            else:
                self._dist = None
                self._axes = None
            return
        from repro.engine import get_kernel

        kernel = get_kernel(graph)  # delta-recompiled on version mismatch
        compiled = kernel.compiled
        old = self._axes
        if (
            compiled.num_nodes != old.num_nodes
            or compiled.times != old.times
            or compiled.node_labels != old.node_labels
        ):
            if graph.is_active(*self._root):
                self._initial_search()
            else:
                self._dist = None
                self._axes = None
            return
        self._axes = compiled
        slot = compiled.slot(*self._root)
        if slot is None or not compiled.active_mask[slot]:
            # the batch deactivated the root: nothing is reachable anymore
            self._dist = None
            self._axes = None
            return
        kernel.shrink_distance_block(self._dist, removals, prev_active)

    # ------------------------------------------------------------------ #
    # python-oracle internals                                             #
    # ------------------------------------------------------------------ #

    def _best_distance(self, tn: TemporalNodeTuple) -> int | None:
        """Best distance for ``tn`` given the current distances of its backward neighbours."""
        if tn == self._root:
            return 0 if self._graph.is_active(*self._root) else None
        best: int | None = None
        for predecessor in self._graph.backward_neighbors(*tn):
            d = self._reached.get(predecessor)
            if d is not None and (best is None or d + 1 < best):
                best = d + 1
        return best

    def _apply_insertion(self, u: Hashable, v: Hashable, time) -> None:
        root_node, root_time = self._root
        # The root may only just have become active (or the insertion may
        # predate it, in which case nothing reachable changes).
        if not self._reached and self._graph.is_active(root_node, root_time):
            self._initial_search()
            return
        if not self._reached:
            return

        # Temporal nodes whose in-neighbourhood changed: the edge endpoints at
        # `time`, and every *later* active appearance of the endpoints (they may
        # have gained a causal in-edge if (u, time) / (v, time) is newly active).
        seeds: set[TemporalNodeTuple] = set()
        for endpoint in (u, v):
            if self._graph.is_active(endpoint, time):
                seeds.add((endpoint, time))
            for later in self._graph.causal_out_times(endpoint, time):
                seeds.add((endpoint, later))

        queue: deque[TemporalNodeTuple] = deque()
        for seed in seeds:
            candidate = self._best_distance(seed)
            current = self._reached.get(seed)
            if candidate is not None and (current is None or candidate < current):
                self._reached[seed] = candidate
                queue.append(seed)

        # Decrease-only relaxation: propagate improvements along forward neighbours.
        while queue:
            current_node = queue.popleft()
            base = self._reached[current_node]
            for neighbor in self._graph.forward_neighbors(*current_node):
                candidate = base + 1
                existing = self._reached.get(neighbor)
                if existing is None or candidate < existing:
                    self._reached[neighbor] = candidate
                    queue.append(neighbor)


class IncrementalEarliestArrival:
    """Maintain earliest-arrival labels from a fixed root under mixed batches.

    The journal-driven incremental form of
    :meth:`FrontierKernel.earliest_arrivals
    <repro.engine.frontier.FrontierKernel.earliest_arrivals>` for one root:
    node ``v``'s earliest arrival is the first snapshot whose maintained
    distance is non-negative, a pure readout of the ``(T, N)`` block that
    :class:`IncrementalBFS` already keeps exact.  Insertions and removals
    therefore ride the same two-phase decrease/shrink maintenance, and
    :attr:`arrivals` stays bit-identical to a fresh
    ``earliest_arrivals`` sweep after every batch (asserted by
    the mixed-stream hypothesis suite).
    """

    def __init__(
        self,
        graph: AdjacencyListEvolvingGraph,
        root: TemporalNodeTuple,
        *,
        backend: str = "vectorized",
    ) -> None:
        self._inner = IncrementalBFS(graph, root, backend=backend)

    @property
    def root(self) -> TemporalNodeTuple:
        """The search root."""
        return self._inner.root

    @property
    def graph(self) -> AdjacencyListEvolvingGraph:
        """The underlying evolving graph (do not mutate it directly)."""
        return self._inner.graph

    @property
    def num_updates(self) -> int:
        """Number of edge mutations processed since construction."""
        return self._inner.num_updates

    def add_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Insert one edge; see :meth:`IncrementalBFS.add_edge`."""
        return self._inner.add_edge(u, v, time)

    def add_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Insert many edges; see :meth:`IncrementalBFS.add_edges_from`."""
        return self._inner.add_edges_from(edges)

    def remove_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Remove one edge; see :meth:`IncrementalBFS.remove_edge`."""
        return self._inner.remove_edge(u, v, time)

    def remove_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Remove many edges; see :meth:`IncrementalBFS.remove_edges_from`."""
        return self._inner.remove_edges_from(edges)

    def apply(
        self,
        insertions: Iterable[TemporalEdgeTuple] = (),
        removals: Iterable[TemporalEdgeTuple] = (),
    ) -> tuple[int, int]:
        """Fold one mixed batch; see :meth:`IncrementalBFS.apply`."""
        return self._inner.apply(insertions, removals)

    @property
    def arrivals(self) -> dict[Hashable, Hashable]:
        """Current ``{node: earliest reachable time}`` map (a copy)."""
        inner = self._inner
        if inner.backend == "python":
            position = {t: i for i, t in enumerate(inner.graph.timestamps)}
            out: dict[Hashable, Hashable] = {}
            for v, t in inner._reached:
                current = out.get(v)
                if current is None or position[t] < position[current]:
                    out[v] = t
            return out
        if inner._dist is None or inner._axes is None:
            return {}
        from repro.engine.reached import SlotTable
        from repro.engine.sharded_sweep import _decode_times, _time_hits

        axes = inner._axes
        first = _time_hits(inner._dist[:, :, None], "first")
        return _decode_times(SlotTable(axes.node_labels, axes.times), first, 0)
