"""Incremental maintenance of an evolving-graph BFS under edge mutations.

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

Edge *removals* can lengthen temporal paths, and a stream batch of a few
hundred edges changes most of the BFS tree, so a bounded repair saves
nothing there.  :meth:`IncrementalBFS.apply` therefore follows one rule on
both backends: a batch with no effective removal takes the decrease-only
patch; a batch with an effective removal applies all of its removals and
insertions to the graph and then resyncs once — one fresh search from the
root, which Theorem 4 makes exact on the compiled blocks (the README's
*Streaming & incremental updates* section records the batch-size crossover).

Backends
--------
Like every ported search, the class accepts ``backend="python" | "vectorized"``:

* ``"vectorized"`` (the default) keeps the distances as a raw ``(T, N)``
  block aligned with the shared compiled artifact
  (:class:`~repro.graph.compiled.CompiledTemporalGraph`).  Every batch first
  *delta-recompiles* the artifact over the signed mutation journal — only
  the snapshots the batch touched are rebuilt, everything else is shared
  with the previous artifact.  A pure-insertion batch then runs a masked
  decrease-only re-sweep seeded from the dirty temporal slots
  (:meth:`~repro.engine.frontier.FrontierKernel.patch_distance_block`); a
  batch with a removal runs one packed sweep from the root
  (:meth:`~repro.engine.frontier.FrontierKernel.distance_block`).
  ``benchmarks/bench_incremental.py`` measures both against a full
  recompile plus a full search per batch.
* ``"python"`` is the original per-node dictionary relaxation, kept verbatim
  as the correctness oracle (``tests/test_delta_streaming.py`` asserts the
  two agree after every stream batch); a batch with a removal re-runs the
  Python BFS.

The cost of an insertion batch is proportional to the part of the BFS tree
whose distances actually change, which for typical streams is far smaller
than the whole graph; the worst case degrades gracefully to a full
re-expansion.
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
from repro.graph.validation import validate_edge_batch

__all__ = ["IncrementalBFS", "IncrementalEarliestArrival"]


class IncrementalBFS:
    """Maintain Algorithm 1's result from a fixed root while edges change.

    Parameters
    ----------
    graph:
        The mutable adjacency-list evolving graph to search.  The instance
        takes ownership of updates: always mutate it through
        :meth:`add_edges_from`, :meth:`remove_edges_from` or :meth:`apply`
        (or their single-edge forms) so the distance map stays consistent
        with the graph.
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
        """Number of effective edge insertions and removals since construction."""
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
        return bool(self.add_edges_from([(u, v, time)]))

    def add_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Insert many edges; returns the number that were new.

        The batch is validated before the first insertion, so a malformed
        item leaves the graph untouched.  On the vectorized backend the
        whole batch is folded into *one* delta recompile and *one* masked
        re-sweep, which is how streaming callers
        (:func:`repro.generators.stream.apply_stream`) amortize update costs.
        """
        ins, _ = validate_edge_batch(self._graph, edges, ())
        return self._insert(ins)

    def remove_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Remove the static edge ``u -> v`` at ``time`` and update distances.

        Returns ``True`` when the edge existed (removing an absent edge
        leaves both the graph and the distance map untouched).  An effective
        removal resyncs with one sweep from the root, as in :meth:`apply`.
        """
        _, removed = self.apply(removals=[(u, v, time)])
        return bool(removed)

    def remove_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Remove many edges; returns the number that existed.

        A batch with an effective removal is folded into one delta
        recompile and one fresh sweep from the root (see :meth:`apply`).
        """
        _, removed = self.apply(removals=edges)
        return removed

    def apply(
        self,
        insertions: Iterable[TemporalEdgeTuple] = (),
        removals: Iterable[TemporalEdgeTuple] = (),
    ) -> tuple[int, int]:
        """Fold one mixed insert/remove batch; returns ``(added, removed)``.

        The batch is validated first
        (:func:`~repro.graph.validation.validate_edge_batch`), so a bad item
        raises with nothing applied.  A batch with no effective removal is
        an insertion batch (:meth:`add_edges_from`: one delta recompile,
        then the decrease-only patch).  Otherwise every removal and
        insertion is applied to the graph and the state resyncs once: on
        the vectorized backend one delta recompile over the signed journal
        (its ``delta_stats`` cover the whole batch) and one sweep from the
        root, or an empty state when the batch deactivated the root.  The
        distances are bit-identical to a fresh search after every batch.
        """
        ins, rem = validate_edge_batch(self._graph, insertions, removals)
        graph = self._graph
        added = removed = 0
        try:
            for edge in rem:
                removed += graph.remove_edge(*edge)
            if not removed:
                return self._insert(ins), 0
            for edge in ins:
                added += graph.add_edge(*edge)
        finally:
            # resync even if a later item raised: the state must never lag
            # edges that made it into the graph
            if removed:
                self._updates += added + removed
                self._resync()
        return added, removed

    def recompute(self) -> dict[TemporalNodeTuple, int]:
        """Recompute from scratch (used for verification); also resyncs the state."""
        self._resync()
        return self.distances

    def _insert(self, edges: list[TemporalEdgeTuple]) -> int:
        """Insert validated edges and fold the new ones in, decrease-only."""
        graph = self._graph
        new_edges: list[TemporalEdgeTuple] = []
        try:
            for edge in edges:
                if graph.add_edge(*edge):
                    new_edges.append(edge)
                    if self._backend == "python":
                        self._apply_insertion(*edge)
        finally:
            # fold whatever was inserted even if a later add_edge raised
            self._updates += len(new_edges)
            if new_edges and self._backend != "python":
                self._apply_batch(new_edges)
        return len(new_edges)

    def _resync(self) -> None:
        """Rebuild the state with one fresh search (empty if the root is inactive)."""
        self._reached = {}
        self._dist = self._axes = self._decoded = None
        if self._graph.is_active(*self._root):
            self._initial_search()

    # ------------------------------------------------------------------ #
    # vectorized internals (engine-backed decrease-only maintenance)      #
    # ------------------------------------------------------------------ #

    def _initial_search(self) -> None:
        """Full engine (or oracle) search from the (active) root."""
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
    :class:`IncrementalBFS` already keeps exact.  Batches therefore follow
    the same rule (a pure-insertion batch patches, a batch with a removal
    re-sweeps from the root), and :attr:`arrivals` stays bit-identical to a fresh
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
