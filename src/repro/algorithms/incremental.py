"""Incremental maintenance of an evolving-graph BFS under edge mutations.

The paper positions itself against the incremental-update strand of
evolving-graph research (Bahmani et al., "PageRank on an evolving graph"),
and its Figure-5 experiment is itself built by *consecutively adding* random
edges and re-searching.  This module closes that loop:
:class:`IncrementalBFS` keeps the ``reached`` map of a fixed root exact
while batches of static edges are inserted and removed.

Every batch is validated first
(:func:`~repro.graph.validation.validate_edge_batch`), so a bad item raises
with nothing applied.  Its removals, then its insertions, are applied to
the graph, and one rule folds an effective batch into the state:

* **patch** — on the vectorized backend, a batch that removed nothing, and
  whose delta recompile kept the artifact's times and node labels, patches
  the maintained ``(T, N)`` distance block in place.  Insertions only ever
  shorten distances or make new temporal nodes reachable, so the
  decrease-only re-sweep seeded from the dirty slots
  (:meth:`~repro.engine.frontier.FrontierKernel.patch_distance_block`) is
  exact.
* **resync** — every other effective batch runs one search from the root
  (:meth:`~repro.engine.frontier.FrontierKernel.distance_block`, exact by
  Theorem 4), or empties the state when the root is inactive.  A removal
  can lengthen any temporal path, and a batch of a few hundred edges
  changes most of the BFS tree, so a bounded repair saves nothing (the
  README's *Streaming & incremental updates* section has the crossover).

Backends
--------
* ``"vectorized"`` (the default) keeps the distances as a raw ``(T, N)``
  block aligned with the shared compiled artifact
  (:class:`~repro.graph.compiled.CompiledTemporalGraph`), which each batch
  *delta-recompiles* over the signed mutation journal.
  ``benchmarks/bench_incremental.py`` measures it against a full
  recompile plus a full search per batch.
* ``"python"`` recomputes per batch: every effective batch resyncs with
  Algorithm 1 (``evolving_bfs(..., backend="python")``), so this backend
  *is* the oracle the vectorized one is checked against.

:class:`IncrementalEarliestArrival` is an :class:`IncrementalBFS` that also
answers each node's earliest reachable time.
"""

from __future__ import annotations

from typing import Hashable, Iterable

import numpy as np

from repro.algorithms.temporal_paths import earliest_arrival_times
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
        takes ownership of updates: always mutate it through :meth:`apply`
        (or :meth:`add_edges_from`, :meth:`remove_edges_from` and their
        single-edge forms, which call it) so the distance map stays
        consistent with the graph.
    root:
        The temporal node to search from.  It does not need to be active yet;
        the search starts producing results once an inserted edge activates it.
    backend:
        ``"vectorized"`` (default) maintains the distances on the frontier
        engine over the delta-recompiled artifact; ``"python"`` re-runs
        Algorithm 1 after every effective batch (the reference oracle).

    Examples
    --------
    >>> g = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 0)], timestamps=[0, 1])
    >>> inc = IncrementalBFS(g, (0, 0))
    >>> inc.apply(insertions=[(1, 2, 1)])  # nothing removed, same axes: a patch
    (1, 0)
    >>> inc.distance(2, 1)
    3
    >>> inc.remove_edge(1, 2, 1)  # a removal: one sweep from the root
    True
    >>> inc.distance(2, 1) is None
    True
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
                f"{type(self).__name__} requires the mutable adjacency-list "
                "representation"
            )
        from repro.engine import resolve_backend

        self._backend = resolve_backend(backend)
        self._graph = graph
        self._root: TemporalNodeTuple = (root[0], root[1])
        self._updates = 0
        # vectorized state: a (T, N) distance block and the compiled artifact
        # whose axes it is aligned with; None while the root is inactive, and
        # always on the python backend
        self._dist: np.ndarray | None = None
        self._axes: CompiledTemporalGraph | None = None
        # the {(v, t): distance} map: the python backend's whole state, the
        # vectorized block's decode (None until it is read)
        self._reached: dict[TemporalNodeTuple, int] | None = {}
        self._resync()

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
        if self._reached is None:
            from repro.engine.reached import _decode_column, _slot_keys

            keys = _slot_keys(self._axes.node_labels, self._axes.times)
            self._reached = _decode_column(keys, self._dist)
        return dict(self._reached)

    @property
    def num_updates(self) -> int:
        """Number of effective edge insertions and removals since construction."""
        return self._updates

    def distance(self, node: Hashable, time) -> int | None:
        """Distance from the root to ``(node, time)``, or ``None`` if unreachable."""
        if self._dist is None:
            return self._reached.get((node, time))
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
        """Insert the static edge ``u -> v`` at ``time``; ``True`` if it was new."""
        return bool(self.apply(insertions=[(u, v, time)])[0])

    def add_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Insert many edges as one batch (:meth:`apply`); returns how many were new."""
        return self.apply(insertions=edges)[0]

    def remove_edge(self, u: Hashable, v: Hashable, time) -> bool:
        """Remove the static edge ``u -> v`` at ``time``; ``True`` if it existed."""
        return bool(self.apply(removals=[(u, v, time)])[1])

    def remove_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Remove many edges as one batch (:meth:`apply`); returns how many existed."""
        return self.apply(removals=edges)[1]

    def apply(
        self,
        insertions: Iterable[TemporalEdgeTuple] = (),
        removals: Iterable[TemporalEdgeTuple] = (),
    ) -> tuple[int, int]:
        """Fold one mixed insert/remove batch; returns ``(added, removed)``.

        The batch is validated first, so a bad item raises with nothing
        applied.  Its removals, then its insertions, are applied to the
        graph (duplicates and absent removals are no-ops), and an effective
        batch takes the module's rule: the vectorized backend patches its
        block when nothing was removed and the delta-recompiled artifact
        kept the block's times and node labels; every other effective batch
        resyncs with one search from the root.  The distances equal a fresh
        search after every batch.
        """
        ins, rem = validate_edge_batch(self._graph, insertions, removals)
        graph = self._graph
        added: list[TemporalEdgeTuple] = []
        removed = 0
        try:
            for edge in rem:
                removed += graph.remove_edge(*edge)
            for edge in ins:
                if graph.add_edge(*edge):
                    added.append(edge)
        finally:
            # fold whatever reached the graph even if a later item raised:
            # the state must never lag the graph's edges
            if added or removed:
                self._updates += len(added) + removed
                self._fold(added, removed)
        return len(added), removed

    def recompute(self) -> dict[TemporalNodeTuple, int]:
        """Recompute from scratch (used for verification); also resyncs the state."""
        self._resync()
        return self.distances

    def _fold(self, added: list[TemporalEdgeTuple], removed: int) -> None:
        """Patch the distance block where the rule allows it, else resync."""
        if not removed and self._dist is not None:
            from repro.engine import get_kernel

            kernel = get_kernel(self._graph)  # delta-recompiled
            compiled = kernel.compiled
            if (
                compiled.times == self._axes.times
                and compiled.node_labels == self._axes.node_labels
            ):
                self._axes = compiled
                self._reached = None
                kernel.patch_distance_block(
                    self._dist, added, pinned=compiled.slot(*self._root)
                )
                return
        self._resync()

    def _resync(self) -> None:
        """Rebuild the state with one search from the root (empty if it is inactive)."""
        self._dist = self._axes = None
        self._reached = {}
        if not self._graph.is_active(*self._root):
            return
        if self._backend == "python":
            self._reached = evolving_bfs(
                self._graph, self._root, backend="python"
            ).reached
            return
        from repro.engine import get_kernel

        kernel = get_kernel(self._graph)
        self._axes = kernel.compiled
        self._dist = np.ascontiguousarray(kernel.distance_block(self._root))
        self._reached = None


class IncrementalEarliestArrival(IncrementalBFS):
    """Maintain earliest-arrival labels from a fixed root under mixed batches.

    An :class:`IncrementalBFS` that also answers each node's earliest
    arrival, the first snapshot at which the node is reached.  The
    vectorized backend reads it off the maintained block with the first-hit
    readout that :meth:`FrontierKernel.earliest_arrivals
    <repro.engine.frontier.FrontierKernel.earliest_arrivals>` applies to a
    sweep; the python backend asks the oracle,
    ``earliest_arrival_times(..., backend="python")``, which :attr:`arrivals`
    equals after every batch on both backends.
    """

    @property
    def arrivals(self) -> dict[Hashable, Hashable]:
        """Current ``{node: earliest reachable time}`` map, a plain ``dict``
        the caller owns: on the vectorized backend the ``copy()`` of a
        :class:`~repro.engine.reached.TimesView` over the block's first hits.
        """
        if self._dist is None:
            # the python backend is the oracle; an inactive root reaches nothing
            return earliest_arrival_times(self._graph, self._root, backend="python")
        from repro.engine.reached import SlotTable, TimesView
        from repro.engine.sharded_sweep import _time_hits

        axes = self._axes
        first = _time_hits(self._dist[:, :, None], "first")
        slots = SlotTable(axes.node_labels, axes.times)
        return TimesView(first[:, 0], slots).copy()
