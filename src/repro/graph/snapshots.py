"""Snapshot-sequence representation of an evolving graph.

Holds the evolving graph exactly as Definition 1 states it: an ordered list of
:class:`~repro.graph.static_graph.StaticGraph` snapshots, each carrying a time
label.  This representation is the most literal reading of the paper and is
convenient when snapshots are produced one at a time (e.g. by discretising a
continuous-time process) or when per-snapshot static algorithms need to run
unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.exceptions import RepresentationError, TimestampNotFoundError
from repro.graph.base import (
    BaseEvolvingGraph,
    EdgeTuple,
    Node,
    TemporalEdgeTuple,
    Time,
)
from repro.graph.static_graph import StaticGraph

__all__ = ["SnapshotSequenceEvolvingGraph"]


class SnapshotSequenceEvolvingGraph(BaseEvolvingGraph):
    """Evolving graph as an explicit list of (timestamp, static graph) pairs."""

    def __init__(
        self,
        snapshots: Sequence[tuple[Time, StaticGraph]] | None = None,
        *,
        directed: bool = True,
    ) -> None:
        self._directed = bool(directed)
        self._times: list[Time] = []
        self._graphs: dict[Time, StaticGraph] = {}
        if snapshots:
            for t, g in snapshots:
                self.add_snapshot(t, g)

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def add_snapshot(self, time: Time, graph: StaticGraph | None = None) -> StaticGraph:
        """Append a snapshot labelled ``time``; returns the stored static graph.

        Snapshots may be added in any order; they are kept sorted by label.
        The snapshot's directedness must match the evolving graph's.
        """
        if time in self._graphs:
            raise RepresentationError(f"snapshot for timestamp {time!r} already exists")
        if graph is None:
            graph = StaticGraph(directed=self._directed)
        if graph.is_directed != self._directed:
            raise RepresentationError(
                "snapshot directedness does not match the evolving graph"
            )
        self._graphs[time] = graph
        self._times.append(time)
        self._times.sort()
        self._bump_mutation_version()
        return graph

    @property
    def mutation_version(self) -> int:
        """Exact mutation counter, including *direct* snapshot mutations.

        The sum of this container's own counter (bumped by
        :meth:`add_snapshot`) and every stored snapshot's
        :attr:`~repro.graph.static_graph.StaticGraph.mutation_version`, so
        edges added either through :meth:`add_edge` or directly on a
        ``StaticGraph`` obtained from :meth:`snapshot` are both detected.
        """
        return self._mutation_version + sum(
            g.mutation_version for g in self._graphs.values()
        )

    def add_edge(self, u: Node, v: Node, time: Time) -> bool:
        """Insert an edge, creating the snapshot when needed."""
        if time not in self._graphs:
            self.add_snapshot(time)
        return self._graphs[time].add_edge(u, v)

    @classmethod
    def from_edges(
        cls, edges: Iterable[TemporalEdgeTuple], *, directed: bool = True
    ) -> "SnapshotSequenceEvolvingGraph":
        g = cls(directed=directed)
        for u, v, t in edges:
            g.add_edge(u, v, t)
        return g

    # ------------------------------------------------------------------ #
    # snapshot access                                                     #
    # ------------------------------------------------------------------ #

    def snapshot(self, time: Time) -> StaticGraph:
        """The static graph labelled ``time``."""
        try:
            return self._graphs[time]
        except KeyError as exc:
            raise TimestampNotFoundError(time) from exc

    def snapshots(self) -> list[tuple[Time, StaticGraph]]:
        """All ``(time, static graph)`` pairs in time order."""
        return [(t, self._graphs[t]) for t in self._times]

    # ------------------------------------------------------------------ #
    # BaseEvolvingGraph primitives                                        #
    # ------------------------------------------------------------------ #

    @property
    def is_directed(self) -> bool:
        return self._directed

    @property
    def timestamps(self) -> Sequence[Time]:
        return tuple(self._times)

    def edges_at(self, time: Time) -> Iterator[EdgeTuple]:
        return iter(sorted(self.snapshot(time).edges(), key=repr))

    def out_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        g = self.snapshot(time)
        if not g.has_node(node):
            return iter(())
        return iter(g.successors(node))

    def in_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        g = self.snapshot(time)
        if not g.has_node(node):
            return iter(())
        return iter(g.predecessors(node))

    # ------------------------------------------------------------------ #
    # conversion                                                          #
    # ------------------------------------------------------------------ #

    def to_triples(self) -> list[TemporalEdgeTuple]:
        """Materialise the graph as ``(u, v, t)`` label triples."""
        out: list[TemporalEdgeTuple] = []
        for t in self._times:
            out.extend((u, v, t) for u, v in self._graphs[t].edges())
        return out
