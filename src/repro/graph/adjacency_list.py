"""Adjacency-list representation of an evolving graph.

This is the Python analogue of ``IntEvolvingGraph`` from EvolvingGraphs.jl,
the representation the paper's Algorithm 1 and the Figure-5 experiment use.
Each snapshot is stored as a pair of hash maps ``node -> list of neighbours``
(forward and reverse), and per-node active-time lists are maintained
incrementally so that forward-neighbour queries — the inner loop of the BFS —
run in time proportional to their output size.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Sequence

from repro.exceptions import TimestampNotFoundError
from repro.graph.base import (
    BaseEvolvingGraph,
    EdgeTuple,
    Node,
    TemporalEdgeTuple,
    TemporalNodeTuple,
    Time,
)
from repro.graph.validation import edge_triples, validate_edge_batch

__all__ = ["AdjacencyListEvolvingGraph"]

#: Mutation-journal size cap.  Trimming only ever drops entries a delta
#: consumer has already consumed (see ``_journal_append``), so a single
#: batch larger than the cap stays complete until the next recompile reads
#: it — the journal grows past the cap instead of dropping entries the next
#: delta compilation still needs.
_JOURNAL_LIMIT = 65536


class AdjacencyListEvolvingGraph(BaseEvolvingGraph):
    """Evolving graph stored as per-snapshot adjacency lists.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, t)`` temporal edges to insert.
    directed:
        Whether edges are directed (default ``True``).  For undirected graphs
        every inserted edge is traversable in both directions, matching the
        paper's treatment in the proof of Theorem 1.

    Examples
    --------
    >>> g = AdjacencyListEvolvingGraph([(1, 2, "t1"), (1, 3, "t2"), (2, 3, "t3")],
    ...                                timestamps=["t1", "t2", "t3"])
    >>> g.forward_neighbors(1, "t1")
    [(2, 't1'), (1, 't2')]
    """

    def __init__(
        self,
        edges: Iterable[TemporalEdgeTuple] | None = None,
        *,
        directed: bool = True,
        timestamps: Sequence[Time] | None = None,
    ) -> None:
        self._directed = bool(directed)
        # snapshot adjacency: time -> node -> list of neighbours
        self._succ: dict[Time, dict[Node, list[Node]]] = {}
        self._pred: dict[Time, dict[Node, list[Node]]] = {}
        # per-snapshot edge count and edge set for O(1) membership / dedup
        self._edge_sets: dict[Time, set[EdgeTuple]] = {}
        # sorted list of timestamps (may include empty snapshots registered explicitly)
        self._timestamps: list[Time] = []
        # node -> sorted list of timestamps at which the node is *active*
        self._active_times: dict[Node, list[Time]] = {}
        # time -> mutation_version at the last edit touching that snapshot
        # (delta compilation diffs these stamps to find dirty snapshots)
        self._snapshot_versions: dict[Time, int] = {}
        # signed mutation journal: parallel (version, edge, sign) logs of
        # recent add_edge (+1) and remove_edge (-1) calls, complete for
        # versions > _journal_floor.  Lets delta compilation splice a dirty
        # snapshot's operator (see edge_mutations_since).  _journal_consumed
        # is the newest version a delta consumer has read through; trimming
        # never drops entries beyond it.
        self._journal_versions: list[int] = []
        self._journal_edges: list[TemporalEdgeTuple] = []
        self._journal_signs: list[int] = []
        self._journal_floor = 0
        self._journal_consumed = 0

        if timestamps is not None:
            for t in timestamps:
                self.add_timestamp(t)
        if edges is not None:
            # streamed, not validated up front: a large edge iterable is
            # never held as a list
            for u, v, t in edge_triples(edges):
                self.add_edge(u, v, t)

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    def add_timestamp(self, time: Time) -> None:
        """Register a (possibly empty) snapshot labelled ``time``."""
        if time in self._succ:
            return
        # insort first: a label that cannot be ordered raises before any
        # snapshot dict registers it
        bisect.insort(self._timestamps, time)
        self._succ[time] = {}
        self._pred[time] = {}
        self._edge_sets[time] = set()
        self._bump_mutation_version()
        self._snapshot_versions[time] = self._mutation_version

    def add_edge(self, u: Node, v: Node, time: Time) -> bool:
        """Insert the edge ``u -> v`` into the snapshot at ``time``.

        Returns ``True`` when the edge was new, ``False`` when it was already
        present (duplicates are ignored so the representation stays a simple
        graph per snapshot, as assumed by the 0/1 adjacency matrices of
        Section III).
        """
        self.add_timestamp(time)
        edge = self._canonical_edge(u, v)
        edge_set = self._edge_sets[time]
        if edge in edge_set:
            return False
        edge_set.add(edge)
        self._succ[time].setdefault(u, []).append(v)
        self._pred[time].setdefault(v, []).append(u)
        if not self._directed:
            self._succ[time].setdefault(v, []).append(u)
            self._pred[time].setdefault(u, []).append(v)
        if u != v:
            self._mark_active(u, time)
            self._mark_active(v, time)
        self._bump_mutation_version()
        self._snapshot_versions[time] = self._mutation_version
        self._journal_append((u, v, time), 1)
        return True

    def remove_edge(self, u: Node, v: Node, time: Time) -> bool:
        """Remove the edge ``u -> v`` from the snapshot at ``time``.

        Returns ``True`` when an edge was removed, ``False`` when it was not
        present (orientation is ignored for undirected graphs).  Activeness
        bookkeeping is updated: an endpoint with no remaining edge to another
        node at ``time`` stops being active there (Definition 3).  The
        mutation bumps :attr:`~repro.graph.base.BaseEvolvingGraph.mutation_version`,
        so cached kernels are rebuilt even though the edge/timestamp counts
        may be unchanged after a paired ``add_edge``.
        """
        edge_set = self._edge_sets.get(time)
        if edge_set is None:
            raise TimestampNotFoundError(time)
        edge = self._canonical_edge(u, v)
        if edge not in edge_set:
            return False
        edge_set.discard(edge)
        a, b = edge
        succ, pred = self._succ[time], self._pred[time]
        # mirror add_edge exactly (undirected inserts store both directions,
        # self-loops included)
        _unlink(succ, a, b)
        _unlink(pred, b, a)
        if not self._directed:
            _unlink(succ, b, a)
            _unlink(pred, a, b)
        for w in {a, b}:
            if not self._has_incident_edge(w, time):
                times = self._active_times.get(w)
                if times:
                    idx = bisect.bisect_left(times, time)
                    if idx < len(times) and times[idx] == time:
                        times.pop(idx)
        self._bump_mutation_version()
        self._snapshot_versions[time] = self._mutation_version
        self._journal_append((u, v, time), -1)
        return True

    def _journal_append(self, edge: TemporalEdgeTuple, sign: int) -> None:
        """Log one signed mutation, trimming only already-consumed entries.

        The trim respects ``_journal_consumed``: entries no delta consumer
        has read yet are never dropped, so a single batch larger than
        ``_JOURNAL_LIMIT`` stays journal-complete until the next recompile
        consumes it (the journal grows past the cap in the meantime).
        """
        self._journal_versions.append(self._mutation_version)
        self._journal_edges.append(edge)
        self._journal_signs.append(sign)
        if len(self._journal_versions) > _JOURNAL_LIMIT:
            cut = bisect.bisect_right(self._journal_versions, self._journal_consumed)
            if cut:
                self._journal_floor = self._journal_versions[cut - 1]
                del self._journal_versions[:cut]
                del self._journal_edges[:cut]
                del self._journal_signs[:cut]

    def _has_incident_edge(self, node: Node, time: Time) -> bool:
        """Whether ``node`` still touches an edge to *another* node at ``time``."""
        for w in self._succ[time].get(node, ()):
            if w != node:
                return True
        for w in self._pred[time].get(node, ()):
            if w != node:
                return True
        return False

    def add_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Insert many ``(u, v, t)`` edges; return the number actually added.

        The batch is validated before the first insertion
        (:func:`~repro.graph.validation.validate_edge_batch`), so a malformed
        item or a new timestamp that cannot be ordered raises
        :class:`GraphError` with nothing inserted.
        """
        insertions, _ = validate_edge_batch(self, edges, ())
        added = 0
        for u, v, t in insertions:
            added += self.add_edge(u, v, t)
        return added

    def remove_edges_from(self, edges: Iterable[TemporalEdgeTuple]) -> int:
        """Remove many ``(u, v, t)`` edges; return the number actually removed.

        The batch is validated before the first removal, so a malformed item
        or an unregistered timestamp raises with nothing removed.  Absent
        edges are skipped (``remove_edge`` semantics), and every effective
        removal lands in the signed mutation journal, so a removal batch
        stays on the O(batch) delta-compilation path.
        """
        _, removals = validate_edge_batch(self, (), edges)
        removed = 0
        for u, v, t in removals:
            removed += self.remove_edge(u, v, t)
        return removed

    def _mark_active(self, node: Node, time: Time) -> None:
        times = self._active_times.setdefault(node, [])
        idx = bisect.bisect_left(times, time)
        if idx >= len(times) or times[idx] != time:
            times.insert(idx, time)

    # ------------------------------------------------------------------ #
    # primitives required by BaseEvolvingGraph                           #
    # ------------------------------------------------------------------ #

    @property
    def is_directed(self) -> bool:
        return self._directed

    @property
    def timestamps(self) -> Sequence[Time]:
        return tuple(self._timestamps)

    def edges_at(self, time: Time) -> Iterator[EdgeTuple]:
        if time not in self._edge_sets:
            raise TimestampNotFoundError(time)
        return iter(sorted(self._edge_sets[time], key=repr))

    def out_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        snapshot = self._succ.get(time)
        if snapshot is None:
            raise TimestampNotFoundError(time)
        return iter(snapshot.get(node, ()))

    def in_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        snapshot = self._pred.get(time)
        if snapshot is None:
            raise TimestampNotFoundError(time)
        return iter(snapshot.get(node, ()))

    # ------------------------------------------------------------------ #
    # fast overrides of derived queries                                  #
    # ------------------------------------------------------------------ #

    def has_timestamp(self, time: Time) -> bool:
        return time in self._succ

    def snapshot_versions(self) -> dict[Time, int]:
        """Per-snapshot last-modified stamps (delta-compilation dirty tracking)."""
        return dict(self._snapshot_versions)

    def edge_mutations_since(
        self, version: int
    ) -> tuple[list[TemporalEdgeTuple], list[TemporalEdgeTuple]] | None:
        """Net ``(insertions, removals)`` since ``version``, from the signed journal.

        Entries are netted per ``(canonical edge, time)`` — an edge inserted
        and removed (in either order) inside the window cancels out — so the
        current edge sets are exactly the old edge sets plus ``insertions``
        minus ``removals``.  Both lists hold canonical-orientation triples.
        Returns ``None`` when the journal was trimmed past ``version``.

        Streaming hot path: with a non-``None`` answer, delta compilation
        splices each dirty snapshot's CSR buffers instead of re-walking the
        snapshot.  Reading the window marks it consumed, which licenses the
        journal trim (see ``_journal_append``).
        """
        if version < self._journal_floor:
            return None
        idx = bisect.bisect_right(self._journal_versions, version)
        net: dict[tuple, int] = {}
        for edge, sign in zip(self._journal_edges[idx:], self._journal_signs[idx:]):
            u, v, t = edge
            net_key = (self._canonical_edge(u, v), t)
            net[net_key] = net.get(net_key, 0) + sign
        insertions: list[TemporalEdgeTuple] = []
        removals: list[TemporalEdgeTuple] = []
        for ((a, b), t), count in net.items():
            if count > 0:
                insertions.append((a, b, t))
            elif count < 0:
                removals.append((a, b, t))
        self._journal_consumed = max(self._journal_consumed, self._mutation_version)
        return insertions, removals

    def num_static_edges(self) -> int:
        return sum(len(s) for s in self._edge_sets.values())

    def temporal_edges_unordered(self) -> Iterator[TemporalEdgeTuple]:
        """Dump every ``(u, v, t)`` edge without the per-snapshot repr-sort."""
        for t in self._timestamps:
            for u, v in self._edge_sets[t]:
                yield (u, v, t)

    def num_static_edges_at(self, time: Time) -> int:
        """Number of static edges in the snapshot at ``time``."""
        if time not in self._edge_sets:
            raise TimestampNotFoundError(time)
        return len(self._edge_sets[time])

    def nodes(self) -> set[Node]:
        out: set[Node] = set()
        for t in self._timestamps:
            out.update(self._succ[t].keys())
            out.update(self._pred[t].keys())
        return out

    def active_times(self, node: Node) -> list[Time]:
        return list(self._active_times.get(node, ()))

    def is_active(self, node: Node, time: Time) -> bool:
        times = self._active_times.get(node)
        if not times:
            return False
        idx = bisect.bisect_left(times, time)
        return idx < len(times) and times[idx] == time

    def active_nodes_at(self, time: Time) -> set[Node]:
        if time not in self._succ:
            raise TimestampNotFoundError(time)
        return {
            v for v, times in self._active_times.items() if self._has_time(times, time)
        }

    @staticmethod
    def _has_time(times: list[Time], time: Time) -> bool:
        idx = bisect.bisect_left(times, time)
        return idx < len(times) and times[idx] == time

    def forward_neighbors(self, node: Node, time: Time) -> list[TemporalNodeTuple]:
        if not self.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in self._succ[time].get(node, ()):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        times = self._active_times.get(node, ())
        idx = bisect.bisect_right(times, time)
        for t_later in times[idx:]:
            result.append((node, t_later))
        return result

    def backward_neighbors(self, node: Node, time: Time) -> list[TemporalNodeTuple]:
        if not self.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in self._pred[time].get(node, ()):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        times = self._active_times.get(node, ())
        idx = bisect.bisect_left(times, time)
        for t_earlier in times[:idx]:
            result.append((node, t_earlier))
        return result

    # ------------------------------------------------------------------ #
    # misc                                                               #
    # ------------------------------------------------------------------ #

    def copy(self) -> "AdjacencyListEvolvingGraph":
        """Deep-enough copy sharing no mutable state with the original."""
        clone = AdjacencyListEvolvingGraph(
            directed=self._directed, timestamps=self._timestamps
        )
        for t in self._timestamps:
            for u, v in self._edge_sets[t]:
                clone.add_edge(u, v, t)
        return clone

    def subgraph_from(self, time: Time) -> "AdjacencyListEvolvingGraph":
        """Return the evolving graph restricted to snapshots with label ``>= time``.

        The paper notes that snapshots earlier than the root's timestamp never
        participate in a BFS, so this restriction is the natural preprocessing
        step before rooting a search at ``(v, time)``.
        """
        clone = AdjacencyListEvolvingGraph(directed=self._directed)
        for t in self._timestamps:
            if t < time:
                continue
            clone.add_timestamp(t)
            for u, v in self._edge_sets[t]:
                clone.add_edge(u, v, t)
        return clone


def _unlink(adjacency: dict[Node, list[Node]], node: Node, neighbour: Node) -> None:
    """Drop one ``neighbour`` entry from ``node``'s list, and the key once empty.

    Dropping the emptied key keeps ``nodes()`` after a removal equal to a
    fresh graph's and to the compiled node universe.
    """
    neighbours = adjacency[node]
    neighbours.remove(neighbour)
    if not neighbours:
        del adjacency[node]
