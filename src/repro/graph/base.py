"""Abstract interface shared by every evolving-graph representation.

The paper (Definition 1) models an evolving graph ``G_n`` as a time-ordered
sequence of static graphs ``<G[1], ..., G[n]>`` with time labels
``t_1 < t_2 < ... < t_n``.  The central queries the BFS of Algorithm 1 needs
are:

* which timestamps exist,
* which nodes are *active* at a timestamp (Definition 3),
* the spatial out-neighbours of a node within one snapshot, and
* the *forward neighbours* of a temporal node (Definition 5), i.e. the union
  of spatial neighbours at the same time and the same node at later active
  times (causal edges, the set ``E'`` of Theorem 1).

:class:`BaseEvolvingGraph` provides default implementations of the derived
queries (activeness, forward/backward neighbours, causal edges, counting) on
top of a small set of primitive methods that each concrete representation
implements.  Concrete representations are free to override the derived
queries with faster specialised versions.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Hashable, Iterator, Sequence

from repro.exceptions import InactiveNodeError

Node = Hashable
Time = Hashable
TemporalNodeTuple = tuple[Node, Time]
EdgeTuple = tuple[Node, Node]
TemporalEdgeTuple = tuple[Node, Node, Time]

__all__ = [
    "Node",
    "Time",
    "TemporalNodeTuple",
    "EdgeTuple",
    "TemporalEdgeTuple",
    "BaseEvolvingGraph",
]


class BaseEvolvingGraph(ABC):
    """Abstract base class for evolving-graph representations.

    Subclasses must implement the primitive queries
    :meth:`timestamps`, :meth:`edges_at`, :meth:`out_neighbors_at`,
    :meth:`in_neighbors_at` and :meth:`is_directed`.  Everything else has a
    default implementation expressed in terms of those primitives.
    """

    # ------------------------------------------------------------------ #
    # primitives                                                         #
    # ------------------------------------------------------------------ #

    @property
    @abstractmethod
    def is_directed(self) -> bool:
        """Whether edges are directed.  Undirected edges are traversed both ways."""

    @property
    @abstractmethod
    def timestamps(self) -> Sequence[Time]:
        """The sorted sequence of distinct timestamps ``t_1 < ... < t_n``."""

    @abstractmethod
    def edges_at(self, time: Time) -> Iterator[EdgeTuple]:
        """Iterate over the (directed) edges ``(u, v)`` of the snapshot at ``time``.

        For undirected graphs each stored edge is yielded once, in insertion
        orientation.
        """

    @abstractmethod
    def out_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        """Spatial out-neighbours of ``node`` in the snapshot at ``time``.

        For undirected graphs this is simply the set of neighbours.  Nodes
        that do not appear at ``time`` have no neighbours (empty iterator).
        """

    @abstractmethod
    def in_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        """Spatial in-neighbours of ``node`` in the snapshot at ``time``."""

    # ------------------------------------------------------------------ #
    # mutation tracking                                                  #
    # ------------------------------------------------------------------ #

    #: Class-level default; instances shadow it on their first mutation.
    _mutation_version: int = 0

    @property
    def mutation_version(self) -> int:
        """Monotonically increasing counter of structural mutations.

        Every mutating operation (``add_edge``, ``add_timestamp``,
        ``add_snapshot``, ``remove_edge``) bumps this counter, including
        count-preserving edits such as removing one edge and adding another.
        Compiled artifacts (:class:`~repro.graph.compiled.CompiledTemporalGraph`)
        and the engine's kernel cache key on ``(graph, mutation_version)``,
        which makes cache invalidation exact instead of heuristic.  Immutable
        representations report a constant ``0``.
        """
        return self._mutation_version

    def _bump_mutation_version(self) -> None:
        """Record a structural mutation (called by every mutating operation)."""
        self._mutation_version = self._mutation_version + 1

    def snapshot_versions(self) -> dict[Time, int] | None:
        """Per-snapshot last-modified stamps, or ``None`` when untracked.

        Representations that know *which* snapshot each mutation touched
        return ``{time: stamp}`` where a snapshot's stamp changes exactly when
        one of its edges (or its existence) does.  Delta compilation
        (:meth:`repro.graph.compiled.CompiledTemporalGraph.recompile`) diffs
        these maps to find the dirty snapshots, then patches them from
        :meth:`edge_mutations_since`; it needs both, and only the adjacency
        list provides both.  The default ``None`` means "no per-snapshot
        tracking": any :attr:`mutation_version` change recompiles the whole
        graph.
        """
        return None

    def edge_mutations_since(
        self, version: int
    ) -> tuple[list[TemporalEdgeTuple], list[TemporalEdgeTuple]] | None:
        """Net ``(insertions, removals)`` since ``version``, or ``None``.

        A non-``None`` return value is a *completeness guarantee*: the edge
        sets at the current :attr:`mutation_version` equal the edge sets at
        ``version`` plus the ``insertions`` minus the ``removals`` (netted per
        edge and time, so an edge inserted and removed inside the window
        appears in neither list; snapshot registrations may also have
        happened, and they change no edge set).  Delta compilation splices
        each dirty snapshot's CSR buffers from it.  Representations without a
        signed journal, or whose journal was trimmed past ``version``, return
        ``None``, and delta compilation then recompiles the whole graph.
        """
        return None

    def compile(self) -> "CompiledTemporalGraph":
        """Compile this graph into an immutable sparse execution artifact.

        Convenience wrapper around
        :meth:`repro.graph.compiled.CompiledTemporalGraph.from_graph`; most
        callers should prefer :func:`repro.engine.get_compiled`, which caches
        the artifact per ``(graph, mutation_version)``.
        """
        from repro.graph.compiled import CompiledTemporalGraph

        return CompiledTemporalGraph.from_graph(self)

    # ------------------------------------------------------------------ #
    # derived structural queries                                         #
    # ------------------------------------------------------------------ #

    @property
    def num_timestamps(self) -> int:
        """Number of snapshots ``n`` in the evolving graph."""
        return len(self.timestamps)

    def has_timestamp(self, time: Time) -> bool:
        """Return ``True`` when a snapshot with label ``time`` exists."""
        return time in set(self.timestamps)

    def nodes_at(self, time: Time) -> set[Node]:
        """All nodes that appear in at least one edge of the snapshot at ``time``."""
        nodes: set[Node] = set()
        for u, v in self.edges_at(time):
            nodes.add(u)
            nodes.add(v)
        return nodes

    def active_nodes_at(self, time: Time) -> set[Node]:
        """Active nodes at ``time`` (Definition 3): incident to an edge to *another* node."""
        nodes: set[Node] = set()
        for u, v in self.edges_at(time):
            if u != v:
                nodes.add(u)
                nodes.add(v)
        return nodes

    def is_active(self, node: Node, time: Time) -> bool:
        """Whether the temporal node ``(node, time)`` is active (Definition 3)."""
        return node in self.active_nodes_at(time)

    def active_temporal_nodes(self) -> list[TemporalNodeTuple]:
        """All active temporal nodes, ordered by time then node (the set ``V`` of Theorem 1)."""
        out: list[TemporalNodeTuple] = []
        for t in self.timestamps:
            for v in sorted(self.active_nodes_at(t), key=repr):
                out.append((v, t))
        return out

    def active_times(self, node: Node) -> list[Time]:
        """Sorted timestamps at which ``node`` is active."""
        return [t for t in self.timestamps if self.is_active(node, t)]

    def nodes(self) -> set[Node]:
        """The union of all node identities appearing at any time."""
        out: set[Node] = set()
        for t in self.timestamps:
            out |= self.nodes_at(t)
        return out

    def num_static_edges(self) -> int:
        """Total number of static edges ``|E~|`` summed over all snapshots."""
        return sum(1 for t in self.timestamps for _ in self.edges_at(t))

    def temporal_edges(self) -> Iterator[TemporalEdgeTuple]:
        """Iterate over every static edge with its time label ``(u, v, t)``."""
        for t in self.timestamps:
            for u, v in self.edges_at(t):
                yield (u, v, t)

    def temporal_edges_unordered(self) -> Iterator[TemporalEdgeTuple]:
        """Like :meth:`temporal_edges` but with no ordering guarantee.

        Bulk consumers that do not care about edge order (e.g. the frontier
        engine compiling snapshot matrices) use this hook; representations
        whose ordered iteration pays a sort override it with a plain dump.
        """
        return self.temporal_edges()

    def has_edge(self, u: Node, v: Node, time: Time) -> bool:
        """Whether the snapshot at ``time`` contains the edge ``u -> v``.

        For undirected graphs the orientation is ignored.
        """
        if not self.has_timestamp(time):
            return False
        for a, b in self.edges_at(time):
            if (a, b) == (u, v):
                return True
            if not self.is_directed and (b, a) == (u, v):
                return True
        return False

    # ------------------------------------------------------------------ #
    # temporal-path structure                                            #
    # ------------------------------------------------------------------ #

    def causal_out_times(self, node: Node, time: Time) -> list[Time]:
        """Timestamps ``t' > time`` at which ``node`` is active (causal edge targets)."""
        times = self.active_times(node)
        idx = bisect.bisect_right(times, time)
        return times[idx:]

    def causal_in_times(self, node: Node, time: Time) -> list[Time]:
        """Timestamps ``t' < time`` at which ``node`` is active (causal edge sources)."""
        times = self.active_times(node)
        idx = bisect.bisect_left(times, time)
        return times[:idx]

    def causal_edges(self) -> Iterator[tuple[TemporalNodeTuple, TemporalNodeTuple]]:
        """Iterate over the causal edge set ``E'`` of Theorem 1.

        ``E' = {((v, s), (v, t)) : (v, s), (v, t) active, s < t}`` — i.e. *all*
        ordered pairs of active appearances of the same node, not only
        consecutive ones, exactly as in the paper's definition.
        """
        for v in sorted(self.nodes(), key=repr):
            times = self.active_times(v)
            for i, s in enumerate(times):
                for t in times[i + 1 :]:
                    yield ((v, s), (v, t))

    def num_causal_edges(self) -> int:
        """Number of causal edges ``|E'|``."""
        total = 0
        for v in self.nodes():
            k = len(self.active_times(v))
            total += k * (k - 1) // 2
        return total

    def forward_neighbors(self, node: Node, time: Time) -> list[TemporalNodeTuple]:
        """Forward neighbours of the temporal node ``(node, time)`` (Definition 5).

        These are the temporal nodes reachable by a temporal path of length 2:

        * ``(w, time)`` for every spatial out-neighbour ``w`` of ``node`` at
          ``time`` (static edges ``E~``), and
        * ``(node, t')`` for every later timestamp ``t'`` at which ``node`` is
          active (causal edges ``E'``).

        An inactive temporal node has no forward neighbours, because every
        temporal path must consist solely of active nodes (Definition 4).
        """
        if not self.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in self.out_neighbors_at(node, time):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        for t_later in self.causal_out_times(node, time):
            tn = (node, t_later)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        return result

    def backward_neighbors(self, node: Node, time: Time) -> list[TemporalNodeTuple]:
        """Backward neighbours: temporal nodes of which ``(node, time)`` is a forward neighbour.

        Used by the time-reversed search of Section V (``t -> -t``
        transformation): spatial in-neighbours at the same time plus earlier
        active appearances of the same node.
        """
        if not self.is_active(node, time):
            return []
        result: list[TemporalNodeTuple] = []
        seen: set[TemporalNodeTuple] = set()
        for w in self.in_neighbors_at(node, time):
            if w == node:
                continue
            tn = (w, time)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        for t_earlier in self.causal_in_times(node, time):
            tn = (node, t_earlier)
            if tn not in seen:
                seen.add(tn)
                result.append(tn)
        return result

    def require_active(self, node: Node, time: Time) -> None:
        """Raise :class:`InactiveNodeError` unless ``(node, time)`` is active."""
        if not self.is_active(node, time):
            raise InactiveNodeError(node, time)

    # ------------------------------------------------------------------ #
    # dunder helpers                                                     #
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        """Number of snapshots (same as :attr:`num_timestamps`)."""
        return self.num_timestamps

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} "
            f"n_timestamps={self.num_timestamps} "
            f"n_nodes={len(self.nodes())} "
            f"n_static_edges={self.num_static_edges()} "
            f"directed={self.is_directed}>"
        )

    def equals(self, other: "BaseEvolvingGraph") -> bool:
        """Structural equality: same directedness, timestamps and edge sets per snapshot."""
        if self.is_directed != other.is_directed:
            return False
        if list(self.timestamps) != list(other.timestamps):
            return False
        for t in self.timestamps:
            mine = {self._canonical_edge(u, v) for u, v in self.edges_at(t)}
            theirs = {other._canonical_edge(u, v) for u, v in other.edges_at(t)}
            if mine != theirs:
                return False
        return True

    def _canonical_edge(self, u: Node, v: Node) -> EdgeTuple:
        if self.is_directed:
            return (u, v)
        return (u, v) if repr(u) <= repr(v) else (v, u)
