"""Validation utilities for evolving graphs and temporal paths.

These checks back the structural invariants the paper relies on:

* timestamps are distinct and totally ordered (Definition 1),
* activeness is consistent with the edge sets (Definition 3),
* temporal paths visit only active nodes, respect time ordering, and take
  steps that are either static edges or causal edges (Definition 4),
* per-snapshot acyclicity, which drives the nilpotence result (Lemma 1).
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.exceptions import (
    GraphError,
    InvalidTemporalPathError,
    TimestampNotFoundError,
)
from repro.graph.base import BaseEvolvingGraph, TemporalEdgeTuple, TemporalNodeTuple

__all__ = [
    "validate_edge_batch",
    "validate_evolving_graph",
    "validate_temporal_path",
    "is_temporal_path",
    "snapshot_is_acyclic",
    "all_snapshots_acyclic",
]


def validate_evolving_graph(graph: BaseEvolvingGraph) -> None:
    """Raise :class:`GraphError` when structural invariants are violated."""
    times = list(graph.timestamps)
    if len(times) != len(set(times)):
        raise GraphError("timestamps must be distinct")
    if times != sorted(times):
        raise GraphError("timestamps must be sorted increasingly")
    for t in times:
        active = graph.active_nodes_at(t)
        incident: set = set()
        for u, v in graph.edges_at(t):
            if u != v:
                incident.add(u)
                incident.add(v)
        if active != incident:
            raise GraphError(
                f"active-node bookkeeping inconsistent at time {t!r}: "
                f"{sorted(map(repr, active ^ incident))}"
            )


def validate_edge_batch(
    graph: BaseEvolvingGraph,
    insertions: Iterable[TemporalEdgeTuple],
    removals: Iterable[TemporalEdgeTuple],
) -> tuple[list[TemporalEdgeTuple], list[TemporalEdgeTuple]]:
    """Check a mixed edge batch against ``graph`` before any of it is applied.

    Raises :class:`GraphError` unless every item is a ``(u, v, t)`` triple of
    hashable labels, :class:`TimestampNotFoundError` when a removal names an
    unregistered timestamp (as ``remove_edge`` would), and
    :class:`GraphError` when an insertion's new timestamp cannot be ordered
    against the registered ones (the ``insort`` that registers it is
    replayed on a copy).  A caller that validates first applies the batch
    all-or-nothing.  Returns ``(insertions, removals)`` as lists of triples.
    """
    ins = _edge_triples(insertions)
    rem = _edge_triples(removals)
    for _u, _v, t in rem:
        if not graph.has_timestamp(t):
            raise TimestampNotFoundError(t)
    new_times = [t for _u, _v, t in ins if not graph.has_timestamp(t)]
    if new_times:
        times = list(graph.timestamps)
        for t in dict.fromkeys(new_times):
            try:
                bisect.insort(times, t)
            except TypeError as exc:
                raise GraphError(
                    f"timestamp {t!r} cannot be ordered against the graph's "
                    "timestamps"
                ) from exc
    return ins, rem


def _edge_triples(edges: Iterable[TemporalEdgeTuple]) -> list[TemporalEdgeTuple]:
    items: list[TemporalEdgeTuple] = []
    for item in edges:
        try:
            u, v, t = item
            hash((u, v, t))
        except (TypeError, ValueError) as exc:
            raise GraphError(
                f"temporal edges must be (u, v, t) triples of hashable labels, "
                f"got {item!r}"
            ) from exc
        items.append((u, v, t))
    return items


def is_temporal_path(
    graph: BaseEvolvingGraph, path: Sequence[TemporalNodeTuple]
) -> bool:
    """Whether ``path`` is a valid temporal path on ``graph`` (Definition 4)."""
    try:
        validate_temporal_path(graph, path)
    except InvalidTemporalPathError:
        return False
    return True


def validate_temporal_path(
    graph: BaseEvolvingGraph, path: Sequence[TemporalNodeTuple]
) -> None:
    """Raise :class:`InvalidTemporalPathError` unless ``path`` is a temporal path.

    The empty sequence is a valid (trivial) temporal path, per the remark
    after Definition 4.  A single temporal node is a valid path of length 1
    when it is active.  Longer paths must consist of consecutive steps that
    are either a static edge within one snapshot or a causal edge between two
    active appearances of the same node, moving forward in time.
    """
    if len(path) == 0:
        return
    for v, t in path:
        if not graph.has_timestamp(t):
            raise InvalidTemporalPathError(
                f"temporal node ({v!r}, {t!r}) references unknown timestamp {t!r}"
            )
        if not graph.is_active(v, t):
            raise InvalidTemporalPathError(
                f"temporal node ({v!r}, {t!r}) is not active; temporal paths "
                "may only traverse active nodes"
            )
    for (v1, t1), (v2, t2) in zip(path, path[1:]):
        if t2 < t1:
            raise InvalidTemporalPathError(f"time ordering violated: {t2!r} < {t1!r}")
        if v1 == v2:
            if t1 == t2:
                raise InvalidTemporalPathError(
                    f"repeated temporal node ({v1!r}, {t1!r})"
                )
            # causal edge (v, t1) -> (v, t2): both endpoints active, t1 < t2 — already checked.
        else:
            if t1 != t2:
                raise InvalidTemporalPathError(
                    f"step ({v1!r}, {t1!r}) -> ({v2!r}, {t2!r}) changes both node and "
                    "time; temporal paths may change only one per step"
                )
            if not graph.has_edge(v1, v2, t1):
                raise InvalidTemporalPathError(
                    f"no static edge {v1!r} -> {v2!r} at time {t1!r}"
                )


def snapshot_is_acyclic(graph: BaseEvolvingGraph, time) -> bool:
    """Whether the snapshot at ``time`` is a DAG (ignoring edge direction it is never acyclic
    for undirected graphs with at least one edge, so undirected graphs only count self-loop-free
    forests as acyclic when treated as one-sided storage).

    Uses Kahn's algorithm on the directed snapshot.
    """
    from collections import deque

    succ: dict = {}
    indeg: dict = {}
    for u, v in graph.edges_at(time):
        succ.setdefault(u, []).append(v)
        indeg[v] = indeg.get(v, 0) + 1
        indeg.setdefault(u, indeg.get(u, 0))
        if u == v:
            return False
    queue = deque(v for v, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for w in succ.get(u, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return seen == len(indeg)


def all_snapshots_acyclic(graph: BaseEvolvingGraph) -> bool:
    """Whether every snapshot of the evolving graph is acyclic (hypothesis of Lemma 1)."""
    return all(snapshot_is_acyclic(graph, t) for t in graph.timestamps)
