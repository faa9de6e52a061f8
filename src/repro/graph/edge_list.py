"""NumPy-backed temporal edge-list representation.

Stores an evolving graph as three parallel integer arrays (source code,
destination code, time code) plus lookup tables mapping codes back to the
original node / timestamp labels.  In this columnar layout bulk operations
(snapshot slicing, per-time CSR assembly, degree counting) become NumPy
index operations instead of Python loops, and :meth:`snapshot_arrays`
returns one snapshot's code arrays as views, ready for a ``scipy.sparse``
constructor.

The representation is immutable after construction; use
:class:`repro.graph.adjacency_list.AdjacencyListEvolvingGraph` for incremental
updates and convert when a bulk/array view is needed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import RepresentationError, TimestampNotFoundError
from repro.graph.base import (
    BaseEvolvingGraph,
    EdgeTuple,
    Node,
    TemporalEdgeTuple,
    Time,
)

__all__ = ["TemporalEdgeList"]


class TemporalEdgeList(BaseEvolvingGraph):
    """Immutable columnar evolving graph built from ``(u, v, t)`` triples.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, t)`` triples.  Duplicate triples are dropped.
    directed:
        Whether edges are directed.
    timestamps:
        Optional explicit timestamp universe; timestamps not appearing in any
        edge become empty snapshots.

    Notes
    -----
    Instances are frozen after construction, so
    :attr:`~repro.graph.base.BaseEvolvingGraph.mutation_version` is a
    constant ``0`` and compiled kernels for this representation never go
    stale.
    """

    def __init__(
        self,
        edges: Iterable[TemporalEdgeTuple],
        *,
        directed: bool = True,
        timestamps: Sequence[Time] | None = None,
    ) -> None:
        self._directed = bool(directed)

        triples = list(edges)
        for item in triples:
            if len(item) != 3:
                raise RepresentationError(
                    f"temporal edges must be (u, v, t) triples, got {item!r}"
                )

        node_labels: list[Node] = []
        node_index: dict[Node, int] = {}
        time_labels: list[Time] = sorted(
            set(t for _, _, t in triples) | set(timestamps or ())
        )
        time_index: dict[Time, int] = {t: i for i, t in enumerate(time_labels)}

        def _node_code(v: Node) -> int:
            code = node_index.get(v)
            if code is None:
                code = len(node_labels)
                node_index[v] = code
                node_labels.append(v)
            return code

        seen: set[tuple[int, int, int]] = set()
        src: list[int] = []
        dst: list[int] = []
        tms: list[int] = []
        for u, v, t in triples:
            cu, cv, ct = _node_code(u), _node_code(v), time_index[t]
            if not self._directed and cu > cv:
                key = (cv, cu, ct)
            else:
                key = (cu, cv, ct)
            if key in seen:
                continue
            seen.add(key)
            src.append(cu)
            dst.append(cv)
            tms.append(ct)

        self._node_labels: list[Node] = node_labels
        self._node_index: dict[Node, int] = node_index
        self._time_labels: list[Time] = time_labels
        self._time_index: dict[Time, int] = time_index

        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        tms_arr = np.asarray(tms, dtype=np.int64)
        # sort by (time, src, dst) so per-snapshot slices are contiguous
        order = np.lexsort((dst_arr, src_arr, tms_arr))
        self._src = np.ascontiguousarray(src_arr[order])
        self._dst = np.ascontiguousarray(dst_arr[order])
        self._tms = np.ascontiguousarray(tms_arr[order])
        # snapshot boundaries: _time_starts[k] .. _time_starts[k+1] rows belong to time code k
        self._time_starts = np.searchsorted(self._tms, np.arange(len(time_labels) + 1))

        self._active_codes_per_time: list[np.ndarray] = []
        for k in range(len(time_labels)):
            lo, hi = self._time_starts[k], self._time_starts[k + 1]
            s, d = self._src[lo:hi], self._dst[lo:hi]
            mask = s != d
            if hi > lo:
                codes = np.unique(np.concatenate([s[mask], d[mask]]))
            else:
                codes = np.empty(0, dtype=np.int64)
            self._active_codes_per_time.append(codes)

    # ------------------------------------------------------------------ #
    # array accessors                                                     #
    # ------------------------------------------------------------------ #

    @property
    def source_codes(self) -> np.ndarray:
        """Integer source-node codes, sorted by (time, source, destination)."""
        return self._src

    @property
    def destination_codes(self) -> np.ndarray:
        """Integer destination-node codes, aligned with :attr:`source_codes`."""
        return self._dst

    @property
    def time_codes(self) -> np.ndarray:
        """Integer time codes, aligned with :attr:`source_codes`."""
        return self._tms

    @property
    def node_labels(self) -> list[Node]:
        """Node labels, indexable by node code."""
        return list(self._node_labels)

    @property
    def time_labels(self) -> list[Time]:
        """Timestamp labels, indexable by time code."""
        return list(self._time_labels)

    def node_code(self, node: Node) -> int:
        """Integer code of ``node`` (raises ``KeyError`` if absent)."""
        return self._node_index[node]

    def time_code(self, time: Time) -> int:
        """Integer code of ``time`` (raises :class:`TimestampNotFoundError` if absent)."""
        try:
            return self._time_index[time]
        except KeyError as exc:
            raise TimestampNotFoundError(time) from exc

    def num_nodes(self) -> int:
        """Number of distinct node labels."""
        return len(self._node_labels)

    def snapshot_arrays(self, time: Time) -> tuple[np.ndarray, np.ndarray]:
        """``(sources, destinations)`` integer-code arrays for the snapshot at ``time``."""
        k = self.time_code(time)
        lo, hi = self._time_starts[k], self._time_starts[k + 1]
        return self._src[lo:hi], self._dst[lo:hi]

    # ------------------------------------------------------------------ #
    # BaseEvolvingGraph primitives                                        #
    # ------------------------------------------------------------------ #

    @property
    def is_directed(self) -> bool:
        return self._directed

    @property
    def timestamps(self) -> Sequence[Time]:
        return tuple(self._time_labels)

    def edges_at(self, time: Time) -> Iterator[EdgeTuple]:
        s, d = self.snapshot_arrays(time)
        labels = self._node_labels
        for i in range(len(s)):
            yield (labels[s[i]], labels[d[i]])

    def out_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        code = self._node_index.get(node)
        if code is None:
            return iter(())
        s, d = self.snapshot_arrays(time)
        labels = self._node_labels
        out = [labels[x] for x in d[s == code]]
        if not self._directed:
            out.extend(labels[x] for x in s[d == code] if x != code)
        return iter(out)

    def in_neighbors_at(self, node: Node, time: Time) -> Iterator[Node]:
        code = self._node_index.get(node)
        if code is None:
            return iter(())
        s, d = self.snapshot_arrays(time)
        labels = self._node_labels
        out = [labels[x] for x in s[d == code]]
        if not self._directed:
            out.extend(labels[x] for x in d[s == code] if x != code)
        return iter(out)

    # ------------------------------------------------------------------ #
    # fast overrides                                                      #
    # ------------------------------------------------------------------ #

    def num_static_edges(self) -> int:
        return int(self._src.shape[0])

    def nodes(self) -> set[Node]:
        return set(self._node_labels)

    def active_nodes_at(self, time: Time) -> set[Node]:
        k = self.time_code(time)
        labels = self._node_labels
        return {labels[c] for c in self._active_codes_per_time[k]}

    def is_active(self, node: Node, time: Time) -> bool:
        code = self._node_index.get(node)
        if code is None:
            return False
        k = self.time_code(time)
        codes = self._active_codes_per_time[k]
        idx = np.searchsorted(codes, code)
        return bool(idx < codes.shape[0] and codes[idx] == code)

    def active_times(self, node: Node) -> list[Time]:
        code = self._node_index.get(node)
        if code is None:
            return []
        out = []
        for k, codes in enumerate(self._active_codes_per_time):
            idx = np.searchsorted(codes, code)
            if idx < codes.shape[0] and codes[idx] == code:
                out.append(self._time_labels[k])
        return out

    # ------------------------------------------------------------------ #
    # conversion helpers                                                  #
    # ------------------------------------------------------------------ #

    def to_triples(self) -> list[TemporalEdgeTuple]:
        """Materialise the edge list back into ``(u, v, t)`` label triples."""
        labels, times = self._node_labels, self._time_labels
        return [
            (labels[self._src[i]], labels[self._dst[i]], times[self._tms[i]])
            for i in range(self._src.shape[0])
        ]

    @classmethod
    def from_arrays(
        cls,
        sources: np.ndarray,
        destinations: np.ndarray,
        times: np.ndarray,
        *,
        directed: bool = True,
    ) -> "TemporalEdgeList":
        """Build directly from integer arrays, using the integers as labels."""
        sources = np.asarray(sources)
        destinations = np.asarray(destinations)
        times = np.asarray(times)
        if not (sources.shape == destinations.shape == times.shape):
            raise RepresentationError(
                "source/destination/time arrays must have equal shape"
            )
        triples = zip(sources.tolist(), destinations.tolist(), times.tolist())
        return cls(triples, directed=directed)
