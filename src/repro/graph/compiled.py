"""Shared compiled form of an evolving graph: the engine's execution artifact.

PR 1 taught the frontier engine to compile any evolving-graph representation
into per-snapshot CSR matrices, but the compilation lived inside
``FrontierKernel.__init__`` — every kernel rebuilt its own CSR stack, and the
dispatch cache guessed staleness from edge/timestamp counts.
:class:`CompiledTemporalGraph` moves that compilation into the graph layer as
a first-class, immutable artifact that every consumer shares:

* a **node index** — the sorted node universe and its label ↔ row mapping;
* the **forward-operator stack** ``F[t]`` — one CSR matrix per snapshot with
  ``F[t][v, u] = 1`` iff the snapshot at ``t`` has the edge ``u -> v``
  (symmetrized for undirected graphs, self-loops dropped per Definition 3),
  so ``F[t] @ x`` advances a frontier block along out-edges;
* the **backward-operator stack** ``F[t]^T`` — built *lazily* on first use,
  because forward-only workloads (the overwhelming majority) never apply it;
* the **symmetrized (spectral) stack** ``S[t]`` — the adjacency orientation
  the Grindrod–Higham communicability/walk family operates on, derived
  lazily at zero compilation cost (it aliases the forward stack for
  undirected graphs and the backward stack for directed ones);
* a ``(T, N)`` **activeness mask** (Definition 3);
* a weak reference to the source graph plus its ``mutation_version``
  stamp, which let caches decide *exactly* whether the artifact still
  describes that graph;
* the source graph's **per-snapshot version stamps** and a ``(T, N)``
  **label-presence matrix**, which together enable *delta compilation*
  (:meth:`CompiledTemporalGraph.recompile`): on a version bump, only the
  snapshots whose stamps moved are recompiled — the untouched snapshots'
  CSR operators, transposes, activeness-mask rows and presence rows are
  shared (the very same objects) with the previous artifact.  Streaming
  workloads (Figure-5 growth, :func:`repro.generators.stream.apply_stream`,
  :class:`repro.algorithms.incremental.IncrementalBFS`) therefore pay per
  batch only for the snapshots the batch touched.

The artifact is consumed by :class:`repro.engine.frontier.FrontierKernel`
(every BFS variant), by the vectorized analytics in :mod:`repro.algorithms`
(components build a temporal block matrix straight from the operator stack),
by the time-shard layer (:mod:`repro.graph.sharded` slices it into
per-shard artifacts, which the shard driver's process workers own), and by
the batch/scaling harnesses in :mod:`repro.parallel` and
:mod:`repro.analysis`, which compile once and reuse the artifact across
sweep repeats.  Use :func:`repro.engine.get_compiled` for the cached path;
construct directly only when an uncached snapshot is wanted.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.adjacency_matrix import MatrixSequenceEvolvingGraph
from repro.graph.base import BaseEvolvingGraph, Node, Time

__all__ = ["CompiledTemporalGraph"]


class CompiledTemporalGraph:
    """Immutable sparse compilation of one evolving graph.

    Build with :meth:`from_graph` (or ``graph.compile()``); prefer the cached
    :func:`repro.engine.get_compiled` in application code.  The artifact is a
    *snapshot*: mutating the source graph afterwards does not update it, but
    :meth:`is_current` (the source graph's identity and the stored
    :attr:`mutation_version`) tells caches exactly when a rebuild is required.
    """

    def __init__(
        self,
        *,
        node_labels: Sequence[Node],
        times: Sequence[Time],
        forward_operators: Sequence[sp.csr_matrix],
        is_directed: bool,
        mutation_version: int,
        backward_operators: Sequence[sp.csr_matrix] | None = None,
        snapshot_versions: dict[Time, int] | None = None,
        active_mask: np.ndarray | None = None,
        label_presence: np.ndarray | None = None,
        node_index: dict[Node, int] | None = None,
    ) -> None:
        if not times:
            raise GraphError("CompiledTemporalGraph requires at least one snapshot")
        if len(forward_operators) != len(times):
            raise GraphError(
                f"got {len(forward_operators)} operators for {len(times)} snapshots"
            )
        self._labels: list[Node] = list(node_labels)
        if node_index is None:  # delta recompilation passes its previous one
            node_index = {v: i for i, v in enumerate(self._labels)}
        self._node_index: dict[Node, int] = node_index
        self._times: list[Time] = list(times)
        self._time_index: dict[Time, int] = {t: i for i, t in enumerate(self._times)}
        self._forward: list[sp.csr_matrix] = list(forward_operators)
        self._backward: list[sp.csr_matrix] | None = (
            list(backward_operators) if backward_operators is not None else None
        )
        # the spectral (symmetrized-adjacency) stack is derived lazily from
        # the other two; see :attr:`symmetrized_operators`
        self._symmetrized: list[sp.csr_matrix] | None = None
        self._directed = bool(is_directed)
        self._version = int(mutation_version)
        self._n = int(self._forward[0].shape[0]) if self._forward else 0
        # per-snapshot source-graph stamps and the (T, N) label-presence
        # matrix: both None when the source offers no per-snapshot tracking,
        # in which case recompile() always falls back to a full rebuild
        self._snapshot_versions: dict[Time, int] | None = (
            dict(snapshot_versions) if snapshot_versions is not None else None
        )
        if label_presence is not None:
            label_presence = np.asarray(label_presence, dtype=bool)
            label_presence.setflags(write=False)
        self._presence: np.ndarray | None = label_presence
        #: Set by :meth:`recompile` when the delta path ran:
        #: ``{"rebuilt": <dirty snapshot count>, "reused": <shared count>}``.
        self.delta_stats: dict[str, int] | None = None
        # the graph compiled from, held weakly; only from_graph and recompile
        # set it, so a hand-built or unpickled artifact is current for none
        self._source: weakref.ref | None = None

        if active_mask is None:
            active = np.zeros((len(self._times), self._n), dtype=bool)
            for k, m in enumerate(self._forward):
                active[k] = _active_row(m)
        else:
            active = np.asarray(active_mask, dtype=bool)
        active.setflags(write=False)
        self._active = active

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, graph: BaseEvolvingGraph) -> "CompiledTemporalGraph":
        """Compile any evolving-graph representation into the shared artifact.

        Matrix-sequence graphs are adopted matrix-by-matrix (both operator
        stacks come for free); every other representation is bulk-compiled
        from one pass over ``temporal_edges_unordered()``.  For undirected
        graphs the forward operators are symmetric, so the backward stack
        aliases the forward one at zero cost.
        """
        times = list(graph.timestamps)
        if not times:
            raise GraphError("cannot compile an evolving graph with no snapshots")
        version = graph.mutation_version
        if isinstance(graph, MatrixSequenceEvolvingGraph):
            labels: list[Node] = graph.node_labels
            pull = [graph.symmetrized_matrix_at(t).astype(np.int32) for t in times]
            push = [m.T.tocsr() for m in pull]
            backward: list[sp.csr_matrix] | None = pull
            presence: np.ndarray | None = None
        else:
            labels, push, presence = _compile_forward_operators(graph, times)
            backward = push if not graph.is_directed else None
        artifact = cls(
            node_labels=labels,
            times=times,
            forward_operators=push,
            is_directed=graph.is_directed,
            mutation_version=version,
            backward_operators=backward,
            snapshot_versions=graph.snapshot_versions(),
            label_presence=presence,
        )
        artifact._source = weakref.ref(graph)
        return artifact

    @classmethod
    def recompile(
        cls,
        graph: BaseEvolvingGraph,
        previous: "CompiledTemporalGraph | None",
    ) -> "CompiledTemporalGraph":
        """Recompile ``graph``, patching only ``previous``'s dirty snapshots.

        When ``previous`` is current (:meth:`is_current`) it is returned
        unchanged.  Otherwise the graph's per-snapshot stamps
        (:meth:`BaseEvolvingGraph.snapshot_versions
        <repro.graph.base.BaseEvolvingGraph.snapshot_versions>`) name the
        dirty snapshots, and its signed mutation journal
        (:meth:`BaseEvolvingGraph.edge_mutations_since
        <repro.graph.base.BaseEvolvingGraph.edge_mutations_since>`) gives the
        net insertions and removals since ``previous``.  Each dirty operator
        is spliced in its canonical CSR buffers (:func:`_splice_operator`),
        and its activeness and presence rows change only at the batch's
        endpoints, removal endpoints being re-probed on the graph: O(batch)
        Python work plus O(touched nnz) at C speed.  Every clean snapshot
        *shares its objects* (operator, transpose, mask and presence rows)
        with ``previous``, and so do the node labels and index.  The artifact
        is bit-identical to :meth:`from_graph` on the mutated graph, dtypes
        included (asserted by the hypothesis suite in
        ``tests/test_delta_streaming.py``), and its :attr:`delta_stats`
        records how many snapshots were rebuilt vs reused.

        This is the package's one incremental path.  Everything derived from
        the artifact is rebuilt from the patched result: a shard driver's
        owner re-slices it (:meth:`ShardedTemporalGraph.from_compiled
        <repro.graph.sharded.ShardedTemporalGraph.from_compiled>`), a store
        version is written with :func:`repro.io.save_sharded`, and a fresh
        :class:`~repro.engine.spectral.SpectralKernel` starts with empty
        caches.

        Every other case is a full :meth:`from_graph` build (``delta_stats``
        stays ``None``): an artifact compiled from another graph object (or
        hand-built, or unpickled), a graph without per-snapshot stamps or
        without a complete signed journal since ``previous`` (every
        representation but the adjacency list, and an adjacency list whose
        journal was trimmed past ``previous``), a journal that disagrees
        with ``previous``'s operators, a changed node universe (a new label
        appeared, or a label lost its last appearance), removed snapshots,
        or a directedness flip.
        """
        if previous is None or not previous._compiled_from(graph):
            return cls.from_graph(graph)
        version = graph.mutation_version
        if version == previous._version:
            return previous
        snap_now = graph.snapshot_versions()
        if (
            snap_now is None
            or previous._snapshot_versions is None
            or previous._presence is None
            or previous._directed != graph.is_directed
        ):
            return cls.from_graph(graph)
        times = list(graph.timestamps)
        if not times:
            return cls.from_graph(graph)  # raises the usual GraphError
        prev_pos = previous._time_index
        prev_stamps = previous._snapshot_versions
        if any(t not in snap_now for t in prev_stamps):  # snapshot removed
            return cls.from_graph(graph)
        dirty = [
            t
            for t in times
            if t not in prev_pos or prev_stamps.get(t) != snap_now.get(t)
        ]
        if not dirty:
            # the version moved but no snapshot stamp did: unknown mutation
            return cls.from_graph(graph)
        labels = previous._labels
        index = previous._node_index
        n = previous._n
        directed = previous._directed
        mutations = graph.edge_mutations_since(previous._version)
        if mutations is None:  # no complete signed journal since `previous`
            return cls.from_graph(graph)
        # the signed journal nets the window to per-snapshot insertion and
        # removal sets: time -> (source indices, destination indices)
        added: dict[Time, tuple[list[int], list[int]]] = {}
        removed: dict[Time, tuple[list[int], list[int]]] = {}
        for triples, buckets in zip(mutations, (added, removed)):
            for u, v, t in triples:
                iu = index.get(u)
                iv = index.get(v)
                if iu is None or iv is None:  # node universe grew
                    return cls.from_graph(graph)
                bucket = buckets.setdefault(t, ([], []))
                bucket[0].append(iu)
                bucket[1].append(iv)
        if not set(dirty).issuperset(added.keys() | removed.keys()):
            return cls.from_graph(graph)  # inconsistent stamps
        rebuilt: dict[Time, tuple[sp.csr_matrix, np.ndarray, np.ndarray]] = {}
        shared_dirty: set[Time] = set()
        for t in dirty:
            adds = added.get(t, ((), ()))
            rems = removed.get(t, ((), ()))
            k = prev_pos.get(t)
            u_idx = np.asarray(adds[0], dtype=np.int64)
            v_idx = np.asarray(adds[1], dtype=np.int64)
            if k is None:
                # net removals from a snapshot `previous` never compiled
                # contradict the journal contract — trust neither
                if t in removed:
                    return cls.from_graph(graph)
                op = _snapshot_operator(u_idx, v_idx, n, directed)
                mask_row = _active_row(op)
                presence_row = np.zeros(n, dtype=bool)
            elif t not in added and t not in removed:
                # stamp moved but the window netted to nothing here
                # (insert-then-remove pairs, or an exotic stamp bump):
                # journal completeness says the edge set is unchanged, so
                # the previous objects are still exact
                shared_dirty.add(t)
                continue
            else:
                op = _splice_operator(previous._forward[k], adds, rems, n, directed)
                if op is None:  # the journal disagrees with `previous`
                    return cls.from_graph(graph)
                mask_row = previous._active[k].copy()
                presence_row = previous._presence[k].copy()
                # a removal endpoint stays active (present) iff the final
                # graph still gives it an edge to another node (any edge,
                # self-loops included) at t: probe only those endpoints
                for i in {*rems[0], *rems[1]}:
                    mask_row[i] = graph.is_active(labels[i], t)
                    presence_row[i] = _endpoint_present(graph, labels[i], t)
                # net insertions are final edges; self-loops activate nothing
                links = u_idx != v_idx
                mask_row[u_idx[links]] = True
                mask_row[v_idx[links]] = True
            presence_row[u_idx] = True
            presence_row[v_idx] = True
            rebuilt[t] = (op, mask_row, presence_row)
        # the undirected backward stack aliases the forward one, so only
        # directed artifacts carry distinct transposes worth patching
        patch_backward = directed and previous._backward is not None
        forward: list[sp.csr_matrix] = []
        backward: list[sp.csr_matrix] | None = [] if patch_backward else None
        mask_rows: list[np.ndarray] = []
        presence_rows: list[np.ndarray] = []
        reused = 0
        for t in times:
            if t in rebuilt:
                op, mask_row, presence_row = rebuilt[t]
                forward.append(op)
                mask_rows.append(mask_row)
                presence_rows.append(presence_row)
                if patch_backward:
                    backward.append(op.T.tocsr())
            else:
                k = prev_pos[t]
                forward.append(previous._forward[k])
                mask_rows.append(previous._active[k])
                presence_rows.append(previous._presence[k])
                if patch_backward:
                    backward.append(previous._backward[k])
                reused += 1
        presence = np.stack(presence_rows) if n else np.zeros((len(times), 0), bool)
        if not presence.any(axis=0).all():
            # a label lost its last appearance: the from-scratch universe
            # would shrink, so the reused index would no longer be identical
            return cls.from_graph(graph)
        if not directed:
            backward = forward
        artifact = cls(
            node_labels=labels,
            times=times,
            forward_operators=forward,
            is_directed=directed,
            mutation_version=version,
            backward_operators=backward,
            snapshot_versions=snap_now,
            active_mask=np.stack(mask_rows) if n else np.zeros((len(times), 0), bool),
            label_presence=presence,
            node_index=index,
        )
        artifact._source = previous._source
        artifact.delta_stats = {
            "rebuilt": len(dirty) - len(shared_dirty),
            "reused": reused,
        }
        return artifact

    # ------------------------------------------------------------------ #
    # structure                                                           #
    # ------------------------------------------------------------------ #

    @property
    def node_labels(self) -> list[Node]:
        """Node labels indexing operator rows/columns."""
        return list(self._labels)

    @property
    def node_index(self) -> dict[Node, int]:
        """Mapping from node label to its row/column index."""
        return dict(self._node_index)

    @property
    def times(self) -> tuple[Time, ...]:
        """Snapshot labels, in time order."""
        return tuple(self._times)

    @property
    def time_index(self) -> dict[Time, int]:
        """Mapping from timestamp label to its snapshot position."""
        return dict(self._time_index)

    @property
    def num_nodes(self) -> int:
        """Size ``N`` of the shared node universe."""
        return self._n

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T``."""
        return len(self._times)

    @property
    def nnz(self) -> int:
        """Stored entries summed over all snapshot operators."""
        return int(sum(m.nnz for m in self._forward))

    @property
    def is_directed(self) -> bool:
        """Whether the source graph was directed."""
        return self._directed

    @property
    def mutation_version(self) -> int:
        """The source graph's mutation version at compile time."""
        return self._version

    @property
    def snapshot_versions(self) -> dict[Time, int] | None:
        """Per-snapshot source stamps at compile time (``None`` when untracked)."""
        if self._snapshot_versions is None:
            return None
        return dict(self._snapshot_versions)

    @property
    def label_presence(self) -> np.ndarray | None:
        """Read-only ``(T, N)`` matrix: label appears in an edge of snapshot ``t``.

        Unlike :attr:`active_mask` this includes self-loop-only appearances
        (which put a label in the node universe without activating it), so it
        is exactly the information delta recompilation needs to prove the
        universe unchanged.  ``None`` when the artifact was built without
        per-snapshot tracking (matrix-sequence adoption).
        """
        return self._presence

    @property
    def active_mask(self) -> np.ndarray:
        """Read-only ``(T, N)`` boolean activeness mask (Definition 3)."""
        return self._active

    def is_current(self, graph: BaseEvolvingGraph) -> bool:
        """Whether this artifact was compiled from ``graph`` and still describes it.

        Every graph counts mutation versions from the same start, so only the
        graph object the artifact was (delta-)compiled from can match.  A
        hand-built or unpickled artifact is current for no graph.
        """
        return self._compiled_from(graph) and graph.mutation_version == self._version

    def _compiled_from(self, graph: BaseEvolvingGraph) -> bool:
        """Whether ``graph`` is the very object this artifact was compiled from."""
        return self._source is not None and self._source() is graph

    # ------------------------------------------------------------------ #
    # operator stacks                                                     #
    # ------------------------------------------------------------------ #

    @property
    def forward_operators(self) -> list[sp.csr_matrix]:
        """Per-snapshot CSR stack ``F[t]`` advancing frontiers along out-edges."""
        return list(self._forward)

    @property
    def backward_operators(self) -> list[sp.csr_matrix]:
        """Per-snapshot transposes ``F[t]^T`` (in-edge expansion), built lazily.

        Forward-only workloads never touch this property, so they never pay
        for the transpose conversion (see ``tests/test_engine.py``).
        """
        if self._backward is None:
            self._backward = [m.T.tocsr() for m in self._forward]
        return list(self._backward)

    @property
    def transposes_built(self) -> bool:
        """Whether the backward-operator stack has been materialized yet."""
        return self._backward is not None

    @property
    def symmetrized_operators(self) -> list[sp.csr_matrix]:
        """Per-snapshot stack ``S[t]`` in the adjacency orientation, built lazily.

        This is the matrix family the spectral/walk-counting baselines
        (Grindrod–Higham communicability, dynamic-walk counts) operate on —
        exactly :meth:`MatrixSequenceEvolvingGraph.symmetrized_matrix_at
        <repro.graph.adjacency_matrix.MatrixSequenceEvolvingGraph.symmetrized_matrix_at>`
        compiled onto the artifact: for directed graphs ``S[t] = A[t]``
        (``S[t][u, v] = 1`` iff the edge ``u -> v`` exists at ``t``), for
        undirected graphs the 0/1-clamped ``A[t] + A[t]^T``.  Self-loops are
        dropped, matching the matrix-sequence normalization.

        No new matrices are ever compiled: the undirected forward stack *is*
        already symmetric (so it is aliased at zero cost), and the directed
        adjacency orientation is the transpose of the forward stack (so the
        lazily built backward stack is aliased).  Frontier-only workloads
        therefore never pay for this property.
        """
        if self._symmetrized is None:
            if self._directed:
                # F[t] = A[t]^T, so the adjacency orientation is the
                # (lazily built) backward stack
                self._symmetrized = self.backward_operators
            else:
                self._symmetrized = self._forward
        return list(self._symmetrized)

    @property
    def symmetrized_built(self) -> bool:
        """Whether the symmetrized (spectral) stack has been materialized yet."""
        return self._symmetrized is not None

    # ------------------------------------------------------------------ #
    # point queries                                                       #
    # ------------------------------------------------------------------ #

    def is_active(self, node: Node, time: Time) -> bool:
        """Whether ``(node, time)`` is active (Definition 3), per the compiled mask."""
        ti = self._time_index.get(time)
        vi = self._node_index.get(node)
        if ti is None or vi is None:
            return False
        return bool(self._active[ti, vi])

    def slot(self, node: Node, time: Time) -> tuple[int, int] | None:
        """The ``(time index, node index)`` of a temporal node, or ``None``."""
        ti = self._time_index.get(time)
        vi = self._node_index.get(node)
        if ti is None or vi is None:
            return None
        return ti, vi

    # ------------------------------------------------------------------ #
    # serialization                                                       #
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        """Pickle support: the artifact is what crosses a process boundary.

        :class:`~repro.engine.sharded_sweep.ShardedSweepDriver` with
        ``backend="process"`` ships each shard's artifact — never the source
        graph — to the worker that owns it, which builds its kernel over
        it.  Everything inside (CSR stacks, index dicts, the activeness
        mask) pickles natively; the weak reference to the source graph is
        dropped, so an unpickled artifact is current for no graph.
        """
        state = dict(self.__dict__)
        del state["_source"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._source = None
        # NumPy pickling does not preserve the WRITEABLE flag; re-freeze the
        # mask (and presence matrix) so the immutability contract survives
        # the round trip.
        self._active.setflags(write=False)
        if self._presence is not None:
            self._presence.setflags(write=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CompiledTemporalGraph snapshots={self.num_snapshots} "
            f"nodes={self.num_nodes} nnz={self.nnz} "
            f"version={self._version} directed={self._directed}>"
        )


def _endpoint_present(graph: BaseEvolvingGraph, node: Node, time: Time) -> bool:
    """Whether ``node`` still touches any edge at ``time`` in ``graph``.

    Presence (unlike activeness) counts self-loops, so it cannot be read off
    the compiled operator; both directions are probed because a directed
    node may survive on in-edges alone.
    """
    if next(graph.out_neighbors_at(node, time), None) is not None:
        return True
    return next(graph.in_neighbors_at(node, time), None) is not None


def _active_row(operator: sp.csr_matrix) -> np.ndarray:
    """One snapshot's activeness row (Definition 3) off its forward operator.

    A node is active iff it touches any stored entry: a non-empty row
    (in-edge) or a column appearance (out-edge).  Read straight off the CSR
    structure — no scipy reduction dispatch on the hot recompile path.
    """
    active = np.diff(operator.indptr) > 0
    active[operator.indices] = True
    return active


def _entries(
    sources: Sequence[int], destinations: Sequence[int], directed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows, columns)`` operator entries of (source, destination) edges.

    Rows are destinations and columns sources (``F[t] = A[t]^T``).  An
    undirected edge makes both entries, and a self-loop none: self-loops
    never create activeness (Definition 3).
    """
    u_idx = np.asarray(sources, dtype=np.int64)
    v_idx = np.asarray(destinations, dtype=np.int64)
    if not directed:
        u_idx, v_idx = np.concatenate([u_idx, v_idx]), np.concatenate([v_idx, u_idx])
    keep = u_idx != v_idx
    return v_idx[keep], u_idx[keep]


def _snapshot_operator(
    u_idx: np.ndarray, v_idx: np.ndarray, n: int, directed: bool
) -> sp.csr_matrix:
    """One snapshot's canonical CSR forward operator from (source, destination) indices.

    Every operator starts here: :meth:`CompiledTemporalGraph.from_graph`
    calls it per snapshot, and :meth:`~CompiledTemporalGraph.recompile` for
    a snapshot its previous artifact never compiled.  scipy's COO conversion sorts the
    entries and sums duplicates, which are clamped to 0/1.
    """
    rows, cols = _entries(u_idx, v_idx, directed)
    op = sp.csr_matrix((np.ones(rows.size, dtype=np.int32), (rows, cols)), shape=(n, n))
    op.sum_duplicates()
    if op.nnz:
        op.data[:] = 1
    return op


def _splice_operator(
    op: sp.csr_matrix,
    insertions: tuple[Sequence[int], Sequence[int]],
    removals: tuple[Sequence[int], Sequence[int]],
    n: int,
    directed: bool,
) -> sp.csr_matrix | None:
    """``op`` with the removed edges' entries cut out and the inserted ones spliced in.

    Canonical CSR order sorts the entries by the key ``row * n + column``,
    so ``searchsorted`` finds every edit, one ``np.delete`` and one
    ``np.insert`` patch ``indices``, and ``indptr`` shifts by each row's
    count change: exactly the buffers :func:`_snapshot_operator` builds from
    the patched edge set.  ``None`` when a removed entry is not stored or an
    inserted one already is.
    """

    def sorted_keys(edges):
        rows, cols = _entries(*edges, directed)
        return np.sort(rows * n + cols)

    add_keys, cut_keys = sorted_keys(insertions), sorted_keys(removals)
    starts = np.arange(0, n * n, n, dtype=np.int64)
    keys = np.repeat(starts, np.diff(op.indptr)) + op.indices
    cut = np.searchsorted(keys, cut_keys)
    at = np.searchsorted(keys, add_keys)
    if not np.array_equal(np.searchsorted(keys, cut_keys, side="right"), cut + 1):
        return None
    if not np.array_equal(np.searchsorted(keys, add_keys, side="right"), at):
        return None
    add_rows, add_cols = np.divmod(add_keys, n)
    # an insertion lands after every earlier-keyed entry the cut left
    at -= np.searchsorted(cut, at)
    indices = np.insert(np.delete(op.indices, cut), at, add_cols)
    delta = np.bincount(add_rows, minlength=n) - np.bincount(cut_keys // n, minlength=n)
    indptr = op.indptr + np.concatenate([[0], np.cumsum(delta)]).astype(np.int32)
    data = np.ones(indices.size, dtype=np.int32)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def _compile_forward_operators(
    graph: BaseEvolvingGraph, times: list[Time]
) -> tuple[list[Node], list[sp.csr_matrix], np.ndarray]:
    """Bulk-compile any representation into the per-snapshot forward stack.

    One pass over ``temporal_edges_unordered()`` indexes every edge, then
    :func:`_snapshot_operator` builds each snapshot's operator straight in
    its transposed-adjacency orientation (row = destination, column =
    source), so no separate transpose pass is ever needed for forward
    traversal.  Also returns the ``(T, N)`` label-presence matrix delta
    recompilation diffs against.
    """
    time_index = {t: i for i, t in enumerate(times)}
    triples = list(graph.temporal_edges_unordered())
    label_set = {u for u, _, _ in triples} | {v for _, v, _ in triples}
    labels = sorted(label_set, key=repr)
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    count = len(triples)
    u_idx = np.fromiter((index[u] for u, _, _ in triples), dtype=np.int64, count=count)
    v_idx = np.fromiter((index[v] for _, v, _ in triples), dtype=np.int64, count=count)
    t_gen = (time_index[t] for _, _, t in triples)
    t_idx = np.fromiter(t_gen, dtype=np.int64, count=count)
    presence = np.zeros((len(times), n), dtype=bool)
    presence[t_idx, u_idx] = True
    presence[t_idx, v_idx] = True
    directed = graph.is_directed
    masks = [t_idx == k for k in range(len(times))]
    mats = [_snapshot_operator(u_idx[m], v_idx[m], n, directed) for m in masks]
    return labels, mats, presence
