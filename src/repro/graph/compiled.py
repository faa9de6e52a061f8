"""Shared compiled form of an evolving graph: the engine's execution artifact.

PR 1 taught the frontier engine to compile any evolving-graph representation
into per-snapshot CSR matrices, but the compilation lived inside
``FrontierKernel.__init__`` — every kernel rebuilt its own CSR stack, and the
dispatch cache guessed staleness from edge/timestamp counts.
:class:`CompiledTemporalGraph` moves that compilation into the graph layer as
a first-class, immutable artifact that every consumer shares:

* a **node index** — the sorted node universe and its label ↔ row mapping;
* the **forward stack** — one block-diagonal CSR over the ``T · N`` slots
  ``t · N + v`` whose diagonal block ``t`` is the snapshot operator
  ``F[t]``, with ``F[t][v, u] = 1`` iff the snapshot at ``t`` has the edge
  ``u -> v`` (symmetrized for undirected graphs, self-loops dropped per
  Definition 3).  It is the spatial part of the paper's block operator
  ``M_n``, so every BFS level is one advance over it;
* the **backward stack** ``F^T`` — the forward stack transposed, built
  lazily.  Stored row-major it is exactly the forward stack stored
  column-major, so each orientation's stack is the other's *twin*, the
  source order the push advance scatters along; an undirected stack is its
  own transpose and twin;
* per-snapshot **views** (:attr:`~CompiledTemporalGraph.forward_operators`,
  :attr:`~CompiledTemporalGraph.backward_operators`,
  :attr:`~CompiledTemporalGraph.symmetrized_operators`), each block sliced
  from a stack on first read, for the consumers that work one snapshot at
  a time (spectral and PageRank products, Tang's sweep);
* a ``(T, N)`` **activeness mask** (Definition 3);
* a weak reference to the source graph plus its ``mutation_version``
  stamp, which let caches decide *exactly* whether the artifact still
  describes that graph;
* the source graph's **per-snapshot version stamps** and a ``(T, N)``
  **label-presence matrix**, which together enable *delta compilation*
  (:meth:`CompiledTemporalGraph.recompile`): on a version bump the signed
  journal's net edits are spliced into every built stack in one pass, and
  the mask and presence change only at the edited endpoints.  Streaming
  workloads (Figure-5 growth, :func:`repro.generators.stream.apply_stream`,
  :class:`repro.algorithms.incremental.IncrementalBFS`) therefore pay per
  batch one O(batch) locate and one buffer copy per stack, never a
  recompilation of a snapshot.

The artifact is consumed by :class:`repro.engine.frontier.FrontierKernel`
(every BFS variant), by the vectorized analytics in :mod:`repro.algorithms`
(components hand the forward stack to ``csgraph``), by the time-shard layer
(:mod:`repro.graph.sharded` slices it into per-shard artifacts with
:meth:`~CompiledTemporalGraph.time_slice`, which the shard driver's process
workers own), and by the batch/scaling harnesses in :mod:`repro.parallel`
and :mod:`repro.analysis`, which compile once and reuse the artifact across
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

    ``forward_stack`` is the block-diagonal forward operator over the
    ``T · N`` slots (see :meth:`stack`); ``backward_stack``, its transpose,
    may be passed when already at hand (it is otherwise built on first use).
    """

    def __init__(
        self,
        *,
        node_labels: Sequence[Node],
        times: Sequence[Time],
        forward_stack: sp.csr_matrix,
        is_directed: bool,
        mutation_version: int,
        backward_stack: sp.csr_matrix | None = None,
        snapshot_versions: dict[Time, int] | None = None,
        active_mask: np.ndarray | None = None,
        label_presence: np.ndarray | None = None,
        node_index: dict[Node, int] | None = None,
    ) -> None:
        if not times:
            raise GraphError("CompiledTemporalGraph requires at least one snapshot")
        self._labels: list[Node] = list(node_labels)
        if node_index is None:  # delta recompilation and shards pass theirs
            node_index = {v: i for i, v in enumerate(self._labels)}
        self._node_index: dict[Node, int] = node_index
        self._times: list[Time] = list(times)
        self._time_index: dict[Time, int] = {t: i for i, t in enumerate(self._times)}
        self._n = len(self._labels)
        slots = len(self._times) * self._n
        if forward_stack.shape != (slots, slots):
            raise GraphError(
                f"a stack of shape {forward_stack.shape} does not span the "
                f"{slots} slots of {len(self._times)} snapshots over "
                f"{self._n} nodes"
            )
        self._directed = bool(is_directed)
        self._forward: sp.csr_matrix = forward_stack
        # the backward stack of a directed artifact (an undirected stack is
        # its own transpose), and whether it was asked for as an orientation
        # rather than built as the forward push's twin
        self._backward: sp.csr_matrix | None = (
            backward_stack if self._directed else None
        )
        self._backward_used = backward_stack is not None
        # per-snapshot views, sliced from a stack on first read
        self._views: dict[bool, list[sp.csr_matrix]] = {}
        self._symmetrized_built = False
        self._version = int(mutation_version)
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
        #: ``{"rebuilt": <edited or new snapshot count>, "reused": <rest>}``.
        self.delta_stats: dict[str, int] | None = None
        # the graph compiled from, held weakly; only from_graph and recompile
        # set it, so a hand-built or unpickled artifact is current for none
        self._source: weakref.ref | None = None

        if active_mask is None:
            active = _active_row(forward_stack).reshape(len(self._times), self._n)
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

        Matrix-sequence graphs are adopted matrix by matrix into the backward
        stack (their adjacency orientation), whose transpose is the forward
        one; every other representation is bulk-compiled from one pass over
        ``temporal_edges_unordered()`` into one slot-indexed COO.
        """
        times = list(graph.timestamps)
        if not times:
            raise GraphError("cannot compile an evolving graph with no snapshots")
        version = graph.mutation_version
        if isinstance(graph, MatrixSequenceEvolvingGraph):
            labels: list[Node] = graph.node_labels
            backward = _matrix_stack(
                [graph.symmetrized_matrix_at(t).astype(np.int32) for t in times]
            )
            forward = _transposed(backward)
            presence: np.ndarray | None = None
        else:
            labels, forward, presence = _compile_forward_stack(graph, times)
            backward = None
        artifact = cls(
            node_labels=labels,
            times=times,
            forward_stack=forward,
            is_directed=graph.is_directed,
            mutation_version=version,
            backward_stack=backward,
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
        """Recompile ``graph`` by splicing its net edits into ``previous``'s stacks.

        When ``previous`` is current (:meth:`is_current`) it is returned
        unchanged.  Otherwise the graph's per-snapshot stamps
        (:meth:`BaseEvolvingGraph.snapshot_versions
        <repro.graph.base.BaseEvolvingGraph.snapshot_versions>`) name the
        dirty snapshots, and its signed mutation journal
        (:meth:`BaseEvolvingGraph.edge_mutations_since
        <repro.graph.base.BaseEvolvingGraph.edge_mutations_since>`) gives the
        net insertions and removals since ``previous``, which become
        slot-level entry edits.  Every stack ``previous`` built — the forward
        one, and the backward one when a search, a per-snapshot read or the
        push's twin built it — takes the edits in one splice
        (:func:`_splice`): each edit is located inside its own row's
        segment, then one copy of ``indices`` and one shift of ``indptr``
        patch the buffers.  A batch that adds snapshots first re-lays the
        stacks on the monotone map from old to new snapshot positions.  The
        activeness and presence rows change only at the batch's endpoints,
        removal endpoints being re-probed on the graph.  The cost is the
        touched rows' locate plus one O(nnz) buffer copy per built stack,
        and O(batch) Python work.  The node labels and index are shared with
        ``previous``.  The artifact is bit-identical to :meth:`from_graph`
        on the mutated graph, dtypes included (asserted by the hypothesis
        suites in ``tests/test_delta_streaming.py`` and
        ``tests/test_compiled_machine.py``), and its :attr:`delta_stats`
        records how many snapshots were edited or added vs left alone.

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
        with ``previous``'s stacks, a changed node universe (a new label
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
        prev_stamps = previous._snapshot_versions
        if any(t not in snap_now for t in prev_stamps):  # snapshot removed
            return cls.from_graph(graph)
        position = {t: k for k, t in enumerate(times)}
        fresh = [position[t] for t in times if t not in previous._time_index]
        dirty = fresh + [
            position[t]
            for t in previous._times
            if prev_stamps.get(t) != snap_now.get(t)
        ]
        if not dirty:
            # the version moved but no snapshot stamp did: unknown mutation
            return cls.from_graph(graph)
        mutations = graph.edge_mutations_since(previous._version)
        if mutations is None:  # no complete signed journal since `previous`
            return cls.from_graph(graph)
        index = previous._node_index
        try:
            added, removed = (_edge_indices(e, index, position) for e in mutations)
        except KeyError:  # the node universe grew
            return cls.from_graph(graph)
        edited = np.union1d(added[0], removed[0])
        if not np.isin(edited, dirty).all():
            return cls.from_graph(graph)  # inconsistent stamps
        if np.isin(removed[0], fresh).any():
            # net removals from a snapshot `previous` never compiled
            # contradict the journal contract — trust neither
            return cls.from_graph(graph)
        labels = previous._labels
        n = previous._n
        directed = previous._directed
        t_count = len(times)
        # old snapshot k sits at new position moved[k]; the map is monotone
        moved = np.array([position[t] for t in previous._times], dtype=np.int64)
        active = np.zeros((t_count, n), dtype=bool)
        presence = np.zeros((t_count, n), dtype=bool)
        active[moved] = previous._active
        presence[moved] = previous._presence
        # a removal endpoint stays active (present) iff the final graph still
        # gives it an edge to another node (any edge, self-loops included)
        # at t: probe only those endpoints
        cut_t, cut_u, cut_v = removed
        for key in np.unique(np.concatenate([cut_t * n + cut_u, cut_t * n + cut_v])):
            k, i = divmod(int(key), n)
            active[k, i] = graph.is_active(labels[i], times[k])
            presence[k, i] = _endpoint_present(graph, labels[i], times[k])
        # net insertions are final edges; self-loops activate nothing
        add_t, add_u, add_v = added
        links = add_u != add_v
        active[add_t[links], add_u[links]] = True
        active[add_t[links], add_v[links]] = True
        presence[add_t, add_u] = True
        presence[add_t, add_v] = True
        if not presence.any(axis=0).all():
            # a label lost its last appearance: the from-scratch universe
            # would shrink, so the reused index would no longer be identical
            return cls.from_graph(graph)
        insertions = _entries(add_t * n + add_u, add_t * n + add_v, directed)
        removals = _entries(cut_t * n + cut_u, cut_t * n + cut_v, directed)
        stacks: dict[bool, sp.csr_matrix] = {}
        for forward, stack in ((True, previous._forward), (False, previous._backward)):
            if stack is None:
                continue
            if fresh:
                stack = _relaid(stack, moved, n, t_count)
            # a backward entry is its forward entry with row and column swapped
            flip = slice(None, None, 1 if forward else -1)
            if insertions[0].size or removals[0].size:
                stack = _splice(stack, insertions[flip], removals[flip])
                if stack is None:  # the journal disagrees with `previous`
                    return cls.from_graph(graph)
            stacks[forward] = stack
        artifact = cls(
            node_labels=labels,
            times=times,
            forward_stack=stacks[True],
            is_directed=directed,
            mutation_version=version,
            snapshot_versions=snap_now,
            active_mask=active,
            label_presence=presence,
            node_index=index,
        )
        artifact._backward = stacks.get(False)
        artifact._backward_used = previous._backward_used
        artifact._source = previous._source
        rebuilt = len(set(fresh) | set(edited.tolist()))
        artifact.delta_stats = {"rebuilt": rebuilt, "reused": t_count - rebuilt}
        return artifact

    def time_slice(self, start: int, stop: int) -> "CompiledTemporalGraph":
        """The artifact of snapshots ``[start, stop)``, over the full node universe.

        Its stacks are the diagonal blocks of this artifact's (the whole
        range is this artifact's own stacks); the backward one comes along
        whenever it was built, and counts as asked for (:attr:`transposes_built`)
        only when it did here.  The node index is shared.  Like an unpickled
        artifact, a slice is current for no graph.
        """
        n = self._n
        part = CompiledTemporalGraph(
            node_labels=self._labels,
            times=self._times[start:stop],
            forward_stack=_block(self._forward, start, stop, n),
            is_directed=self._directed,
            mutation_version=self._version,
            active_mask=self._active[start:stop],
            node_index=self._node_index,
        )
        if self._backward is not None:
            part._backward = _block(self._backward, start, stop, n)
            part._backward_used = self._backward_used
        return part

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
        """Stored entries of the forward stack (summed over its snapshots)."""
        return int(self._forward.nnz)

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

    def stack(self, forward: bool = True) -> sp.csr_matrix:
        """The block-diagonal operator of one orientation over the ``T · N`` slots.

        Row and column ``t · N + v`` are node ``v`` at snapshot ``t``, and
        diagonal block ``t`` is that snapshot's operator: ``F[t]``
        (out-edge expansion) for ``forward``, ``F[t]^T`` (in-edge
        expansion) otherwise.  Every BFS level is one windowed advance over
        it.  A directed artifact builds its backward stack on first use.
        """
        if not forward:
            self._backward_used = True
        return self._stack(forward)

    def twin(self, forward: bool = True) -> sp.csr_matrix:
        """The column-major twin of ``stack(forward)``: the other orientation's stack.

        ``F^T`` stored row-major is ``F`` stored column-major, so the push
        advance scatters along the other orientation's rows (an undirected
        stack is its own twin).  Building it for that does not count as
        asking for the backward orientation: :attr:`transposes_built`, what
        :func:`repro.io.save_sharded` stores by default and a shard's
        residency bytes stay as they were.
        """
        return self._stack(not forward)

    def _stack(self, forward: bool) -> sp.csr_matrix:
        if forward or not self._directed:
            return self._forward
        if self._backward is None:
            self._backward = _transposed(self._forward)
        return self._backward

    def _snapshot_views(self, forward: bool) -> list[sp.csr_matrix]:
        """Each snapshot's block of one orientation's stack, sliced on first read."""
        key = forward or not self._directed
        views = self._views.get(key)
        if views is None:
            stack = self._stack(forward)
            n = self._n
            views = [_block(stack, k, k + 1, n) for k in range(len(self._times))]
            self._views[key] = views
        return views

    @property
    def forward_operators(self) -> list[sp.csr_matrix]:
        """Per-snapshot operators ``F[t]`` (out-edges): views of the forward stack."""
        return list(self._snapshot_views(True))

    @property
    def backward_operators(self) -> list[sp.csr_matrix]:
        """Per-snapshot transposes ``F[t]^T`` (in-edge expansion), built lazily.

        Views of the backward stack.  Forward-only workloads never ask for
        them, so :attr:`transposes_built` stays ``False`` for them (see
        ``tests/test_engine.py``).
        """
        self._backward_used = True
        return list(self._snapshot_views(False))

    @property
    def forward_twins(self) -> list[sp.csr_matrix]:
        """Per-snapshot column-major twins of :attr:`forward_operators`.

        Views of :meth:`twin`, for a push advance over one snapshot's
        operator (Tang's sweep); like :meth:`twin` they leave
        :attr:`transposes_built` as it was.
        """
        return list(self._snapshot_views(False))

    @property
    def transposes_built(self) -> bool:
        """Whether the backward orientation has been asked for.

        Always ``True`` for an undirected artifact, whose stack is its own
        transpose.  A directed one counts a backward or reverse-edge search,
        a read of :attr:`backward_operators` or :attr:`symmetrized_operators`,
        and a backward stack handed to the constructor — not the forward
        push's twin, which is the same stack built for the push alone.
        Stores and residency accounting carry the backward stack only once
        it was asked for.
        """
        return not self._directed or self._backward_used

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
        already symmetric (so its views are aliased), and the directed
        adjacency orientation is the transpose of the forward stack (so the
        backward views are aliased).  Frontier-only workloads therefore
        never pay for this property.
        """
        self._symmetrized_built = True
        if self._directed:
            # F[t] = A[t]^T, so the adjacency orientation is the backward one
            return self.backward_operators
        return self.forward_operators

    @property
    def symmetrized_built(self) -> bool:
        """Whether the symmetrized (spectral) stack has been materialized yet."""
        return self._symmetrized_built

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
        it.  Each stack travels once, as its three buffers: the views, a
        twin built only for the push and whatever the engine cached on a
        stack object stay behind, as does the weak reference to the source
        graph, so an unpickled artifact is current for no graph.
        """
        state = dict(self.__dict__)
        del state["_source"]
        state["_views"] = {}
        state["_forward"] = _buffers(self._forward)
        state["_backward"] = (
            _buffers(self._backward) if self._backward_used and self._directed else None
        )
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._source = None
        self._forward = _csr(*self._forward)
        if self._backward is not None:
            self._backward = _csr(*self._backward)
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
    """Activeness (Definition 3) of every row of a forward operator or stack.

    A node is active iff it touches any stored entry: a non-empty row
    (in-edge) or a column appearance (out-edge).  Read straight off the CSR
    structure — no scipy reduction dispatch.
    """
    active = np.diff(operator.indptr) > 0
    active[operator.indices] = True
    return active


def _entries(
    sources: np.ndarray, destinations: np.ndarray, directed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(rows, columns)`` stack entries of (source, destination) slot edges.

    Rows are destinations and columns sources (``F[t] = A[t]^T``).  An
    undirected edge makes both entries, and a self-loop none: self-loops
    never create activeness (Definition 3).
    """
    if not directed:
        sources, destinations = (
            np.concatenate([sources, destinations]),
            np.concatenate([destinations, sources]),
        )
    keep = sources != destinations
    return destinations[keep], sources[keep]


def _edge_indices(
    triples: Sequence[tuple], index: dict[Node, int], position: dict[Time, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(snapshot, source, destination)`` index arrays of ``(u, v, t)`` triples.

    Raises ``KeyError`` on a label outside ``index``.
    """
    count = len(triples)
    return (
        np.fromiter((position[t] for _, _, t in triples), np.int64, count),
        np.fromiter((index[u] for u, _, _ in triples), np.int64, count),
        np.fromiter((index[v] for _, v, _ in triples), np.int64, count),
    )


def _index_dtype(slots: int, nnz: int) -> np.dtype:
    """:func:`repro.engine.bitops.stacked_index_dtype`, looked up per call.

    The engine package imports this module, so the rule is imported here on
    first use rather than at module load.
    """
    from repro.engine import bitops

    return bitops.stacked_index_dtype(slots, nnz)


def _csr(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """A CSR over exactly these buffers, index dtypes included.

    scipy's constructor narrows int64 index buffers whose values fit int32;
    a stack keeps the dtype :func:`_index_dtype` chose for its size.
    """
    mat = sp.csr_matrix((data, indices, indptr), shape=shape)
    mat.indices, mat.indptr = indices, indptr
    return mat


def _buffers(mat: sp.csr_matrix) -> tuple:
    """The arguments of :func:`_csr` that rebuild ``mat``."""
    return mat.data, mat.indices, mat.indptr, mat.shape


def _coo_stack(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, slots: int
) -> sp.csr_matrix:
    """The canonical CSR over ``slots`` rows and columns of a slot-indexed COO.

    scipy's COO conversion sorts the entries and sums duplicates.
    """
    mat = sp.csr_matrix((data, (rows, cols)), shape=(slots, slots))
    index = _index_dtype(slots, mat.nnz)
    indices = mat.indices.astype(index, copy=False)
    return _csr(mat.data, indices, mat.indptr.astype(index, copy=False), mat.shape)


def _matrix_stack(mats: Sequence[sp.csr_matrix]) -> sp.csr_matrix:
    """The block-diagonal stack of ``T`` square ``(N, N)`` matrices, values kept."""
    n = mats[0].shape[0]
    coo = [m.tocoo() for m in mats]
    rows = np.concatenate([m.row.astype(np.int64) + k * n for k, m in enumerate(coo)])
    cols = np.concatenate([m.col.astype(np.int64) + k * n for k, m in enumerate(coo)])
    data = np.concatenate([m.data for m in coo])
    return _coo_stack(rows, cols, data, len(mats) * n)


def _transposed(stack: sp.csr_matrix) -> sp.csr_matrix:
    """``stack``'s transpose in canonical CSR: its column-major twin."""
    twin = stack.T.tocsr()
    index = _index_dtype(twin.shape[0], twin.nnz)
    indices = twin.indices.astype(index, copy=False)
    return _csr(twin.data, indices, twin.indptr.astype(index, copy=False), twin.shape)


def _block(stack: sp.csr_matrix, start: int, stop: int, n: int) -> sp.csr_matrix:
    """Snapshots ``[start, stop)`` of a stack as a stack of their own.

    Rows and columns are rebased to the block's first slot; ``data`` is a
    view of the stack's.  The whole range is the stack itself.
    """
    if start == 0 and stop * n == stack.shape[0]:
        return stack
    slots = (stop - start) * n
    first, last = int(stack.indptr[start * n]), int(stack.indptr[stop * n])
    index = _index_dtype(slots, last - first)
    indices = np.subtract(stack.indices[first:last], start * n, dtype=index)
    indptr = np.subtract(stack.indptr[start * n : stop * n + 1], first, dtype=index)
    return _csr(stack.data[first:last], indices, indptr, (slots, slots))


def _relaid(
    stack: sp.csr_matrix, moved: np.ndarray, n: int, t_count: int
) -> sp.csr_matrix:
    """``stack`` over ``t_count`` snapshots, old snapshot ``k`` now at ``moved[k]``.

    ``moved`` is monotone, so the entries keep their order: each moved
    snapshot's columns shift by its move, and every new snapshot gets ``N``
    empty rows at its position.
    """
    slots = t_count * n
    index = _index_dtype(slots, stack.nnz)
    ends = stack.indptr[np.arange(moved.size + 1) * n]
    indices = stack.indices.astype(index)
    for k, p in enumerate(moved.tolist()):
        if p != k:
            indices[ends[k] : ends[k + 1]] += (p - k) * n
    fresh = np.setdiff1d(np.arange(t_count), moved)
    before = np.searchsorted(moved, fresh) * n  # the row each new snapshot precedes
    indptr = np.insert(
        stack.indptr.astype(index),
        np.repeat(before, n),
        np.repeat(stack.indptr[before], n),
    )
    return _csr(stack.data, indices, indptr, (slots, slots))


def _splice(
    stack: sp.csr_matrix,
    insertions: tuple[np.ndarray, np.ndarray],
    removals: tuple[np.ndarray, np.ndarray],
) -> sp.csr_matrix | None:
    """``stack`` with the removed entries cut out and the inserted ones spliced in.

    ``insertions`` and ``removals`` are ``(rows, columns)`` slot arrays.
    Canonical CSR order sorts entries by the key ``row · S + column``, so
    each edit is located by ``searchsorted`` among the keys of its own row's
    segment — only the touched rows' entries are keyed.  Then one copy of
    ``indices`` (the runs between edits, with the inserted columns placed
    between them) and one shift of ``indptr`` by each row's count change
    give exactly the buffers a from-scratch build of the edited entry set
    holds, in the index dtype of the result's size.  ``None`` when a removed
    entry is not stored or an inserted one already is.
    """
    slots = stack.shape[0]
    indptr, indices = stack.indptr, stack.indices
    add_keys = np.sort(insertions[0] * slots + insertions[1])
    cut_keys = np.sort(removals[0] * slots + removals[1])
    rows = np.unique(np.concatenate([add_keys, cut_keys]) // slots)
    starts = indptr[rows].astype(np.int64)
    lens = indptr[rows + 1] - starts
    first = lens.cumsum() - lens  # where each touched row's keys begin
    held = (starts - first).repeat(lens) + np.arange(int(lens.sum()))
    keys = np.append(rows.repeat(lens) * slots + indices[held], np.iinfo(np.int64).max)
    cut = np.searchsorted(keys, cut_keys)
    at = np.searchsorted(keys, add_keys)
    if (keys[cut] != cut_keys).any() or (keys[at] == add_keys).any():
        return None
    add_rows, add_cols = np.divmod(add_keys, slots)
    # an inserted entry goes before its row's first entry keyed above it
    add_at = indptr[add_rows] + (at - first[np.searchsorted(rows, add_rows)])
    # the edits in buffer order, an insertion before a cut at its position
    where = np.concatenate([add_at, held[cut]])
    cuts = np.repeat([0, 1], [add_at.size, cut.size])
    order = np.lexsort((cuts, where))
    where, cuts = where[order], cuts[order]
    run_start = np.concatenate([[0], where + cuts])
    run_stop = np.append(where, indices.size)
    run_dst = run_start + np.concatenate([[0], np.cumsum(1 - 2 * cuts)])
    nnz = indices.size + add_keys.size - cut_keys.size
    index = _index_dtype(slots, nnz)
    out = np.empty(nnz, dtype=index)
    for a, b, d in zip(run_start.tolist(), run_stop.tolist(), run_dst.tolist()):
        out[d : d + b - a] = indices[a:b]
    out[(run_dst + run_stop - run_start)[:-1][cuts == 0]] = add_cols
    change = np.bincount(add_rows + 1, minlength=slots + 1)
    change -= np.bincount(cut_keys // slots + 1, minlength=slots + 1)
    shifted = (indptr + change.cumsum()).astype(index)
    return _csr(np.ones(nnz, dtype=np.int32), out, shifted, (slots, slots))


def _compile_forward_stack(
    graph: BaseEvolvingGraph, times: list[Time]
) -> tuple[list[Node], sp.csr_matrix, np.ndarray]:
    """Bulk-compile any representation into its forward stack.

    One pass over ``temporal_edges_unordered()`` indexes every edge, and one
    slot-indexed COO over the ``T · N`` slots builds the stack straight in
    its transposed-adjacency orientation (row = destination slot, column =
    source slot), its duplicates clamped to 0/1.  Also returns the
    ``(T, N)`` label-presence matrix delta recompilation diffs against.
    """
    time_index = {t: i for i, t in enumerate(times)}
    triples = list(graph.temporal_edges_unordered())
    label_set = {u for u, _, _ in triples} | {v for _, v, _ in triples}
    labels = sorted(label_set, key=repr)
    index = {v: i for i, v in enumerate(labels)}
    n = len(labels)
    t_idx, u_idx, v_idx = _edge_indices(triples, index, time_index)
    presence = np.zeros((len(times), n), dtype=bool)
    presence[t_idx, u_idx] = True
    presence[t_idx, v_idx] = True
    t_idx *= n  # the endpoints' slots, in place: the arrays are edge-sized
    u_idx += t_idx
    v_idx += t_idx
    rows, cols = _entries(u_idx, v_idx, graph.is_directed)
    stack = _coo_stack(rows, cols, np.ones(rows.size, dtype=np.int32), len(times) * n)
    stack.data[:] = 1
    return labels, stack, presence
