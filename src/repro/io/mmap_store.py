"""Memory-mapped shard store: compiled operators on disk, paged in on demand.

The second storage regime of :class:`~repro.graph.sharded.ShardedTemporalGraph`
(the first slices an in-memory artifact): every shard's per-snapshot CSR
buffers live in flat binary files inside a *versioned* directory, and
:func:`load_sharded` reopens them through ``np.memmap`` — so a graph whose
monolithic compilation would exceed a process's memory budget streams
through the page cache one shard at a time.

Directory layout (the storage spec the README documents)::

    <root>/
      v<mutation_version>/
        manifest.json                     format tag, labels, times, layout
        active_mask.bin                   (T, N) bool, C order
        shard-0000.forward.data.bin       concatenated per-snapshot CSR data
        shard-0000.forward.indices.bin    ... column indices
        shard-0000.forward.indptr.bin     T_i stacked (N + 1)-long indptrs
        shard-0000.backward.*.bin         transposes, when stored
        ...

Buffers are canonicalized to int32 (the compiler's native dtype); snapshot
``k`` of a shard owns ``data[offsets[k]:offsets[k+1]]`` per the manifest's
per-snapshot nnz list, so a shard opens straight into its block-diagonal
stacks: the mapped ``data``, one offset add over ``indices`` and one rebase
of the ``indptr`` rows.  Each mutation version gets its own
``v<N>`` directory: a store never describes two graph states at once, and
:meth:`ShardedTemporalGraph.is_current
<repro.graph.sharded.ShardedTemporalGraph.is_current>` (or
:meth:`ShardedSweepDriver.require_current
<repro.engine.sharded_sweep.ShardedSweepDriver.require_current>`, which
raises) checks staleness against the graph's mutation version.

Write with :class:`ShardedStoreWriter` (streaming, one snapshot at a time,
cutting shards on a byte budget — compilation never holds more than one
shard) or the :func:`save_sharded` convenience over an existing artifact.
A store is never patched: after a mutation, :func:`save_sharded` writes the
new version's directory in full.
"""

from __future__ import annotations

import json
import os
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphError
from repro.graph.base import Node, Time
from repro.graph.compiled import _active_row, _csr, _index_dtype
from repro.graph.sharded import ShardedTemporalGraph

__all__ = [
    "ShardedStoreWriter",
    "save_sharded",
    "load_sharded",
    "STORE_FORMAT",
]

STORE_FORMAT = "repro-sharded-v1"

_COMPONENTS = ("data", "indices", "indptr")

_INT32_BYTES = np.dtype(np.int32).itemsize


def _shard_file(directory: str, shard: int, stack: str, component: str) -> str:
    return os.path.join(directory, f"shard-{shard:04d}.{stack}.{component}.bin")


def _json_roundtrips(value: object) -> bool:
    try:
        return json.loads(json.dumps(value)) == value
    except (TypeError, ValueError):
        return False


def _operator_buffers(operator: sp.csr_matrix) -> dict[str, np.ndarray]:
    return {
        "data": np.asarray(operator.data, dtype=np.int32),
        "indices": np.asarray(operator.indices, dtype=np.int32),
        "indptr": np.asarray(operator.indptr, dtype=np.int32),
    }


class ShardedStoreWriter:
    """Stream compiled snapshots to a versioned on-disk shard store.

    Feed snapshots in time order via :meth:`add_snapshot`; a new shard is
    cut whenever adding the next snapshot would push the current shard past
    ``shard_byte_budget`` (when set), or at the caller's explicit
    :meth:`cut_shard` calls.  Only the *current* shard's buffers are held in
    memory, so writing a graph much larger than RAM needs only
    one-shard-plus-mask working space.  :meth:`finalize` writes the manifest
    and activeness mask and returns the version directory.
    """

    def __init__(
        self,
        root: str,
        *,
        node_labels: Sequence[Node],
        is_directed: bool,
        mutation_version: int,
        shard_byte_budget: int | None = None,
        include_backward: bool = False,
    ) -> None:
        labels = list(node_labels)
        if not _json_roundtrips(labels):
            raise GraphError(
                "node labels must survive a JSON round trip to be stored; "
                "got labels that do not"
            )
        if shard_byte_budget is not None and shard_byte_budget < 1:
            raise GraphError("shard_byte_budget must be positive")
        self._root = root
        self._labels = labels
        self._n = len(labels)
        self._directed = bool(is_directed)
        self._version = int(mutation_version)
        self._budget = shard_byte_budget
        self._backward = bool(include_backward)
        self._directory = os.path.join(root, f"v{self._version}")
        os.makedirs(self._directory, exist_ok=True)
        self._times: list[Time] = []
        self._active_rows: list[np.ndarray] = []
        self._boundaries: list[tuple[int, int]] = []
        self._shards: list[dict] = []
        self._pending: list[dict[str, dict[str, np.ndarray]]] = []
        self._pending_bytes = 0
        self._pending_nnz: list[int] = []
        self._shard_start = 0
        self._finalized = False

    @property
    def directory(self) -> str:
        """The version directory this writer populates."""
        return self._directory

    def add_snapshot(
        self,
        time: Time,
        forward_operator: sp.csr_matrix,
        *,
        backward_operator: sp.csr_matrix | None = None,
        active_row: np.ndarray | None = None,
    ) -> None:
        """Append one snapshot's operator(s), cutting a shard on budget.

        ``backward_operator`` is required exactly when the writer was
        configured with ``include_backward`` on a directed store (undirected
        transposes alias the forward operators and are never stored twice).
        """
        if self._finalized:
            raise GraphError("writer is already finalized")
        if forward_operator.shape != (self._n, self._n):
            raise GraphError(
                f"operator shape {forward_operator.shape} does not match "
                f"the {self._n}-node universe"
            )
        if not _json_roundtrips(time):
            raise GraphError(f"time label {time!r} does not survive JSON")
        stacks = {"forward": _operator_buffers(forward_operator)}
        if self._backward and self._directed:
            if backward_operator is None:
                backward_operator = forward_operator.T.tocsr()
            stacks["backward"] = _operator_buffers(backward_operator)
        snapshot_bytes = sum(
            buf.nbytes for stack in stacks.values() for buf in stack.values()
        )
        if (
            self._budget is not None
            and self._pending
            and self._pending_bytes + snapshot_bytes > self._budget
        ):
            self.cut_shard()
        if active_row is None:
            # the compiler's own rule, so a store's mask equals the artifact's
            active_row = _active_row(forward_operator)
        self._times.append(time)
        self._active_rows.append(np.asarray(active_row, dtype=bool))
        self._pending.append(stacks)
        self._pending_bytes += snapshot_bytes
        self._pending_nnz.append(int(forward_operator.nnz))

    def cut_shard(self) -> None:
        """Flush the pending snapshots as one shard (no-op when empty)."""
        if not self._pending:
            return
        shard_index = len(self._shards)
        stacks = ["forward"] + (
            ["backward"] if self._backward and self._directed else []
        )
        total_bytes = 0
        for stack in stacks:
            for component in _COMPONENTS:
                path = _shard_file(self._directory, shard_index, stack, component)
                buffers = [snap[stack][component] for snap in self._pending]
                merged = (
                    np.concatenate(buffers)
                    if buffers
                    else np.empty(0, dtype=np.int32)
                )
                merged.tofile(path)
                total_bytes += merged.nbytes
        stop = self._shard_start + len(self._pending)
        self._boundaries.append((self._shard_start, stop))
        self._shards.append(
            {"snapshot_nnz": list(self._pending_nnz), "bytes": total_bytes}
        )
        self._shard_start = stop
        self._pending = []
        self._pending_bytes = 0
        self._pending_nnz = []

    def finalize(self) -> str:
        """Flush the last shard, write mask + manifest; returns the directory."""
        if self._finalized:
            raise GraphError("writer is already finalized")
        self.cut_shard()
        if not self._times:
            raise GraphError("cannot finalize a store with no snapshots")
        self._finalized = True
        mask = np.stack(self._active_rows)
        mask.tofile(os.path.join(self._directory, "active_mask.bin"))
        manifest = {
            "format": STORE_FORMAT,
            "mutation_version": self._version,
            "is_directed": self._directed,
            "num_nodes": self._n,
            "node_labels": self._labels,
            "times": self._times,
            "boundaries": [list(b) for b in self._boundaries],
            "include_backward": self._backward and self._directed,
            "shards": self._shards,
        }
        manifest_path = os.path.join(self._directory, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        return self._directory


def save_sharded(
    compiled,
    root: str,
    *,
    num_shards: int | None = None,
    shard_byte_budget: int | None = None,
    include_backward: bool | None = None,
) -> str:
    """Write an existing compiled artifact to a versioned shard store.

    Boundaries come from the byte budget (streaming cut) or, with
    ``num_shards``, from the nnz-weighted contiguous layout shared with
    :meth:`ShardedTemporalGraph.from_compiled
    <repro.graph.sharded.ShardedTemporalGraph.from_compiled>`.  By default
    the backward stack is stored iff the artifact has materialized distinct
    transposes.  Returns the version directory.
    """
    if include_backward is None:
        include_backward = compiled.transposes_built and compiled.is_directed
    writer = ShardedStoreWriter(
        root,
        node_labels=compiled.node_labels,
        is_directed=compiled.is_directed,
        mutation_version=compiled.mutation_version,
        shard_byte_budget=shard_byte_budget,
        include_backward=include_backward,
    )
    cuts: set[int] = set()
    if num_shards is not None:
        from repro.graph.sharded import compute_shard_layout

        cuts = {start for start, _ in compute_shard_layout(compiled, num_shards)}
    forward = compiled.forward_operators
    backward = (
        compiled.backward_operators
        if include_backward and compiled.is_directed
        else None
    )
    mask = compiled.active_mask
    for k, time in enumerate(compiled.times):
        if k in cuts:
            writer.cut_shard()
        writer.add_snapshot(
            time,
            forward[k],
            backward_operator=backward[k] if backward is not None else None,
            active_row=mask[k],
        )
    return writer.finalize()


def _open_stack(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, offsets: np.ndarray
) -> sp.csr_matrix:
    """The block-diagonal stack of a shard's stored snapshots.

    ``indptr`` holds one ``(N + 1)``-entry row per snapshot and ``offsets``
    each snapshot's first entry in ``data`` and ``indices``: snapshot ``k``'s
    columns move up by ``k · N`` and its row pointers by ``offsets[k]``, and
    ``data`` stays the mapped buffer.
    """
    t_count, n = indptr.shape[0], indptr.shape[1] - 1
    slots, total = t_count * n, int(offsets[-1])
    index = _index_dtype(slots, total)
    stacked = np.empty(total, dtype=index)
    for k in range(t_count):
        lo, hi = offsets[k], offsets[k + 1]
        np.add(indices[lo:hi], k * n, out=stacked[lo:hi], dtype=index)
    ptr = np.empty(slots + 1, dtype=index)
    rows = ptr[:-1].reshape(t_count, n)
    np.add(indptr[:, :-1], offsets[:-1, None], out=rows, dtype=index)
    ptr[-1] = total
    return _csr(data, stacked, ptr, (slots, slots))


class _MmapShardStore:
    """Reopens shards from a version directory as memory-mapped CSR stacks."""

    def __init__(self, directory: str, manifest: dict) -> None:
        self._directory = directory
        self._manifest = manifest
        self._n = int(manifest["num_nodes"])
        # every shard shares one label index instead of building its own
        self._node_index = {v: i for i, v in enumerate(manifest["node_labels"])}

    def shard_bytes(self, index: int) -> int:
        return int(self._manifest["shards"][index]["bytes"])

    def _mapped(self, index: int, stack: str, component: str, length: int):
        if length == 0:
            return np.empty(0, dtype=np.int32)
        path = _shard_file(self._directory, index, stack, component)
        return np.memmap(path, dtype=np.int32, mode="r", shape=(length,))

    def open_shard(self, index: int):
        from repro.graph.compiled import CompiledTemporalGraph

        manifest = self._manifest
        n = self._n
        start, stop = manifest["boundaries"][index]
        shard_meta = manifest["shards"][index]
        nnz = [int(x) for x in shard_meta["snapshot_nnz"]]
        t_count = stop - start
        offsets = np.concatenate([[0], np.cumsum(nnz, dtype=np.int64)])
        total_nnz = int(offsets[-1])
        names = ["forward"] + (["backward"] if manifest["include_backward"] else [])
        stacks: dict[str, sp.csr_matrix] = {}
        for stack in names:
            data = self._mapped(index, stack, "data", total_nnz)
            indices = self._mapped(index, stack, "indices", total_nnz)
            indptr = self._mapped(index, stack, "indptr", t_count * (n + 1))
            indptr = indptr.reshape(t_count, n + 1)
            self._check_csr(index, stack, indptr, indices, nnz)
            stacks[stack] = _open_stack(data, indices, indptr, offsets)
        mask = self._active_mask()[start:stop]
        return CompiledTemporalGraph(
            node_labels=manifest["node_labels"],
            times=manifest["times"][start:stop],
            forward_stack=stacks["forward"],
            is_directed=manifest["is_directed"],
            mutation_version=manifest["mutation_version"],
            backward_stack=stacks.get("backward"),
            active_mask=mask,
            node_index=self._node_index,
        )

    def _check_csr(
        self,
        index: int,
        stack: str,
        indptr: np.ndarray,
        indices: np.ndarray,
        nnz: list[int],
    ) -> None:
        """Raise :class:`GraphError` naming the file unless every snapshot's
        CSR buffers are well formed.

        ``indptr`` holds one ``(N + 1)``-long row per snapshot: each must
        start at 0, never decrease and end at the manifest's nnz of its
        snapshot, and every column index must lie in ``[0, N)``.  The
        stack is built over the mapped buffers without these checks, and a
        bad index later crashes the interpreter inside a native conversion.
        A few vectorised passes over plain views of the mapped buffers.
        """
        indptr, indices = np.asarray(indptr), np.asarray(indices)
        path = _shard_file(self._directory, index, stack, "indptr")
        if indptr[:, 0].any():
            raise GraphError(
                f"shard store file {path!r}: an indptr does not start at 0"
            )
        if (indptr[:, -1] != nnz).any():
            raise GraphError(
                f"shard store file {path!r}: the indptr ends "
                f"{indptr[:, -1].tolist()} differ from the manifest's nnz {nnz}"
            )
        if (indptr[:, 1:] < indptr[:, :-1]).any():
            raise GraphError(f"shard store file {path!r}: an indptr decreases")
        # read as unsigned, a negative index is larger than any valid one
        if indices.size and indices.view(np.uint32).max() >= self._n:
            path = _shard_file(self._directory, index, stack, "indices")
            raise GraphError(
                f"shard store file {path!r} holds a column index outside "
                f"[0, {self._n})"
            )

    def _active_mask(self) -> np.ndarray:
        t_count = len(self._manifest["times"])
        path = os.path.join(self._directory, "active_mask.bin")
        return np.memmap(path, dtype=bool, mode="r", shape=(t_count, self._n))


def _expected_sizes(directory: str, manifest: dict) -> list[tuple[str, int]]:
    """Every file a manifest implies, with its exact byte size.

    The mask holds ``T * N`` bools; each shard's stored stacks hold
    ``sum(nnz)`` int32 ``data`` and ``indices`` entries and
    ``T_i * (N + 1)`` int32 ``indptr`` entries.
    """
    n = int(manifest["num_nodes"])
    sizes = [(os.path.join(directory, "active_mask.bin"), len(manifest["times"]) * n)]
    stacks = ["forward"] + (["backward"] if manifest["include_backward"] else [])
    for index, (start, stop) in enumerate(manifest["boundaries"]):
        nnz = sum(manifest["shards"][index]["snapshot_nnz"])
        lengths = {"data": nnz, "indices": nnz, "indptr": (stop - start) * (n + 1)}
        for stack in stacks:
            for component in _COMPONENTS:
                path = _shard_file(directory, index, stack, component)
                sizes.append((path, _INT32_BYTES * lengths[component]))
    return sizes


def load_sharded(root: str, *, version: int | None = None) -> ShardedTemporalGraph:
    """Reopen a stored artifact as a lazily memory-mapped sharded graph.

    ``version`` picks a specific ``v<N>`` directory (default: the highest
    present).  Shards materialize on first
    :meth:`~repro.graph.sharded.ShardedTemporalGraph.shard` access and can
    be :meth:`released <repro.graph.sharded.ShardedTemporalGraph.release>`
    between sweeps — the serial driver's out-of-core schedule.  Every file
    the manifest implies is checked against its exact byte size first, so
    a missing or truncated file raises :class:`GraphError` naming it here
    rather than failing inside ``np.memmap`` mid-sweep.  A file of the
    right size with corrupt CSR buffers (an indptr that does not run from
    0 up to its snapshot's nnz, a column index outside ``[0, N)``) raises
    :class:`GraphError` naming it when its shard opens.
    """
    if version is None:
        candidates = []
        if os.path.isdir(root):
            for name in os.listdir(root):
                if name.startswith("v") and name[1:].isdigit():
                    candidates.append(int(name[1:]))
        if not candidates:
            raise GraphError(f"no stored shard versions under {root!r}")
        version = max(candidates)
    directory = os.path.join(root, f"v{int(version)}")
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise GraphError(f"no shard store at {directory!r}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != STORE_FORMAT:
        raise GraphError(
            f"unrecognized shard-store format {manifest.get('format')!r} "
            f"(expected {STORE_FORMAT!r})"
        )
    for path, size in _expected_sizes(directory, manifest):
        if not os.path.isfile(path):
            raise GraphError(f"shard store file {path!r} is missing")
        actual = os.path.getsize(path)
        if actual != size:
            raise GraphError(
                f"shard store file {path!r} holds {actual} bytes; "
                f"its manifest implies {size}"
            )
    store = _MmapShardStore(directory, manifest)
    return ShardedTemporalGraph(
        node_labels=manifest["node_labels"],
        times=manifest["times"],
        boundaries=[tuple(b) for b in manifest["boundaries"]],
        mutation_version=manifest["mutation_version"],
        is_directed=manifest["is_directed"],
        active_mask=store._active_mask(),
        shard_nnz=[sum(s["snapshot_nnz"]) for s in manifest["shards"]],
        store=store,
    )
