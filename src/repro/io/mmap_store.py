"""Memory-mapped shard store: compiled operator stacks on disk, paged in on demand.

The second storage regime of :class:`~repro.graph.sharded.ShardedTemporalGraph`
(the first slices an in-memory artifact): every shard's block-diagonal
operator stacks live in flat binary files inside a *versioned* directory,
written exactly as :meth:`compiled.time_slice(start, stop)
<repro.graph.compiled.CompiledTemporalGraph.time_slice>` holds them, and
:func:`load_sharded` maps them back through ``np.memmap`` — so a sweep
streams the artifact through the page cache one shard at a time.

Directory layout (the storage spec the README documents)::

    <root>/
      v<mutation_version>/
        manifest.json                     format tag, labels, times, layout, shard nnz
        active_mask.bin                   (T, N) bool, C order
        shard-0000.forward.data.bin       the shard's forward stack: data
        shard-0000.forward.indices.bin    ... column indices
        shard-0000.forward.indptr.bin     ... its T_i * N + 1 row pointers
        shard-0000.backward.*.bin         the backward stack, when stored
        ...

``data`` is int32; ``indices`` and ``indptr`` take the dtype
:func:`repro.engine.bitops.stacked_index_dtype` picks for the shard's
``T_i · N`` slots and its nnz, the one number per shard the manifest
records.  A shard opens without a copy: its stacks are CSR matrices over the
mapped buffers, once those pass the open checks.  Each mutation version
gets its own ``v<N>`` directory: a store never describes two graph states at
once, and :meth:`ShardedTemporalGraph.is_current
<repro.graph.sharded.ShardedTemporalGraph.is_current>` (or
:meth:`ShardedSweepDriver.require_current
<repro.engine.sharded_sweep.ShardedSweepDriver.require_current>`, which
raises) checks staleness against the graph's mutation version.

:func:`save_sharded` writes an artifact one shard at a time, cutting shards
at the ``num_shards`` layout and on a byte budget.  A store is never
patched: after a mutation, :func:`save_sharded` writes the new version's
directory in full.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.exceptions import GraphError
from repro.graph.compiled import CompiledTemporalGraph, _csr, _index_dtype
from repro.graph.sharded import ShardedTemporalGraph, compute_shard_layout

__all__ = ["save_sharded", "load_sharded", "STORE_FORMAT"]

STORE_FORMAT = "repro-sharded-v2"


def _shard_file(directory: str, shard: int, stack: str, component: str) -> str:
    return os.path.join(directory, f"shard-{shard:04d}.{stack}.{component}.bin")


def _json_roundtrips(value: object) -> bool:
    try:
        return json.loads(json.dumps(value)) == value
    except (TypeError, ValueError):
        return False


def _buffers(slots: int, nnz: int) -> dict[str, tuple[np.dtype, int]]:
    """The dtype and length of each buffer of a stored stack over ``slots``
    rows holding ``nnz`` entries."""
    index = _index_dtype(slots, nnz)
    return {
        "data": (np.dtype(np.int32), nnz),
        "indices": (index, nnz),
        "indptr": (index, slots + 1),
    }


def _nbytes(buffers: dict[str, tuple[np.dtype, int]]) -> int:
    return sum(dtype.itemsize * size for dtype, size in buffers.values())


def _boundaries(
    compiled: CompiledTemporalGraph,
    num_shards: int | None,
    budget: int | None,
    stacks: int,
) -> list[tuple[int, int]]:
    """The stored shards' ``(start, stop)`` snapshot ranges.

    A shard starts wherever ``num_shards``'s layout starts one, and wherever
    the next snapshot would push the bytes of the ``stacks`` stacks the
    shard stores past ``budget``.  Each snapshot's entries are read off the
    forward stack's ``indptr`` at snapshot edges.
    """
    n, t_count = compiled.num_nodes, compiled.num_snapshots
    cuts = set()
    if num_shards is not None:
        cuts = {start for start, _ in compute_shard_layout(compiled, num_shards)}
    ends = compiled.stack().indptr[np.arange(t_count + 1) * n].tolist()
    boundaries, start = [], 0
    for k in range(1, t_count):
        grown = _buffers((k + 1 - start) * n, ends[k + 1] - ends[start])
        if k in cuts or (budget is not None and stacks * _nbytes(grown) > budget):
            boundaries.append((start, k))
            start = k
    boundaries.append((start, t_count))
    return boundaries


def save_sharded(
    compiled: CompiledTemporalGraph,
    root: str,
    *,
    num_shards: int | None = None,
    shard_byte_budget: int | None = None,
    include_backward: bool | None = None,
) -> str:
    """Write an existing compiled artifact to a versioned shard store.

    Each shard is written as the buffers of :meth:`compiled.time_slice(start,
    stop) <repro.graph.compiled.CompiledTemporalGraph.time_slice>`'s forward
    stack, and of its backward stack when that is stored: by default iff
    the artifact's backward orientation was asked for
    (:attr:`~repro.graph.compiled.CompiledTemporalGraph.transposes_built`)
    on a directed graph.  A shard starts wherever the nnz-weighted layout of
    ``num_shards`` (shared with :meth:`ShardedTemporalGraph.from_compiled
    <repro.graph.sharded.ShardedTemporalGraph.from_compiled>`) starts one,
    and wherever the next snapshot would push the bytes the shard stores
    past ``shard_byte_budget``, so every shard fits the budget unless one
    snapshot alone exceeds it.  Returns the version directory.
    """
    labels, times = compiled.node_labels, list(compiled.times)
    if not _json_roundtrips(labels):
        raise GraphError(
            "node labels must survive a JSON round trip to be stored; "
            "got labels that do not"
        )
    if not _json_roundtrips(times):
        raise GraphError("time labels must survive a JSON round trip to be stored")
    if shard_byte_budget is not None and shard_byte_budget < 1:
        raise GraphError("shard_byte_budget must be positive")
    if include_backward is None:
        include_backward = compiled.transposes_built
    stacks = ["forward"] + (
        ["backward"] if include_backward and compiled.is_directed else []
    )
    boundaries = _boundaries(compiled, num_shards, shard_byte_budget, len(stacks))
    directory = os.path.join(root, f"v{compiled.mutation_version}")
    os.makedirs(directory, exist_ok=True)
    shard_nnz = []
    for index, (start, stop) in enumerate(boundaries):
        part = compiled.time_slice(start, stop)
        layout = _buffers((stop - start) * compiled.num_nodes, part.nnz)
        for name in stacks:
            stack = part.stack(name == "forward")
            for component, (dtype, _) in layout.items():
                path = _shard_file(directory, index, name, component)
                np.asarray(getattr(stack, component), dtype=dtype).tofile(path)
        shard_nnz.append(part.nnz)
    compiled.active_mask.tofile(os.path.join(directory, "active_mask.bin"))
    manifest = {
        "format": STORE_FORMAT,
        "mutation_version": compiled.mutation_version,
        "is_directed": compiled.is_directed,
        "num_nodes": compiled.num_nodes,
        "node_labels": labels,
        "times": times,
        "boundaries": [list(b) for b in boundaries],
        "include_backward": len(stacks) == 2,
        "shard_nnz": shard_nnz,
    }
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        # one dumps call takes the C encoder; json.dump streams through Python
        handle.write(json.dumps(manifest))
    return directory


class _MmapShardStore:
    """Maps a version directory's shards back as CSR stacks over their files."""

    def __init__(self, directory: str, manifest: dict) -> None:
        self._directory = directory
        self._manifest = manifest
        self._n = n = int(manifest["num_nodes"])
        self._stacks = ["forward"] + (
            ["backward"] if manifest["include_backward"] else []
        )
        # each shard's slot count and the buffers of each stack it stores
        self._layouts = [
            ((stop - start) * n, _buffers((stop - start) * n, int(nnz)))
            for (start, stop), nnz in zip(manifest["boundaries"], manifest["shard_nnz"])
        ]
        # every file the manifest implies, with its exact byte size
        mask = os.path.join(directory, "active_mask.bin")
        files = [(mask, len(manifest["times"]) * n)]
        for index, (_, layout) in enumerate(self._layouts):
            for stack in self._stacks:
                for component, (dtype, size) in layout.items():
                    path = _shard_file(directory, index, stack, component)
                    files.append((path, dtype.itemsize * size))
        for path, size in files:
            if not os.path.isfile(path):
                raise GraphError(f"shard store file {path!r} is missing")
            actual = os.path.getsize(path)
            if actual != size:
                raise GraphError(
                    f"shard store file {path!r} holds {actual} bytes; "
                    f"its manifest implies {size}"
                )
        shape = (len(manifest["times"]), n)
        if shape[0] * n == 0:  # an empty file cannot be mapped
            self.active_mask = np.zeros(shape, dtype=bool)
        else:
            self.active_mask = np.memmap(mask, dtype=bool, mode="r", shape=shape)
        # every shard shares one label index instead of building its own
        self._node_index = {v: i for i, v in enumerate(manifest["node_labels"])}

    def shard_bytes(self, index: int) -> int:
        return len(self._stacks) * _nbytes(self._layouts[index][1])

    def open_shard(self, index: int) -> CompiledTemporalGraph:
        manifest = self._manifest
        start, stop = manifest["boundaries"][index]
        slots, layout = self._layouts[index]
        stacks = {}
        for stack in self._stacks:
            data, indices, indptr = (
                self._mapped(index, stack, component, *layout[component])
                for component in ("data", "indices", "indptr")
            )
            self._check(index, stack, indices, indptr)
            stacks[stack] = _csr(data, indices, indptr, (slots, slots))
        return CompiledTemporalGraph(
            node_labels=manifest["node_labels"],
            times=manifest["times"][start:stop],
            forward_stack=stacks["forward"],
            is_directed=manifest["is_directed"],
            mutation_version=manifest["mutation_version"],
            backward_stack=stacks.get("backward"),
            active_mask=self.active_mask[start:stop],
            node_index=self._node_index,
        )

    def _mapped(
        self, index: int, stack: str, component: str, dtype: np.dtype, size: int
    ) -> np.ndarray:
        if size == 0:  # an empty file cannot be mapped
            return np.empty(0, dtype=dtype)
        path = _shard_file(self._directory, index, stack, component)
        return np.asarray(np.memmap(path, dtype=dtype, mode="r", shape=(size,)))

    def _check(
        self, index: int, stack: str, indices: np.ndarray, indptr: np.ndarray
    ) -> None:
        """Raise :class:`GraphError` naming the file unless a stored stack is
        well formed.

        Its indptr must start at 0, never decrease and end at the manifest's
        nnz, and every column must lie in its own row's snapshot block,
        ``[t · N, (t + 1) · N)`` for the rows of snapshot ``t``: the
        block-diagonal shape every sweep relies on.  The stack is built over
        the mapped buffers without these checks, and a bad index later
        crashes the interpreter inside a native conversion.  A few
        vectorised passes over the mapped buffers.
        """
        nnz = indices.size
        path = _shard_file(self._directory, index, stack, "indptr")
        if indptr[0] != 0:
            raise GraphError(
                f"shard store file {path!r}: the indptr does not start at 0"
            )
        if indptr[-1] != nnz:
            raise GraphError(
                f"shard store file {path!r}: the indptr ends at {int(indptr[-1])}, "
                f"not at the manifest's nnz {nnz}"
            )
        if (indptr[1:] < indptr[:-1]).any():
            raise GraphError(f"shard store file {path!r}: the indptr decreases")
        if nnz:
            n = self._n
            first = np.arange(0, indptr.size - 1, n, dtype=indices.dtype)
            first = first.repeat(np.diff(indptr[::n]))
            if ((indices < first) | (indices >= first + n)).any():
                path = _shard_file(self._directory, index, stack, "indices")
                raise GraphError(
                    f"shard store file {path!r} holds a column index outside "
                    "its row's snapshot block"
                )


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
    0 up to the shard's nnz, a column index outside its row's snapshot
    block) raises :class:`GraphError` naming it when its shard opens.
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
    store = _MmapShardStore(directory, manifest)
    return ShardedTemporalGraph(
        node_labels=manifest["node_labels"],
        times=manifest["times"],
        boundaries=[tuple(b) for b in manifest["boundaries"]],
        mutation_version=manifest["mutation_version"],
        is_directed=manifest["is_directed"],
        active_mask=store.active_mask,
        shard_nnz=manifest["shard_nnz"],
        store=store,
    )
