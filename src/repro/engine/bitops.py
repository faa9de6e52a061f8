"""Root-lane frontier state and the direction-optimizing sweep primitives.

Every kernel sweep in this package advances boolean ``(T, N, R)`` blocks:
``R`` independent searches over ``N`` nodes in ``T`` snapshots.  Stored
byte-per-cell those blocks would be 8× larger than they need to be, so this
module keeps them packed the way MS-BFS does (Then et al., "The More the
Merrier", PVLDB 2014): node-major **root lanes** ``(T, N, L)``, one bitset
of root columns per node.

* a lane is the narrowest unsigned integer that fits ``R`` bits (``uint8``
  up to 8 roots, then ``uint16``, ``uint32``, ``uint64``); past 64 roots a
  node holds ``ceil(R / 64)`` ``uint64`` lanes.  Column ``c`` is bit
  ``c % b`` of lane ``c // b`` for ``b``-bit lanes (little-endian, so
  :func:`pack_bits` / :func:`unpack_bits` are ``np.packbits`` /
  ``np.unpackbits`` over the column axis), and bits past ``R`` are always
  zero.  Only this module knows the layout: the sweep loops allocate, seed,
  mask and unpack lanes through :func:`seed_lanes`, :func:`lane_mask` and
  :func:`unpack_bits`, and decode a sweep's levels through
  :func:`decode_levels`;
* a sweep keeps its levels as **bit planes**: plane ``b`` holds the lanes
  of every slot whose level has bit ``b`` set, so a level costs one lane
  OR per set bit of its number, and :func:`decode_levels` turns the
  planes and the visited lanes into the ``(T, N, R)`` int32 level block
  once, after the last level;
* the causal step is a lane-wise ``bitwise_or.accumulate`` along the time
  axis (:func:`causal_or_accumulate`);
* frontier sizes are read off the lanes by :func:`popcount` and
  :func:`node_popcount` (``np.bitwise_count``, or an 8-bit table on
  numpy < 2.0); the push/pull direction choice and the fixpoint and
  termination checks key on them;
* :func:`advance_blocked` is the direction-optimizing spatial step (Beamer
  et al., SC 2012) and it stays packed end to end: a node's new lane is the
  OR of its in-neighbours' lanes, gathered along the CSR.  **Push** ORs
  each frontier node's lane into its out-neighbours' lanes when the
  frontier is sparse, scattering along the operator's column-major twin,
  **pull** gathers only the rows that can still be discovered once few are
  left, and **dense** gathers every row — through a degree-ordered ELL
  layout with a CSR tail for the long rows (the HYB format of Bell &
  Garland, SC 2009), cached on the operator.  The compiled artifact stores
  each orientation as one block-diagonal CSR over the ``T · N`` slots
  ``t · N + v`` (the spatial blocks of the paper's block operator ``M_n``,
  :meth:`~repro.graph.compiled.CompiledTemporalGraph.stack`), so a
  ``(T, N, L)`` block reshaped to ``(T · N, L)`` advances every snapshot in
  one call; over such a stack the advance takes a ``window`` of snapshots,
  so a BFS level pays one direction choice and one advance for the
  snapshots that can still change;
* :func:`time_horizon` masks each root column's active lanes to the
  snapshots its search can reach (causal edges point forward only), so
  the remaining lanes behind the direction choice and the termination
  check hold only discoverable slots;
* :func:`fused_update` fuses the masked causal OR, the activeness and
  visited masks and the visited update into one pass over the lanes of a
  run of snapshots.

These primitives are the only engine implementation of every sweep family:
the kernels' packed loops are checked against the pure-Python Algorithm-1
oracles, not against a second engine loop.  :func:`sweep_thresholds` forces
one advance direction (tests and the ``bench_bitkernel.py`` ablation use it).

Accounting: the sweep loops charge packed bookkeeping to
``OperationCounter.word_ops`` (one unit per 64-bit word, :func:`word_count`;
:data:`FUSED_UPDATE_WORD_OPS` word ops per word per fused update), while
:func:`advance_blocked` charges ``multiply_adds`` for the sparse work of the
product it replaces: ``2 · Σ out-degree(frontier cells)`` on push,
``2 · nnz(rows) · R`` on pull, ``2 · nnz · R`` on the dense fallback — the
last is the Theorem 5/6 charge of a blocked product, so the counts stay
comparable to that model.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FUSED_UPDATE_WORD_OPS",
    "advance_blocked",
    "causal_or_accumulate",
    "decode_levels",
    "fused_update",
    "lane_mask",
    "node_popcount",
    "pack_bits",
    "popcount",
    "runs",
    "seed_lanes",
    "snapshot_any",
    "span",
    "stacked_index_dtype",
    "sweep_thresholds",
    "time_horizon",
    "unpack_bits",
    "word_count",
]

#: Push (frontier-driven scatter) is chosen when the frontier occupies less
#: than ``1 / PUSH_BLOCK_FRACTION`` of the block's ``N · R`` slots; 0
#: disables push.  Sparse frontiers make the scatter over Σ out-degree of
#: the frontier cells far cheaper than a dense product's ``2 · nnz · R``.
PUSH_BLOCK_FRACTION = 8

#: Pull (gather over the undiscovered rows only) is chosen — when push
#: declined and the caller supplied the remaining lanes — once fewer than
#: ``1 / PULL_ROW_FRACTION`` of the rows can still be newly discovered; 0
#: disables pull.  Saturated sweeps stop paying for rows that are already
#: visited in every column.
PULL_ROW_FRACTION = 4

#: The dense layout (:func:`_dense_layout`) keeps an ELL column while at
#: least ``1 / _ELL_ROW_SHARE`` of the non-empty rows hold an entry in it.
#: ``bench_bitkernel.py``'s dense report (2-core x86 host, a 16-column
#: advance over the whole stack) timed caps 4, 8, 16 and 32 at 0.34, 0.31,
#: 0.29 and 0.29 ms on its Figure-5 stack and at 0.37, 0.33, 0.32 and
#: 0.32 ms on its hub stack (one in-degree-1999 row per snapshot), where
#: no cap took 2.2 ms (1999 ELL columns) and the ``reduceat`` gather
#: 0.75 ms: 16 is where a larger cap stops gaining.  On the ledger (seed 1,
#: alternating runs) cap 16 against cap 8 read ``fig5_batch``
#: ``op_p50_probes`` 1.79 against 1.81 (8 pairs) and ``zipf_serving`` 3.08
#: against 3.20 (6 pairs), both inside the runs' spread.
_ELL_ROW_SHARE = 16


# --------------------------------------------------------------------------- #
# direction thresholds                                                        #
# --------------------------------------------------------------------------- #


@contextmanager
def sweep_thresholds(
    push_fraction: int | None = None, pull_fraction: int | None = None
) -> Iterator[None]:
    """Temporarily override the push/pull thresholds (0 disables a direction).

    Used by the ``bench_bitkernel.py`` ablation to isolate packed-only,
    push-only and push+pull variants, and by tests that force one branch.
    """
    global PUSH_BLOCK_FRACTION, PULL_ROW_FRACTION
    saved = (PUSH_BLOCK_FRACTION, PULL_ROW_FRACTION)
    if push_fraction is not None:
        PUSH_BLOCK_FRACTION = push_fraction
    if pull_fraction is not None:
        PULL_ROW_FRACTION = pull_fraction
    try:
        yield
    finally:
        PUSH_BLOCK_FRACTION, PULL_ROW_FRACTION = saved


# --------------------------------------------------------------------------- #
# the lane layout                                                             #
# --------------------------------------------------------------------------- #


def _layout(r: int) -> tuple[np.dtype, int]:
    """Lane dtype and lanes per node for ``r`` root columns."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if r <= 8 * np.dtype(dtype).itemsize:
            return np.dtype(dtype), 1
    return np.dtype(np.uint64), -(-r // 64)


def seed_lanes(
    shape: tuple[int, ...], seeds_per_column: Sequence[Sequence]
) -> np.ndarray:
    """Lanes over ``shape`` with column ``c``'s bit set at its seed slots.

    One column per entry of ``seeds_per_column``; each seed is an index
    into ``shape`` (a tuple, or a plain int for 1-D shapes).  Columns
    without seeds stay empty, so ``[[]] * r`` allocates zero lanes.
    """
    dtype, lanes = _layout(len(seeds_per_column))
    out = np.zeros(tuple(shape) + (lanes,), dtype=dtype)
    cols = [c for c, seeds in enumerate(seeds_per_column) for _ in seeds]
    if cols:
        slots = np.array(
            [seed for seeds in seeds_per_column for seed in seeds], dtype=np.int64
        ).reshape(len(cols), -1)
        col = np.asarray(cols, dtype=np.int64)
        bits = 8 * out.itemsize
        shifts = (col % bits).astype(out.dtype)
        np.bitwise_or.at(
            out, (*slots.T, col // bits), np.ones(len(cols), out.dtype) << shifts
        )
    return out


def lane_mask(mask: np.ndarray, r: int) -> np.ndarray:
    """Lanes with all ``r`` column bits set on the slots where ``mask`` holds."""
    full = pack_bits(np.ones(r, dtype=bool))
    return np.asarray(mask, dtype=bool)[..., None] * full


def time_horizon(
    t_count: int,
    seeds_per_column: Sequence[Sequence[tuple[int, int]]],
    *,
    forward: bool = True,
    entering: Iterable[np.ndarray] = (),
) -> np.ndarray:
    """``(T, 1, L)`` lanes of the snapshots each column can discover a slot in.

    Causal edges point forward in time only (the block operator ``M_n`` is
    block upper-triangular), so a search seeded at snapshot ``t0`` never
    reaches a slot before ``t0``: a forward column's horizon is every
    snapshot at or after its earliest seed, a backward column's every
    snapshot at or before its latest seed.  A column holding a bit of an
    ``entering`` plane (the ``(N, L)`` lanes of an incoming shard boundary)
    is fed at every snapshot, and a column with neither seed nor entering
    bit can discover nothing.  ANDed into a sweep's active lanes, it leaves
    ``active & ~visited`` holding only discoverable slots, so a snapshot
    closes, pull fires and the sweep ends as soon as none is left.

    Tang's sweep takes no horizon: its convention has no activeness, its
    state is one time-free plane of informed identities rather than
    per-slot lanes, and its loop already starts at its first snapshot.
    """
    times = np.arange(t_count)[:, None]
    if forward:
        edge = [min((t for t, _ in s), default=t_count) for s in seeds_per_column]
        inside = times >= np.array(edge, dtype=np.int64)
    else:
        edge = [max((t for t, _ in s), default=-1) for s in seeds_per_column]
        inside = times <= np.array(edge, dtype=np.int64)
    lanes = pack_bits(inside)
    for plane in entering:
        lanes |= np.bitwise_or.reduce(plane, axis=0)
    return lanes[:, None, :]


def word_count(lanes: np.ndarray) -> int:
    """The 64-bit words ``lanes`` occupy: the unit of ``word_ops``."""
    return -(-lanes.nbytes // 8)


def pack_bits(block: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., N, R)`` block into ``(..., N, L)`` lanes."""
    block = np.asarray(block, dtype=bool)
    r = block.shape[-1]
    dtype, lanes = _layout(r)
    bits = 8 * dtype.itemsize * lanes
    # one flat packbits over whole lanes is several times faster than
    # packing along a short last axis, so widen the columns to full lanes
    if r == bits:
        padded = np.ascontiguousarray(block)
    else:
        padded = np.zeros(block.shape[:-1] + (bits,), dtype=bool)
        padded[..., :r] = block
    packed = np.packbits(padded.reshape(-1), bitorder="little")
    out = packed.view(dtype).reshape(block.shape[:-1] + (lanes,))
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        out = out.byteswap()
    return out


def unpack_bits(lanes: np.ndarray, r: int) -> np.ndarray:
    """Unpack ``(..., N, L)`` lanes back to a boolean ``(..., N, r)`` block.

    Unpacks the lane bytes as one flat run and slices the columns off,
    which is faster than unpacking each row with ``count=r``; the result
    may therefore be a strided view.
    """
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        lanes = lanes.byteswap()
    as_bytes = np.ascontiguousarray(lanes).view(np.uint8)
    bits = np.unpackbits(as_bytes.reshape(-1), bitorder="little").view(bool)
    return bits.reshape(lanes.shape[:-1] + (8 * as_bytes.shape[-1],))[..., :r]


def decode_levels(
    planes: Sequence[np.ndarray], visited: np.ndarray, r: int, depth: int
) -> np.ndarray:
    """The ``(..., N, r)`` int32 level block of ``(..., N, L)`` level planes.

    ``planes[b]`` holds the lanes of the slots whose level has bit ``b``
    set, ``visited`` the lanes of every reached slot, and ``depth`` is the
    deepest level; an unreached slot reads ``-1``.  The planes are unpacked
    once each, from the highest down, into the narrowest unsigned
    accumulator that holds ``depth + 1`` (shift it left, OR the plane in),
    the visited bits are added, and one subtraction of 1 writes the int32
    block: ``len(planes) + 1`` unpacks, whatever the number of levels.
    """
    dtype = np.min_scalar_type(depth + 1)
    shape = visited.shape[:-1] + (r,)
    acc = np.zeros(shape, dtype=dtype)
    for plane in reversed(planes):
        acc <<= 1
        acc |= unpack_bits(plane, r)
    acc += unpack_bits(visited, r)
    return np.subtract(acc, 1, dtype=np.int32)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _table_bit_count(lanes: np.ndarray) -> np.ndarray:
    """Set bits per element, from an 8-bit table over the lane bytes."""
    lanes = np.ascontiguousarray(lanes)
    per_byte = _POP8[lanes.view(np.uint8)]
    return per_byte.reshape(lanes.shape + (lanes.itemsize,)).sum(
        axis=-1, dtype=np.uint8
    )


#: Set bits per element: ``np.bitwise_count`` on numpy >= 2.0, else the table.
_bit_count = getattr(np, "bitwise_count", _table_bit_count)


def popcount(lanes: np.ndarray) -> int:
    """Total number of set bits across a lane array of any lane dtype."""
    return int(_bit_count(lanes).sum())


def node_popcount(lanes: np.ndarray) -> np.ndarray:
    """Set bits per node: the ``(..., N)`` int64 counts of ``(..., N, L)`` lanes."""
    return _bit_count(lanes).sum(axis=-1, dtype=np.int64)


def snapshot_any(lanes: np.ndarray) -> np.ndarray:
    """Per snapshot, whether it holds a set bit: ``(T,)`` of ``(T, N, L)`` lanes."""
    return lanes.reshape(lanes.shape[0], -1).any(axis=1)


def span(mask: np.ndarray) -> tuple[int, int]:
    """The half-open range from the first to the last set entry of a 1-D mask.

    The mask must hold at least one set entry.
    """
    hits = np.flatnonzero(mask)
    return int(hits[0]), int(hits[-1]) + 1


def runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The half-open ranges of the maximal runs of set entries of a 1-D mask."""
    hits = np.flatnonzero(mask)
    if not hits.size:
        return []
    first, last = int(hits[0]), int(hits[-1])
    if last - first + 1 == hits.size:  # one run: the common case, kept cheap
        return [(first, last + 1)]
    gaps = np.flatnonzero(hits[1:] - hits[:-1] > 1)  # hits[g] ends a run
    starts = [first, *hits[gaps + 1].tolist()]
    stops = [*(hits[gaps] + 1).tolist(), last + 1]
    return list(zip(starts, stops))


def causal_or_accumulate(block: np.ndarray, *, forward: bool = True) -> np.ndarray:
    """Lane-wise causal step over a ``(T, N, L)`` block.

    Returns the block whose snapshot ``t`` is the OR of all strictly earlier
    (``forward=True``) or strictly later snapshots — the packed form of a
    shifted ``np.logical_or.accumulate`` along the time axis.  A BFS
    level's whole causal step is this prefix-OR of the frontier the level
    started with.
    """
    out = np.zeros(block.shape, block.dtype)
    t_count = block.shape[0]
    # one OR per snapshot: numpy's accumulate along a leading axis walks it
    # element by element, several times slower on blocks this shape
    steps = range(1, t_count) if forward else range(t_count - 2, -1, -1)
    step = 1 if forward else -1
    for t in steps:
        np.bitwise_or(out[t - step], block[t - step], out=out[t])
    return out


# --------------------------------------------------------------------------- #
# the fused inner update                                                      #
# --------------------------------------------------------------------------- #

#: Word operations charged per word per :func:`fused_update` call (OR with
#: the carry, two mask ANDs, the visited OR).
FUSED_UPDATE_WORD_OPS = 4


def fused_update(
    spatial: np.ndarray,
    carry: np.ndarray,
    active: np.ndarray,
    visited: np.ndarray,
    frontier: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One fused frontier update over the lanes of a run of snapshots.

    Computes ``out = (spatial | carry) & active & ~visited`` (the newly
    discovered slots), then folds ``out`` into ``visited`` — the tail of a
    sweep level in one pass over the lanes, with no boolean temporaries.
    Every argument is an ``(N, L)`` plane or a ``(W, N, L)`` run of
    snapshots: a BFS level passes as ``carry`` the run's causal reach, the
    shifted prefix-OR of the level's frontier (:func:`causal_or_accumulate`)
    plus the lanes entering from earlier shards, and ``carry`` is left as
    it was.  ``frontier`` is unused: the layer ledger's probe reads ``out``
    as the sixth positional argument, so the parameter keeps its place
    until the ledger reads in-source instrumentation (ROADMAP item 2).
    """
    np.bitwise_or(spatial, carry, out=out)
    out &= active
    out &= ~visited
    visited |= out
    return out


# --------------------------------------------------------------------------- #
# the direction-optimizing spatial advance                                    #
# --------------------------------------------------------------------------- #


def _segments(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions of the concatenated ranges ``[starts[i], starts[i] + lens[i])``."""
    # ndarray methods skip the numpy-level wrappers of these tiny calls
    out = (starts - lens.cumsum(dtype=np.int64) + lens).repeat(lens)
    out += np.arange(out.size)
    return out


def _gather_or(
    lanes: np.ndarray,
    rows: np.ndarray,
    lens: np.ndarray,
    sources: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out[rows[i]]`` = OR of ``lanes`` over row ``i``'s run of ``sources``.

    ``sources`` holds the rows' source nodes back to back, ``lens[i]`` of
    them for ``rows[i]``; every ``lens[i]`` must be positive (``reduceat``
    echoes an element on empty runs).  One contiguous 1-D gather and
    ``reduceat`` per lane, which beats a 2-D gather of whole node rows.
    """
    starts = np.cumsum(lens, dtype=np.int64) - lens
    for k in range(lanes.shape[1]):
        column = np.ascontiguousarray(lanes[:, k])
        out[rows, k] = np.bitwise_or.reduceat(column.take(sources), starts)


def stacked_index_dtype(slots: int, nnz: int) -> np.dtype:
    """Index dtype of a stacked operator over ``slots`` rows holding ``nnz`` entries.

    ``int32`` while both stay below ``2**31`` (the range scipy's own index
    selection keeps in ``int32``), ``int64`` past that.  The compiled
    artifact's stacks follow it when they are built, sliced or spliced.
    """
    limit = np.iinfo(np.int32).max
    return np.dtype(np.int32 if max(slots, nnz) <= limit else np.int64)


def _row_runs(mat: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty rows of ``mat`` and their entry counts, cached on it.

    A compiled stack is immutable, so what the advance derives from it lives
    on the object for the artifact's lifetime.
    """
    runs = getattr(mat, "_bitops_rows", None)
    if runs is None:
        lens = np.diff(mat.indptr)
        rows = np.flatnonzero(lens)
        runs = (rows, lens[rows])
        mat._bitops_rows = runs
    return runs


def _dense_layout(
    mat: sp.csr_matrix,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """The dense gather's degree-ordered layout of ``mat``, cached on it too.

    The HYB format of Bell & Garland (SC 2009): the non-empty rows sorted
    by decreasing degree (degrees past the ELL width tie), one ELL column
    of source indices per entry rank that at least ``1 / _ELL_ROW_SHARE``
    of them still hold (rank ``j`` holds the ``j``-th source of every row
    with more than ``j`` entries, so it covers a prefix of the order), and
    a CSR tail with the rest of the longer rows' entries.  The cap keeps a
    hub row from adding a column per entry: its entries beyond the typical
    degree go to the tail.
    Returns ``(order, columns, tail_sources, tail_starts)``, index arrays
    of ``mat``'s own index dtype; row ``i`` of the tail is ``order[i]``.
    """
    layout = getattr(mat, "_bitops_layout", None)
    if layout is None:
        rows, lens = _row_runs(mat)
        # longer[j]: the rows with more than j entries, the length of rank j
        longer = rows.size - np.bincount(lens).cumsum()
        width = int(np.count_nonzero(longer * _ELL_ROW_SHARE >= rows.size))
        # only the order of degrees up to width + 1 matters, so the keys are
        # small ints, whose stable sort is numpy's radix sort
        clipped = np.minimum(lens, width + 1)
        keys = (width + 1 - clipped).astype(np.min_scalar_type(width + 1))
        ranked = keys.argsort(kind="stable")
        index = mat.indices.dtype
        order = rows[ranked].astype(index)
        starts = mat.indptr[order]
        columns = [mat.indices[starts[: longer[j]] + j] for j in range(width)]
        deep = int(longer[width])
        tail_lens = lens[ranked[:deep]] - width
        tail_sources = mat.indices[_segments(starts[:deep] + width, tail_lens)]
        tail_starts = (tail_lens.cumsum() - tail_lens).astype(index)
        layout = (order, columns, tail_sources, tail_starts)
        mat._bitops_layout = layout
    return layout


def _layout_gather_or(
    lanes: np.ndarray,
    layout: tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray],
    out: np.ndarray,
) -> None:
    """``out[row]`` = OR of ``lanes`` over each non-empty row's sources.

    The gather of :func:`_gather_or` over every row, through
    :func:`_dense_layout`: per lane one ``take`` and one in-place prefix OR
    per ELL column, then one ``reduceat`` over the tail.
    """
    order, columns, tail_sources, tail_starts = layout
    for k in range(lanes.shape[1]):
        column = np.ascontiguousarray(lanes[:, k])
        acc = column.take(columns[0])
        for ell in columns[1:]:
            acc[: ell.size] |= column.take(ell)
        if tail_starts.size:
            tail = np.bitwise_or.reduceat(column.take(tail_sources), tail_starts)
            acc[: tail.size] |= tail
        out[order, k] = acc


def advance_blocked(
    mat: sp.csr_matrix,
    frontier: np.ndarray,
    r: int,
    *,
    twin: sp.csr_matrix | None = None,
    remaining: np.ndarray | None = None,
    counter=None,
    window: tuple[int, int] | None = None,
) -> np.ndarray:
    """One spatial advance of an ``(M, L)`` lane frontier of ``r`` columns.

    Returns lanes with the set-bit pattern of ``(mat @ unpack(frontier)) > 0``
    — except that rows holding no bit of ``remaining`` (the lanes a caller
    can still discover, ``active & ~visited``) may be dropped, which is
    exactly the set every caller masks away anyway.

    ``twin`` is ``mat``'s column-major twin, its transpose in CSR, which the
    push scatters along; the compiled artifact holds it as the other
    orientation's stack (:meth:`~repro.graph.compiled.CompiledTemporalGraph.twin`).
    Without one, a push transposes ``mat`` on the spot.

    ``window=(lo, hi)`` advances only rows and columns ``[lo, hi)`` of a
    block-diagonal ``mat`` (a compiled stack, cut at snapshot edges) and
    leaves every other row empty; the branch choice below then counts the
    window's ``hi - lo`` rows as its ``N``.  Without a window the whole
    operator advances.

    The direction is chosen per call from lane popcounts:

    * **push** — the frontier occupies < ``1/PUSH_BLOCK_FRACTION`` of the
      ``N · r`` slots, and so does its scatter: each frontier node's lane is
      ORed into its out-neighbours' lanes; cost ``Σ out-degree`` over the
      frontier cells (``Σ_v popcount(F[v]) · outdeg(v)``);
    * **pull** — fewer than ``1/PULL_ROW_FRACTION`` of the rows hold a bit
      of ``remaining``: each such row gathers the OR of its in-neighbours'
      lanes; cost ``nnz(rows) · r``;
    * **dense** — otherwise every row gathers; cost ``nnz · r``.  A single
      column (``r == 1``, one-byte 0/1 lanes) instead takes the one-pass
      scalar product ``mat @ lanes > 0``, which beats a two-pass gather.
      Wider lanes gather every row of the stack through the operator's
      cached degree-ordered layout (:func:`_dense_layout`) and then clear
      the rows outside the window.  The charge stays the window's
      ``2 · nnz · r``: the layout changes the speed of the gather, not the
      product it stands for.
    """
    lo, hi = (0, frontier.shape[0]) if window is None else window
    n = hi - lo
    out = np.zeros(frontier.shape, frontier.dtype)
    indptr = mat.indptr
    first, last = int(indptr[lo]), int(indptr[hi])
    if first == last:
        return out
    counts = node_popcount(frontier[lo:hi])
    bits = int(counts.sum())
    if bits == 0:
        return out

    if PUSH_BLOCK_FRACTION > 0 and bits * PUSH_BLOCK_FRACTION < n * r:
        held = (counts > 0).nonzero()[0]  # several times faster on bools
        nodes = held + lo
        if twin is None:
            twin = mat.T.tocsr()
        column_ptr = twin.indptr
        degrees = column_ptr[nodes + 1] - column_ptr[nodes]
        gathered = int(counts[held] @ degrees)
        # the push pays one scattered write per gathered edge endpoint, so the
        # expected *output* must stay sparse in the block too; past that the
        # vectorized gather wins on raw throughput
        if gathered * PUSH_BLOCK_FRACTION < n * r:
            starts = column_ptr[nodes]
            lens = column_ptr[nodes + 1] - starts
            targets = twin.indices[_segments(starts, lens)]
            for k in range(out.shape[1]):
                np.bitwise_or.at(out[:, k], targets, frontier[nodes, k].repeat(lens))
            if counter is not None:
                counter.multiply_adds += 2 * gathered
            return out

    if PULL_ROW_FRACTION > 0 and remaining is not None:
        rows = np.flatnonzero(remaining[lo:hi].any(axis=-1))
        if rows.size * PULL_ROW_FRACTION < n:
            rows += lo
            lens = indptr[rows + 1] - indptr[rows]
            taken = lens > 0
            rows, lens = rows[taken], lens[taken]
            if rows.size:
                sources = mat.indices[_segments(indptr[rows], lens)]
                _gather_or(frontier, rows, lens, sources, out)
            if counter is not None:
                counter.multiply_adds += 2 * int(lens.sum()) * r
            return out

    if r == 1:
        sub = mat
        if window is not None:  # the window's rows, over views of the buffers
            buffers = (mat.data[first:last], mat.indices[first:last])
            sub_ptr = indptr[lo : hi + 1] - first
            sub = sp.csr_matrix((*buffers, sub_ptr), shape=(n, mat.shape[1]))
        out[lo:hi] = (sub @ frontier > 0).view(out.dtype)
    else:
        _layout_gather_or(frontier, _dense_layout(mat), out)
        out[:lo] = 0  # the layout spans every row; the window's edges cut it
        out[hi:] = 0
    if counter is not None:
        counter.multiply_adds += 2 * (last - first) * r
    return out
