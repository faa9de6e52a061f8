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
  :func:`unpack_bits`;
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
  frontier is sparse, **pull** gathers only the rows that can still be
  discovered once few are left, and **dense** gathers every row;
* :func:`fused_update` fuses the masked causal OR, the activeness and
  visited masks, the visited update and the causal carry into one pass over
  the lanes.

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
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FUSED_UPDATE_WORD_OPS",
    "advance_blocked",
    "causal_or_accumulate",
    "fused_update",
    "lane_mask",
    "node_popcount",
    "pack_bits",
    "popcount",
    "seed_lanes",
    "sweep_thresholds",
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


def causal_or_accumulate(
    block: np.ndarray,
    active: np.ndarray | None = None,
    *,
    forward: bool = True,
) -> np.ndarray:
    """Lane-wise causal step over a ``(T, N, L)`` block.

    Returns the block whose snapshot ``t`` is the OR of all strictly earlier
    (``forward=True``) or strictly later snapshots, optionally masked by the
    ``(T, N, L)`` activeness lanes (:func:`lane_mask`) — the packed form of
    a shifted ``np.logical_or.accumulate`` along the time axis.
    """
    out = np.zeros_like(block)
    t_count = block.shape[0]
    if t_count > 1:
        if forward:
            acc = np.bitwise_or.accumulate(block, axis=0)
            out[1:] = acc[:-1]
        else:
            acc = np.bitwise_or.accumulate(block[::-1], axis=0)[::-1]
            out[:-1] = acc[1:]
        if active is not None:
            out &= active
    return out


# --------------------------------------------------------------------------- #
# the fused inner update                                                      #
# --------------------------------------------------------------------------- #

#: Word operations charged per word per :func:`fused_update` call (OR with
#: the carry, two mask ANDs, the visited OR, the carry OR).
FUSED_UPDATE_WORD_OPS = 5


def fused_update(
    spatial: np.ndarray,
    carry: np.ndarray,
    active: np.ndarray,
    visited: np.ndarray,
    frontier: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One fused per-snapshot frontier update over ``(N, L)`` lanes.

    Computes ``out = (spatial | carry) & active & ~visited`` (the newly
    discovered slots), then folds ``out`` into ``visited`` and the snapshot's
    old ``frontier`` into ``carry`` — the whole per-snapshot tail of a sweep
    round in one pass over the lanes, with no boolean temporaries.
    ``carry`` accumulates *pre-update* frontiers, so a level's causal reach
    is the shifted cumulative OR of the level's frontier, bit for bit.
    """
    np.bitwise_or(spatial, carry, out=out)
    out &= active
    out &= ~visited
    visited |= out
    carry |= frontier
    return out


# --------------------------------------------------------------------------- #
# the direction-optimizing spatial advance                                    #
# --------------------------------------------------------------------------- #


def _segments(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Positions of the concatenated ranges ``[starts[i], starts[i] + lens[i])``."""
    starts = starts.astype(np.int64)
    lens = lens.astype(np.int64)
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()))


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


def _csc(mat: sp.csr_matrix) -> sp.csc_matrix:
    """The operator's column-major twin (the push scatter's source order).

    Operators are immutable compiled artifacts, so the twin lives on the
    object for the kernel's lifetime.
    """
    csc = getattr(mat, "_bitops_csc", None)
    if csc is None:
        csc = mat.tocsc()
        mat._bitops_csc = csc
    return csc


def _row_runs(mat: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty rows of ``mat`` and their entry counts, cached likewise."""
    runs = getattr(mat, "_bitops_rows", None)
    if runs is None:
        lens = np.diff(mat.indptr)
        rows = np.flatnonzero(lens)
        runs = (rows, lens[rows])
        mat._bitops_rows = runs
    return runs


def advance_blocked(
    mat: sp.csr_matrix,
    frontier: np.ndarray,
    r: int,
    *,
    out_degrees: np.ndarray | None = None,
    remaining: np.ndarray | None = None,
    counter=None,
) -> np.ndarray:
    """One spatial advance of an ``(N, L)`` lane frontier of ``r`` columns.

    Returns lanes with the set-bit pattern of ``(mat @ unpack(frontier)) > 0``
    — except that rows holding no bit of ``remaining`` (the lanes a caller
    can still discover, ``active & ~visited``) may be dropped, which is
    exactly the set every caller masks away anyway.

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

    ``out_degrees`` (the operator's per-column entry counts) spares the
    push accounting a column-major copy of ``mat``.
    """
    n = frontier.shape[0]
    out = np.zeros_like(frontier)
    if mat.nnz == 0:
        return out
    counts = node_popcount(frontier)
    bits = int(counts.sum())
    if bits == 0:
        return out

    if PUSH_BLOCK_FRACTION > 0 and bits * PUSH_BLOCK_FRACTION < n * r:
        nodes = np.flatnonzero(counts)
        if out_degrees is not None:
            degrees = out_degrees[nodes]
        else:
            degrees = np.diff(_csc(mat).indptr)[nodes]
        gathered = int(counts[nodes] @ degrees)
        # the push pays one scattered write per gathered edge endpoint, so the
        # expected *output* must stay sparse in the block too; past that the
        # vectorized gather wins on raw throughput
        if gathered * PUSH_BLOCK_FRACTION < n * r:
            csc = _csc(mat)
            starts = csc.indptr[nodes]
            lens = csc.indptr[nodes + 1] - starts
            targets = csc.indices[_segments(starts, lens)]
            for k in range(out.shape[1]):
                np.bitwise_or.at(
                    out[:, k], targets, np.repeat(frontier[nodes, k], lens)
                )
            if counter is not None:
                counter.multiply_adds += 2 * gathered
            return out

    if PULL_ROW_FRACTION > 0 and remaining is not None:
        rows = np.flatnonzero(remaining.any(axis=-1))
        if rows.size * PULL_ROW_FRACTION < n:
            lens = mat.indptr[rows + 1] - mat.indptr[rows]
            taken = lens > 0
            rows, lens = rows[taken], lens[taken]
            if rows.size:
                sources = mat.indices[_segments(mat.indptr[rows], lens)]
                _gather_or(frontier, rows, lens, sources, out)
            if counter is not None:
                counter.multiply_adds += 2 * int(lens.sum()) * r
            return out

    if r == 1:
        out = (mat @ frontier > 0).view(out.dtype)
    else:
        _gather_or(frontier, *_row_runs(mat), mat.indices, out)
    if counter is not None:
        counter.multiply_adds += 2 * int(mat.nnz) * r
    return out
