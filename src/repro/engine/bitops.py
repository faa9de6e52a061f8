"""Bit-packed frontier words and the direction-optimizing sweep primitives.

Every kernel sweep in this package advances boolean ``(T, N, R)`` blocks.
Stored byte-per-cell those blocks would be 8× larger than they need to be,
and the causal cumulative-OR would touch every byte once per round.  This
module is the packed form every sweep loop runs on:

* a bit block is a ``uint64`` word array whose **last axis** holds
  ``words_for(n)`` words; node ``v`` lives in word ``v >> 6`` at bit
  ``v & 63`` (little-endian bit order, so :func:`pack_bits` /
  :func:`unpack_bits` are plain ``np.packbits``/``np.unpackbits`` with an
  8-byte-aligned tail).  Tail bits past ``n`` are always zero;
* the causal step becomes a word-wise ``bitwise_or.accumulate``
  (:func:`causal_or_accumulate`) — 64 node slots per word op instead of one
  byte op per slot;
* frontier densities are read off packed words via :func:`popcount`
  (``np.bitwise_count``), which is what the push/pull direction choice and
  the fixpoint/termination checks key on;
* :func:`advance_blocked` is the direction-optimizing spatial step: per
  snapshot it picks **push** (a sparse × sparse product over the frontier's
  nonzero columns) when the packed popcount says the frontier is sparse,
  **pull** (a CSR row-slice product over the still-unvisited rows) when the
  undiscovered region is small, and the dense CSR × block product otherwise;
* :func:`fused_update` fuses the masked causal OR, the activeness and
  visited masks, the visited update and the causal carry into one pass over
  the words — optionally compiled with numba when the ``[jit]`` extra is
  installed (the pure-NumPy fallback is bit-identical and always available).

These primitives are the only engine implementation of every sweep family:
the kernels' packed loops are checked against the pure-Python Algorithm-1
oracles, not against a second engine loop.  :func:`sweep_thresholds` forces
one advance direction (tests and the ``bench_bitkernel.py`` ablation use it).

Accounting: the sweep loops charge packed bookkeeping to
``OperationCounter.word_ops`` (one unit per 64-bit word operation;
:data:`FUSED_UPDATE_WORD_OPS` words ops per word per fused update), while
:func:`advance_blocked` charges ``multiply_adds`` for the actual sparse
work: ``2 · Σ out-degree(frontier)`` on push, ``2 · nnz(rows) · R`` on
pull, ``2 · nnz · R`` on the dense fallback — the last is the Theorem 5/6
charge of a blocked product, so the counts stay comparable to that model.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator

import numpy as np
import scipy.sparse as sp

__all__ = [
    "FUSED_UPDATE_WORD_OPS",
    "JIT_ACTIVE",
    "WORD_BITS",
    "advance_blocked",
    "causal_or_accumulate",
    "fused_update",
    "pack_bits",
    "packed_nonzero",
    "popcount",
    "set_bits",
    "sweep_thresholds",
    "unpack_bits",
    "words_for",
]

WORD_BITS = 64

#: Push (frontier-driven sparse × sparse) is chosen when the frontier
#: occupies less than ``1 / PUSH_BLOCK_FRACTION`` of the block's slots; 0
#: disables push.  Sparse frontiers make the gather over Σ out-degree of the
#: frontier cells far cheaper than a dense product's ``2 · nnz · R``.
PUSH_BLOCK_FRACTION = 8

#: Pull (row-sliced product over undiscovered rows) is chosen — when push
#: declined and the caller supplied visited words — once fewer than
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
# packing primitives                                                          #
# --------------------------------------------------------------------------- #


def words_for(n: int) -> int:
    """Number of 64-bit words needed for ``n`` bit slots."""
    return (n + WORD_BITS - 1) // WORD_BITS


def pack_bits(block: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(..., n)`` block into ``(..., words_for(n))`` uint64.

    Little-endian bit order: slot ``v`` is bit ``v & 63`` of word ``v >> 6``.
    Tail bits past ``n`` are zero.
    """
    # packbits falls off its fast path on strided input (e.g. a transposed
    # product), so normalise to one contiguous bool buffer first
    block = np.ascontiguousarray(block, dtype=bool)
    n = block.shape[-1]
    w = words_for(n)
    packed = np.packbits(block, axis=-1, bitorder="little")
    if packed.shape[-1] == 8 * w:
        # no-copy when packbits already emitted a contiguous aligned buffer
        words = np.ascontiguousarray(packed).view(np.uint64)
    else:
        padded = np.zeros(block.shape[:-1] + (8 * w,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        words = padded.view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    return words


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack ``(..., W)`` uint64 words back to a boolean ``(..., n)`` block."""
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        words = words.byteswap()
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :n].astype(bool)


if hasattr(np, "bitwise_count"):

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a packed word array."""
        return int(np.bitwise_count(words).sum())

else:  # pragma: no cover - numpy < 2.0 fallback
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount(words: np.ndarray) -> int:
        """Total number of set bits across a packed word array."""
        halves = np.ascontiguousarray(words).view(np.uint16)
        return int(_POP16[halves].sum())


def packed_nonzero(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coordinates of the set bits, exactly as ``np.nonzero`` on the unpacked block.

    The last index array holds bit (node) positions; the leading arrays index
    the word array's leading axes.  Decoding touches only the nonzero words,
    so sparse readouts never unpack the whole block.
    """
    idx = np.nonzero(words)
    if idx[0].size == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(words.ndim))
    vals = words[idx]
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        vals = vals.byteswap()
    bits = np.unpackbits(vals.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    which, bit = np.nonzero(bits)
    slots = idx[-1][which] * WORD_BITS + bit
    return tuple(axis[which] for axis in idx[:-1]) + (slots,)


def set_bits(
    words: np.ndarray, index: tuple[np.ndarray, ...], bit_index: np.ndarray
) -> None:
    """OR bits into packed words in place: ``words[index][bit_index] |= 1``.

    ``index`` addresses the leading axes (one array per axis, as from
    ``np.nonzero``); ``bit_index`` holds the slot positions for the last
    (word) axis.  Duplicate coordinates are fine (unbuffered ``|=``).
    """
    bit_index = np.asarray(bit_index)
    shifts = (bit_index % WORD_BITS).astype(np.uint64)
    np.bitwise_or.at(
        words, index + (bit_index // WORD_BITS,), np.uint64(1) << shifts
    )


def causal_or_accumulate(
    block: np.ndarray,
    active_words: np.ndarray | None = None,
    *,
    forward: bool = True,
) -> np.ndarray:
    """Word-wise causal step over a packed ``(T, R, W)`` block.

    Returns the block whose snapshot ``t`` is the OR of all strictly earlier
    (``forward=True``) or strictly later snapshots, optionally masked by the
    packed ``(T, W)`` activeness words — the packed form of a shifted
    ``np.logical_or.accumulate`` along the time axis.
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
        if active_words is not None:
            out &= active_words[:, None, :]
    return out


# --------------------------------------------------------------------------- #
# the fused inner update (optionally numba-jitted via the [jit] extra)        #
# --------------------------------------------------------------------------- #

#: Word operations charged per word per :func:`fused_update` call (OR with
#: the carry, two mask ANDs, the visited OR, the carry OR).
FUSED_UPDATE_WORD_OPS = 5


def _fused_update_numpy(
    spatial: np.ndarray,
    carry: np.ndarray,
    active_row: np.ndarray,
    visited: np.ndarray,
    frontier: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    np.bitwise_or(spatial, carry, out=out)
    out &= active_row
    out &= ~visited
    visited |= out
    carry |= frontier
    return out


def _load_jit():  # pragma: no cover - exercised only with numba installed
    """Compile the fused update with numba when available and not disabled."""
    if os.environ.get("REPRO_JIT", "").strip().lower() in ("0", "off", "false"):
        return None
    try:
        from numba import njit
    except ImportError:
        return None

    @njit(cache=True)
    def _fused_update_jit(spatial, carry, active_row, visited, frontier, out):
        r, w = out.shape
        for i in range(r):
            for j in range(w):
                word = (spatial[i, j] | carry[i, j]) & active_row[j] & ~visited[i, j]
                out[i, j] = word
                visited[i, j] |= word
                carry[i, j] |= frontier[i, j]
        return out

    return _fused_update_jit


_fused_update_jit = _load_jit()

#: Whether the numba-compiled inner loop is active (``pip install .[jit]``;
#: set ``REPRO_JIT=0`` to force the NumPy fallback with numba installed).
JIT_ACTIVE = _fused_update_jit is not None


def fused_update(
    spatial: np.ndarray,
    carry: np.ndarray,
    active_row: np.ndarray,
    visited: np.ndarray,
    frontier: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """One fused per-snapshot frontier update over packed ``(R, W)`` words.

    Computes ``out = (spatial | carry) & active_row & ~visited`` (the newly
    discovered slots), then folds ``out`` into ``visited`` and the snapshot's
    old ``frontier`` into ``carry`` — the whole per-snapshot tail of a sweep
    round in one pass over the words, with no boolean temporaries.  ``carry``
    accumulates *pre-update* frontiers, so a level's causal reach is the
    shifted cumulative OR of the level's frontier, bit for bit.
    """
    if _fused_update_jit is not None:  # pragma: no cover - requires numba
        return _fused_update_jit(spatial, carry, active_row, visited, frontier, out)
    return _fused_update_numpy(spatial, carry, active_row, visited, frontier, out)


# --------------------------------------------------------------------------- #
# the direction-optimizing spatial advance                                    #
# --------------------------------------------------------------------------- #


def advance_blocked(
    mat: sp.csr_matrix,
    frontier_words: np.ndarray,
    n: int,
    *,
    out_degrees: np.ndarray | None = None,
    active_row: np.ndarray | None = None,
    visited_words: np.ndarray | None = None,
    counter=None,
) -> np.ndarray:
    """One spatial advance of a packed ``(R, W)`` frontier through ``mat``.

    Returns packed words with the set-bit pattern of
    ``(mat @ unpack(frontier)) > 0`` — except that rows which can no longer
    be *newly* discovered (visited in every column, or inactive) may be
    dropped, which is exactly the set every caller masks away anyway.

    The direction is chosen per call from packed popcounts:

    * **push** — frontier occupies < ``1/PUSH_BLOCK_FRACTION`` of the block:
      build a sparse ``(n, R)`` right-hand side from the frontier's nonzero
      coordinates and take one sparse × sparse product; cost ``Σ out-degree``
      over the frontier cells;
    * **pull** — fewer than ``1/PULL_ROW_FRACTION`` of the rows are still
      undiscovered (requires ``visited_words``): row-slice the operator to
      the candidate rows and multiply against the unpacked frontier; cost
      ``nnz(candidate rows) · R``;
    * **dense** — otherwise: the plain CSR × dense-block product.

    ``out_degrees`` (the operator's per-column entry counts) makes the push
    accounting exact; ``active_row`` additionally excludes inactive rows
    from the pull candidates.
    """
    r, w = frontier_words.shape
    out = np.zeros((r, w), dtype=np.uint64)
    if mat.nnz == 0:
        return out
    bits = popcount(frontier_words)
    if bits == 0:
        return out

    if PUSH_BLOCK_FRACTION > 0 and bits * PUSH_BLOCK_FRACTION < n * r:
        cols, slots = packed_nonzero(frontier_words)
        csc = getattr(mat, "_bitops_csc", None)
        if out_degrees is not None:
            gathered = int(out_degrees[slots].sum())
        else:
            if csc is None:
                csc = mat.tocsc()
                mat._bitops_csc = csc
            gathered = int((csc.indptr[slots + 1] - csc.indptr[slots]).sum())
        # the push pays one scattered write per gathered edge endpoint, so the
        # expected *output* must stay sparse in the block too; past that the
        # vectorized dense product wins on raw throughput
        if gathered * PUSH_BLOCK_FRACTION < n * r:
            if csc is None:
                # operators are immutable compiled artifacts, so the
                # column-major twin can live on the object for the kernel's
                # lifetime
                csc = mat.tocsc()
                mat._bitops_csc = csc
            starts = csc.indptr[slots].astype(np.int64)
            lens = (csc.indptr[slots + 1] - csc.indptr[slots]).astype(np.int64)
            cum = np.concatenate(([np.int64(0)], np.cumsum(lens)))
            pos = np.arange(int(lens.sum())) - np.repeat(cum[:-1], lens)
            pos += np.repeat(starts, lens)
            hit = np.zeros((r, n), dtype=bool)
            hit[np.repeat(cols, lens), csc.indices[pos]] = True
            out = pack_bits(hit)
            if counter is not None:
                counter.multiply_adds += 2 * gathered
            return out

    if PULL_ROW_FRACTION > 0 and visited_words is not None:
        remaining = ~visited_words
        if active_row is not None:
            remaining &= active_row
        tail = n & (WORD_BITS - 1)
        if tail:  # ~visited sets the pad bits past n; keep them out of the rows
            remaining[..., -1] &= np.uint64((1 << tail) - 1)
        union = np.bitwise_or.reduce(remaining, axis=0)
        if popcount(union) * PULL_ROW_FRACTION < n:
            (rows,) = packed_nonzero(union)
            if rows.size == 0:
                return out
            sub = mat[rows]
            block = unpack_bits(frontier_words, n).T.astype(np.int32)
            hit = np.zeros((r, n), dtype=bool)
            hit[:, rows] = (sub @ block > 0).T
            out = pack_bits(hit)
            if counter is not None:
                counter.multiply_adds += 2 * int(sub.nnz) * r
            return out

    block = unpack_bits(frontier_words, n).T.astype(np.int32)
    out = pack_bits((mat @ block > 0).T)
    if counter is not None:
        counter.multiply_adds += 2 * int(mat.nnz) * r
    return out
