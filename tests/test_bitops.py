"""Property-based tests for the bit-packed sweep primitives (PR 7).

:mod:`repro.engine.bitops` is the word-level foundation the fused sweep
paths are built on; every primitive here has a one-line NumPy oracle, so
the suite asserts exact equality against it on random boolean blocks —
including the ragged ``n % 64 != 0`` tails where packing bugs live:

* :func:`~repro.engine.bitops.pack_bits` / ``unpack_bits`` roundtrip
  identity, zero pad bits past ``n``;
* :func:`~repro.engine.bitops.popcount` vs ``np.count_nonzero``;
* :func:`~repro.engine.bitops.packed_nonzero` vs ``np.nonzero`` (same
  coordinates, same order) and ``set_bits`` as its inverse;
* :func:`~repro.engine.bitops.causal_or_accumulate` vs the unpacked shifted
  ``np.logical_or.accumulate`` (both directions, with/without activeness);
* :func:`~repro.engine.bitops.fused_update` vs its unfused boolean formula;
* :func:`~repro.engine.bitops.advance_blocked` vs the dense CSR product
  under every push/pull threshold configuration (the three branches must
  agree wherever new discoveries are possible);
* the process-wide sweep configuration: the push/pull thresholds that pick
  the advance mode (context restore) and the JIT report.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import bitops

BITOPS_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ragged sizes on purpose: word boundaries, off-by-one around them, tiny
slot_counts = st.sampled_from([1, 2, 7, 63, 64, 65, 100, 127, 128, 130, 200])


@st.composite
def bool_blocks(draw, *, max_lead: int = 3):
    """A random boolean array whose last axis is the packed (node) axis."""
    n = draw(slot_counts)
    lead = draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=max_lead)
    )
    shape = tuple(lead) + (n,)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


# --------------------------------------------------------------------------- #
# packing primitives                                                           #
# --------------------------------------------------------------------------- #


@BITOPS_SETTINGS
@given(bool_blocks())
def test_pack_unpack_roundtrip(block):
    n = block.shape[-1]
    words = bitops.pack_bits(block)
    assert words.dtype == np.uint64
    assert words.shape == block.shape[:-1] + (bitops.words_for(n),)
    np.testing.assert_array_equal(bitops.unpack_bits(words, n), block)


@BITOPS_SETTINGS
@given(bool_blocks())
def test_pack_zeroes_ragged_tail_bits(block):
    """Bits past ``n`` in the last word must be zero (masks rely on it)."""
    n = block.shape[-1]
    words = bitops.pack_bits(np.ones_like(block))
    tail = n % bitops.WORD_BITS
    if tail:
        expected_last = np.uint64((1 << tail) - 1)
        assert np.all(words[..., -1] == expected_last)
    assert bitops.popcount(words) == int(np.prod(block.shape))


@BITOPS_SETTINGS
@given(bool_blocks())
def test_popcount_equals_count_nonzero(block):
    assert bitops.popcount(bitops.pack_bits(block)) == np.count_nonzero(block)


@BITOPS_SETTINGS
@given(bool_blocks())
def test_packed_nonzero_matches_np_nonzero(block):
    words = bitops.pack_bits(block)
    reference = np.nonzero(block)
    packed = bitops.packed_nonzero(words)
    assert len(packed) == len(reference)
    for got, want in zip(packed, reference):
        np.testing.assert_array_equal(got, want)


@BITOPS_SETTINGS
@given(bool_blocks())
def test_set_bits_inverts_packed_nonzero(block):
    n = block.shape[-1]
    coords = np.nonzero(block)
    words = np.zeros(block.shape[:-1] + (bitops.words_for(n),), dtype=np.uint64)
    bitops.set_bits(words, coords[:-1], coords[-1])
    np.testing.assert_array_equal(bitops.unpack_bits(words, n), block)


def test_words_for_boundaries():
    assert bitops.words_for(1) == 1
    assert bitops.words_for(64) == 1
    assert bitops.words_for(65) == 2
    assert bitops.words_for(128) == 2
    assert bitops.words_for(129) == 3


# --------------------------------------------------------------------------- #
# the causal step                                                              #
# --------------------------------------------------------------------------- #


@st.composite
def causal_blocks(draw):
    """A ``(T, R, n)`` boolean block plus an optional ``(T, n)`` active mask."""
    n = draw(slot_counts)
    t = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    block = rng.random((t, r, n)) < draw(st.sampled_from([0.05, 0.5]))
    active = rng.random((t, n)) < 0.7 if draw(st.booleans()) else None
    return block, active


@BITOPS_SETTINGS
@given(causal_blocks(), st.booleans())
def test_causal_or_accumulate_matches_logical_accumulate(block_active, forward):
    block, active = block_active
    n = block.shape[-1]
    # the unpacked shifted accumulate, on the (T, R, n) boolean layout
    expected = np.zeros_like(block)
    if block.shape[0] > 1:
        if forward:
            acc = np.logical_or.accumulate(block, axis=0)
            expected[1:] = acc[:-1]
        else:
            acc = np.logical_or.accumulate(block[::-1], axis=0)[::-1]
            expected[:-1] = acc[1:]
        if active is not None:
            expected &= active[:, None, :]
    active_words = None if active is None else bitops.pack_bits(active)
    got = bitops.causal_or_accumulate(
        bitops.pack_bits(block), active_words, forward=forward
    )
    np.testing.assert_array_equal(bitops.unpack_bits(got, n), expected)


# --------------------------------------------------------------------------- #
# the fused update                                                             #
# --------------------------------------------------------------------------- #


@BITOPS_SETTINGS
@given(st.integers(min_value=0, max_value=2**32 - 1), slot_counts)
def test_fused_update_matches_unfused_formula(seed, n):
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 5))
    spatial_b = rng.random((r, n)) < 0.3
    carry_b = rng.random((r, n)) < 0.3
    active_b = rng.random(n) < 0.7
    visited_b = rng.random((r, n)) < 0.3
    frontier_b = rng.random((r, n)) < 0.3

    expected_out = (spatial_b | carry_b) & active_b[None, :] & ~visited_b
    expected_visited = visited_b | expected_out
    expected_carry = carry_b | frontier_b

    carry = bitops.pack_bits(carry_b)
    visited = bitops.pack_bits(visited_b)
    out = np.zeros_like(visited)
    bitops.fused_update(
        bitops.pack_bits(spatial_b),
        carry,
        bitops.pack_bits(active_b),
        visited,
        bitops.pack_bits(frontier_b),
        out,
    )
    np.testing.assert_array_equal(bitops.unpack_bits(out, n), expected_out)
    np.testing.assert_array_equal(bitops.unpack_bits(visited, n), expected_visited)
    np.testing.assert_array_equal(bitops.unpack_bits(carry, n), expected_carry)


# --------------------------------------------------------------------------- #
# the direction-optimizing advance                                             #
# --------------------------------------------------------------------------- #


@st.composite
def advance_cases(draw):
    n = draw(st.sampled_from([3, 17, 64, 65, 100]))
    r = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    mat = sp.random(
        n, n, density=draw(st.sampled_from([0.0, 0.05, 0.3])), random_state=rng
    ).tocsr()
    mat.data[:] = 1
    frontier = rng.random((r, n)) < draw(st.sampled_from([0.02, 0.3]))
    visited = frontier | (rng.random((r, n)) < draw(st.sampled_from([0.0, 0.8])))
    active = rng.random(n) < 0.8
    return mat, frontier, visited, active


@BITOPS_SETTINGS
@given(advance_cases(), st.sampled_from([(8, 4), (8, 0), (0, 4), (0, 0)]))
def test_advance_blocked_matches_dense_reference(case, thresholds):
    """All three branches agree with ``mat @ frontier`` on discoverable cells.

    ``advance_blocked`` may drop rows that are visited in every column or
    inactive — exactly the set every caller masks away — so the comparison
    masks both sides the same way.
    """
    mat, frontier, visited, active = case
    n = frontier.shape[-1]
    reference = (mat @ frontier.T.astype(np.int32) > 0).T
    discoverable = ~visited & active[None, :]

    push, pull = thresholds
    degrees = np.bincount(mat.indices, minlength=n)
    with bitops.sweep_thresholds(push, pull):
        got = bitops.advance_blocked(
            mat,
            bitops.pack_bits(frontier),
            n,
            out_degrees=degrees,
            active_row=bitops.pack_bits(active),
            visited_words=bitops.pack_bits(visited),
        )
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, n) & discoverable, reference & discoverable
    )


@BITOPS_SETTINGS
@given(advance_cases())
def test_advance_blocked_without_masks_is_exact(case):
    """With no visited/active words supplied the result is the full product."""
    mat, frontier, _, _ = case
    n = frontier.shape[-1]
    reference = (mat @ frontier.T.astype(np.int32) > 0).T
    got = bitops.advance_blocked(mat, bitops.pack_bits(frontier), n)
    np.testing.assert_array_equal(bitops.unpack_bits(got, n), reference)


def test_advance_blocked_pull_handles_ragged_tail_without_active_row():
    """Regression: ``~visited`` raises pad bits past ``n``; the pull branch
    must not turn them into out-of-range candidate rows."""
    n = 70  # one ragged word: 6 pad bits
    rng = np.random.default_rng(0)
    mat = sp.random(n, n, density=0.2, random_state=rng).tocsr()
    mat.data[:] = 1
    frontier = np.zeros((2, n), dtype=bool)
    frontier[:, 0] = True
    visited = np.ones((2, n), dtype=bool)
    visited[:, -3:] = False  # few candidates -> pull branch fires
    with bitops.sweep_thresholds(0, 1_000_000):
        got = bitops.advance_blocked(
            mat,
            bitops.pack_bits(frontier),
            n,
            visited_words=bitops.pack_bits(visited),
        )
    reference = (mat @ frontier.T.astype(np.int32) > 0).T
    discoverable = ~visited
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, n) & discoverable, reference & discoverable
    )


def test_advance_blocked_counts_multiply_adds_per_branch():
    from repro.linalg import OperationCounter

    n = 64
    rng = np.random.default_rng(3)
    # sparse enough that the two frontier bits gather < n*r/8 endpoints, so
    # the push's output-size gate stays open
    mat = sp.random(n, n, density=0.05, random_state=rng).tocsr()
    mat.data[:] = 1
    degrees = np.bincount(mat.indices, minlength=n)
    frontier = np.zeros((2, n), dtype=bool)
    frontier[0, 5] = frontier[1, 9] = True
    packed = bitops.pack_bits(frontier)

    counter = OperationCounter()
    with bitops.sweep_thresholds(8, 0):  # push
        bitops.advance_blocked(mat, packed, n, out_degrees=degrees, counter=counter)
    assert counter.multiply_adds == 2 * int(degrees[[5, 9]].sum())

    counter.reset()
    with bitops.sweep_thresholds(0, 0):  # dense
        bitops.advance_blocked(mat, packed, n, counter=counter)
    assert counter.multiply_adds == 2 * mat.nnz * 2

    counter.reset()
    visited = np.ones((2, n), dtype=bool)
    visited[:, :4] = False
    with bitops.sweep_thresholds(0, 4):  # pull over 4 candidate rows
        bitops.advance_blocked(
            mat, packed, n, visited_words=bitops.pack_bits(visited), counter=counter
        )
    assert counter.multiply_adds == 2 * int(mat[:4].nnz) * 2


# --------------------------------------------------------------------------- #
# process-wide sweep configuration                                             #
# --------------------------------------------------------------------------- #


class TestSweepModeFlag:
    """The sweep's advance mode (push, pull or dense) is picked per call from
    the process-wide thresholds; :func:`bitops.sweep_thresholds` scopes them."""

    def test_thresholds_restore_on_exit(self):
        push, pull = bitops.PUSH_BLOCK_FRACTION, bitops.PULL_ROW_FRACTION
        with bitops.sweep_thresholds(0, 0):
            assert bitops.PUSH_BLOCK_FRACTION == 0
            assert bitops.PULL_ROW_FRACTION == 0
        assert (bitops.PUSH_BLOCK_FRACTION, bitops.PULL_ROW_FRACTION) == (push, pull)

    def test_jit_fallback_is_reported(self):
        # the container has no numba; JIT_ACTIVE documents which loop runs
        assert isinstance(bitops.JIT_ACTIVE, bool)
