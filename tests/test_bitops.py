"""Property-based tests for the root-lane sweep primitives.

:mod:`repro.engine.bitops` is the lane-level foundation every sweep loop is
built on; every primitive here has a one-line NumPy oracle, so the suite
asserts exact equality against it on random boolean blocks — over every
lane width (one to eight columns in a ``uint8`` lane up to two and three
``uint64`` lanes) and the ragged column counts whose pad bits are where
packing bugs live:

* :func:`~repro.engine.bitops.pack_bits` / ``unpack_bits`` roundtrip
  identity, the lane dtype and count per column count, zero pad bits;
* :func:`~repro.engine.bitops.popcount` / ``node_popcount`` vs
  ``np.count_nonzero``, and the 8-bit table that replaces
  ``np.bitwise_count`` on numpy < 2.0 vs ``np.bitwise_count`` itself;
* :func:`~repro.engine.bitops.seed_lanes` and ``lane_mask`` vs packing
  the boolean block they stand for;
* :func:`~repro.engine.bitops.causal_or_accumulate` vs the unpacked shifted
  ``np.logical_or.accumulate`` (both directions);
* :func:`~repro.engine.bitops.fused_update` vs its unfused boolean formula;
* :func:`~repro.engine.bitops.advance_blocked` vs the dense CSR product
  under every push/pull threshold configuration (the three branches must
  agree wherever new discoveries are possible), and each branch's
  multiply-add charge;
* the dense advance over stacks of random snapshots (empty rows, an empty
  snapshot, a hub row), over every snapshot-aligned window, through the
  degree-ordered layout on both sides of its ELL cap, and the layout's
  width and index dtype;
* :func:`~repro.engine.bitops.time_horizon` per seed, direction and
  incoming boundary;
* the process-wide push/pull thresholds (context restore).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import bitops

BITOPS_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# every lane width, the counts that fill a lane exactly and the ragged ones
# one past them (pad bits), up to three uint64 lanes
column_counts = st.sampled_from([1, 5, 8, 9, 16, 17, 32, 33, 64, 65, 130])

LANE_DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def bool_blocks(draw, *, max_lead: int = 3):
    """A random boolean array whose last axis is the packed (column) axis."""
    r = draw(column_counts)
    lead = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=max_lead)
    )
    shape = tuple(lead) + (r,)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    return rng.random(shape) < density


# --------------------------------------------------------------------------- #
# the lane layout                                                              #
# --------------------------------------------------------------------------- #


@BITOPS_SETTINGS
@given(bool_blocks())
def test_pack_unpack_roundtrip(block):
    r = block.shape[-1]
    lanes = bitops.pack_bits(block)
    assert lanes.shape[:-1] == block.shape[:-1]
    assert lanes.dtype.itemsize * 8 * lanes.shape[-1] >= r
    np.testing.assert_array_equal(bitops.unpack_bits(lanes, r), block)


@BITOPS_SETTINGS
@given(bool_blocks())
def test_pack_zeroes_ragged_tail_bits(block):
    """Lane bits past ``R`` must be zero (remaining-lane masks rely on it)."""
    r = block.shape[-1]
    lanes = bitops.pack_bits(np.ones_like(block))
    bits = lanes.dtype.itemsize * 8
    full, tail = divmod(r, bits)
    assert np.all(lanes[..., :full] == np.iinfo(lanes.dtype).max)
    if tail:
        assert np.all(lanes[..., full] == (1 << tail) - 1)
    assert bitops.popcount(lanes) == int(np.prod(block.shape))


def test_lane_layout_by_column_count():
    """The narrowest unsigned lane that fits R bits; past 64, uint64 lanes."""
    expected = {
        1: (np.uint8, 1),
        8: (np.uint8, 1),
        9: (np.uint16, 1),
        16: (np.uint16, 1),
        17: (np.uint32, 1),
        32: (np.uint32, 1),
        33: (np.uint64, 1),
        64: (np.uint64, 1),
        65: (np.uint64, 2),
        128: (np.uint64, 2),
        130: (np.uint64, 3),
    }
    for r, (dtype, lanes) in expected.items():
        zero = bitops.seed_lanes((4, 7), [[]] * r)
        assert (zero.dtype, zero.shape) == (np.dtype(dtype), (4, 7, lanes))
        assert not zero.any()
        packed = bitops.pack_bits(np.zeros((7, r), dtype=bool))
        assert (packed.dtype, packed.shape) == (np.dtype(dtype), (7, lanes))
    assert bitops.word_count(bitops.seed_lanes((3,), [[]])) == 1  # 3 bytes
    assert bitops.word_count(bitops.seed_lanes((5,), [[]] * 65)) == 10


@BITOPS_SETTINGS
@given(bool_blocks())
def test_popcount_equals_count_nonzero(block):
    lanes = bitops.pack_bits(block)
    assert bitops.popcount(lanes) == np.count_nonzero(block)
    np.testing.assert_array_equal(
        bitops.node_popcount(lanes), np.count_nonzero(block, axis=-1)
    )


@pytest.mark.parametrize("dtype", LANE_DTYPES)
@pytest.mark.parametrize("lanes", [1, 2])
def test_table_bit_count_matches_bitwise_count(dtype, lanes, monkeypatch):
    """The numpy < 2.0 table popcount, checked on a numpy that has both."""
    if not hasattr(np, "bitwise_count"):  # pragma: no cover - numpy < 2.0
        pytest.skip("the table is the only popcount here")
    rng = np.random.default_rng(lanes * 10 + LANE_DTYPES.index(dtype))
    info = np.iinfo(dtype)
    values = rng.integers(0, info.max, size=(37, lanes), dtype=dtype, endpoint=True)
    values[0] = info.max
    values[1] = 0
    np.testing.assert_array_equal(
        bitops._table_bit_count(values), np.bitwise_count(values)
    )
    monkeypatch.setattr(bitops, "_bit_count", bitops._table_bit_count)
    assert bitops.popcount(values) == int(np.bitwise_count(values).sum())
    np.testing.assert_array_equal(
        bitops.node_popcount(values), np.bitwise_count(values).sum(axis=-1)
    )
    # the one-root lanes of a single-column sweep: (N, 1) uint8, strided too
    column = (rng.random((50, 1)) < 0.5).astype(np.uint8)
    assert bitops.popcount(column) == int(column.sum())
    assert bitops.popcount(values[::2]) == int(np.bitwise_count(values[::2]).sum())


@BITOPS_SETTINGS
@given(column_counts, st.integers(min_value=0, max_value=2**32 - 1))
def test_seed_lanes_and_lane_mask_match_packed_blocks(r, seed):
    rng = np.random.default_rng(seed)
    t, n = 3, 11
    seeds = [
        [(int(rng.integers(t)), int(rng.integers(n))) for _ in range(rng.integers(3))]
        for _ in range(r)
    ]
    block = np.zeros((t, n, r), dtype=bool)
    for col, slots in enumerate(seeds):
        for ti, vi in slots:
            block[ti, vi, col] = True
    np.testing.assert_array_equal(
        bitops.seed_lanes((t, n), seeds), bitops.pack_bits(block)
    )
    # 1-D shapes take plain int seeds (the Tang sources)
    flat = [[vi for _, vi in slots] for slots in seeds]
    np.testing.assert_array_equal(
        bitops.seed_lanes((n,), flat), bitops.pack_bits(block.any(axis=0))
    )
    active = rng.random((t, n)) < 0.6
    expected = np.broadcast_to(active[..., None], (t, n, r))
    np.testing.assert_array_equal(
        bitops.lane_mask(active, r), bitops.pack_bits(expected)
    )


# --------------------------------------------------------------------------- #
# the causal step                                                              #
# --------------------------------------------------------------------------- #


@st.composite
def causal_blocks(draw):
    """A ``(T, N, R)`` boolean block."""
    r = draw(column_counts)
    n = draw(st.integers(min_value=1, max_value=20))
    t = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.random((t, n, r)) < draw(st.sampled_from([0.05, 0.5]))


@BITOPS_SETTINGS
@given(causal_blocks(), st.booleans())
def test_causal_or_accumulate_matches_logical_accumulate(block, forward):
    r = block.shape[-1]
    # the unpacked shifted accumulate, on the (T, N, R) boolean layout
    expected = np.zeros_like(block)
    if block.shape[0] > 1:
        if forward:
            acc = np.logical_or.accumulate(block, axis=0)
            expected[1:] = acc[:-1]
        else:
            acc = np.logical_or.accumulate(block[::-1], axis=0)[::-1]
            expected[:-1] = acc[1:]
    got = bitops.causal_or_accumulate(bitops.pack_bits(block), forward=forward)
    np.testing.assert_array_equal(bitops.unpack_bits(got, r), expected)


# --------------------------------------------------------------------------- #
# the fused update                                                             #
# --------------------------------------------------------------------------- #


@BITOPS_SETTINGS
@given(st.integers(min_value=0, max_value=2**32 - 1), column_counts)
def test_fused_update_matches_unfused_formula(seed, r):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    spatial_b = rng.random((n, r)) < 0.3
    carry_b = rng.random((n, r)) < 0.3
    active_b = rng.random(n) < 0.7
    visited_b = rng.random((n, r)) < 0.3
    frontier_b = rng.random((n, r)) < 0.3

    expected_out = (spatial_b | carry_b) & active_b[:, None] & ~visited_b
    expected_visited = visited_b | expected_out

    carry = bitops.pack_bits(carry_b)
    visited = bitops.pack_bits(visited_b)
    out = np.zeros_like(visited)
    bitops.fused_update(
        bitops.pack_bits(spatial_b),
        carry,
        bitops.lane_mask(active_b, r),
        visited,
        bitops.pack_bits(frontier_b),
        out,
    )
    np.testing.assert_array_equal(bitops.unpack_bits(out, r), expected_out)
    np.testing.assert_array_equal(bitops.unpack_bits(visited, r), expected_visited)
    # the carry is read, not written: the caller rebuilds it every level
    np.testing.assert_array_equal(bitops.unpack_bits(carry, r), carry_b)


# --------------------------------------------------------------------------- #
# the direction-optimizing advance                                             #
# --------------------------------------------------------------------------- #


@st.composite
def advance_cases(draw):
    n = draw(st.sampled_from([3, 17, 64, 65, 100]))
    r = draw(column_counts)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    mat = sp.random(
        n, n, density=draw(st.sampled_from([0.0, 0.05, 0.3])), random_state=rng
    ).tocsr()
    mat.data[:] = 1
    frontier = rng.random((n, r)) < draw(st.sampled_from([0.02, 0.3]))
    visited = frontier | (rng.random((n, r)) < draw(st.sampled_from([0.0, 0.8])))
    active = rng.random(n) < 0.8
    return mat, frontier, visited, active


def _reference(mat, frontier):
    """``(mat @ frontier) > 0`` on the unpacked ``(N, R)`` block."""
    return mat @ frontier.astype(np.int32) > 0


@BITOPS_SETTINGS
@given(advance_cases(), st.sampled_from([(8, 4), (8, 0), (0, 4), (0, 0)]))
def test_advance_blocked_matches_dense_reference(case, thresholds):
    """All three branches agree with ``mat @ frontier`` on discoverable cells.

    ``advance_blocked`` may drop rows that hold no remaining lane bit —
    exactly the set every caller masks away — so the comparison masks both
    sides the same way.
    """
    mat, frontier, visited, active = case
    r = frontier.shape[-1]
    discoverable = ~visited & active[:, None]
    remaining = bitops.lane_mask(active, r) & ~bitops.pack_bits(visited)

    push, pull = thresholds
    with bitops.sweep_thresholds(push, pull):
        got = bitops.advance_blocked(
            mat,
            bitops.pack_bits(frontier),
            r,
            remaining=remaining,
        )
    assert got.dtype == bitops.pack_bits(frontier).dtype
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, r) & discoverable,
        _reference(mat, frontier) & discoverable,
    )


@BITOPS_SETTINGS
@given(advance_cases())
def test_advance_blocked_without_masks_is_exact(case):
    """With no remaining lanes supplied the result is the full product."""
    mat, frontier, _, _ = case
    r = frontier.shape[-1]
    got = bitops.advance_blocked(mat, bitops.pack_bits(frontier), r)
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, r), _reference(mat, frontier)
    )


def test_advance_blocked_pull_handles_ragged_tail_without_active_row():
    """Regression: with no activeness (Tang's convention) the remaining
    lanes are ``every & ~visited``; the lane bits past ``R`` must not turn
    visited rows into pull candidates."""
    from repro.linalg import OperationCounter

    n, r = 70, 5  # one uint8 lane per node: 3 pad bits
    rng = np.random.default_rng(0)
    mat = sp.random(n, n, density=0.2, random_state=rng).tocsr()
    mat.data[:] = 1
    frontier = np.zeros((n, r), dtype=bool)
    frontier[0] = True
    visited = np.ones((n, r), dtype=bool)
    visited[-3:] = False  # few candidates -> pull branch fires
    every = bitops.lane_mask(np.ones(n, dtype=bool), r)
    counter = OperationCounter()
    with bitops.sweep_thresholds(0, 4):
        got = bitops.advance_blocked(
            mat,
            bitops.pack_bits(frontier),
            r,
            remaining=every & ~bitops.pack_bits(visited),
            counter=counter,
        )
    assert counter.multiply_adds == 2 * int(mat[-3:].nnz) * r
    discoverable = ~visited
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, r) & discoverable,
        _reference(mat, frontier) & discoverable,
    )
    assert not got[:-3].any()  # only the candidate rows were gathered


def test_advance_blocked_counts_multiply_adds_per_branch():
    """Each branch charges the product it replaces, on every lane width."""
    from repro.linalg import OperationCounter

    n = 64
    rng = np.random.default_rng(3)
    # two frontier nodes of out-degree one gather < n*r/8 endpoints, so the
    # push's output-size gate stays open
    mat = sp.random(n, n, density=0.05, random_state=rng).tocsr()
    mat.data[:] = 1
    degrees = np.bincount(mat.indices, minlength=n)
    a, b = np.flatnonzero(degrees == 1)[:2]
    for r in (1, 2, 9, 33, 65):
        frontier = np.zeros((n, r), dtype=bool)
        frontier[a, 0] = frontier[b, r - 1] = True
        frontier[b, 0] = True  # node b holds two cells when r > 1
        lanes = bitops.pack_bits(frontier)
        reference = _reference(mat, frontier)

        counter = OperationCounter()
        with bitops.sweep_thresholds(8, 0):  # push: Σ popcount(F[v]) * outdeg(v)
            got = bitops.advance_blocked(mat, lanes, r, counter=counter)
        assert counter.multiply_adds == 2 * int(frontier.sum(axis=1) @ degrees)
        np.testing.assert_array_equal(bitops.unpack_bits(got, r), reference)

        counter.reset()
        with bitops.sweep_thresholds(0, 0):  # dense
            got = bitops.advance_blocked(mat, lanes, r, counter=counter)
        assert counter.multiply_adds == 2 * mat.nnz * r
        np.testing.assert_array_equal(bitops.unpack_bits(got, r), reference)

        counter.reset()
        visited = np.ones((n, r), dtype=bool)
        visited[:4] = False
        every = bitops.lane_mask(np.ones(n, dtype=bool), r)
        with bitops.sweep_thresholds(0, 4):  # pull over 4 candidate rows
            got = bitops.advance_blocked(
                mat,
                lanes,
                r,
                remaining=every & ~bitops.pack_bits(visited),
                counter=counter,
            )
        assert counter.multiply_adds == 2 * int(mat[:4].nnz) * r
        np.testing.assert_array_equal(bitops.unpack_bits(got, r)[:4], reference[:4])


# --------------------------------------------------------------------------- #
# the dense advance's degree-ordered layout                                    #
# --------------------------------------------------------------------------- #

#: Column counts of the dense layout cases: each lane width past one column
#: (one column takes the scalar product instead), full and ragged.
DENSE_COLUMNS = [2, 9, 33, 64, 65, 129]


def _snapshot(n, rng, *, hub=False, empty=False):
    """A random ``(N, N)`` 0/1 operator with some empty rows.

    ``hub`` gives row 0 an entry from every other node over a sparse rest,
    so that one row holds most of the snapshot's entries.
    """
    if empty:
        return sp.csr_matrix((n, n), dtype=np.int8)
    mat = sp.random(n, n, density=0.04 if hub else 0.25, random_state=rng).tolil()
    mat[2] = 0  # an empty row inside the snapshot
    if hub:
        mat[0, 1:] = 1
    mat = mat.tocsr()
    mat.data[:] = 1
    return mat.astype(np.int8)


def _dense_stack(n, t, seed, hub, empty):
    """The block-diagonal stack of ``t`` snapshots, one with a hub row and
    one registered empty (``-1`` for neither)."""
    rng = np.random.default_rng(seed)
    return sp.block_diag(
        [_snapshot(n, rng, hub=k == hub, empty=k == empty) for k in range(t)],
        format="csr",
    )


def _check_dense_advance(stack, n, r, seed):
    """The dense advance over every snapshot-aligned window and none.

    Asserts the product's pattern inside the window, empty rows outside it,
    the ``2 · nnz(window) · R`` charge, and that the advance gathered
    through the stack's layout.
    """
    from repro.linalg import OperationCounter

    rng = np.random.default_rng(seed)
    slots = stack.shape[0]
    frontier = rng.random((slots, r)) < rng.choice([0.05, 0.5])
    expected = _reference(stack, frontier)
    lanes = bitops.pack_bits(frontier)
    t = slots // n
    windows = [None] + [(a * n, b * n) for a in range(t) for b in range(a + 1, t + 1)]
    for window in windows:
        lo, hi = (0, slots) if window is None else window
        counter = OperationCounter()
        spy = mock.patch.object(
            bitops, "_layout_gather_or", wraps=bitops._layout_gather_or
        )
        with bitops.sweep_thresholds(0, 0), spy as layout_gather:
            got = bitops.advance_blocked(
                stack, lanes, r, counter=counter, window=window
            )
        bits = bitops.unpack_bits(got, r)
        np.testing.assert_array_equal(bits[lo:hi], expected[lo:hi])
        assert not got[:lo].any() and not got[hi:].any()
        entries = int(stack.indptr[hi] - stack.indptr[lo])
        if not frontier[lo:hi].any():  # nothing to advance: no charge
            entries = 0
        assert counter.multiply_adds == 2 * entries * r
        assert layout_gather.call_count == (1 if entries else 0)


@st.composite
def dense_stacks(draw):
    """``(stack, N, R, seed)``: 1 to 6 snapshots, maybe a hub row and an
    empty snapshot, and a lane width past one column."""
    n = draw(st.sampled_from([12, 30]))
    t = draw(st.integers(min_value=1, max_value=6))
    hub = draw(st.integers(min_value=-1, max_value=t - 1))
    empty = draw(st.integers(min_value=-1, max_value=t - 1))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    r = draw(st.sampled_from(DENSE_COLUMNS))
    return _dense_stack(n, t, seed, hub, empty), n, r, seed


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dense_stacks())
def test_dense_advance_through_the_layout_matches_the_product(case):
    """Every window of a random stack, through the layout, gives the
    product's pattern and the unchanged charge."""
    stack, n, r, seed = case
    _check_dense_advance(stack, n, r, seed)


def test_dense_advance_cases_reach_both_sides_of_the_ell_cap():
    """A stack with entries past the ELL cap and one without: a hub row
    spills into the tail, a stack of equal-degree rows does not."""
    ring = sp.csr_matrix(np.roll(np.eye(12, dtype=np.int8), 1, axis=1))
    rings = sp.block_diag([ring] * 3, format="csr")
    assert bitops._dense_layout(rings)[2].size == 0
    for r in DENSE_COLUMNS:
        hubbed = _dense_stack(12, 4, r, hub=1, empty=3)
        assert bitops._dense_layout(hubbed)[2].size > 0
        _check_dense_advance(hubbed, 12, r, r)
        _check_dense_advance(rings, 12, r, r)


def test_hub_row_adds_no_ell_column():
    """The ELL width follows the typical degree: a hub row's entries past
    it go to the CSR tail, not into columns of their own."""
    n = 64
    base = np.zeros((n, n), dtype=np.int8)
    for v in range(n):
        base[v, [(v + 1) % n, (v + 2) % n, (v + 3) % n]] = 1
    hubbed = base.copy()
    hubbed[0] = 1
    plain = bitops._dense_layout(sp.block_diag([sp.csr_matrix(base)] * 2, format="csr"))
    order, columns, tail_sources, tail_starts = bitops._dense_layout(
        sp.block_diag([sp.csr_matrix(hubbed), sp.csr_matrix(base)], format="csr")
    )
    assert len(columns) == len(plain[1]) == 3
    assert plain[2].size == 0
    assert order[0] == 0 and tail_starts.tolist() == [0]
    assert tail_sources.size == n - 3


def test_int64_stack_keeps_int64_in_its_layout():
    """A stack past the int32 range indexes its layout in int64 too."""
    rng = np.random.default_rng(4)
    stack = _dense_stack(12, 3, 4, hub=0, empty=-1)
    wide = sp.csr_matrix(stack.shape, dtype=stack.dtype)
    wide.data = stack.data
    wide.indices = stack.indices.astype(np.int64)
    wide.indptr = stack.indptr.astype(np.int64)
    order, columns, tail_sources, tail_starts = bitops._dense_layout(wide)
    assert tail_sources.size
    for array in (order, *columns, tail_sources, tail_starts):
        assert array.dtype == np.int64
    frontier = rng.random((wide.shape[0], 33)) < 0.3
    with bitops.sweep_thresholds(0, 0):
        got = bitops.advance_blocked(wide, bitops.pack_bits(frontier), 33)
    np.testing.assert_array_equal(
        bitops.unpack_bits(got, 33), _reference(stack, frontier)
    )


# --------------------------------------------------------------------------- #
# the time horizon                                                             #
# --------------------------------------------------------------------------- #


def test_time_horizon_by_seed_direction_and_boundary():
    """Forward from the earliest seed, backward up to the latest, every
    snapshot for a column fed by a boundary, none for an unfed seedless one."""
    seeds = [[(2, 0)], [(3, 1), (1, 4)], [], [], [(0, 0)]]
    entering = bitops.pack_bits(np.array([[False] * 3 + [True, False]]))
    expected_forward = np.zeros((5, 5), dtype=bool)
    expected_forward[2:, 0] = expected_forward[1:, 1] = True
    expected_forward[:, 3] = expected_forward[:, 4] = True
    expected_backward = np.zeros((5, 5), dtype=bool)
    expected_backward[:3, 0] = expected_backward[:4, 1] = True
    expected_backward[:, 3] = expected_backward[:1, 4] = True
    for forward, expected in ((True, expected_forward), (False, expected_backward)):
        horizon = bitops.time_horizon(
            5, seeds, forward=forward, entering=[entering, np.zeros_like(entering)]
        )
        assert horizon.shape == (5, 1, 1)
        np.testing.assert_array_equal(bitops.unpack_bits(horizon[:, 0], 5), expected)
    assert not bitops.time_horizon(3, [[], []]).any()


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
