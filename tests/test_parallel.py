"""Unit tests for the batch router and the shard-to-worker chunking."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.parallel import batch_bfs, chunk_by_weight


class TestChunking:
    def test_chunk_by_weight_balances(self):
        items = ["a", "b", "c", "d"]
        weights = [10, 1, 1, 10]
        chunks = chunk_by_weight(items, weights, 2)
        totals = sorted(sum(10 if x in ("a", "d") else 1 for x in c) for c in chunks)
        assert totals == [11, 11]

    def test_chunk_by_weight_validation(self):
        with pytest.raises(GraphError):
            chunk_by_weight([1, 2], [1.0], 2)
        with pytest.raises(GraphError):
            chunk_by_weight([1], [1.0], 0)


class TestBatchBFS:
    def test_serial_backend(self, figure1):
        results = batch_bfs(figure1, [(1, "t1"), (1, "t2")])
        assert set(results) == {(1, "t1"), (1, "t2")}
        assert results[(1, "t2")].reached[(3, "t3")] == 2

    def test_inactive_roots_skipped(self, figure1):
        for backend in ("vectorized", "python"):
            results = batch_bfs(figure1, [(3, "t1"), (1, "t1")], backend=backend)
            assert set(results) == {(1, "t1")}

    def test_unknown_backend_rejected(self, figure1):
        # only "vectorized" and "python" are backends
        for backend in ("gpu", "serial", "thread", "process"):
            with pytest.raises(GraphError):
                batch_bfs(figure1, [(1, "t1"), (1, "t2")], backend=backend)
