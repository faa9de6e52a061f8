"""Unit tests for the linear-algebra substrate: the Lemma-1 nilpotence checks."""

from __future__ import annotations

import numpy as np

from repro.core import build_block_adjacency
from repro.linalg import (
    is_nilpotent,
    is_strictly_upper_triangular,
    nilpotency_index,
    topological_order,
)


class TestNilpotence:
    def test_strictly_upper_triangular(self):
        assert is_strictly_upper_triangular(np.array([[0, 1], [0, 0]]))
        assert not is_strictly_upper_triangular(np.array([[0, 0], [1, 0]]))
        assert is_strictly_upper_triangular(np.zeros((3, 3)))

    def test_topological_order_of_dag(self):
        m = np.array([[0, 1, 1], [0, 0, 1], [0, 0, 0]])
        order = topological_order(m)
        assert order is not None
        pos = {int(v): i for i, v in enumerate(order)}
        assert pos[0] < pos[1] < pos[2]

    def test_topological_order_none_for_cycle(self):
        m = np.array([[0, 1], [1, 0]])
        assert topological_order(m) is None
        assert not is_nilpotent(m)

    def test_self_loop_not_nilpotent(self):
        assert not is_nilpotent(np.array([[1]]))

    def test_nilpotency_index_values(self):
        chain = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert nilpotency_index(chain) == 3
        single = np.array([[0, 1], [0, 0]])
        assert nilpotency_index(single) == 2
        assert nilpotency_index(np.zeros((2, 2))) == 1
        assert nilpotency_index(np.zeros((0, 0))) == 0
        assert nilpotency_index(np.array([[0, 1], [1, 0]])) is None

    def test_lemma1_on_block_matrices(self, figure1, diamond_graph, cyclic_snapshot_graph):
        # acyclic snapshots => nilpotent block matrix (Lemma 1)
        for g in (figure1, diamond_graph):
            block = build_block_adjacency(g)
            assert is_nilpotent(block.matrix)
            assert nilpotency_index(block.matrix) == block.nilpotency_index()
        cyclic_block = build_block_adjacency(cyclic_snapshot_graph)
        assert not is_nilpotent(cyclic_block.matrix)

    def test_nilpotency_index_equals_longest_path_plus_one(self, figure1):
        block = build_block_adjacency(figure1)
        # longest temporal path in Figure 1 has 3 hops -> index 4
        assert nilpotency_index(block.matrix) == 4
