"""Nilpotence tests and structural checks for (block) adjacency matrices.

Lemma 1 of the paper: when every snapshot of an evolving directed graph is
acyclic, the block adjacency matrix ``A_n`` is nilpotent, which in turn
guarantees termination of the algebraic BFS (Theorem 3).  These helpers make
the lemma executable on arbitrary sparse matrices: triangularity checks under
a permutation (topological order), nilpotency index computation, and a
cycle-detection fallback for matrices that are not permutation-triangular.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "is_strictly_upper_triangular",
    "topological_order",
    "is_nilpotent",
    "nilpotency_index",
]


def is_strictly_upper_triangular(matrix: sp.spmatrix | np.ndarray) -> bool:
    """Whether the matrix (in its given ordering) is strictly upper triangular."""
    coo = sp.coo_matrix(matrix)
    if coo.nnz == 0:
        return True
    return bool(np.all(coo.row < coo.col))


def topological_order(matrix: sp.spmatrix | np.ndarray) -> np.ndarray | None:
    """A topological order of the digraph with adjacency ``matrix``, or ``None`` if cyclic.

    Kahn's algorithm on the sparse structure; a topological order exists iff
    the matrix is permutation-similar to a strictly upper triangular matrix,
    i.e. iff it is nilpotent (for 0/1 adjacency matrices).
    """
    csr = sp.csr_matrix(matrix)
    n = csr.shape[0]
    indeg = np.zeros(n, dtype=np.int64)
    coo = csr.tocoo()
    np.add.at(indeg, coo.col, 1)
    # self-loops make the graph cyclic immediately
    if np.any(coo.row == coo.col):
        return None
    order = []
    stack = list(np.nonzero(indeg == 0)[0])
    indeg = indeg.copy()
    while stack:
        u = stack.pop()
        order.append(u)
        row = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        for w in row:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    if len(order) != n:
        return None
    return np.asarray(order, dtype=np.int64)


def is_nilpotent(matrix: sp.spmatrix | np.ndarray) -> bool:
    """Whether a non-negative 0/1-pattern matrix is nilpotent.

    Equivalent to its digraph being acyclic; decided by topological sorting
    (linear in the number of stored entries) rather than by repeated
    squaring.
    """
    return topological_order(matrix) is not None


def nilpotency_index(
    matrix: sp.spmatrix | np.ndarray, max_power: int | None = None
) -> int | None:
    """Smallest ``k`` with ``matrix^k = 0`` (pattern-wise), or ``None`` if not nilpotent.

    For a nilpotent adjacency matrix the index equals one plus the length (in
    edges) of the longest path in its digraph.
    """
    csr = sp.csr_matrix(matrix)
    n = csr.shape[0]
    if n == 0 or csr.nnz == 0:
        return 0 if n == 0 else 1
    order = topological_order(csr)
    if order is None:
        return None
    limit = n if max_power is None else min(max_power, n)
    # longest-path DP in topological order
    longest = np.zeros(n, dtype=np.int64)
    for u in order:
        row = csr.indices[csr.indptr[u] : csr.indptr[u + 1]]
        for w in row:
            longest[w] = max(longest[w], longest[u] + 1)
    index = int(longest.max()) + 1
    return index if index <= limit or max_power is None else None
