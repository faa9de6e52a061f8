"""A small, explicit CSR/CSC sparse-matrix kernel.

The complexity statements of Theorems 5 and 6 are phrased in terms of the
cost model of compressed sparse column storage ("the gaxpy operation for CSC
matrices costs 2·nnz flops", "checking whether each column of A is empty").
`scipy.sparse` of course provides highly optimised kernels, but its
implementation hides the operation counts the theorems reason about.  This
module therefore provides a transparent CSR/CSC implementation whose
operations expose explicit *flop counters*, so the benchmark harness can
verify the cost model empirically (``benchmarks/bench_representations.py``)
while the production code paths keep using SciPy.

Only the operations the paper's analysis needs are implemented: construction
from COO triplets, transposition, sparse matrix–vector and matrix–block
products (both orientations, with multi-vector products accounted per
column), emptiness checks of rows/columns, and conversion to/from
SciPy/dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.exceptions import RepresentationError

__all__ = ["CSRMatrix", "OperationCounter"]


@dataclass
class OperationCounter:
    """Mutable counter of the work performed by :class:`CSRMatrix` kernels.

    ``multiply_adds``/``column_checks``/``row_checks`` are the Theorem 5/6
    cost model of the blocked algorithm; the engine sweeps charge the sparse
    work they actually gather to ``multiply_adds``.  ``word_ops`` accounts
    the packed bookkeeping of those sweeps (:mod:`repro.engine.bitops`): one
    unit per 64-bit word operation, so 64 slot-level boolean operations cost
    one ``word_op`` — which is how the test suite asserts that a packed
    sweep does strictly less total work than the Theorem 5/6 charge of the
    same search.
    """

    multiply_adds: int = 0
    column_checks: int = 0
    row_checks: int = 0
    word_ops: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.multiply_adds = 0
        self.column_checks = 0
        self.row_checks = 0
        self.word_ops = 0

    def total(self) -> int:
        """Total number of counted elementary operations."""
        return (
            self.multiply_adds + self.column_checks + self.row_checks + self.word_ops
        )


@dataclass
class CSRMatrix:
    """Compressed sparse row matrix with explicit operation counting.

    Attributes
    ----------
    indptr, indices, data:
        The usual CSR arrays: row ``i`` owns entries
        ``indices[indptr[i]:indptr[i+1]]`` / ``data[indptr[i]:indptr[i+1]]``.
    shape:
        ``(n_rows, n_cols)``.
    counter:
        The :class:`OperationCounter` incremented by every kernel call.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    counter: OperationCounter = field(default_factory=OperationCounter)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        n_rows, n_cols = self.shape
        if self.indptr.shape[0] != n_rows + 1:
            raise RepresentationError(
                f"indptr must have length n_rows+1 = {n_rows + 1}, got {self.indptr.shape[0]}")
        if self.indices.shape != self.data.shape:
            raise RepresentationError("indices and data must have the same length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise RepresentationError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise RepresentationError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise RepresentationError("column indices out of range")

    # ------------------------------------------------------------------ #
    # constructors                                                        #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_coo(
        cls,
        rows: Sequence[int] | np.ndarray,
        cols: Sequence[int] | np.ndarray,
        data: Sequence[float] | np.ndarray | None,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Build from COO triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if data is None:
            data = np.ones(rows.shape[0], dtype=np.float64)
        data = np.asarray(data, dtype=np.float64)
        if not (rows.shape == cols.shape == data.shape):
            raise RepresentationError("rows, cols and data must have equal length")
        n_rows, n_cols = shape
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise RepresentationError("row indices out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise RepresentationError("column indices out of range")
        order = np.lexsort((cols, rows))
        rows, cols, data = rows[order], cols[order], data[order]
        # sum duplicates
        if rows.size:
            keys = rows * n_cols + cols
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            summed = np.zeros(unique_keys.shape[0], dtype=np.float64)
            np.add.at(summed, inverse, data)
            rows = unique_keys // n_cols
            cols = unique_keys % n_cols
            data = summed
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(indptr=indptr, indices=cols, data=data, shape=shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build from a dense array (zeros are dropped)."""
        dense = np.asarray(dense)
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_scipy(cls, matrix: sp.spmatrix) -> "CSRMatrix":
        """Build from any SciPy sparse matrix."""
        csr = sp.csr_matrix(matrix)
        csr.sum_duplicates()
        return cls(indptr=csr.indptr.copy(), indices=csr.indices.copy(),
                   data=csr.data.astype(np.float64), shape=csr.shape)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], num_nodes: int) -> "CSRMatrix":
        """0/1 adjacency matrix of a directed edge list over ``num_nodes`` nodes."""
        edge_list = list(edges)
        rows = [u for u, _ in edge_list]
        cols = [v for _, v in edge_list]
        return cls.from_coo(rows, cols, None, (num_nodes, num_nodes))

    # ------------------------------------------------------------------ #
    # basic properties                                                    #
    # ------------------------------------------------------------------ #

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.shape[0])

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(column indices, values)`` of row ``i`` (views, not copies)."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def col_nnz(self) -> np.ndarray:
        """Number of stored entries per column."""
        counts = np.zeros(self.num_cols, dtype=np.int64)
        np.add.at(counts, self.indices, 1)
        return counts

    def empty_rows(self) -> np.ndarray:
        """Boolean mask of rows with no stored entry (cost counted as row checks)."""
        self.counter.row_checks += self.num_rows
        return self.row_nnz() == 0

    def empty_cols(self) -> np.ndarray:
        """Boolean mask of columns with no stored entry (cost counted as column checks)."""
        self.counter.column_checks += self.nnz + self.num_cols
        return self.col_nnz() == 0

    # ------------------------------------------------------------------ #
    # kernels                                                             #
    # ------------------------------------------------------------------ #

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = A @ x`` — the CSR gaxpy; costs ``2 nnz`` flops (Theorem 6's model).

        Two-dimensional inputs are routed to :meth:`matmat` so that batched
        multi-vector products are accounted per column.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return self.matmat(x)
        if x.shape[0] != self.num_cols:
            raise RepresentationError(
                f"dimension mismatch: matrix has {self.num_cols} columns, vector has {x.shape[0]}")
        self.counter.multiply_adds += 2 * self.nnz
        y = np.zeros(self.num_rows, dtype=np.float64)
        contrib = self.data * x[self.indices]
        np.add.at(y, np.repeat(np.arange(self.num_rows), self.row_nnz()), contrib)
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``y = A.T @ x`` without forming the transpose; also ``2 nnz`` flops.

        Two-dimensional inputs are routed to :meth:`rmatmat` so that batched
        multi-vector products are accounted per column.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return self.rmatmat(x)
        if x.shape[0] != self.num_rows:
            raise RepresentationError(
                f"dimension mismatch: matrix has {self.num_rows} rows, vector has {x.shape[0]}")
        self.counter.multiply_adds += 2 * self.nnz
        y = np.zeros(self.num_cols, dtype=np.float64)
        weights = np.repeat(x, self.row_nnz()) * self.data
        np.add.at(y, self.indices, weights)
        return y

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """``Y = A @ X`` for a dense block ``X`` of ``r`` columns; costs ``2 nnz r`` flops.

        A multi-vector product is one gaxpy *per column* in the Theorem 5/6
        cost model, so the counter advances by ``2 nnz`` per column — the
        accounting the batched multi-source frontier engine relies on.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.matvec(x)
        if x.ndim != 2 or x.shape[0] != self.num_cols:
            raise RepresentationError(
                f"dimension mismatch: matrix has {self.num_cols} columns, "
                f"block has shape {x.shape}")
        num_vectors = x.shape[1]
        self.counter.multiply_adds += 2 * self.nnz * num_vectors
        y = np.zeros((self.num_rows, num_vectors), dtype=np.float64)
        contrib = self.data[:, None] * x[self.indices, :]
        np.add.at(y, np.repeat(np.arange(self.num_rows), self.row_nnz()), contrib)
        return y

    def rmatmat(self, x: np.ndarray) -> np.ndarray:
        """``Y = A.T @ X`` without forming the transpose; also ``2 nnz r`` flops."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            return self.rmatvec(x)
        if x.ndim != 2 or x.shape[0] != self.num_rows:
            raise RepresentationError(
                f"dimension mismatch: matrix has {self.num_rows} rows, "
                f"block has shape {x.shape}")
        num_vectors = x.shape[1]
        self.counter.multiply_adds += 2 * self.nnz * num_vectors
        y = np.zeros((self.num_cols, num_vectors), dtype=np.float64)
        weights = np.repeat(x, self.row_nnz(), axis=0) * self.data[:, None]
        np.add.at(y, self.indices, weights)
        return y

    def transpose(self) -> "CSRMatrix":
        """Explicit transpose (a CSC view of the same data, re-expressed as CSR)."""
        coo_rows = np.repeat(np.arange(self.num_rows), self.row_nnz())
        return CSRMatrix.from_coo(self.indices, coo_rows, self.data,
                                  (self.num_cols, self.num_rows))

    # ------------------------------------------------------------------ #
    # conversions                                                         #
    # ------------------------------------------------------------------ #

    def to_dense(self) -> np.ndarray:
        """Dense copy."""
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.num_rows), self.row_nnz())
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self) -> sp.csr_matrix:
        """SciPy CSR copy."""
        return sp.csr_matrix((self.data.copy(), self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CSRMatrix shape={self.shape} nnz={self.nnz}>"
