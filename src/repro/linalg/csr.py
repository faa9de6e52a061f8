"""The operation counter the engine's sweeps charge.

The complexity statements of Theorems 5 and 6 are phrased in the cost model
of compressed sparse column storage ("the gaxpy operation for CSC matrices
costs 2·nnz flops", "checking whether each column of A is empty").  The
engine's sweeps run over scipy.sparse operators and charge the work they
actually do to an :class:`OperationCounter`, so the test suite can compare
a packed sweep against the Theorem 5/6 charge of the same search.

The module keeps its path because the layer ledger
(``benchmarks/ledger/layers.py``) imports :class:`OperationCounter` from it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OperationCounter"]


@dataclass
class OperationCounter:
    """Mutable counter of the work performed by the engine's sweeps.

    ``multiply_adds``/``column_checks`` are the Theorem 5/6 cost model of the
    blocked algorithm; the engine sweeps charge the sparse work they actually
    gather to ``multiply_adds``.  ``word_ops`` accounts the packed
    bookkeeping of those sweeps (:mod:`repro.engine.bitops`): one unit per
    64-bit word operation, so 64 slot-level boolean operations cost one
    ``word_op`` — which is how the test suite asserts that a packed sweep
    does strictly less total work than the Theorem 5/6 charge of the same
    search.
    """

    multiply_adds: int = 0
    column_checks: int = 0
    word_ops: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        self.multiply_adds = 0
        self.column_checks = 0
        self.word_ops = 0

    def total(self) -> int:
        """Total number of counted elementary operations."""
        return self.multiply_adds + self.column_checks + self.word_ops
