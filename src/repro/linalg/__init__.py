"""The engine's operation counter and the Lemma-1 nilpotence checks.

* :class:`~repro.linalg.csr.OperationCounter` — the work the engine's sweeps
  charge, in the cost model of Theorems 5/6.
* :mod:`~repro.linalg.nilpotence` — nilpotence checks backing Lemma 1.

The sparse operators themselves are scipy.sparse matrices held by
:class:`~repro.graph.compiled.CompiledTemporalGraph`.
"""

from repro.linalg.csr import OperationCounter
from repro.linalg.nilpotence import (
    is_nilpotent,
    is_strictly_upper_triangular,
    nilpotency_index,
    topological_order,
)

__all__ = [
    "OperationCounter",
    "is_nilpotent",
    "is_strictly_upper_triangular",
    "nilpotency_index",
    "topological_order",
]
