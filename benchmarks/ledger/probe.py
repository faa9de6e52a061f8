"""A fixed reference computation timed next to every measured operation.

The machine the ledger runs on shares its cores with other tenants, whose
load changes the speed of every instruction the ledger runs, by up to half
and for minutes at a time.  A latency alone then measures the neighbours as
much as the library.  The probe is a fixed mix of the kinds of work the
library's operations do, on fixed inputs, and it imports nothing from the
library, so no change to the library can change its time; a neighbour that
slows the operation slows the probe with it.  The harness times the probe
just before each operation and reports, besides the raw latencies, each
latency divided by the mean of the probes on either side of it.

The mix (about 5 ms on a 2.1-GHz Xeon core):

* interpreter work: building a dict of 10 000 ints;
* per-call overhead of NumPy on small arrays: 750 fused bit-plane updates
  of 4 x 48 words, the shape of a narrow sweep's frontier;
* a sparse product: a 3000 x 3000 CSR matrix with 36 000 entries times a
  3000 x 64 block.

Do not change it: every measurement taken with one probe is comparable only
with measurements taken with the same probe.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp

_clock = time.perf_counter


class Probe:
    """The reference mix, built once from constant inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        n, nnz = 3000, 36_000
        rows = rng.integers(0, n, nnz)
        cols = rng.integers(0, n, nnz)
        self.matrix = sp.csr_matrix(
            (np.ones(nnz, dtype=np.int32), (rows, cols)), shape=(n, n)
        )
        self.block = (rng.random((n, 64)) < 0.1).astype(np.int32)
        self.row = rng.integers(0, 2**63, size=(4, 48), dtype=np.uint64)

    def time(self) -> float:
        """Seconds one run of the mix takes now."""
        # with the collector off, the probe does not depend on how large the
        # workload's heap has grown
        gc.disable()
        try:
            start = _clock()
            table = {}
            for i in range(10_000):
                table[8 * i + (i & 7)] = i
            acc = self.row.copy()
            for _ in range(750):
                acc |= self.row & ~acc
                acc.any()
            _ = (self.matrix @ self.block) > 0
            return _clock() - start
        finally:
            gc.enable()
