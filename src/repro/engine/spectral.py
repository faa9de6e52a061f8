"""The spectral kernel: sparse communicability and walk counting on the stacks.

The Grindrod–Higham comparison baseline (:mod:`repro.algorithms.dynamic_walks`,
SIAM Review 55(1)) is built from per-snapshot *resolvents*: the
communicability matrix is the ordered product

    Q = (I - a S[1])^{-1} (I - a S[2])^{-1} ... (I - a S[n])^{-1}

over the symmetrized snapshot adjacencies ``S[t]``.  The reference
implementation densifies every snapshot, inverts it with ``np.linalg.inv``
and bounds the spectral radius with dense ``eigvals`` — an ``O(T * N^3)``
wall.  :class:`SpectralKernel` is the sibling of
:class:`~repro.engine.frontier.FrontierKernel` (whose level loop runs the
distance and 0/1 label families) over the same shared
:class:`~repro.graph.compiled.CompiledTemporalGraph`, executing the whole
family sparsely:

* **resolvent application** — ``(I - a S[t]) x = b`` is solved with a cached
  sparse LU factorization (:func:`scipy.sparse.linalg.splu`), one
  factorization per ``(snapshot, alpha)`` reused across every right-hand
  side.  Broadcast centrality is *one* ones-vector pushed through the
  reversed resolvent chain (``Q @ 1``), receive centrality is the ones
  vector through the transposed chain (``Q^T @ 1``); the dense ``Q`` is
  never materialized unless :meth:`communicability` is explicitly asked for
  it, and even then it is assembled via batched multi-RHS solves against
  ``(N, B)`` column blocks;
* **spectral-radius bounds** — a Gershgorin fast path (``rho <= min(max row
  sum, max column sum)``, exact accept for every benign ``alpha``) backed by
  certified Collatz–Wielandt power-iteration bounds per strongly connected
  component (the shift ``S + I`` makes every component primitive, so the
  bounds close geometrically) replacing dense ``eigvals``;
* **walk-generating products** — :meth:`count_walks` pushes one integer
  basis vector through the truncated products ``W[t] = I + S[t] + S[t]^2 +
  ...`` as sparse SpMVs, exact in int64 (bit-identical to the dense
  reference, including its truncation and early-exit semantics).

Every dense block the kernel allocates is accounted in
:class:`SpectralOpStats` (``peak_dense_cells``), so the test suite and the
ablation benchmark can assert that no ``N x N`` dense intermediate ever
appears on the vectorized centrality/walk paths — the counterpart of the
CSR flop accounting the frontier kernel carries.

Use :func:`repro.engine.get_spectral_kernel` for the cached instance; the
algorithms layer (:mod:`repro.algorithms.dynamic_walks`) rides it behind the
usual ``backend="python" | "vectorized"`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from repro.exceptions import ConvergenceError, GraphError
from repro.graph.base import BaseEvolvingGraph, Node, Time
from repro.graph.compiled import CompiledTemporalGraph

__all__ = ["SpectralKernel", "SpectralOpStats"]


@dataclass
class SpectralOpStats:
    """Operator-level accounting for :class:`SpectralKernel` invocations.

    The spectral analogue of :class:`~repro.linalg.csr.OperationCounter`:
    ``peak_dense_cells`` records the largest dense block (rows x columns)
    any kernel operation allocated, which is how the test suite asserts
    that the vectorized centrality and walk-counting paths never touch an
    ``N x N`` dense intermediate (the dense ``Q`` returned by
    :meth:`SpectralKernel.communicability` is the caller's explicit ask and
    is accounted separately in ``materialized_cells``).
    """

    factorizations: int = 0
    solves: int = 0
    solve_columns: int = 0
    spmv_flops: int = 0
    power_iterations: int = 0
    gershgorin_accepts: int = 0
    peak_dense_cells: int = 0
    materialized_cells: int = 0

    def note_dense(self, rows: int, cols: int) -> None:
        """Record a dense working-block allocation of ``rows x cols`` cells."""
        self.peak_dense_cells = max(self.peak_dense_cells, int(rows) * int(cols))

    def reset(self) -> None:
        """Zero every counter."""
        self.factorizations = 0
        self.solves = 0
        self.solve_columns = 0
        self.spmv_flops = 0
        self.power_iterations = 0
        self.gershgorin_accepts = 0
        self.peak_dense_cells = 0
        self.materialized_cells = 0


class SpectralKernel:
    """Sparse resolvent/walk-counting engine over one compiled evolving graph.

    Parameters
    ----------
    source:
        A :class:`~repro.graph.compiled.CompiledTemporalGraph` (the shared
        artifact, preferred — see :func:`repro.engine.get_spectral_kernel`)
        or any evolving graph, compiled on construction.
    stats:
        Optional :class:`SpectralOpStats`; one is created when omitted.

    Notes
    -----
    Construction is cheap: the symmetrized operator stack, the per-snapshot
    float/integer casts, the LU factorizations and the spectral-radius
    bounds are all built lazily on first use and cached on the kernel (the
    compiled artifact is immutable, so the caches can never go stale).
    """

    def __init__(
        self,
        source: CompiledTemporalGraph | BaseEvolvingGraph,
        *,
        stats: SpectralOpStats | None = None,
    ) -> None:
        if isinstance(source, CompiledTemporalGraph):
            compiled = source
        elif isinstance(source, BaseEvolvingGraph):
            compiled = CompiledTemporalGraph.from_graph(source)
        else:
            raise GraphError(
                "SpectralKernel requires a CompiledTemporalGraph or an "
                f"evolving graph, got {type(source).__name__}"
            )
        self.compiled = compiled
        self.stats = stats if stats is not None else SpectralOpStats()
        self._labels: list[Node] = compiled.node_labels
        self._times: tuple[Time, ...] = compiled.times
        # lazy caches, all keyed on immutable artifact structure
        self._float_csc: dict[int, sp.csc_matrix] = {}
        self._int_csr: dict[int, sp.csr_matrix] = {}
        self._lu: dict[tuple[int, float], object] = {}
        self._radius: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------------ #
    # operator access                                                     #
    # ------------------------------------------------------------------ #

    def _operator(self, ti: int) -> sp.csr_matrix:
        """The symmetrized snapshot adjacency ``S[t]`` (0/1 CSR, no diagonal)."""
        return self.compiled.symmetrized_operators[ti]

    def _float_operator(self, ti: int) -> sp.csc_matrix:
        """``S[t]`` as float64 CSC (the factorization/solve orientation)."""
        cached = self._float_csc.get(ti)
        if cached is None:
            cached = self._operator(ti).astype(np.float64).tocsc()
            self._float_csc[ti] = cached
        return cached

    def _int_operator(self, ti: int) -> sp.csr_matrix:
        """``S[t]`` as int64 CSR (the exact walk-counting dtype)."""
        cached = self._int_csr.get(ti)
        if cached is None:
            cached = self._operator(ti).astype(np.int64)
            self._int_csr[ti] = cached
        return cached

    # ------------------------------------------------------------------ #
    # spectral-radius bounds (the sparse replacement for dense eigvals)   #
    # ------------------------------------------------------------------ #

    def gershgorin_bound(self, ti: int) -> float:
        """Cheap upper bound on ``rho(S[t])``: ``min(max row sum, max col sum)``.

        Both bounds hold for any nonnegative matrix; the minimum of the two
        is read straight off the CSR structure in ``O(nnz)``.
        """
        mat = self._operator(ti)
        if mat.nnz == 0:
            return 0.0
        row_sums = np.diff(mat.indptr)
        col_sums = np.bincount(mat.indices, minlength=mat.shape[1])
        return float(min(row_sums.max(), col_sums.max()))

    def spectral_radius_bounds(
        self, ti: int, *, tol: float = 1e-10, max_iter: int = 1000
    ) -> tuple[float, float]:
        """Certified ``(lower, upper)`` bounds on ``rho(S[t])``, computed sparsely.

        ``rho`` of a nonnegative matrix is the maximum over its strongly
        connected components of the component's Perron root, so each
        nontrivial component is power-iterated separately on the shifted
        matrix ``S + I`` (primitive on every component, hence geometric
        convergence) with Collatz–Wielandt enclosures: for any positive
        ``x``, ``min_i (Bx)_i / x_i <= rho(B) <= max_i (Bx)_i / x_i``.
        Results are cached per snapshot on the kernel.
        """
        cached = self._radius.get(ti)
        if cached is not None:
            return cached
        mat = self._operator(ti)
        if mat.nnz == 0:
            bounds = (0.0, 0.0)
            self._radius[ti] = bounds
            return bounds
        num_comp, labels = csgraph.connected_components(
            mat, directed=True, connection="strong"
        )
        sizes = np.bincount(labels, minlength=num_comp)
        lo = hi = 0.0
        for comp in np.nonzero(sizes >= 2)[0]:
            idx = np.nonzero(labels == comp)[0]
            sub = mat[idx][:, idx].tocsr()
            c_lo, c_hi = self._component_bounds(sub, tol, max_iter)
            lo = max(lo, c_lo)
            hi = max(hi, c_hi)
        bounds = (lo, hi)
        self._radius[ti] = bounds
        return bounds

    def _component_bounds(
        self, sub: sp.csr_matrix, tol: float, max_iter: int
    ) -> tuple[float, float]:
        """Collatz–Wielandt enclosure of one irreducible component's Perron root."""
        n = sub.shape[0]
        x = np.full(n, 1.0 / np.sqrt(n))
        lo, hi = 0.0, float("inf")
        for _ in range(max_iter):
            y = sub @ x + x  # (S + I) x: strictly positive whenever x is
            self.stats.power_iterations += 1
            self.stats.spmv_flops += 2 * int(sub.nnz) + n
            ratios = y / x
            lo = max(lo, float(ratios.min()))
            hi = min(hi, float(ratios.max()))
            if hi - lo <= tol * max(hi, 1.0):
                break
            x = y / np.linalg.norm(y)
        # undo the +I shift; enclosure survives the exact shift of the spectrum
        return max(lo - 1.0, 0.0), max(hi - 1.0, 0.0)

    def check_alpha(self, alpha: float) -> None:
        """Raise :class:`ConvergenceError` when ``alpha >= 1 / rho(S[t])`` anywhere.

        The exact raise semantics of the dense reference
        (:func:`repro.algorithms.dynamic_walks.communicability_matrix`):
        snapshots are scanned in time order, empty snapshots are skipped,
        and the first offending snapshot raises.  Most benign ``alpha``
        values are accepted by the ``O(nnz)`` Gershgorin bound without any
        iteration; only ``alpha`` in the ambiguous band pays for the
        certified power-iteration enclosure.
        """
        for ti, t in enumerate(self._times):
            if self._operator(ti).nnz == 0:
                continue
            upper = self.gershgorin_bound(ti)
            if upper <= 0.0:
                continue
            if alpha < 1.0 / upper:
                self.stats.gershgorin_accepts += 1
                continue
            lo, hi = self.spectral_radius_bounds(ti)
            if hi <= 0.0:
                continue
            if alpha < 1.0 / hi:
                continue  # certified safe
            if lo > 0.0 and alpha >= 1.0 / lo:
                rho = lo  # certified unsafe
            else:
                # enclosure did not separate alpha; decide on the midpoint
                rho = (lo + hi) / 2.0
                if rho <= 0.0 or alpha < 1.0 / rho:
                    continue
            raise ConvergenceError(
                f"alpha={alpha} is not smaller than 1/spectral radius "
                f"({1.0 / rho:.4f}) of the snapshot at {t!r}"
            )

    # ------------------------------------------------------------------ #
    # resolvent chain application                                         #
    # ------------------------------------------------------------------ #

    def _resolvent_lu(self, ti: int, alpha: float):
        """Cached sparse LU of ``I - alpha * S[t]`` (shared by all solves)."""
        key = (ti, float(alpha))
        lu = self._lu.get(key)
        if lu is None:
            s = self._float_operator(ti)
            n = s.shape[0]
            m = (sp.identity(n, format="csc", dtype=np.float64) - alpha * s).tocsc()
            lu = spla.splu(m)
            self._lu[key] = lu
            self.stats.factorizations += 1
        return lu

    def apply_resolvent_chain(
        self,
        block: np.ndarray,
        alpha: float,
        *,
        transpose: bool = False,
    ) -> np.ndarray:
        """Apply the full communicability product to a dense ``(N,)`` / ``(N, B)`` block.

        ``transpose=False`` computes ``Q @ block`` (resolvents applied last
        snapshot first), ``transpose=True`` computes ``Q^T @ block``
        (transposed solves, first snapshot first).  Empty snapshots
        contribute an identity resolvent and are skipped outright.  Cost is
        one cached-LU solve per non-empty snapshot per call — never a dense
        inversion, never an ``N x N`` intermediate.
        """
        n = self.compiled.num_nodes
        out = np.array(block, dtype=np.float64, copy=True)
        if out.shape[0] != n:
            raise GraphError(
                f"block has {out.shape[0]} rows; the compiled universe has {n}"
            )
        cols = out.shape[1] if out.ndim == 2 else 1
        self.stats.note_dense(n, cols)
        t_count = self.compiled.num_snapshots
        order = range(t_count) if transpose else range(t_count - 1, -1, -1)
        trans = "T" if transpose else "N"
        for ti in order:
            if self._operator(ti).nnz == 0:
                continue
            out = self._resolvent_lu(ti, alpha).solve(out, trans=trans)
            self.stats.solves += 1
            self.stats.solve_columns += cols
        return out

    # ------------------------------------------------------------------ #
    # communicability family                                              #
    # ------------------------------------------------------------------ #

    def broadcast_sums(self, alpha: float, *, check: bool = True) -> np.ndarray:
        """Row sums of ``Q`` minus the identity contribution, as an ``(N,)`` array.

        One ones-vector through the reversed resolvent chain: ``Q @ 1 - 1``.
        """
        if check:
            self.check_alpha(alpha)
        ones = np.ones(self.compiled.num_nodes, dtype=np.float64)
        return self.apply_resolvent_chain(ones, alpha) - 1.0

    def receive_sums(self, alpha: float, *, check: bool = True) -> np.ndarray:
        """Column sums of ``Q`` minus the identity contribution (``Q^T @ 1 - 1``)."""
        if check:
            self.check_alpha(alpha)
        ones = np.ones(self.compiled.num_nodes, dtype=np.float64)
        return self.apply_resolvent_chain(ones, alpha, transpose=True) - 1.0

    def communicability(
        self,
        alpha: float,
        *,
        check: bool = True,
        block_size: int = 256,
    ) -> np.ndarray:
        """The dense ``(N, N)`` communicability matrix ``Q``, assembled blockwise.

        The only kernel operation that materializes ``Q`` — callers that
        want centralities should use :meth:`broadcast_sums` /
        :meth:`receive_sums`, which never do.  Identity column blocks of
        width ``block_size`` are pushed through the resolvent chain with the
        same cached factorizations, so the per-snapshot work is one
        multi-RHS triangular solve rather than a dense inversion.
        """
        if block_size < 1:
            raise GraphError("block_size must be at least 1")
        if check:
            self.check_alpha(alpha)
        n = self.compiled.num_nodes
        q = np.eye(n, dtype=np.float64)
        self.stats.materialized_cells = max(self.stats.materialized_cells, n * n)
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            q[:, start:stop] = self.apply_resolvent_chain(q[:, start:stop], alpha)
        return q

    # ------------------------------------------------------------------ #
    # dynamic-walk counting                                               #
    # ------------------------------------------------------------------ #

    def count_walks(
        self,
        origin: Node,
        target: Node,
        *,
        max_edges_per_snapshot: int | None = None,
    ) -> int:
        """Exact dynamic-walk count from ``origin`` to ``target`` (int64).

        One integer basis vector pushed right-to-left through the truncated
        walk-generating products ``W[t] = I + S[t] + S[t]^2 + ...`` — the
        ``(origin, target)`` entry of the dense reference's matrix product,
        computed with one sparse SpMV per power instead of an ``N x N``
        dense matmul, with the same truncation cap (``N`` by default) and
        the same early exit on a vanished power.  int64 arithmetic matches
        the dense path bit for bit (including overflow wrap-around, which
        is associative modulo 2**64).
        """
        index = self.compiled._node_index
        i = index[origin]
        j = index[target]
        n = self.compiled.num_nodes
        cap = max_edges_per_snapshot if max_edges_per_snapshot is not None else n
        x = np.zeros(n, dtype=np.int64)
        x[j] = 1
        self.stats.note_dense(n, 1)
        for ti in range(self.compiled.num_snapshots - 1, -1, -1):
            mat = self._int_operator(ti)
            if mat.nnz == 0:
                continue
            acc = x.copy()
            power = x
            for _ in range(cap):
                power = mat @ power
                self.stats.spmv_flops += 2 * int(mat.nnz)
                if not power.any():
                    break
                acc += power
            x = acc
        return int(x[i])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SpectralKernel snapshots={self.compiled.num_snapshots} "
            f"nodes={self.compiled.num_nodes} nnz={self.compiled.nnz}>"
        )
