"""Property-based equivalence for the spectral kernel (communicability family).

Every function ported onto :class:`~repro.engine.spectral.SpectralKernel`
keeps its dense reference implementation as the correctness oracle behind
``backend="python"``.  These tests draw random evolving graphs and pin the
default vectorized backend to the oracle: communicability matrices within
``atol=1e-8`` (float resolvent chains), broadcast/receive centralities
likewise, and dynamic-walk counts *exactly* (integer SpMV chains vs dense
integer matmuls, including truncation caps).  They also cover the backend
flag, the kernel-cache/version-staleness contract, the sparse
spectral-radius raise semantics, and the operator-level allocation
accounting that proves the centrality/walk paths never touch an ``N x N``
dense intermediate.  Structure mirrors ``tests/test_labels_vectorized.py``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.dynamic_walks import (
    broadcast_centrality,
    communicability_matrix,
    count_dynamic_walks,
    receive_centrality,
)
from repro.engine import (
    SpectralKernel,
    SpectralOpStats,
    get_compiled,
    get_kernel,
    get_spectral_kernel,
    invalidate_kernel,
)
from repro.exceptions import ConvergenceError, GraphError
from repro.graph import AdjacencyListEvolvingGraph

node_labels = st.integers(min_value=0, max_value=12)
time_labels = st.integers(min_value=0, max_value=5)


@st.composite
def evolving_graphs(draw, *, directed: bool | None = None, min_edges: int = 1,
                    max_edges: int = 25):
    """A small random evolving graph as an adjacency-list representation."""
    if directed is None:
        directed = draw(st.booleans())
    n_edges = draw(st.integers(min_value=min_edges, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(node_labels, node_labels, time_labels).filter(lambda e: e[0] != e[1]),
            min_size=n_edges, max_size=n_edges,
        )
    )
    return AdjacencyListEvolvingGraph(edges, directed=directed)


def safe_alpha(graph) -> float:
    """An alpha provably below ``1 / max_t rho(A[t])`` on every snapshot.

    ``0.9 / (1 + U)`` with ``U`` the largest Gershgorin bound: both backends
    are then guaranteed not to raise, so the equivalence is over values.
    """
    kernel = get_spectral_kernel(graph)
    t_count = kernel.compiled.num_snapshots
    bound = max((kernel.gershgorin_bound(ti) for ti in range(t_count)), default=0.0)
    return 0.9 / (1.0 + bound)


ALGO_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# communicability family equivalence                                           #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(evolving_graphs())
def test_communicability_matrix_equals_dense_oracle(graph):
    alpha = safe_alpha(graph)
    q_vec, labels_vec = communicability_matrix(graph, alpha)
    q_py, labels_py = communicability_matrix(graph, alpha, backend="python")
    assert labels_vec == labels_py
    np.testing.assert_allclose(q_vec, q_py, atol=1e-8)


@ALGO_SETTINGS
@given(evolving_graphs())
def test_broadcast_and_receive_equal_dense_oracle(graph):
    alpha = safe_alpha(graph)
    b_vec = broadcast_centrality(graph, alpha)
    b_py = broadcast_centrality(graph, alpha, backend="python")
    assert b_vec.keys() == b_py.keys()
    for key in b_py:
        assert b_vec[key] == pytest.approx(b_py[key], abs=1e-8)
    r_vec = receive_centrality(graph, alpha)
    r_py = receive_centrality(graph, alpha, backend="python")
    assert r_vec.keys() == r_py.keys()
    for key in r_py:
        assert r_vec[key] == pytest.approx(r_py[key], abs=1e-8)


@ALGO_SETTINGS
@given(evolving_graphs(), node_labels, node_labels,
       st.sampled_from([None, 1, 2, 3]))
def test_dynamic_walk_counts_exact(graph, origin, target, cap):
    nodes = graph.nodes()
    if origin not in nodes or target not in nodes:
        with pytest.raises(KeyError):
            count_dynamic_walks(graph, origin, target, max_edges_per_snapshot=cap)
        with pytest.raises(KeyError):
            count_dynamic_walks(
                graph, origin, target, max_edges_per_snapshot=cap, backend="python"
            )
        return
    vectorized = count_dynamic_walks(graph, origin, target, max_edges_per_snapshot=cap)
    python = count_dynamic_walks(
        graph, origin, target, max_edges_per_snapshot=cap, backend="python"
    )
    assert vectorized == python  # exact integers, no tolerance


@ALGO_SETTINGS
@given(evolving_graphs())
def test_communicability_without_radius_check(graph):
    """check_spectral_radius=False skips the guard identically on both backends."""
    alpha = safe_alpha(graph)
    q_vec, _ = communicability_matrix(graph, alpha, check_spectral_radius=False)
    q_py, _ = communicability_matrix(
        graph, alpha, check_spectral_radius=False, backend="python"
    )
    np.testing.assert_allclose(q_vec, q_py, atol=1e-8)


# --------------------------------------------------------------------------- #
# spectral-radius raise semantics (the sparse bound replacing dense eigvals)   #
# --------------------------------------------------------------------------- #

def test_over_large_alpha_raises_on_both_backends(cyclic_snapshot_graph):
    """Regression: ConvergenceError survives the eigvals -> sparse-bound swap."""
    for backend in ("vectorized", "python"):
        with pytest.raises(ConvergenceError):
            communicability_matrix(cyclic_snapshot_graph, alpha=1.5, backend=backend)
        with pytest.raises(ConvergenceError):
            broadcast_centrality(cyclic_snapshot_graph, alpha=1.5, backend=backend)
        with pytest.raises(ConvergenceError):
            receive_centrality(cyclic_snapshot_graph, alpha=1.5, backend=backend)


def test_over_large_alpha_raises_undirected():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")], directed=False)
    for backend in ("vectorized", "python"):
        with pytest.raises(ConvergenceError):  # rho = 1 for one undirected edge
            communicability_matrix(graph, alpha=1.0, backend=backend)


@ALGO_SETTINGS
@given(evolving_graphs())
def test_certified_radius_bounds_enclose_dense_eigvals(graph):
    """The sparse Collatz–Wielandt enclosure brackets the dense spectral radius."""
    from repro.graph.converters import to_matrix_sequence

    kernel = get_spectral_kernel(graph)
    mat_graph = to_matrix_sequence(graph)
    for ti, t in enumerate(kernel.compiled.times):
        dense = np.asarray(
            mat_graph.symmetrized_matrix_at(t).todense(), dtype=np.float64
        )
        rho = max(abs(np.linalg.eigvals(dense))) if dense.any() else 0.0
        lo, hi = kernel.spectral_radius_bounds(ti)
        assert lo - 1e-8 <= rho <= hi + 1e-8
        assert hi <= kernel.gershgorin_bound(ti) + 1e-8


def test_matrix_sequence_with_isolated_labels_matches_oracle():
    """Regression: adopted label universes must not diverge from the dense path.

    A matrix-sequence graph's explicit ``node_labels`` may contain isolated
    nodes (and arbitrary order); the compiled artifact adopts them, but the
    dense oracle re-derives the sorted edge-appearing universe.  The engine
    must detect the mismatch and fall back so both backends return the same
    labels, the same walk-truncation cap, and the same ``KeyError``s.
    """
    import scipy.sparse as sp

    from repro.graph.adjacency_matrix import MatrixSequenceEvolvingGraph

    a0 = sp.csr_matrix(
        np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    )
    graph = MatrixSequenceEvolvingGraph(
        [a0], [0], node_labels=["a", "b", "z", "w"], directed=True
    )
    for origin, target in (("a", "a"), ("a", "b")):
        assert count_dynamic_walks(graph, origin, target) == count_dynamic_walks(
            graph, origin, target, backend="python"
        )
    with pytest.raises(KeyError):  # isolated label is outside the oracle universe
        count_dynamic_walks(graph, "z", "a")
    q_vec, labels_vec = communicability_matrix(graph, 0.3)
    q_py, labels_py = communicability_matrix(graph, 0.3, backend="python")
    assert labels_vec == labels_py == ["a", "b"]
    np.testing.assert_allclose(q_vec, q_py, atol=1e-12)
    assert broadcast_centrality(graph, 0.3) == broadcast_centrality(
        graph, 0.3, backend="python"
    )


def test_matrix_sequence_with_matching_labels_uses_engine():
    """When the adopted labels equal the sorted edge universe, the engine runs."""
    import scipy.sparse as sp

    from repro.graph.adjacency_matrix import MatrixSequenceEvolvingGraph

    a0 = sp.csr_matrix(np.array([[0, 1], [1, 0]]))
    graph = MatrixSequenceEvolvingGraph(
        [a0], [0], node_labels=["a", "b"], directed=True
    )
    b_vec = broadcast_centrality(graph, 0.3)
    b_py = broadcast_centrality(graph, 0.3, backend="python")
    assert b_vec.keys() == b_py.keys()
    for key in b_py:
        assert b_vec[key] == pytest.approx(b_py[key], abs=1e-10)


# --------------------------------------------------------------------------- #
# backend flag, cache and staleness                                            #
# --------------------------------------------------------------------------- #

def test_unknown_backend_rejected():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    with pytest.raises(GraphError):
        communicability_matrix(graph, backend="julia")
    with pytest.raises(GraphError):
        broadcast_centrality(graph, backend="julia")
    with pytest.raises(GraphError):
        receive_centrality(graph, backend="julia")
    with pytest.raises(GraphError):
        count_dynamic_walks(graph, 1, 2, backend="julia")


def test_spectral_kernel_shares_compiled_artifact():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1"), (2, 3, "t2")])
    assert get_spectral_kernel(graph).compiled is get_compiled(graph)
    assert get_spectral_kernel(graph) is get_spectral_kernel(graph)
    with pytest.raises(GraphError):
        SpectralKernel(object())  # type: ignore[arg-type]


def test_kernel_cache_refreshes_on_mutation():
    """A version bump invalidates the cached spectral kernel and its LU caches."""
    graph = AdjacencyListEvolvingGraph(
        [(1, 2, "t1")], directed=True, timestamps=["t1", "t2"]
    )
    before = get_spectral_kernel(graph)
    stale = count_dynamic_walks(graph, 1, 2)
    assert stale == 1
    graph.add_edge(2, 3, "t2")
    after = get_spectral_kernel(graph)
    assert after is not before
    assert after.compiled.mutation_version == graph.mutation_version
    # results reflect the mutation on both backends
    assert count_dynamic_walks(graph, 1, 3) == count_dynamic_walks(
        graph, 1, 3, backend="python"
    )
    alpha = safe_alpha(graph)
    assert broadcast_centrality(graph, alpha).keys() == broadcast_centrality(
        graph, alpha, backend="python"
    ).keys()


def test_stale_kernel_keeps_old_answers():
    """The artifact is a snapshot: a pre-mutation kernel answers the old graph."""
    graph = AdjacencyListEvolvingGraph(
        [(1, 2, "t1")], directed=True, timestamps=["t1", "t2"]
    )
    old = get_spectral_kernel(graph)
    graph.add_edge(2, 3, "t2")
    assert old.count_walks(1, 2) == 1
    with pytest.raises(KeyError):
        old.count_walks(1, 3)  # node 3 is not in the old universe
    assert get_spectral_kernel(graph).count_walks(1, 3) == 1


# --------------------------------------------------------------------------- #
# laziness and allocation accounting                                           #
# --------------------------------------------------------------------------- #

def test_symmetrized_stack_is_lazy():
    """Frontier-only workloads never ask for the transposes; spectral work does.

    The symmetrized stack compiles nothing of its own (it is the forward or
    the backward views), so the backward request is the one build to see.
    """
    graph = AdjacencyListEvolvingGraph(
        [(0, 1, 0), (1, 2, 1)], directed=True, timestamps=[0, 1]
    )
    get_kernel(graph).bfs((0, 0))
    compiled = get_compiled(graph)
    assert not compiled.transposes_built
    get_spectral_kernel(graph).count_walks(0, 2)
    # directed spectral work rides the (now built) transpose stack
    assert compiled.transposes_built


def test_undirected_symmetrized_stack_aliases_forward():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    compiled = get_compiled(graph)
    sym = compiled.symmetrized_operators
    fwd = compiled.forward_operators
    assert all(s is f for s, f in zip(sym, fwd))


def test_no_dense_nxn_on_centrality_and_walk_paths(medium_random_graph):
    """The acceptance claim: centralities and walk counts stay O(N) dense."""
    compiled = get_compiled(medium_random_graph)
    n = compiled.num_nodes
    assert n > 2
    stats = SpectralOpStats()
    kernel = SpectralKernel(compiled, stats=stats)
    alpha = 0.9 / (1.0 + max(
        kernel.gershgorin_bound(ti) for ti in range(compiled.num_snapshots)
    ))
    kernel.broadcast_sums(alpha)
    kernel.receive_sums(alpha)
    kernel.count_walks(*list(compiled.node_index)[:2], max_edges_per_snapshot=3)
    assert stats.peak_dense_cells == n  # (N, 1) vectors only
    assert stats.peak_dense_cells < n * n
    assert stats.materialized_cells == 0  # Q was never asked for
    assert stats.solves > 0 and stats.factorizations > 0
    # asking for Q is the one (accounted) N x N materialization
    kernel.communicability(alpha, block_size=64)
    assert stats.materialized_cells == n * n
    assert stats.peak_dense_cells <= n * 64


def test_communicability_block_size_validated():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    with pytest.raises(GraphError):
        get_spectral_kernel(graph).communicability(0.1, block_size=0)


def test_lu_factorizations_are_cached_per_alpha():
    graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], directed=False)
    stats = SpectralOpStats()
    kernel = SpectralKernel(get_compiled(graph), stats=stats)
    kernel.broadcast_sums(0.2)
    first = stats.factorizations
    kernel.receive_sums(0.2)  # transposed solves reuse the same factorizations
    kernel.broadcast_sums(0.2)
    assert stats.factorizations == first
    kernel.broadcast_sums(0.1)  # a new alpha refactors
    assert stats.factorizations == 2 * first


# --------------------------------------------------------------------------- #
# pickling (the artifact stays the process-pool unit of work)                  #
# --------------------------------------------------------------------------- #

def test_spectral_kernel_over_pickled_artifact(medium_random_graph):
    compiled = get_compiled(medium_random_graph)
    clone = pickle.loads(pickle.dumps(compiled))
    kernel = SpectralKernel(compiled)
    alpha = 0.5 / (1.0 + max(
        kernel.gershgorin_bound(ti) for ti in range(compiled.num_snapshots)
    ))
    np.testing.assert_allclose(
        SpectralKernel(clone).broadcast_sums(alpha),
        kernel.broadcast_sums(alpha),
        atol=1e-12,
    )


# --------------------------------------------------------------------------- #
# mutation: the dispatch rebuilds the spectral kernel from the new artifact   #
# --------------------------------------------------------------------------- #

def test_dispatch_rebuilds_spectral_caches_across_mutation():
    ring = [(i, (i + 1) % 5, 0) for i in range(5)]  # pins the node universe
    edges = ring + [(0, 2, 1), (2, 4, 1), (1, 3, 2), (3, 0, 2)]
    graph = AdjacencyListEvolvingGraph(edges, directed=False)
    kernel = get_spectral_kernel(graph)
    alpha = 0.05
    kernel.broadcast_sums(alpha)
    t_count = kernel.compiled.num_snapshots
    assert kernel.stats.factorizations == t_count  # one LU per snapshot

    assert graph.remove_edge(1, 3, 2)  # mixed batch confined to t = 2
    graph.add_edge(4, 1, 2)
    refreshed = get_spectral_kernel(graph)
    assert refreshed is not kernel
    after = refreshed.broadcast_sums(alpha)
    # the refreshed kernel starts with empty caches: every snapshot refactorizes
    assert refreshed.stats.factorizations == t_count

    invalidate_kernel(graph)  # a from-scratch kernel answers the same
    scratch = get_spectral_kernel(graph)
    np.testing.assert_array_equal(after, scratch.broadcast_sums(alpha))
    assert scratch.stats.factorizations == t_count
