"""Property-based equivalence: vectorized analytics == Python oracles.

Every algorithm ported onto the frontier engine in PR 2 keeps its original
dictionary-walking implementation as the correctness oracle behind
``backend="python"``.  These tests draw random evolving graphs (directed and
undirected) and assert that the default vectorized backend reproduces the
oracle exactly: centrality scores, component partitions, influence sets and
influencer rankings.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.centrality import (
    temporal_closeness,
    temporal_in_reach,
    temporal_katz,
    temporal_out_reach,
)
from repro.algorithms.components import (
    component_of,
    num_weak_components,
    strong_temporal_components,
    weak_temporal_components,
)
from repro.algorithms.influence import (
    influence_set,
    influencer_set,
    top_influencers,
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


@st.composite
def graphs_with_roots(draw, **kwargs):
    graph = draw(evolving_graphs(**kwargs))
    active = graph.active_temporal_nodes()
    if not active:
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    root = draw(st.sampled_from(active))
    return graph, root


ALGO_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# centrality                                                                   #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(evolving_graphs())
def test_out_reach_equals_python(graph):
    assert temporal_out_reach(graph) == temporal_out_reach(graph, backend="python")


@ALGO_SETTINGS
@given(evolving_graphs())
def test_in_reach_equals_python(graph):
    assert temporal_in_reach(graph) == temporal_in_reach(graph, backend="python")


@ALGO_SETTINGS
@given(evolving_graphs())
def test_closeness_equals_python(graph):
    vectorized = temporal_closeness(graph)
    python = temporal_closeness(graph, backend="python")
    assert vectorized.keys() == python.keys()
    for key in python:
        assert vectorized[key] == pytest.approx(python[key], rel=1e-9, abs=1e-12)


@ALGO_SETTINGS
@given(evolving_graphs())
def test_katz_equals_python(graph):
    try:
        python = temporal_katz(graph, alpha=0.05, max_terms=64, backend="python")
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            temporal_katz(graph, alpha=0.05, max_terms=64, backend="vectorized")
        return
    vectorized = temporal_katz(graph, alpha=0.05, max_terms=64, backend="vectorized")
    assert vectorized.keys() == python.keys()
    for key in python:
        assert vectorized[key] == pytest.approx(python[key], rel=1e-8, abs=1e-12)


# --------------------------------------------------------------------------- #
# components                                                                   #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(evolving_graphs())
def test_weak_components_equal_python(graph):
    assert weak_temporal_components(graph) == weak_temporal_components(
        graph, backend="python"
    )


@ALGO_SETTINGS
@given(evolving_graphs())
def test_strong_components_equal_python(graph):
    assert strong_temporal_components(graph) == strong_temporal_components(
        graph, backend="python"
    )


@ALGO_SETTINGS
@given(graphs_with_roots())
def test_component_of_equals_python(graph_root):
    graph, root = graph_root
    assert component_of(graph, root) == component_of(graph, root, backend="python")
    assert num_weak_components(graph) == num_weak_components(graph, backend="python")


# --------------------------------------------------------------------------- #
# influence                                                                    #
# --------------------------------------------------------------------------- #

@ALGO_SETTINGS
@given(graphs_with_roots(), st.booleans())
def test_influence_set_equals_python(graph_root, follow):
    graph, root = graph_root
    vectorized = influence_set(graph, *root, follow_citations=follow)
    python = influence_set(graph, *root, follow_citations=follow, backend="python")
    assert vectorized == python


@ALGO_SETTINGS
@given(graphs_with_roots(), st.booleans())
def test_influencer_set_equals_python(graph_root, follow):
    graph, root = graph_root
    vectorized = influencer_set(graph, *root, follow_citations=follow)
    python = influencer_set(graph, *root, follow_citations=follow, backend="python")
    assert vectorized == python


@ALGO_SETTINGS
@given(evolving_graphs(), st.booleans())
def test_top_influencers_equal_python(graph, follow):
    vectorized = top_influencers(graph, top_k=5, follow_citations=follow)
    python = top_influencers(
        graph, top_k=5, follow_citations=follow, backend="python"
    )
    assert vectorized == python


# --------------------------------------------------------------------------- #
# edge cases and flag validation                                               #
# --------------------------------------------------------------------------- #

def test_empty_graph_analytics():
    graph = AdjacencyListEvolvingGraph()
    assert temporal_out_reach(graph) == {}
    assert temporal_in_reach(graph) == {}
    assert temporal_closeness(graph) == {}
    assert temporal_katz(graph) == {}
    assert weak_temporal_components(graph) == []
    assert strong_temporal_components(graph) == []
    assert top_influencers(graph) == []


def test_timestamps_without_edges():
    graph = AdjacencyListEvolvingGraph(timestamps=["t1", "t2"])
    assert temporal_out_reach(graph) == {}
    assert weak_temporal_components(graph) == []
    assert strong_temporal_components(graph) == []


def test_unknown_backend_rejected():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    with pytest.raises(GraphError):
        temporal_out_reach(graph, backend="julia")
    with pytest.raises(GraphError):
        weak_temporal_components(graph, backend="julia")
    with pytest.raises(GraphError):
        influence_set(graph, 1, "t1", backend="julia")


def test_closeness_singleton_pair():
    graph = AdjacencyListEvolvingGraph([(1, 2, "t1")])
    vectorized = temporal_closeness(graph)
    python = temporal_closeness(graph, backend="python")
    assert vectorized.keys() == python.keys()
    for key in python:
        assert vectorized[key] == pytest.approx(python[key])
