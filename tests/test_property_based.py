"""Property-based tests (hypothesis) for the core invariants.

Strategies generate small random evolving graphs (directed and undirected)
with arbitrary integer node labels and timestamps; properties assert the
paper's structural claims on every generated instance:

* Theorem 1: Algorithm 1 equals ordinary BFS on the static expansion.
* Theorem 4: Algorithm 2 (both variants) equals Algorithm 1.
* Lemma 1: acyclic snapshots imply a nilpotent block matrix.
* Definition 4/6 invariants: BFS-produced paths are valid temporal paths,
  distances grow by exactly one along BFS parents, time never decreases
  along temporal paths, forward/backward reachability are duals.
* Representation invariants: converting between representations never
  changes the edge multiset or the BFS result; IO round-trips are exact.
"""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    algebraic_bfs,
    algebraic_bfs_blocked,
    backward_bfs,
    build_block_adjacency,
    count_temporal_paths_by_hops,
    evolving_bfs,
    expansion_bfs,
)
from repro.graph import (
    AdjacencyListEvolvingGraph,
    all_snapshots_acyclic,
    is_temporal_path,
    to_edge_list,
    to_matrix_sequence,
    to_snapshot_sequence,
    validate_evolving_graph,
)
from repro.io import evolving_graph_from_dict, evolving_graph_to_dict
from repro.linalg import is_nilpotent

# --------------------------------------------------------------------------- #
# strategies                                                                   #
# --------------------------------------------------------------------------- #

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
        # guarantee at least one active node
        graph.add_edge(0, 1, 0)
        active = graph.active_temporal_nodes()
    root = draw(st.sampled_from(active))
    return graph, root


COMMON_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# --------------------------------------------------------------------------- #
# structural invariants                                                        #
# --------------------------------------------------------------------------- #

@COMMON_SETTINGS
@given(evolving_graphs())
def test_generated_graphs_are_structurally_valid(graph):
    validate_evolving_graph(graph)


@COMMON_SETTINGS
@given(evolving_graphs())
def test_causal_edge_count_matches_enumeration(graph):
    assert graph.num_causal_edges() == len(list(graph.causal_edges()))


@COMMON_SETTINGS
@given(evolving_graphs())
def test_forward_and_backward_neighbors_are_duals(graph):
    for v, t in graph.active_temporal_nodes():
        for w, s in graph.forward_neighbors(v, t):
            assert (v, t) in graph.backward_neighbors(w, s)


@COMMON_SETTINGS
@given(evolving_graphs())
def test_forward_neighbors_never_go_back_in_time(graph):
    for v, t in graph.active_temporal_nodes():
        for _, s in graph.forward_neighbors(v, t):
            assert s >= t


# --------------------------------------------------------------------------- #
# Theorem 1 / Theorem 4: all BFS formulations agree                            #
# --------------------------------------------------------------------------- #

@COMMON_SETTINGS
@given(graphs_with_roots())
def test_theorem1_expansion_bfs_equals_algorithm1(graph_root):
    graph, root = graph_root
    assert expansion_bfs(graph, root) == evolving_bfs(graph, root).reached


@COMMON_SETTINGS
@given(graphs_with_roots())
def test_theorem4_algebraic_bfs_equals_algorithm1(graph_root):
    graph, root = graph_root
    reference = evolving_bfs(graph, root).reached
    assert algebraic_bfs(graph, root).reached == reference
    assert algebraic_bfs_blocked(graph, root).reached == reference


# --------------------------------------------------------------------------- #
# Lemma 1: acyclicity implies nilpotence                                       #
# --------------------------------------------------------------------------- #

@COMMON_SETTINGS
@given(evolving_graphs(directed=True))
def test_lemma1_acyclic_snapshots_imply_nilpotent_block_matrix(graph):
    if not graph.active_temporal_nodes():
        return
    block = build_block_adjacency(graph)
    if all_snapshots_acyclic(graph):
        assert is_nilpotent(block.matrix)
        assert block.is_nilpotent()


# --------------------------------------------------------------------------- #
# distance and path invariants                                                 #
# --------------------------------------------------------------------------- #

@COMMON_SETTINGS
@given(graphs_with_roots())
def test_bfs_distances_increase_by_one_along_parents(graph_root):
    graph, root = graph_root
    result = evolving_bfs(graph, root, track_parents=True)
    for tn, parent in result.parents.items():
        if tn == root:
            assert result.reached[tn] == 0
        else:
            assert result.reached[tn] == result.reached[parent] + 1


@COMMON_SETTINGS
@given(graphs_with_roots())
def test_bfs_paths_are_valid_temporal_paths(graph_root):
    graph, root = graph_root
    result = evolving_bfs(graph, root, track_parents=True)
    for tn in list(result.reached)[:20]:
        path = result.path_to(*tn)
        assert path is not None
        assert is_temporal_path(graph, path)
        assert len(path) == result.reached[tn] + 1


@COMMON_SETTINGS
@given(graphs_with_roots())
def test_reached_nodes_are_active_and_not_earlier_than_root(graph_root):
    graph, root = graph_root
    result = evolving_bfs(graph, root)
    for v, t in result.reached:
        assert graph.is_active(v, t)
        assert t >= root[1]


@COMMON_SETTINGS
@given(graphs_with_roots())
def test_forward_backward_reachability_duality(graph_root):
    graph, root = graph_root
    forward = evolving_bfs(graph, root).reached
    for target in list(forward)[:10]:
        back = backward_bfs(graph, target).reached
        assert back.get(root) == forward[target]


@COMMON_SETTINGS
@given(graphs_with_roots())
def test_hop_counts_positive_exactly_on_reachable_nodes(graph_root):
    graph, root = graph_root
    reached = evolving_bfs(graph, root).reached
    for tn, dist in list(reached.items())[:10]:
        assert count_temporal_paths_by_hops(graph, root, tn, dist) >= 1
        if dist > 0:
            # no shorter connection exists
            for shorter in range(dist):
                assert count_temporal_paths_by_hops(graph, root, tn, shorter) == 0


# --------------------------------------------------------------------------- #
# representation and IO round-trips                                            #
# --------------------------------------------------------------------------- #

@COMMON_SETTINGS
@given(graphs_with_roots())
def test_bfs_is_representation_independent(graph_root):
    graph, root = graph_root
    reference = evolving_bfs(graph, root).reached
    for converted in (to_edge_list(graph), to_matrix_sequence(graph),
                      to_snapshot_sequence(graph)):
        assert evolving_bfs(converted, root).reached == reference


@COMMON_SETTINGS
@given(evolving_graphs())
def test_json_round_trip_preserves_graph(graph):
    restored = evolving_graph_from_dict(evolving_graph_to_dict(graph))
    assert restored.equals(graph)


@COMMON_SETTINGS
@given(evolving_graphs())
def test_edge_counts_consistent_across_representations(graph):
    n = graph.num_static_edges()
    assert to_edge_list(graph).num_static_edges() == n
    assert to_matrix_sequence(graph).num_static_edges() == n
    assert to_snapshot_sequence(graph).num_static_edges() == n
