"""Property-based suite for delta compilation and the streaming engine (PR 4).

Two equivalence contracts are asserted here:

* **Bit-identity of delta recompilation** — after *arbitrary* mutation
  sequences (edge insertions, removals, new snapshots, direct snapshot
  mutation), :meth:`CompiledTemporalGraph.recompile` chained delta-on-delta
  must produce an artifact structurally identical — labels, times, every CSR
  operator's buffers, mask, presence, stamps — to a from-scratch
  :meth:`CompiledTemporalGraph.from_graph` of the mutated graph.
* **Streaming equivalence of the engine-backed incremental BFS** — after
  every stream batch, ``IncrementalBFS(backend="vectorized")`` must agree
  with the Python oracle *and* with a from-scratch ``evolving_bfs``.

Plus the plumbing around them: the dispatch cache patching artifacts in
place, and ``apply_stream(compiled=True)``.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.graph.adjacency_list as adjacency_list_module
from repro.algorithms.incremental import IncrementalBFS, IncrementalEarliestArrival
from repro.algorithms.temporal_paths import earliest_arrival_times
from repro.core.bfs import evolving_bfs
from repro.engine import BACKENDS, get_compiled, get_kernel, invalidate_kernel
from repro.engine.frontier import FrontierKernel
from repro.exceptions import GraphError, TimestampNotFoundError
from repro.generators import EdgeStream, apply_stream, random_temporal_edges
from repro.graph import (
    AdjacencyListEvolvingGraph,
    SnapshotSequenceEvolvingGraph,
)
from repro.graph.compiled import CompiledTemporalGraph
from repro.graph.sharded import ShardedTemporalGraph
from repro.parallel import batch_bfs

DELTA_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

node_labels = st.integers(min_value=0, max_value=7)
time_labels = st.integers(min_value=0, max_value=4)
edge_triples = st.tuples(node_labels, node_labels, time_labels)

#: One mutation step: insert an edge, remove an edge, or register a snapshot.
mutations = st.one_of(
    st.tuples(st.just("add"), node_labels, node_labels, time_labels),
    st.tuples(st.just("remove"), node_labels, node_labels, time_labels),
    st.tuples(st.just("snapshot"), st.integers(min_value=0, max_value=6)),
)


def assert_same_buffers(ma, mb) -> None:
    """Two CSR matrices hold equal canonical buffers of equal dtypes."""
    assert ma.shape == mb.shape
    assert ma.has_canonical_format and mb.has_canonical_format
    for name in ("indptr", "indices", "data"):
        buffer_a, buffer_b = getattr(ma, name), getattr(mb, name)
        assert buffer_a.dtype == buffer_b.dtype, name
        assert np.array_equal(buffer_a, buffer_b), name


def assert_bit_identical(a: CompiledTemporalGraph, b: CompiledTemporalGraph) -> None:
    """Structural equality of two compiled artifacts, buffer by buffer."""
    assert a.node_labels == b.node_labels
    assert a.node_index == b.node_index
    assert a.times == b.times
    assert a.is_directed == b.is_directed
    assert a.mutation_version == b.mutation_version
    assert a.snapshot_versions == b.snapshot_versions
    for ma, mb in zip(a.forward_operators, b.forward_operators):
        assert_same_buffers(ma, mb)
    assert np.array_equal(a.active_mask, b.active_mask)
    if a.label_presence is None or b.label_presence is None:
        assert a.label_presence is None and b.label_presence is None
    else:
        assert np.array_equal(a.label_presence, b.label_presence)
    for ma, mb in zip(a.backward_operators, b.backward_operators):
        assert_same_buffers(ma, mb)


def apply_mutation(graph: AdjacencyListEvolvingGraph, op: tuple) -> None:
    if op[0] == "add":
        graph.add_edge(op[1], op[2], op[3])
    elif op[0] == "remove":
        if graph.has_timestamp(op[3]):
            graph.remove_edge(op[1], op[2], op[3])
    else:
        graph.add_timestamp(op[1])


#: Edge cases of the CSR splice, one mutation step each.  Labels 0 and 1
#: (and 2 where used) keep an edge at time 0, so every step stays on the
#: delta path.
SPLICE_EXAMPLES = [
    # the step removes every edge of snapshot 1
    ([(0, 1, 0), (0, 1, 1)], [("remove", 0, 1, 1)]),
    # insertions into snapshot 2's empty operator, with and without a
    # self-loop already present there
    ([(0, 1, 0)], [("add", 1, 0, 2), ("add", 0, 1, 2)]),
    ([(0, 1, 0), (1, 1, 2)], [("add", 0, 1, 2)]),
    # removing a self-loop changes presence (label 1 leaves snapshot 1),
    # not the operator
    ([(0, 1, 0), (1, 2, 0), (1, 1, 1), (0, 2, 1)], [("remove", 1, 1, 1)]),
]


def _with_splice_examples(test):
    for initial, steps in SPLICE_EXAMPLES:
        for directed in (True, False):
            test = example(directed=directed, initial=initial, steps=steps)(test)
    return test


class TestDeltaRecompileBitIdentity:
    @DELTA_SETTINGS
    @_with_splice_examples
    @given(
        directed=st.booleans(),
        initial=st.lists(edge_triples, min_size=0, max_size=15),
        steps=st.lists(mutations, min_size=1, max_size=15),
    )
    def test_arbitrary_mutation_sequences(self, directed, initial, steps):
        """Chained delta recompiles stay bit-identical to from-scratch builds."""
        graph = AdjacencyListEvolvingGraph(
            initial, directed=directed, timestamps=[0, 1, 2, 3, 4]
        )
        artifact = CompiledTemporalGraph.from_graph(graph)
        for op in steps:
            apply_mutation(graph, op)
            artifact = CompiledTemporalGraph.recompile(graph, artifact)
            assert_bit_identical(artifact, CompiledTemporalGraph.from_graph(graph))

    def test_current_artifact_returned_unchanged(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        artifact = CompiledTemporalGraph.from_graph(graph)
        assert CompiledTemporalGraph.recompile(graph, artifact) is artifact

    def test_none_previous_falls_back_to_full(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)])
        artifact = CompiledTemporalGraph.recompile(graph, None)
        assert artifact.delta_stats is None
        assert artifact.is_current(graph)

    def test_untouched_snapshots_share_objects(self):
        """The delta path reuses the previous CSR stacks, not copies of them."""
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 1), (2, 3, 2)], timestamps=[0, 1, 2]
        )
        before = CompiledTemporalGraph.from_graph(graph)
        before.backward_operators  # materialize so transposes get patched too
        graph.add_edge(0, 3, 1)
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats == {"rebuilt": 1, "reused": 2}
        assert after.forward_operators[0] is before.forward_operators[0]
        assert after.forward_operators[2] is before.forward_operators[2]
        assert after.forward_operators[1] is not before.forward_operators[1]
        assert after.transposes_built
        assert after.backward_operators[0] is before.backward_operators[0]
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    def test_new_node_label_falls_back_to_full(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.add_edge(0, 99, 1)  # label 99 grows the node universe
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats is None
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    def test_vanished_label_falls_back_to_full(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], timestamps=[0, 1])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.remove_edge(1, 2, 1)  # label 2 loses its only appearance
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats is None
        assert 2 not in after.node_index
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    def test_new_snapshot_inserted_between_existing_ones(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 4)], timestamps=[0, 4])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.add_edge(1, 0, 2)  # new snapshot lands between the others
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats == {"rebuilt": 1, "reused": 2}
        assert after.times == (0, 2, 4)
        assert after.forward_operators[0] is before.forward_operators[0]
        assert after.forward_operators[2] is before.forward_operators[1]
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    def test_snapshot_sequence_direct_child_mutation(self):
        """Mutating a StaticGraph obtained from snapshot() is still seen.

        A snapshot sequence keeps no signed journal, so the recompile is a
        full build.
        """
        graph = SnapshotSequenceEvolvingGraph.from_edges(
            [(0, 1, 0), (1, 2, 1), (2, 0, 2)]
        )
        before = CompiledTemporalGraph.from_graph(graph)
        graph.snapshot(1).add_edge(0, 2)  # behind the container's back
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats is None
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))


def _two_graphs(first_edges, second_edges, *, second_removals=()):
    """``(g1, a1, g2)``: a graph, its artifact, and a second graph object.

    The two graphs start from the same version counter, so equal edit counts
    give equal ``mutation_version``s.
    """
    g1 = AdjacencyListEvolvingGraph(first_edges, timestamps=[0])
    a1 = CompiledTemporalGraph.from_graph(g1)
    g2 = AdjacencyListEvolvingGraph(second_edges, timestamps=[0])
    for edge in second_removals:
        g2.remove_edge(*edge)
    return g1, a1, g2


TRIANGLE = [(0, 1, 0), (1, 2, 0), (2, 0, 0)]


class TestForeignArtifacts:
    """An artifact describes only the graph object it was compiled from."""

    def test_same_version_foreign_artifact_is_not_current(self):
        g1, a1, g2 = _two_graphs(TRIANGLE, [(0, 2, 0), (1, 2, 0), (2, 0, 0)])
        assert a1.mutation_version == g2.mutation_version
        assert a1.is_current(g1)
        assert not a1.is_current(g2)
        after = CompiledTemporalGraph.recompile(g2, a1)
        assert after is not a1
        assert after.delta_stats is None
        assert after.is_current(g2)
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(g2))
        served = batch_bfs(g2, [(0, 0)], backend="vectorized")[(0, 0)].reached
        assert served == evolving_bfs(g2, (0, 0), backend="python").reached
        assert served == {(0, 0): 0, (2, 0): 1}

    @pytest.mark.parametrize(
        "second, removal",
        [
            # the journal removes an edge the foreign operator never stored
            ([(0, 2, 0), (1, 2, 0), (2, 0, 0), (0, 1, 0)], (0, 2, 0)),
            # the journal's removal is stored there too, so only the source
            # graph's identity tells the two apart
            ([(0, 1, 0), (2, 1, 0), (2, 0, 0)], (0, 1, 0)),
        ],
        ids=["phantom-edge", "consistent-touched-entries"],
    )
    def test_foreign_artifact_recompiles_in_full(self, second, removal):
        _, a1, g2 = _two_graphs(TRIANGLE, second, second_removals=[removal])
        after = CompiledTemporalGraph.recompile(g2, a1)
        assert after.delta_stats is None
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(g2))

    def test_unpickled_and_hand_built_artifacts_are_current_for_no_graph(self):
        graph = AdjacencyListEvolvingGraph(TRIANGLE, timestamps=[0, 1])
        artifact = CompiledTemporalGraph.from_graph(graph)
        assert artifact.is_current(graph)
        clone = pickle.loads(pickle.dumps(artifact))
        assert not clone.is_current(graph)
        assert CompiledTemporalGraph.recompile(graph, clone).delta_stats is None
        shard = ShardedTemporalGraph.from_compiled(artifact, num_shards=1).shard(0)
        assert not shard.is_current(graph)
        # a delta recompile stays tied to its graph
        graph.add_edge(0, 2, 1)
        after = CompiledTemporalGraph.recompile(graph, artifact)
        assert after.delta_stats == {"rebuilt": 1, "reused": 1}
        assert after.is_current(graph)

    def test_artifact_does_not_keep_its_graph_alive(self):
        graph = AdjacencyListEvolvingGraph(TRIANGLE, timestamps=[0])
        artifact = CompiledTemporalGraph.from_graph(graph)
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None
        assert artifact.num_nodes == 3

    def test_journal_disagreeing_with_operator_recompiles_in_full(self, monkeypatch):
        graph = AdjacencyListEvolvingGraph(TRIANGLE, timestamps=[0, 1])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.add_edge(0, 1, 1)
        # a window whose removal the previous operator never stored
        monkeypatch.setattr(
            graph, "edge_mutations_since", lambda version: ([], [(1, 0, 1)])
        )
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats is None
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))


class TestDispatchPatchesInPlace:
    def test_get_compiled_patches_instead_of_discarding(self):
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 1), (2, 3, 2)], timestamps=[0, 1, 2]
        )
        before = get_compiled(graph)
        graph.add_edge(3, 0, 2)
        after = get_compiled(graph)
        assert after is not before
        assert after.delta_stats == {"rebuilt": 1, "reused": 2}
        assert after.forward_operators[0] is before.forward_operators[0]
        assert after.is_current(graph)
        # the kernels ride the patched artifact
        assert get_kernel(graph).compiled is after

    def test_invalidate_forces_full_rebuild(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)])
        get_compiled(graph)
        invalidate_kernel(graph)
        graph.add_edge(0, 2, 1)
        assert get_compiled(graph).delta_stats is None

    def test_patched_kernel_results_stay_exact(self):
        """Stale-cache regression: searches after a patch see the new edge."""
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], timestamps=[0, 1])
        assert evolving_bfs(graph, (0, 0)).reached == evolving_bfs(
            graph, (0, 0), backend="python"
        ).reached
        graph.add_edge(2, 0, 1)
        vectorized = evolving_bfs(graph, (0, 0)).reached
        assert vectorized == evolving_bfs(graph, (0, 0), backend="python").reached
        assert (0, 1) in vectorized


@st.composite
def streams_with_roots(draw):
    """A batched random edge stream plus a (possibly initially inactive) root."""
    num_nodes = draw(st.integers(min_value=4, max_value=20))
    num_times = draw(st.integers(min_value=2, max_value=5))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                st.integers(0, num_times - 1),
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=60,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=12))
    root = (
        draw(st.integers(0, num_nodes - 1)),
        draw(st.integers(0, num_times - 1)),
    )
    return num_times, EdgeStream(events, batch_size=batch_size), root


class TestIncrementalEngineEquivalence:
    @DELTA_SETTINGS
    @given(streams_with_roots())
    def test_matches_oracle_and_scratch_after_every_batch(self, case):
        num_times, stream, root = case
        timestamps = list(range(num_times))
        engine_graph = AdjacencyListEvolvingGraph(timestamps=timestamps)
        oracle_graph = AdjacencyListEvolvingGraph(timestamps=timestamps)
        engine = IncrementalBFS(engine_graph, root, backend="vectorized")
        oracle = IncrementalBFS(oracle_graph, root, backend="python")
        for batch in stream.batches():
            engine.add_edges_from(batch)
            oracle.add_edges_from(batch)
            if engine_graph.is_active(*root):
                scratch = evolving_bfs(engine_graph, root, backend="python").reached
            else:
                scratch = {}
            assert engine.distances == scratch
            assert oracle.distances == scratch
            assert engine.num_updates == oracle.num_updates

    def test_backend_flag_validated(self):
        graph = AdjacencyListEvolvingGraph(timestamps=[0])
        with pytest.raises(GraphError):
            IncrementalBFS(graph, (0, 0), backend="numba")

    def test_malformed_batch_leaves_state_consistent(self):
        """A bad item must not insert earlier edges the block never folded in."""
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        with pytest.raises(GraphError):
            inc.add_edges_from([(1, 2, 1), (3, 4)])  # wrong arity fails unpack
        assert not graph.has_edge(1, 2, 1)
        assert inc.num_updates == 0
        assert inc.distances == evolving_bfs(graph, (0, 0), backend="python").reached

    def test_point_queries_on_engine_backend(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], timestamps=[0, 1])
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        assert inc.backend == "vectorized"
        assert inc.distance(2, 1) == 3
        assert inc.is_reachable(1, 0)
        assert not inc.is_reachable(5, 0)
        assert inc.distance(0, 5) is None
        result = inc.as_result()
        assert result.root == (0, 0)
        assert result.reached == evolving_bfs(graph, (0, 0)).reached

    def test_new_node_and_new_snapshot_mid_stream(self):
        """Universe growth (full-rebuild remap) keeps the engine state exact."""
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        inc.add_edge(1, 7, 1)  # new label
        inc.add_edge(7, 8, 3)  # new label *and* new snapshot
        assert inc.distances == evolving_bfs(graph, (0, 0)).reached
        assert inc.distance(8, 3) == 5  # (0,0)->(1,0)->(1,1)->(7,1)->(7,3)->(8,3)

    def test_recompute_resyncs_engine_state(self, figure1):
        inc = IncrementalBFS(figure1, (1, "t1"), backend="vectorized")
        figure1.add_edge(1, 3, "t1")  # behind the class's back (unsupported)
        assert inc.recompute() == evolving_bfs(figure1, (1, "t1")).reached


class TestResweepKernel:
    def test_resweep_shape_mismatch_raises(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0)], timestamps=[0, 1])
        kernel = get_kernel(graph)
        with pytest.raises(GraphError):
            kernel.decrease_only_resweep(np.zeros((1, 1), dtype=np.int32), [])

    def test_resweep_reaches_full_bfs_fixed_point(self):
        graph = AdjacencyListEvolvingGraph(
            random_temporal_edges(15, 3, 50, seed=7), timestamps=[0, 1, 2]
        )
        kernel = get_kernel(graph)
        root = next(iter(sorted(graph.active_nodes_at(0))))
        full = kernel.distance_block((root, 0))
        # degrade: forget everything but the root, then re-relax from it
        degraded = np.full_like(full, -1)
        slot = kernel.compiled.slot(root, 0)
        degraded[slot] = 0
        # seed with the root's immediate improvements: every full-BFS slot at
        # distance 1 (their in-neighbourhood "changed" when we forgot them)
        seeds = [
            (ti, vi, 1)
            for ti, vi in zip(*np.nonzero(full == 1))
        ]
        changed = kernel.decrease_only_resweep(degraded, seeds)
        assert changed > 0
        assert np.array_equal(degraded, full)

    def test_group_patch_matches_single_block_patch(self):
        edges = random_temporal_edges(20, 4, 90, seed=23)
        graph = AdjacencyListEvolvingGraph(edges, timestamps=[0, 1, 2, 3])
        kernel = get_kernel(graph)
        roots = [(v, 0) for v in sorted(graph.active_nodes_at(0))[:6]]
        insertions = [(0, 13, 1), (5, 17, 2), (2, 9, 0)]
        insertions = [
            (u, v, t) for u, v, t in insertions if not graph.has_edge(u, v, t)
        ]
        assert insertions

        grouped = [kernel.distance_block(r) for r in roots]
        singles = [b.copy() for b in grouped]

        # the patch contract: old blocks, folded forward by the
        # *post-insertion* kernel (whose axes the insertions preserved)
        for u, v, t in insertions:
            graph.add_edge(u, v, t)
        kernel = get_kernel(graph)
        pins = [kernel.compiled.slot(*r) for r in roots]

        group_changed = kernel.patch_distance_blocks(
            grouped, insertions, pinned=pins
        )
        single_changed = [
            kernel.patch_distance_block(block, insertions, pinned=pin)
            for block, pin in zip(singles, pins)
        ]
        assert group_changed == single_changed
        for g, s in zip(grouped, singles):
            assert np.array_equal(g, s)

        # and both agree with a fresh sweep on the post-insertion graph
        for root, block in zip(roots, grouped):
            assert np.array_equal(block, kernel.distance_block(root))

    def test_group_patch_edge_cases(self):
        graph = AdjacencyListEvolvingGraph([(0, 1, 0), (1, 2, 1)], timestamps=[0, 1])
        kernel = get_kernel(graph)
        assert kernel.patch_distance_blocks([], [(0, 2, 1)]) == []
        block = kernel.distance_block((0, 0))
        # out-of-universe endpoints and timestamps contribute no seeds
        assert kernel.patch_distance_blocks([block], [(7, 8, 0), (0, 1, 9)]) == [0]
        with pytest.raises(GraphError):
            kernel.patch_distance_blocks([np.zeros((1, 1), dtype=np.int32)], [(0, 2, 1)])


class TestApplyStreamCompiled:
    def test_callback_receives_current_artifact(self):
        stream = EdgeStream.random(12, 3, 40, seed=11, batch_size=8)
        seen = []

        def on_batch(graph, batch, artifact):
            assert artifact.is_current(graph)
            seen.append(artifact)

        graph = apply_stream(stream, compiled=True, on_batch=on_batch)
        assert len(seen) == len(list(stream.batches()))
        assert seen[-1] is get_compiled(graph)
        # later batches patch rather than rebuild whenever the universe allows
        assert any(a.delta_stats is not None for a in seen[1:])

    def test_uncompiled_callback_signature_unchanged(self):
        calls = []
        apply_stream([(0, 1, 0), (1, 2, 0)], on_batch=lambda g, b: calls.append(b))
        assert calls == [[(0, 1, 0)], [(1, 2, 0)]]


class TestSignedJournal:
    def test_oversized_batch_survives_the_journal_cap(self, monkeypatch):
        """>cap single-batch regression: trimming must respect consumption.

        Before the fix, ``_journal_append`` dropped the oldest half the
        moment the journal crossed ``_JOURNAL_LIMIT`` — mid-batch — so the
        next ``recompile`` saw an incomplete window and degraded to a full
        rebuild.  With consumption-gated trimming the journal grows past the
        cap until a delta consumer reads it.
        """
        monkeypatch.setattr(adjacency_list_module, "_JOURNAL_LIMIT", 16)
        seed = [(i, (i + 1) % 8, 0) for i in range(8)]
        graph = AdjacencyListEvolvingGraph(seed, timestamps=[0, 1])
        before = CompiledTemporalGraph.from_graph(graph)
        batch = [(u, v, 1) for u in range(8) for v in range(8) if u != v]
        assert len(batch) > 16
        graph.add_edges_from(batch)
        # nothing was consumed yet, so nothing may have been trimmed (the
        # journal also still holds the seed ring's own insertions)
        assert len(graph._journal_versions) == len(batch) + len(seed)
        assert graph.edge_mutations_since(before.mutation_version) == (batch, [])
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats == {"rebuilt": 1, "reused": 1}
        assert after.forward_operators[0] is before.forward_operators[0]
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    def test_trim_fires_once_the_window_is_consumed(self, monkeypatch):
        monkeypatch.setattr(adjacency_list_module, "_JOURNAL_LIMIT", 16)
        seed = [(i, (i + 1) % 8, 0) for i in range(8)]
        graph = AdjacencyListEvolvingGraph(seed, timestamps=[0, 1])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.add_edges_from([(u, v, 1) for u in range(8) for v in range(8) if u != v])
        oversized = len(graph._journal_versions)
        assert oversized > 16
        CompiledTemporalGraph.recompile(graph, before)  # consumes the window
        graph.add_edge(0, 2, 0)  # next append may now trim the consumed prefix
        assert len(graph._journal_versions) < oversized

    def test_mixed_oversized_batch_stays_on_delta_path(self, monkeypatch):
        monkeypatch.setattr(adjacency_list_module, "_JOURNAL_LIMIT", 8)
        seed = [(i, (i + 1) % 6, 0) for i in range(6)]
        graph = AdjacencyListEvolvingGraph(seed, timestamps=[0, 1, 2])
        graph.add_edges_from([(u, (u + 2) % 6, 1) for u in range(6)])
        before = CompiledTemporalGraph.from_graph(graph)
        graph.remove_edges_from([(u, (u + 2) % 6, 1) for u in range(6)])
        graph.add_edges_from([(u, (u + 3) % 6, 2) for u in range(6) if u % 3])
        after = CompiledTemporalGraph.recompile(graph, before)
        assert after.delta_stats == {"rebuilt": 2, "reused": 1}
        assert after.forward_operators[0] is before.forward_operators[0]
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))


@st.composite
def signed_event_streams(draw):
    """A batched stream of signed events over a universe pinned at time 0."""
    num_nodes = draw(st.integers(min_value=3, max_value=10))
    num_times = draw(st.integers(min_value=2, max_value=4))
    directed = draw(st.booleans())
    nodes = st.integers(0, num_nodes - 1)
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["+", "-"]),
                nodes,
                nodes,
                st.integers(1, num_times - 1),
            ).filter(lambda e: e[1] != e[2]),
            min_size=1,
            max_size=50,
        )
    )
    batch_size = draw(st.integers(min_value=1, max_value=10))
    return num_nodes, num_times, directed, EdgeStream(events, batch_size=batch_size)


#: Two-batch signed streams whose second batch splices one operator twice:
#: it empties a two-edge snapshot, or it inserts and removes in one row
#: (the entries of 0 -> 1 and 2 -> 1 share row 1, the destination's).
SPLICE_STREAMS = [
    [("+", 0, 1, 1), ("+", 1, 2, 1), ("-", 0, 1, 1), ("-", 1, 2, 1)],
    [("+", 0, 1, 1), ("+", 2, 3, 1), ("-", 0, 1, 1), ("+", 2, 1, 1)],
]


def _with_splice_streams(test):
    for events in SPLICE_STREAMS:
        for directed in (True, False):
            case = (4, 2, directed, EdgeStream(events, batch_size=2))
            test = example(case=case)(test)
    return test


class TestMixedStreamDelta:
    @DELTA_SETTINGS
    @_with_splice_streams
    @given(signed_event_streams())
    def test_mixed_batches_bit_identical_and_never_full_rebuild(self, case):
        """Signed streams patch — removals included — and never fall back.

        The time-0 ring pins every node's universe membership and the
        timestamps are pre-registered, so no batch (insert, remove or mixed)
        may degrade to a full ``from_graph`` rebuild: the untouched time-0
        operator must remain the *same object* across the whole stream.
        """
        num_nodes, num_times, directed, stream = case
        ring = [(i, (i + 1) % num_nodes, 0) for i in range(num_nodes)]
        graph = AdjacencyListEvolvingGraph(
            ring, directed=directed, timestamps=list(range(num_times))
        )
        warm = get_compiled(graph)
        seen: list[CompiledTemporalGraph] = []

        def on_batch(g, batch, artifact):
            assert artifact.is_current(g)
            seen.append(artifact)
            assert_bit_identical(artifact, CompiledTemporalGraph.from_graph(g))

        apply_stream(stream, graph=graph, compiled=True, on_batch=on_batch)
        previous = warm
        for artifact in seen:
            # a batch of pure no-ops returns the previous artifact unchanged;
            # any effective batch must take the delta path
            assert artifact is previous or artifact.delta_stats is not None
            assert artifact.forward_operators[0] is warm.forward_operators[0]
            previous = artifact

    def test_pure_removal_batch_never_full_rebuilds(self):
        ring = [(i, (i + 1) % 6, 0) for i in range(6)]
        extra = [(i, (i + 2) % 6, 1) for i in range(6)]
        graph = AdjacencyListEvolvingGraph(ring + extra, timestamps=[0, 1])
        warm = get_compiled(graph)
        assert graph.remove_edges_from(extra[:4]) == 4
        after = get_compiled(graph)
        assert after.delta_stats == {"rebuilt": 1, "reused": 1}
        assert after.forward_operators[0] is warm.forward_operators[0]
        assert_bit_identical(after, CompiledTemporalGraph.from_graph(graph))

    @DELTA_SETTINGS
    @given(signed_event_streams())
    def test_incremental_apply_matches_oracle_and_scratch(self, case):
        """Mixed batches through IncrementalBFS.apply stay exact, per batch."""
        num_nodes, num_times, directed, stream = case
        ring = [(i, (i + 1) % num_nodes, 0) for i in range(num_nodes)]
        timestamps = list(range(num_times))
        engine_graph = AdjacencyListEvolvingGraph(
            ring, directed=directed, timestamps=timestamps
        )
        oracle_graph = AdjacencyListEvolvingGraph(
            ring, directed=directed, timestamps=timestamps
        )
        arrival_graphs = [
            AdjacencyListEvolvingGraph(ring, directed=directed, timestamps=timestamps)
            for _ in BACKENDS
        ]
        root = (0, 0)
        engine = IncrementalBFS(engine_graph, root, backend="vectorized")
        oracle = IncrementalBFS(oracle_graph, root, backend="python")
        arrivals = [
            IncrementalEarliestArrival(g, root, backend=backend)
            for g, backend in zip(arrival_graphs, BACKENDS)
        ]
        for batch in stream.batches():
            ins = [(u, v, t) for s, u, v, t in batch if s == "+"]
            rems = [(u, v, t) for s, u, v, t in batch if s == "-"]
            engine.apply(insertions=ins, removals=rems)
            oracle.apply(insertions=ins, removals=rems)
            scratch = evolving_bfs(engine_graph, root, backend="python").reached
            assert engine.distances == scratch
            assert oracle.distances == scratch
            expected = earliest_arrival_times(engine_graph, root, backend="python")
            for incremental in arrivals:
                incremental.apply(insertions=ins, removals=rems)
                assert incremental.arrivals == expected


class TestShrinkResweep:
    def test_shrink_matches_fresh_search(self):
        # the time-0 ring pins every node's universe membership, so removing
        # later-time edges can never change the compiled axes
        ring = [(i, (i + 1) % 15, 0) for i in range(15)]
        extra = random_temporal_edges(15, 2, 50, seed=5)
        edges = ring + [(u, v, t + 1) for u, v, t in extra]
        graph = AdjacencyListEvolvingGraph(edges, timestamps=[0, 1, 2])
        kernel = get_kernel(graph)
        root = 0
        dist = kernel.distance_block((root, 0))
        prev_active = kernel.compiled.active_mask
        removals = [e for e in graph.temporal_edges_unordered() if e[2] > 0][:6]
        assert removals
        for u, v, t in removals:
            graph.remove_edge(u, v, t)
        kernel = get_kernel(graph)
        assert set(kernel.compiled.node_labels) == graph.nodes()
        changed = kernel.shrink_distance_block(dist, removals, prev_active)
        fresh = kernel.distance_block((root, 0))
        assert np.array_equal(dist, fresh)
        assert changed >= 0

    def test_group_shrink_matches_single_blocks(self):
        ring = [(i, (i + 1) % 18, 0) for i in range(18)]
        extra = random_temporal_edges(18, 2, 70, seed=9)
        edges = ring + [(u, v, t + 1) for u, v, t in extra]
        graph = AdjacencyListEvolvingGraph(edges, timestamps=[0, 1, 2])
        kernel = get_kernel(graph)
        roots = [(v, 0) for v in range(5)]
        blocks = [kernel.distance_block(r) for r in roots]
        singles = [b.copy() for b in blocks]
        prev_active = kernel.compiled.active_mask
        removals = [e for e in graph.temporal_edges_unordered() if e[2] > 0][:5]
        assert removals
        for u, v, t in removals:
            graph.remove_edge(u, v, t)
        kernel = get_kernel(graph)
        assert set(kernel.compiled.node_labels) == graph.nodes()
        group_changed = kernel.shrink_distance_blocks(blocks, removals, prev_active)
        single_changed = [
            kernel.shrink_distance_block(b, removals, prev_active) for b in singles
        ]
        assert group_changed == single_changed
        for g, s in zip(blocks, singles):
            assert np.array_equal(g, s)

    def test_group_shrink_raises_before_touching_any_block(self):
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 0), (2, 0, 1), (0, 1, 1)], directed=True
        )
        kernel = get_kernel(graph)
        # the removal below deactivates the last root, and would change the
        # first block, which reaches (2, 0) at distance 2
        roots = [(0, 0), (0, 1), (2, 0)]
        blocks = [kernel.distance_block(r) for r in roots]
        originals = [b.copy() for b in blocks]
        prev_active = kernel.compiled.active_mask
        graph.remove_edge(1, 2, 0)
        kernel = get_kernel(graph)
        with pytest.raises(GraphError):
            kernel.shrink_distance_blocks(blocks, [(1, 2, 0)], prev_active)
        for block, original in zip(blocks, originals):
            assert np.array_equal(block, original)
        # the first block alone does shrink
        assert kernel.shrink_distance_block(blocks[0], [(1, 2, 0)], prev_active) > 0

    def test_root_deactivating_removal_raises(self):
        graph = AdjacencyListEvolvingGraph(
            [(0, 1, 0), (1, 2, 0), (2, 0, 1), (0, 1, 1)], directed=True
        )
        kernel = get_kernel(graph)
        dist = kernel.distance_block((2, 0))
        prev_active = kernel.compiled.active_mask
        graph.remove_edge(1, 2, 0)  # node 2's only time-0 incident edge
        kernel = get_kernel(graph)
        with pytest.raises(GraphError):
            kernel.shrink_distance_block(dist, [(1, 2, 0)], prev_active)


def _rule_graph() -> AdjacencyListEvolvingGraph:
    """Root (0, 0) is active only through (0, 1, 0); label 5 only through (3, 5, 1)."""
    return AdjacencyListEvolvingGraph(
        [(0, 1, 0), (1, 2, 0), (2, 3, 1), (1, 2, 1), (3, 5, 1), (0, 4, 2), (4, 3, 2)],
        timestamps=[0, 1, 2],
    )


def _spy(monkeypatch, owner, attribute) -> list:
    """Record ``owner.attribute``'s results, wrapped as the layer ledger wraps it.

    The original comes from the class ``__dict__``, so a classmethod keeps
    its descriptor type; ``monkeypatch`` restores it after the test.
    """
    original = vars(owner)[attribute]
    bound = isinstance(original, classmethod)
    func = original.__func__ if bound else original
    results: list = []

    def wrapped(*args, **kwargs):
        result = func(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(owner, attribute, classmethod(wrapped) if bound else wrapped)
    return results


SPIED = [
    (CompiledTemporalGraph, "recompile"),
    (FrontierKernel, "_run"),
    (FrontierKernel, "shrink_distance_block"),
    (FrontierKernel, "patch_distance_block"),
    (FrontierKernel, "decrease_only_resweep"),
]

#: Batch sequences that move the root or the node universe, which the
#: time-0 ring of the hypothesis suites pins.
ROOT_CASES = {
    # the removal deactivates the root and the insertion reactivates it
    "reactivated": [([(0, 2, 0)], [(0, 1, 0)])],
    # the root stays inactive until a later insertion batch restarts it
    "deactivated": [([(2, 4, 2)], [(0, 1, 0)]), ([(0, 3, 0)], [])],
    # label 5 loses its last edge (a full rebuild with new axes), then a
    # pure-insertion batch patches on the new axes
    "vanished_label": [([(2, 4, 1)], [(3, 5, 1)]), ([(4, 1, 2)], [])],
}


class TestApplyRule:
    """A batch with an effective removal re-sweeps; any other batch patches."""

    def test_removal_batch_is_one_delta_compile_and_one_sweep(self, monkeypatch):
        graph = _rule_graph()
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        calls = {name: _spy(monkeypatch, owner, name) for owner, name in SPIED}
        assert inc.apply(insertions=[(2, 4, 1)], removals=[(1, 2, 1)]) == (1, 1)
        [artifact] = calls["recompile"]
        assert artifact.delta_stats == {"rebuilt": 1, "reused": 2}
        assert len(calls["_run"]) == 1
        assert calls["shrink_distance_block"] == []
        assert calls["patch_distance_block"] == []
        assert calls["decrease_only_resweep"] == []
        assert inc.distances == evolving_bfs(graph, (0, 0), backend="python").reached

    @pytest.mark.parametrize(
        "removals", [[], [(0, 3, 2)]], ids=["pure-insertion", "absent-removal"]
    )
    def test_batch_without_effective_removal_patches(self, monkeypatch, removals):
        graph = _rule_graph()
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        calls = {name: _spy(monkeypatch, owner, name) for owner, name in SPIED}
        assert inc.apply(insertions=[(2, 4, 1)], removals=removals) == (1, 0)
        assert len(calls["recompile"]) == 1
        assert len(calls["patch_distance_block"]) == 1
        assert calls["_run"] == []
        assert inc.distances == evolving_bfs(graph, (0, 0), backend="python").reached

    @pytest.mark.parametrize(
        "insertion", [(2, 9, 1), (4, 1, 3)], ids=["new-label", "new-snapshot"]
    )
    def test_insertion_batch_that_grows_the_axes_resyncs(self, monkeypatch, insertion):
        """A pure-insertion batch that adds a node label or a snapshot re-sweeps."""
        graph = _rule_graph()
        inc = IncrementalBFS(graph, (0, 0), backend="vectorized")
        calls = {name: _spy(monkeypatch, owner, name) for owner, name in SPIED}
        assert inc.apply(insertions=[insertion]) == (1, 0)
        assert len(calls["_run"]) == 1
        assert calls["patch_distance_block"] == []
        assert inc.distances == evolving_bfs(graph, (0, 0), backend="python").reached

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(ROOT_CASES))
    def test_root_and_universe_changes_match_oracle(self, backend, case):
        root = (0, 0)
        graph, arrival_graph = _rule_graph(), _rule_graph()
        inc = IncrementalBFS(graph, root, backend=backend)
        arrivals = IncrementalEarliestArrival(arrival_graph, root, backend=backend)
        for insertions, removals in ROOT_CASES[case]:
            inc.apply(insertions=insertions, removals=removals)
            arrivals.apply(insertions=insertions, removals=removals)
            if graph.is_active(*root):
                assert inc.distances == evolving_bfs(graph, root, backend="python").reached
                assert arrivals.arrivals == earliest_arrival_times(
                    graph, root, backend="python"
                )
            else:
                assert inc.distances == {}
                assert inc.distance(*root) is None
                assert arrivals.arrivals == {}
        assert graph.is_active(*root)
        if case == "vanished_label":
            assert 5 not in get_compiled(graph).node_index


#: Batches that fail validation after an item that would have applied.
FAILING_BATCHES = [
    pytest.param([], [(1, 2, 0), (0, 1, 99)], TimestampNotFoundError, id="unregistered"),
    pytest.param([], [(1, 2, 0), ([9], 3, 1)], GraphError, id="unhashable"),
    pytest.param([(2, 4, 1), (0, 1, "x")], [(1, 2, 0)], GraphError, id="unorderable"),
]


class TestAtomicBatches:
    """A batch that fails validation leaves the graph and the state untouched."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("insertions, removals, error", FAILING_BATCHES)
    def test_failed_apply_changes_nothing(self, backend, insertions, removals, error):
        graph = _rule_graph()
        inc = IncrementalBFS(graph, (0, 0), backend=backend)
        edges = set(graph.temporal_edges_unordered())
        version = graph.mutation_version
        distances = inc.distances
        with pytest.raises(error):
            inc.apply(insertions=insertions, removals=removals)
        assert set(graph.temporal_edges_unordered()) == edges
        assert graph.mutation_version == version
        assert inc.distances == distances
        assert inc.num_updates == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [([9], 3, 1), (0, 1, "x")], ids=repr)
    def test_failed_insertion_batch_changes_nothing(self, backend, bad):
        graph = _rule_graph()
        inc = IncrementalBFS(graph, (0, 0), backend=backend)
        version = graph.mutation_version
        distances = inc.distances
        with pytest.raises(GraphError):
            inc.add_edges_from([(2, 4, 1), bad])
        assert not graph.has_edge(2, 4, 1)
        assert graph.mutation_version == version
        assert inc.distances == distances
        assert inc.num_updates == 0


class TestAtomicGraphBatches:
    """The graph's own batch methods validate before their first edit."""

    @pytest.mark.parametrize("insertions, removals, error", FAILING_BATCHES)
    def test_failed_graph_batch_changes_nothing(self, insertions, removals, error):
        graph = _rule_graph()
        edges = set(graph.temporal_edges_unordered())
        version = graph.mutation_version
        with pytest.raises(error):
            if insertions:  # the bad item is an insertion when there are any
                graph.add_edges_from(insertions)
            else:
                graph.remove_edges_from(removals)
        assert set(graph.temporal_edges_unordered()) == edges
        assert graph.mutation_version == version
