"""Model-based test of the graph and its compiled artifact.

A ``hypothesis.stateful`` machine mutates a directed or undirected
:class:`AdjacencyListEvolvingGraph` beside a plain model: the set of
``(u, v, t)`` edges (undirected ones in the graph's canonical orientation)
and the registered timestamps.  It keeps its own chain of compiled
artifacts, each delta-recompiled from the last.  Its rules interleave
insertion, removal and mixed batches (present and absent edges, self-loops
included), failing batches, timestamp registration, batches that add a
snapshot between or after the others, and steps that build one of the
chain artifact's stacks or its per-snapshot views between mutations.  After
every step:

* ``CompiledTemporalGraph.recompile`` of the chain equals ``from_graph``
  under ``assert_bit_identical`` (every stack the chain's artifact holds,
  buffer for buffer), so the splice runs from artifacts whose backward
  stack was never built, was built as the push's twin, or was asked for;
  and it takes the delta path whenever the node universe stayed the same;
* ``nodes()`` and ``active_temporal_nodes()`` equal the model's, and a
  failed batch leaves the edges, timestamps and ``mutation_version`` as
  they were;
* one ``get_kernel(graph).bfs`` equals ``evolving_bfs(..., backend="python")``
  (the dispatch cache keeps a chain of its own, whose twin each sweep's
  push builds).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.bfs import evolving_bfs
from repro.engine import get_kernel
from repro.exceptions import GraphError, TimestampNotFoundError
from repro.graph import AdjacencyListEvolvingGraph
from repro.graph.compiled import CompiledTemporalGraph
from tests.test_delta_streaming import assert_bit_identical

TIMES = [0, 2, 4]
#: Timestamps a batch may add: between the registered ones and after them.
NEW_TIMES = [1, 3, 5]

nodes = st.integers(min_value=0, max_value=5)
edges = st.tuples(nodes, nodes, st.sampled_from(TIMES))
batches = st.lists(edges, max_size=6)

#: Items that fail validation; each follows a valid item of its batch.
BAD_ITEMS = [
    ("removals", (0, 1, 99), TimestampNotFoundError),  # unregistered timestamp
    ("removals", ([9], 3, 0), GraphError),  # unhashable label
    ("insertions", (0, 1, "x"), GraphError),  # unorderable new timestamp
    ("insertions", (3, 4), GraphError),  # not a triple
]

#: What a build step asks of the chain's artifact between mutations.
BUILDS = {
    "forward stack": lambda a: a.stack(),
    "twin": lambda a: a.twin(),
    "backward stack": lambda a: a.stack(False),
    "forward views": lambda a: a.forward_operators,
    "backward views": lambda a: a.backward_operators,
    "twin views": lambda a: a.forward_twins,
}


class CompiledMachine(RuleBasedStateMachine):
    """One graph, its edge-set model and a chain of delta-compiled artifacts."""

    @initialize(directed=st.booleans(), initial=batches)
    def build(self, directed, initial):
        self.graph = AdjacencyListEvolvingGraph(
            initial, directed=directed, timestamps=TIMES
        )
        self.model = {self._canonical(e) for e in initial}
        self.times = set(TIMES)
        self.artifact = CompiledTemporalGraph.from_graph(self.graph)

    def _canonical(self, edge) -> tuple:
        u, v, t = edge
        if self.graph.is_directed or repr(u) <= repr(v):
            return u, v, t
        return v, u, t

    def _present(self, data) -> list:
        """Draw a few edges the model holds, in either orientation."""
        if not self.model:
            return []
        held = data.draw(st.lists(st.sampled_from(sorted(self.model)), max_size=4))
        flip = data.draw(st.booleans())
        return [(v, u, t) if flip else (u, v, t) for u, v, t in held]

    def _remove(self, removals) -> None:
        held = {self._canonical(e) for e in removals} & self.model
        assert self.graph.remove_edges_from(removals) == len(held)
        self.model -= held

    def _insert(self, insertions) -> None:
        fresh = {self._canonical(e) for e in insertions} - self.model
        assert self.graph.add_edges_from(insertions) == len(fresh)
        self.model |= fresh
        self.times |= {t for _, _, t in insertions}

    @rule(insertions=batches)
    def insert(self, insertions):
        self._insert(insertions)

    @rule(data=st.data(), absent=batches)
    def remove(self, data, absent):
        self._remove(self._present(data) + absent)

    @rule(data=st.data(), insertions=batches, absent=batches)
    def mixed(self, data, insertions, absent):
        # two journal entries in one recompile window
        self._remove(self._present(data) + absent)
        self._insert(insertions)

    @rule(
        grow=st.lists(
            st.tuples(nodes, nodes, st.sampled_from(NEW_TIMES)), min_size=1, max_size=3
        ),
        insertions=batches,
    )
    def add_snapshot(self, grow, insertions):
        self._insert(grow + insertions)

    @rule(time=st.sampled_from(TIMES + NEW_TIMES))
    def register_timestamp(self, time):
        self.graph.add_timestamp(time)
        self.times.add(time)

    @rule(data=st.data(), bad=st.sampled_from(BAD_ITEMS))
    def failing_batch(self, data, bad):
        where, item, error = bad
        if where == "removals":
            batch = self._present(data)[:1] + [item]
            apply = self.graph.remove_edges_from
        else:
            absent = edges.filter(lambda e: self._canonical(e) not in self.model)
            batch = [data.draw(absent), item]
            apply = self.graph.add_edges_from
        before = self._state()
        with pytest.raises(error):
            apply(batch)
        assert self._state() == before

    @rule(part=st.sampled_from(sorted(BUILDS)))
    def build_between_mutations(self, part):
        BUILDS[part](self.artifact)

    def _state(self) -> tuple:
        graph = self.graph
        edges_now = set(graph.temporal_edges_unordered())
        return edges_now, list(graph.timestamps), graph.mutation_version

    @invariant()
    def graph_matches_the_model(self):
        graph = self.graph
        assert set(graph.temporal_edges_unordered()) == self.model
        assert list(graph.timestamps) == sorted(self.times)
        assert graph.nodes() == {w for u, v, _ in self.model for w in (u, v)}
        active = {(w, t) for u, v, t in self.model if u != v for w in (u, v)}
        assert set(graph.active_temporal_nodes()) == active

    @invariant()
    def recompile_equals_a_fresh_build(self):
        before = self.artifact
        after = CompiledTemporalGraph.recompile(self.graph, before)
        fresh = CompiledTemporalGraph.from_graph(self.graph)
        assert_bit_identical(after, fresh)
        if after is not before and set(fresh.node_labels) == set(before.node_labels):
            assert after.delta_stats is not None
        self.artifact = after

    @invariant()
    def kernel_search_equals_the_oracle(self):
        active = self.graph.active_temporal_nodes()
        if not active:
            return
        root = active[len(active) // 2]
        expected = evolving_bfs(self.graph, root, backend="python").reached
        assert get_kernel(self.graph).bfs(root).reached == expected


CompiledMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCompiledMachine = CompiledMachine.TestCase
