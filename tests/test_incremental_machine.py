"""Model-based test of the incremental BFS surface.

A ``hypothesis.stateful`` machine runs :class:`IncrementalBFS` and
:class:`IncrementalEarliestArrival` on both backends, each over its own
graph, beside a plain model: the set of ``(u, v, t)`` edges and the
registered timestamps.  Its rules interleave insertion, removal (present and
absent edges), mixed, single-edge, universe-growing and failing batches with
``recompute``.  After every step each instance must agree with the
``backend="python"`` oracles run on a fresh graph built from the model
(``distances``, ``distance`` and ``as_result`` with ``evolving_bfs``,
``arrivals`` with ``earliest_arrival_times``), ``num_updates`` must count the
model's effective edits, and a failed batch must leave every graph's edges
and ``mutation_version`` unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.algorithms.incremental import IncrementalBFS, IncrementalEarliestArrival
from repro.algorithms.temporal_paths import earliest_arrival_times
from repro.core.bfs import evolving_bfs
from repro.engine import BACKENDS
from repro.exceptions import GraphError, TimestampNotFoundError
from repro.graph import AdjacencyListEvolvingGraph

TIMES = [0, 1, 2]
#: Labels and timestamps outside the initial universe.
NEW_NODES = [6, 7]
NEW_TIMES = [3, 4]

nodes = st.integers(min_value=0, max_value=5)
edges = st.tuples(nodes, nodes, st.sampled_from(TIMES))
batches = st.lists(edges, max_size=6)
growing_edges = st.tuples(
    st.sampled_from([0, 1, *NEW_NODES]),
    st.sampled_from([2, 3, *NEW_NODES]),
    st.sampled_from(TIMES + NEW_TIMES),
)

#: Items that fail validation; each follows a valid item of its batch.
BAD_ITEMS = [
    ("removals", (0, 1, 99), TimestampNotFoundError),  # unregistered timestamp
    ("removals", ([9], 3, 1), GraphError),  # unhashable label
    ("insertions", (0, 1, "x"), GraphError),  # unorderable new timestamp
    ("insertions", (3, 4), GraphError),  # not a triple
]


class IncrementalMachine(RuleBasedStateMachine):
    """Four incremental instances and the edge-set model they must match."""

    @initialize(initial=batches, root=st.tuples(nodes, st.sampled_from(TIMES)))
    def build(self, initial, root):
        self.model = set(initial)
        self.times = set(TIMES)
        self.updates = 0
        self.root = root
        self.instances = [
            cls(
                AdjacencyListEvolvingGraph(initial, timestamps=TIMES),
                root,
                backend=backend,
            )
            for cls in (IncrementalBFS, IncrementalEarliestArrival)
            for backend in BACKENDS
        ]

    def _present(self, data) -> list:
        """Draw a few edges the model holds."""
        if not self.model:
            return []
        return data.draw(st.lists(st.sampled_from(sorted(self.model)), max_size=4))

    def _batch(self, insertions, removals, form) -> None:
        """Apply one batch to the model, and through ``form`` to every instance.

        ``form(inc)`` returns the instance's ``(added, removed)`` counts,
        which must equal the model's effective edits: removals first, then
        insertions, duplicates and absent removals counting nothing.
        """
        removed = added = 0
        for edge in removals:
            if edge in self.model:
                self.model.remove(edge)
                removed += 1
        for edge in insertions:
            if edge not in self.model:
                self.model.add(edge)
                self.times.add(edge[2])
                added += 1
        self.updates += added + removed
        for inc in self.instances:
            assert form(inc) == (added, removed)

    @rule(insertions=batches, via_apply=st.booleans())
    def insert(self, insertions, via_apply):
        if via_apply:
            self._batch(insertions, [], lambda inc: inc.apply(insertions=insertions))
        else:
            self._batch(insertions, [], lambda inc: (inc.add_edges_from(insertions), 0))

    @rule(data=st.data(), absent=batches, via_apply=st.booleans())
    def remove(self, data, absent, via_apply):
        removals = self._present(data) + absent
        if via_apply:
            self._batch([], removals, lambda inc: inc.apply(removals=removals))
        else:
            self._batch([], removals, lambda inc: (0, inc.remove_edges_from(removals)))

    @rule(data=st.data(), insertions=batches, absent=batches)
    def mixed(self, data, insertions, absent):
        removals = self._present(data) + absent
        self._batch(
            insertions,
            removals,
            lambda inc: inc.apply(insertions=insertions, removals=removals),
        )

    @rule(data=st.data(), edge=edges, insert=st.booleans())
    def single_edge(self, data, edge, insert):
        if insert:
            self._batch([edge], [], lambda inc: (int(inc.add_edge(*edge)), 0))
            return
        edge = data.draw(st.sampled_from(self._present(data) or [edge]))
        self._batch([], [edge], lambda inc: (0, int(inc.remove_edge(*edge))))

    @rule(grow=st.lists(growing_edges, min_size=1, max_size=3), insertions=batches)
    def grow_universe(self, grow, insertions):
        batch = grow + insertions
        self._batch(batch, [], lambda inc: inc.apply(insertions=batch))

    @rule(data=st.data(), bad=st.sampled_from(BAD_ITEMS), valid=edges)
    def failing_batch(self, data, bad, valid):
        where, item, error = bad
        first = self._present(data)[:1] if where == "removals" else [valid]
        batch = {"insertions": [], "removals": [], where: [*first, item]}
        before = [self._state(inc) for inc in self.instances]
        for inc in self.instances:
            with pytest.raises(error):
                inc.apply(**batch)
        assert [self._state(inc) for inc in self.instances] == before

    @rule()
    def recompute(self):
        expected, _ = self._oracles()
        for inc in self.instances:
            assert inc.recompute() == expected

    @staticmethod
    def _state(inc) -> tuple:
        graph = inc.graph
        edges_now = set(graph.temporal_edges_unordered())
        return edges_now, graph.mutation_version, inc.distances, inc.num_updates

    def _oracles(self) -> tuple[dict, dict]:
        """Distances and earliest arrivals on a fresh graph built from the model."""
        fresh = AdjacencyListEvolvingGraph(self.model, timestamps=sorted(self.times))
        if not fresh.is_active(*self.root):
            return {}, {}
        return (
            evolving_bfs(fresh, self.root, backend="python").reached,
            earliest_arrival_times(fresh, self.root, backend="python"),
        )

    @invariant()
    def matches_the_oracles(self):
        expected, arrivals = self._oracles()
        for inc in self.instances:
            assert set(inc.graph.temporal_edges_unordered()) == self.model
            assert list(inc.graph.timestamps) == sorted(self.times)
            assert inc.num_updates == self.updates
            assert inc.distances == expected
            assert inc.as_result().reached == expected
            for (v, t), d in expected.items():
                assert inc.distance(v, t) == d
            assert inc.distance(*self.root) == expected.get(self.root)
            assert inc.distance(max(NEW_NODES) + 1, 0) is None
            if isinstance(inc, IncrementalEarliestArrival):
                assert inc.arrivals == arrivals


IncrementalMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestIncrementalMachine = IncrementalMachine.TestCase
