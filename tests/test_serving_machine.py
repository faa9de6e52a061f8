"""Model-based test of the query server's mutation contract.

A ``hypothesis.stateful`` machine drives one :class:`QueryServer`
(``window_s=0``, a two-entry cache) beside a plain model: the set of
``(u, v, t)`` edges and the registered timestamps.  Its rules submit bursts
of BFS, reachability, earliest-arrival and latest-departure queries (on
active and inactive roots), cancel a just-submitted future, mutate with
valid signed batches (universe-growing ones included) and with batches that
fail validation, and ``join`` the server.

After every ``join`` each answered future must equal the
``backend="python"`` function on a fresh graph built from the model at some
version no older than the one current at its submission (the freshness
contract), or raise the same error; a cancelled future may instead be
cancelled; and ``served + failed + cancelled == submitted - rejected``.  A
failed batch must change neither the edges, nor ``mutation_version``, nor
``stats.mutations``.  A mutation runs no sweep and prunes every entry of an
older version, so after a version-moving mutation the cache holds at most
the answers of queries that were still in flight when it was enqueued (none
once the server was quiet) or were submitted after it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.algorithms.queries import (
    BFSQuery,
    EarliestArrivalQuery,
    LatestDepartureQuery,
    ReachabilityQuery,
)
from repro.algorithms.temporal_paths import (
    earliest_arrival_times,
    latest_departure_times,
)
from repro.core.bfs import evolving_bfs
from repro.exceptions import GraphError, TimestampNotFoundError
from repro.graph import AdjacencyListEvolvingGraph
from repro.serving import QueryServer

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

#: Query roots, inactive and out-of-universe ones included.
roots = st.tuples(
    st.sampled_from([0, 1, 2, 3, 4, 5, *NEW_NODES]),
    st.sampled_from(TIMES + NEW_TIMES),
)
queries = st.one_of(
    st.builds(BFSQuery, root=roots),
    st.builds(ReachabilityQuery, root=roots, target=roots),
    st.builds(EarliestArrivalQuery, source=roots),
    st.builds(LatestDepartureQuery, target=roots),
)

#: Items that fail validation; each follows a valid item of its batch.
BAD_ITEMS = [
    ("removals", (0, 1, 99), TimestampNotFoundError),  # unregistered timestamp
    ("removals", ([9], 3, 1), GraphError),  # unhashable label
    ("insertions", (0, 1, "x"), GraphError),  # unorderable new timestamp
    ("insertions", (3, 4), GraphError),  # not a triple
]


def _oracle(graph, query):
    """The documented direct function each served query mirrors."""
    if isinstance(query, BFSQuery):
        return evolving_bfs(graph, query.root, backend="python").reached
    if isinstance(query, ReachabilityQuery):
        return evolving_bfs(graph, query.root, backend="python").distance(
            *query.target
        )
    if isinstance(query, EarliestArrivalQuery):
        return earliest_arrival_times(graph, query.source, backend="python")
    return latest_departure_times(graph, query.target, backend="python")


def _outcome(compute):
    """``("ok", value)`` or ``("raises", type)`` of one call."""
    try:
        return "ok", compute()
    except Exception as exc:
        return "raises", type(exc)


class ServerMachine(RuleBasedStateMachine):
    """One query server, its graph, and the edge-set model they must match."""

    @initialize(initial=batches)
    def build(self, initial):
        self.model = set(initial)
        self.times = set(TIMES)
        self.graph = AdjacencyListEvolvingGraph(initial, timestamps=TIMES)
        self.server = QueryServer(self.graph, window_s=0.0, cache_entries=2)
        # the model's versions since the last join, oldest first; a query
        # submitted at versions[i] may be answered at any later one
        self.versions = [self._snapshot()]
        self.oracles: dict = {}
        self.futures: list = []  # (query, future, version index, cancelled)
        # the keys the cache may hold at the current version: those in
        # flight at the last version-moving mutation or submitted since
        self.fresh: set = set()
        self.submitted = 0
        self.mutations = 0

    def teardown(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.close(timeout=30)

    def _snapshot(self) -> tuple[frozenset, tuple]:
        return frozenset(self.model), tuple(sorted(self.times))

    def _expected(self, index: int, query):
        key = (index, query)
        if key not in self.oracles:
            edges_then, times_then = self.versions[index]
            fresh = AdjacencyListEvolvingGraph(edges_then, timestamps=times_then)
            self.oracles[key] = _outcome(lambda: _oracle(fresh, query))
        return self.oracles[key]

    def _present(self, data) -> list:
        """Draw a few edges the model holds."""
        if not self.model:
            return []
        return data.draw(st.lists(st.sampled_from(sorted(self.model)), max_size=4))

    @rule(burst=st.lists(queries, min_size=1, max_size=4))
    def submit_burst(self, burst):
        index = len(self.versions) - 1
        for query in burst:
            self.futures.append([query, self.server.submit(query), index, False])
            self.fresh.add(query.cache_key())
        self.submitted += len(burst)

    @rule()
    def cancel_last(self):
        if self.futures:
            entry = self.futures[-1]
            entry[3] = entry[1].cancel()

    @rule(
        data=st.data(),
        insertions=batches,
        grow=st.lists(growing_edges, max_size=3),
        absent=batches,
        quiesce=st.booleans(),
    )
    def mutate(self, data, insertions, grow, absent, quiesce):
        # the cached answers a version-moving mutation may leave: those of
        # queries still in flight (or cancelled, whose joiners may still
        # run), computed after the mutation at its version
        if quiesce:
            self.server.join(timeout=30)
            in_flight = set()
        else:
            in_flight = {
                query.cache_key()
                for query, future, _, _ in self.futures
                if not future.done() or future.cancelled()
            }
        removals = self._present(data) + absent
        insertions = grow + insertions
        before = self.graph.mutation_version
        version = self.server.mutate(insertions, removals=removals).result(timeout=30)
        self.mutations += 1
        self.model -= set(removals)
        self.model |= set(insertions)
        self.times |= {t for _, _, t in insertions}
        assert version == self.graph.mutation_version
        assert set(self.graph.temporal_edges_unordered()) == self.model
        if version != before:
            self.versions.append(self._snapshot())
            self.fresh = in_flight
            assert self.server.cache_size <= len(in_flight)

    @rule(data=st.data(), bad=st.sampled_from(BAD_ITEMS), valid=edges)
    def failing_mutation(self, data, bad, valid):
        where, item, error = bad
        if where == "removals":
            insertions, removals = [], [*self._present(data)[:1], item]
        else:
            insertions, removals = [valid, item], []
        version = self.graph.mutation_version
        future = self.server.mutate(insertions, removals=removals)
        with pytest.raises(error):
            future.result(timeout=30)
        assert set(self.graph.temporal_edges_unordered()) == self.model
        assert self.graph.mutation_version == version
        assert self.server.stats_snapshot()["mutations"] == self.mutations

    @rule()
    def join(self):
        self.server.join(timeout=30)
        for query, future, index, cancelled in self.futures:
            if cancelled:
                assert future.cancelled()
                continue
            got = _outcome(lambda: future.result(timeout=0))
            allowed = [
                self._expected(i, query) for i in range(index, len(self.versions))
            ]
            assert got in allowed, (query, got, allowed)
        assert self.server.cache_size <= len(self.fresh)
        stats = self.server.stats_snapshot()
        assert stats["submitted"] == self.submitted
        assert stats["rejected"] == 0
        assert stats["served"] + stats["failed"] + stats["cancelled"] == (
            stats["submitted"] - stats["rejected"]
        )
        self.futures = []
        self.versions = [self.versions[-1]]
        self.oracles = {}

    @invariant()
    def graph_matches_the_model(self):
        assert set(self.graph.temporal_edges_unordered()) == self.model
        assert list(self.graph.timestamps) == sorted(self.times)
        assert self.server.stats_snapshot()["mutations"] == self.mutations


ServerMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServerMachine = ServerMachine.TestCase
