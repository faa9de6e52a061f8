"""The engine's answers: read-only views equal to the oracle dicts.

Every slot-keyed engine result — ``bfs``, ``batch``, ``multi_source`` and
``fewest_hops`` on the kernel and on the serial and process shard drivers,
and served BFS and fewest-hops answers — is a
:class:`~repro.engine.reached.ReachedView` over its root's ``(T, N)``
distance column, and every earliest-arrival and latest-departure answer —
``earliest_arrivals`` and ``latest_departures`` on the same sweepers,
``earliest_arrival_times`` and ``latest_departure_times``, and served
answers — a :class:`~repro.engine.reached.TimesView` over its root's
``(N,)`` hit column.  These tests pin both views' contract against the
Python oracles: ``==`` in both directions (``BFSResult`` included),
``repr`` and iteration in the order the engine's dictionaries have always
had (``(t, v)`` slots, nodes), lookups of arbitrary keys, ``len`` without
decoding, item assignment, pickling, and that a retained result pins
neither its sweep block nor the compiled artifact.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from collections import namedtuple
from collections.abc import Mapping

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.queries import (
    BFSQuery,
    EarliestArrivalQuery,
    FewestHopsQuery,
    LatestDepartureQuery,
)
from repro.algorithms.temporal_paths import (
    earliest_arrival_times,
    fewest_spatial_hops_from,
    latest_departure_times,
)
from repro.core.bfs import evolving_bfs, multi_source_bfs
from repro.engine import get_compiled, get_kernel, invalidate_kernel
from repro.engine import reached as reached_module
from repro.engine.reached import ReachedView, TimesView
from repro.engine.sharded_sweep import ShardedSweepDriver
from repro.generators import random_evolving_graph
from repro.graph import AdjacencyListEvolvingGraph, ShardedTemporalGraph
from repro.serving import QueryServer

TemporalNode = namedtuple("TemporalNode", "node time")

VIEW_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_with_roots(draw):
    """A small random evolving graph and 1-4 of its active temporal nodes."""
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9), st.integers(0, 4)
            ).filter(lambda e: e[0] != e[1]),
            min_size=1,
            max_size=25,
        )
    )
    graph = AdjacencyListEvolvingGraph(edges, directed=draw(st.booleans()))
    active = graph.active_temporal_nodes()
    roots = draw(st.lists(st.sampled_from(active), min_size=1, max_size=4))
    return graph, list(dict.fromkeys(roots))


def _bfs_oracle(graph, root):
    return evolving_bfs(graph, root, backend="python").reached


def _hops_oracle(graph, root):
    return fewest_spatial_hops_from(graph, root, backend="python")


def _earliest_oracle(graph, root):
    return earliest_arrival_times(graph, root, backend="python")


def _latest_oracle(graph, root):
    return latest_departure_times(graph, root, backend="python")


def _slot_order(graph, oracle: dict) -> dict:
    """The oracle's entries in ``(t, v)`` slot order: the engine's dict order."""
    compiled = get_compiled(graph)
    times, nodes = compiled.time_index, compiled.node_index
    order = sorted(oracle, key=lambda key: (times[key[1]], nodes[key[0]]))
    return {key: oracle[key] for key in order}


def _node_order(graph, oracle: dict) -> dict:
    """A time oracle's entries in node order: the engine's dict order."""
    nodes = get_compiled(graph).node_index
    return {key: oracle[key] for key in sorted(oracle, key=nodes.__getitem__)}


def _time_probe_keys(graph, oracle: dict) -> list:
    """Keys to look up in a time answer: every node, unknown nodes,
    equal-comparing aliases, temporal-node tuples and unhashable keys."""
    node = next(iter(oracle))
    return [
        *graph.nodes(),
        float(node),
        99,
        "x",
        (node, oracle[node]),
        (node,),
        None,
        frozenset({node}),
        [node],
        {node: 0},
        (node, [0]),
    ]


def _probe_keys(graph, oracle: dict) -> list:
    """Keys to look up: every reached slot, unreached slots, unknown nodes and
    times, equal-comparing aliases, non-2-tuples and unhashable keys."""
    node, time = next(iter(oracle))
    slots = [(v, t) for t in graph.timestamps for v in graph.nodes()]
    return [
        *slots,
        TemporalNode(node, time),
        (float(node), time),
        (99, time),
        ("x", time),
        (node, 99),
        (node, "t"),
        (node,),
        (node, time, 0),
        ((node, time),),
        node,
        None,
        "s",
        frozenset({node, time}),
        [node, time],
        (node, [time]),
    ]


def _lookup(mapping, key) -> list:
    """``get``, ``in`` and ``[]`` of ``key``: each a value or the error type."""
    out = []
    for probe in (
        lambda: mapping.get(key, "absent"),
        lambda: key in mapping,
        lambda: mapping[key],
    ):
        try:
            out.append(probe())
        except Exception as exc:  # noqa: BLE001 - the error type is compared
            out.append(type(exc))
    return out


def _assert_view_matches(graph, view, oracle: dict, cls=ReachedView) -> None:
    """``view``, a ``cls``, honours the whole mapping contract against ``oracle``."""
    if cls is ReachedView:
        expected, keys = _slot_order(graph, oracle), _probe_keys(graph, oracle)
    else:
        expected, keys = _node_order(graph, oracle), _time_probe_keys(graph, oracle)
    assert type(view) is cls and isinstance(view, Mapping)
    assert len(view) == len(oracle)
    # lookups before and after the decode ([] answers from the cached dict)
    undecoded = [_lookup(view, key) for key in keys]
    assert view == oracle and oracle == view and not view != oracle
    assert repr(view) == repr(expected)
    assert list(view) == list(expected)
    assert list(view.items()) == list(expected.items())
    assert list(view.values()) == list(expected.values())
    decoded = [_lookup(view, key) for key in keys]
    assert undecoded == decoded == [_lookup(expected, key) for key in keys]
    plain = view.copy()
    assert type(plain) is dict and plain == expected
    plain.clear()
    assert view == oracle
    with pytest.raises(TypeError):
        view[next(iter(oracle))] = 0
    with pytest.raises(TypeError):
        del view[next(iter(oracle))]
    clone = pickle.loads(pickle.dumps(view))
    assert isinstance(clone, Mapping) and clone == oracle
    assert repr(clone) == repr(expected)


def _assert_sweeper_views(graph, sweeper, roots) -> None:
    """``bfs``, ``batch``, ``multi_source``, ``fewest_hops``,
    ``earliest_arrivals`` and ``latest_departures`` of one sweeper."""
    for root in roots:
        result = sweeper.bfs(root)
        oracle = evolving_bfs(graph, root, backend="python")
        assert result == oracle and oracle == result
        _assert_view_matches(graph, result.reached, oracle.reached)
    for root, result in sweeper.batch(roots, chunk_size=3).items():
        _assert_view_matches(graph, result.reached, _bfs_oracle(graph, root))
    result = sweeper.multi_source(roots)
    oracle = multi_source_bfs(graph, roots, backend="python")
    assert result == oracle and oracle == result
    _assert_view_matches(graph, result.reached, oracle.reached)
    for root, hops in sweeper.fewest_hops(roots, chunk_size=3).items():
        _assert_view_matches(graph, hops, _hops_oracle(graph, root))
    for root, times in sweeper.earliest_arrivals(roots, chunk_size=3).items():
        _assert_view_matches(graph, times, _earliest_oracle(graph, root), TimesView)
    for root, times in sweeper.latest_departures(roots, chunk_size=3).items():
        _assert_view_matches(graph, times, _latest_oracle(graph, root), TimesView)


@VIEW_SETTINGS
@given(graphs_with_roots())
def test_kernel_and_serial_driver_views_equal_the_oracles(case):
    graph, roots = case
    _assert_sweeper_views(graph, get_kernel(graph), roots)
    for root in roots:
        for function, oracle in (
            (earliest_arrival_times, _earliest_oracle),
            (latest_departure_times, _latest_oracle),
        ):
            answer = function(graph, root)
            _assert_view_matches(graph, answer, oracle(graph, root), TimesView)
    compiled = get_compiled(graph)
    shards = min(2, compiled.num_snapshots)
    sharded = ShardedTemporalGraph.from_compiled(compiled, shards)
    _assert_sweeper_views(graph, ShardedSweepDriver(sharded), roots)


@VIEW_SETTINGS
@given(graphs_with_roots())
def test_served_answers_are_views_equal_to_the_oracles(case):
    graph, roots = case
    with QueryServer(graph, window_s=0.0) as server:
        for root in roots:
            answer = server.query(BFSQuery(root=root))
            _assert_view_matches(graph, answer, _bfs_oracle(graph, root))
            answer = server.query(FewestHopsQuery(source=root))
            _assert_view_matches(graph, answer, _hops_oracle(graph, root))
            answer = server.query(EarliestArrivalQuery(source=root))
            oracle = _earliest_oracle(graph, root)
            _assert_view_matches(graph, answer, oracle, TimesView)
            answer = server.query(LatestDepartureQuery(target=root))
            oracle = _latest_oracle(graph, root)
            _assert_view_matches(graph, answer, oracle, TimesView)


def test_process_driver_views_equal_the_oracles():
    graph = random_evolving_graph(30, 5, 120, seed=3)
    roots = graph.active_temporal_nodes()[:5]
    sharded = ShardedTemporalGraph.from_compiled(get_compiled(graph), 3)
    with ShardedSweepDriver(
        sharded, backend="process", num_workers=2, chunk_size=2
    ) as driver:
        _assert_sweeper_views(graph, driver, roots)


def test_len_and_lookups_do_not_decode(monkeypatch):
    graph = random_evolving_graph(30, 5, 120, seed=5)
    root = graph.active_temporal_nodes()[0]
    oracle = _bfs_oracle(graph, root)
    result = get_kernel(graph).bfs(root)

    def refuse(*args):
        raise AssertionError("decoded")

    monkeypatch.setattr(reached_module, "_decode_column", refuse)
    assert len(result.reached) == len(result) == len(oracle)
    for key in _probe_keys(graph, oracle):
        assert _lookup(result.reached, key) == _lookup(oracle, key)
    for key in oracle:
        assert result.distance(*key) == oracle[key] and result.is_reachable(*key)
    with pytest.raises(AssertionError, match="decoded"):
        list(result.reached)


@pytest.mark.parametrize("readout", ["earliest_arrivals", "latest_departures"])
def test_time_answer_len_and_lookups_do_not_decode(monkeypatch, readout):
    graph = random_evolving_graph(30, 5, 120, seed=5)
    root = graph.active_temporal_nodes()[0]
    oracle = {
        "earliest_arrivals": _earliest_oracle,
        "latest_departures": _latest_oracle,
    }[readout](graph, root)
    answer = getattr(get_kernel(graph), readout)([root])[root]

    def refuse(*args):
        raise AssertionError("decoded")

    monkeypatch.setattr(reached_module, "_decode_hits", refuse)
    assert len(answer) == len(oracle)
    for key in _time_probe_keys(graph, oracle):
        assert _lookup(answer, key) == _lookup(oracle, key)
    with pytest.raises(AssertionError, match="decoded"):
        list(answer)


def test_retained_results_pin_only_their_own_columns():
    """A kept result holds its root's ``4·T·N`` column bytes (a time answer
    its ``4·N`` hit column) — never the chunk's ``(T, N, R)`` block or its
    ``(N, R)`` hits — and does not keep the artifact alive."""
    graph = random_evolving_graph(40, 5, 160, seed=7)
    roots = graph.active_temporal_nodes()[:6]
    compiled = get_compiled(graph)
    column_bytes = 4 * compiled.num_snapshots * compiled.num_nodes
    kernel = get_kernel(graph)
    kept = {
        "bfs": kernel.bfs(roots[0]).reached,
        "multi_source": kernel.multi_source(roots).reached,
    }
    kept.update((("batch", r), res.reached) for r, res in kernel.batch(roots).items())
    kept.update((("hops", r), hops) for r, hops in kernel.fewest_hops(roots).items())
    times = {("ea", r): v for r, v in kernel.earliest_arrivals(roots).items()}
    times.update((("ld", r), v) for r, v in kernel.latest_departures(roots).items())
    for views, nbytes in (
        (kept.values(), column_bytes),
        (times.values(), 4 * compiled.num_nodes),
    ):
        for view in views:
            column = view._column
            owner = column if column.base is None else column.base
            assert owner.nbytes == nbytes
    artifact = weakref.ref(compiled)
    del compiled, kernel
    invalidate_kernel(graph)
    gc.collect()
    assert artifact() is None
    assert kept["bfs"] == _bfs_oracle(graph, roots[0])
    oracle = multi_source_bfs(graph, roots, backend="python")
    assert kept["multi_source"] == oracle.reached
    for root in roots:
        assert kept[("batch", root)] == _bfs_oracle(graph, root)
        assert kept[("hops", root)] == _hops_oracle(graph, root)
        assert times[("ea", root)] == _earliest_oracle(graph, root)
        assert times[("ld", root)] == _latest_oracle(graph, root)
