"""Regression tests for the dispatch cache's thread-safety (ISSUE 6 fix).

The module-level ``_CACHE`` used to have no lock: concurrent first-touch of
the same graph could compile it several times (duplicate artifacts and
kernels, wasted work), and a reader could observe an entry mid-replacement.
Entry creation is now double-checked under ``_CACHE_LOCK`` while the hit
path stays lock-free; these tests pin both properties.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.engine import dispatch
from repro.engine.dispatch import (
    get_compiled,
    get_kernel,
    get_spectral_kernel,
    invalidate_kernel,
)
from repro.generators import random_evolving_graph
from repro.graph.compiled import CompiledTemporalGraph


def _count_recompiles(monkeypatch, delay=0.0):
    """Instrument ``CompiledTemporalGraph.recompile`` with a counter (+ delay)."""
    calls = []
    real = CompiledTemporalGraph.recompile

    def counting(graph, previous=None):
        calls.append(threading.get_ident())
        if delay:
            time.sleep(delay)  # widen the race window
        return real(graph, previous)

    monkeypatch.setattr(CompiledTemporalGraph, "recompile", staticmethod(counting))
    return calls


def test_concurrent_first_touch_compiles_exactly_once(monkeypatch):
    graph = random_evolving_graph(40, 5, 150, seed=7)
    invalidate_kernel(graph)
    calls = _count_recompiles(monkeypatch, delay=0.02)

    barrier = threading.Barrier(8)

    def first_touch():
        barrier.wait()  # maximise simultaneous arrival at the cold cache
        return get_compiled(graph)

    with ThreadPoolExecutor(max_workers=8) as pool:
        artifacts = list(pool.map(lambda _: first_touch(), range(8)))

    assert len(calls) == 1, f"expected one compile, got {len(calls)}"
    assert all(a is artifacts[0] for a in artifacts), "threads saw different artifacts"


def test_concurrent_getters_share_one_entry(monkeypatch):
    """All three getters racing on a cold cache still compile once and agree."""
    graph = random_evolving_graph(40, 5, 150, seed=19)
    invalidate_kernel(graph)
    calls = _count_recompiles(monkeypatch, delay=0.01)

    getters = [get_compiled, get_kernel, get_spectral_kernel] * 4
    barrier = threading.Barrier(len(getters))

    def touch(getter):
        barrier.wait()
        return getter(graph)

    with ThreadPoolExecutor(max_workers=len(getters)) as pool:
        results = list(pool.map(touch, getters))

    assert len(calls) == 1
    # every kernel getter returned an object over the one shared artifact
    compiled = results[0]
    for getter, obj in zip(getters, results):
        if getter is get_compiled:
            assert obj is compiled
        else:
            assert obj.compiled is compiled


def test_mutation_during_compile_never_caches_stale_entry(monkeypatch):
    """A writer bumping the version mid-compile forces the next reader to
    recompile — the stale artifact must not be published."""
    graph = random_evolving_graph(30, 4, 100, seed=23)
    invalidate_kernel(graph)

    real = CompiledTemporalGraph.recompile
    mutated = threading.Event()

    def mutating_recompile(g, previous=None):
        artifact = real(g, previous)
        if not mutated.is_set():
            mutated.set()
            g.add_edge(-5, -6, g.timestamps[0])  # bump version mid-compile
        return artifact

    monkeypatch.setattr(
        CompiledTemporalGraph, "recompile", staticmethod(mutating_recompile)
    )
    stale = get_compiled(graph)
    assert stale.mutation_version != graph.mutation_version  # compile raced a write
    assert dispatch._CACHE.get(graph) is None, "stale artifact was published"

    monkeypatch.setattr(CompiledTemporalGraph, "recompile", staticmethod(real))
    fresh = get_compiled(graph)
    assert fresh.mutation_version == graph.mutation_version
    assert dispatch._CACHE.get(graph) is not None


def test_hot_path_stays_consistent_under_mutation_churn():
    """Readers hammering the getters while a writer mutates: every returned
    artifact is internally consistent (never a half-replaced entry)."""
    graph = random_evolving_graph(30, 4, 120, seed=29)
    invalidate_kernel(graph)
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            kernel = get_kernel(graph)
            # the kernel must always wrap the artifact it was built with
            if kernel.compiled is not get_spectral_kernel(graph).compiled:
                # racing a refresh may pair different generations — both must
                # at least be self-consistent artifacts
                if kernel.compiled is None:  # pragma: no cover
                    failures.append("kernel lost its artifact")

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for i in range(30):
            graph.add_edge(500 + i, 501 + i, graph.timestamps[i % 4])
            get_compiled(graph)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=30)
    assert not failures
    assert all(not t.is_alive() for t in threads)
    final = get_compiled(graph)
    assert final.mutation_version == graph.mutation_version
