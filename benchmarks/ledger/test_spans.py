"""Tests of the ledger's span tracer.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

# pytest runs with --import-mode=importlib, which puts no test directory on
# the import path
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from spans import Tracer  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_clock", fake)
    return fake


class Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)

    @staticmethod
    def helper(x):
        return x * 2


def _module():
    module = types.ModuleType("fake_module")
    module.function = lambda x: -x
    return module


def _patches(module):
    return [
        (module, "function", "layer.f", {}),
        (Target, "method", "layer.m", {}),
        (Target, "build", "layer.c", {}),
        (Target, "helper", "layer.s", {}),
    ]


def test_install_restores_every_original_object():
    module = _module()
    originals = [vars(owner)[attr] for owner, attr, _, _ in _patches(module)]
    tracer = Tracer()
    with tracer.install(_patches(module)):
        for (owner, attr, _, _), original in zip(_patches(module), originals):
            assert vars(owner)[attr] is not original
        assert module.function(3) == -3
        assert Target().method(1) == 2
        assert Target.build(5) == (Target, 5)
        assert Target.helper(4) == 8
        assert isinstance(vars(Target)["build"], classmethod)
        assert isinstance(vars(Target)["helper"], staticmethod)
    for (owner, attr, _, _), original in zip(_patches(module), originals):
        assert vars(owner)[attr] is original
    assert tracer.layers("setup")["layer.c"]["calls"] == 1


def test_install_restores_when_the_body_raises():
    module = _module()
    originals = [vars(owner)[attr] for owner, attr, _, _ in _patches(module)]
    with pytest.raises(KeyError):
        with Tracer().install(_patches(module)):
            raise KeyError("boom")
    for (owner, attr, _, _), original in zip(_patches(module), originals):
        assert vars(owner)[attr] is original


def test_install_restores_earlier_patches_when_a_later_one_fails():
    module = _module()
    original = vars(module)["function"]
    patches = [(module, "function", "f", {}), (module, "absent", "g", {})]
    with pytest.raises(KeyError):
        with Tracer().install(patches):
            pass
    assert vars(module)["function"] is original


def test_wrapper_raises_what_the_call_raises_and_closes_its_span(clock):
    tracer = Tracer()

    def failing():
        clock.advance(2.0)
        raise ValueError("bad input")

    wrapped = tracer.wrap(failing, "layer.fail")
    with pytest.raises(ValueError, match="bad input"):
        wrapped()
    (span,) = tracer.spans()
    assert span[0] == "layer.fail" and span[5] == 2.0


def test_self_time_on_nested_spans(clock):
    tracer = Tracer()

    def leaf():
        clock.advance(3.0)

    wrapped_leaf = tracer.wrap(leaf, "inner")

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        wrapped_leaf()
        clock.advance(2.0)

    wrapped_middle = tracer.wrap(middle, "middle")
    with tracer.span("outer"):
        clock.advance(4.0)
        wrapped_middle()
    table = tracer.layers("setup")
    assert table["outer"] == {"calls": 1, "s": 13.0, "self_s": 4.0}
    assert table["middle"] == {"calls": 1, "s": 9.0, "self_s": 3.0}
    assert table["inner"] == {"calls": 2, "s": 6.0, "self_s": 6.0}
    by_name = {span[0]: span for span in tracer.spans()}
    by_index = tracer.spans()
    assert by_index[by_name["middle"][7]][0] == "outer"
    assert by_name["outer"][7] is None


def test_reentrant_calls_stay_in_the_open_span(clock):
    tracer = Tracer()
    calls = []

    def one(x):
        clock.advance(1.0)
        calls.append(x)
        return True

    wrapped_one = tracer.wrap(one, "mutate")

    def many(items):
        return sum(wrapped_one(x) for x in items)

    wrapped_many = tracer.wrap(many, "mutate")
    assert wrapped_many([1, 2, 3]) == 3
    assert calls == [1, 2, 3]
    assert tracer.layers("setup")["mutate"] == {"calls": 1, "s": 3.0, "self_s": 3.0}


def test_generator_span_closes_only_when_exhausted(clock):
    tracer = Tracer()

    def produce(n):
        for i in range(n):
            clock.advance(1.0)
            yield i
        clock.advance(0.5)

    wrapped = tracer.wrap(produce, "gen")
    items = wrapped(3)
    seen = []
    with tracer.span("consumer"):
        for item in items:
            assert all(span[0] != "gen" for span in tracer.spans())
            seen.append(item)
            clock.advance(10.0)  # the consumer's own work between resumptions
    assert seen == [0, 1, 2]
    table = tracer.layers("setup")
    assert table["gen"] == {"calls": 1, "s": 3.5, "self_s": 3.5}
    assert table["consumer"]["self_s"] == 30.0


def test_generator_span_closes_when_the_consumer_stops_early(clock):
    tracer = Tracer()

    def produce():
        while True:
            clock.advance(1.0)
            yield 1

    items = tracer.wrap(produce, "gen")()
    next(items)
    next(items)
    assert "gen" not in tracer.layers("setup")
    items.close()
    assert tracer.layers("setup")["gen"] == {"calls": 1, "s": 2.0, "self_s": 2.0}


def test_two_threads_recording_at_once_lose_no_span():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda x: x, "hot")
    per_thread = 3000
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        for i in range(per_thread):
            with tracer.span("outer"):
                wrapped(i)
            tracer.count("items")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    table = tracer.layers("setup")
    assert table["hot"]["calls"] == 4 * per_thread
    assert table["outer"]["calls"] == 4 * per_thread
    assert tracer.counts("setup")["items"] == 4 * per_thread
    assert len({span[1] for span in tracer.spans()}) == 4
