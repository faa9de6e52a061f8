"""In-memory span tracer that measures the library's layers from outside.

The ledger never edits ``src/``.  A traced run instead replaces a handful of
module attributes and class methods with wrappers (:meth:`Tracer.install`)
and puts every original object back when the run ends, also when it raises.
Each wrapper records one span: name, thread, start, end and the span that
was open below it on the calling thread's stack.  A span's self time is its
duration minus the time of its child spans, so nested layers are not
counted twice.

Rules the wrappers follow:

* a wrapper returns and raises exactly what the wrapped call does;
* a call that re-enters the layer it is already inside (``add_edges_from``
  calling ``add_edge``) is part of the open span and records no new one;
* a call that returns a generator records its span over the generator's
  resumptions and closes it when the generator is exhausted or closed, so
  the consumer's work between ``next`` calls is not charged to it;
* the tracer's own bookkeeping is timed and counted under
  :data:`OVERHEAD`, never charged to a layer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from types import GeneratorType

__all__ = ["OVERHEAD", "Tracer"]

_clock = time.perf_counter

#: Counter key under which each phase accumulates the tracer's bookkeeping.
OVERHEAD = "trace.overhead_s"


class _ThreadLog:
    """One thread's open-span stack, closed spans and counters."""

    __slots__ = ("thread", "stack", "spans", "counts")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        # open frames: [name, child seconds, span index, phase, parent index]
        self.stack: list[list] = []
        # closed spans: (name, phase, start, end, busy, child, parent index);
        # ``None`` marks a span that is still open
        self.spans: list[tuple | None] = []
        # (phase, key) -> total
        self.counts: defaultdict = defaultdict(float)


class Tracer:
    """Records spans and counters per thread; :attr:`phase` labels new spans.

    The harness sets :attr:`phase` (``"setup"``, ``"measure"``, ``"verify"``)
    so the ledger can tell set-up work from measured work; spans and counts
    take the phase current when they open.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording                                                           #
    # ------------------------------------------------------------------ #

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.get_ident())
            self._local.log = log
            with self._lock:
                self._logs.append(log)
            return log

    def count(self, key: str, value: float = 1) -> None:
        """Add ``value`` to counter ``key`` under the current phase."""
        self._log().counts[(self.phase, key)] += value

    def _open(self, log: _ThreadLog, name: str, parent: list | None) -> list:
        """Reserve a span slot and push its frame."""
        frame = [name, 0.0, len(log.spans), self.phase, parent[2] if parent else None]
        log.spans.append(None)
        log.stack.append(frame)
        return frame

    @staticmethod
    def _close(log, frame, start, end, busy) -> None:
        name, child, index, phase, parent = frame
        log.spans[index] = (name, phase, start, end, busy, child, parent)

    @staticmethod
    def _settle(log, frame, parent, enter, start, end) -> None:
        """Charge a finished call's full cost to its parent; book the overhead."""
        leave = _clock()
        if parent is not None:
            parent[1] += leave - enter
        log.counts[(frame[3], OVERHEAD)] += (leave - enter) - (end - start)

    @contextmanager
    def span(self, name: str):
        """A span around a block of harness code."""
        enter = _clock()
        log = self._log()
        parent = log.stack[-1] if log.stack else None
        frame = self._open(log, name, parent)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            log.stack.pop()
            self._close(log, frame, start, end, end - start)
            self._settle(log, frame, parent, enter, start, end)

    def wrap(self, fn, name: str, *, probe=None, only_under: str | None = None):
        """A wrapper around ``fn`` that records a ``name`` span per call.

        ``probe(args, kwargs)`` runs before the call (it may add keyword
        arguments) and returns ``None`` or ``done(result)``, which runs after
        a successful call to record counters.  With ``only_under`` the span
        is recorded only when the innermost open span has that name; other
        calls go straight through.
        """
        tracer = self
        local = self._local

        # the hot path of every traced run, so _open/_close/_settle are
        # inlined here: banded sweeps make tens of thousands of calls a second
        def traced(*args, **kwargs):
            enter = _clock()
            try:
                log = local.log
            except AttributeError:
                log = tracer._log()
            stack = log.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == name:
                return fn(*args, **kwargs)
            if only_under is not None and (parent is None or parent[0] != only_under):
                return fn(*args, **kwargs)
            done = probe(args, kwargs) if probe is not None else None
            spans = log.spans
            phase = tracer.phase
            index = len(spans)
            frame = [name, 0.0, index, phase, parent[2] if parent is not None else None]
            spans.append(None)
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = _clock()
                stack.pop()
                tracer._close(log, frame, start, end, end - start)
                tracer._settle(log, frame, parent, enter, start, end)
                raise
            end = _clock()
            stack.pop()
            if isinstance(result, GeneratorType):
                # the call only built the generator: its span covers the
                # resumptions instead, and closes when the generator ends
                return tracer._generator(result, log, frame)
            spans[index] = (name, phase, start, end, end - start, frame[1], frame[4])
            if done is not None:
                done(result)
            leave = _clock()
            if parent is not None:
                parent[1] += leave - enter
            log.counts[(phase, OVERHEAD)] += (leave - enter) - (end - start)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _generator(self, gen, owner: _ThreadLog, frame: list):
        """Drive ``gen``, timing each resumption as part of one span."""
        first = last = None
        busy = 0.0
        value = None
        try:
            while True:
                enter = _clock()
                log = self._log()
                below = log.stack[-1] if log.stack else None
                log.stack.append(frame)
                start = _clock()
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = _clock()
                    log.stack.pop()
                    busy += end - start
                    first = start if first is None else first
                    last = end
                    self._settle(log, frame, below, enter, start, end)
                value = yield item
        finally:
            gen.close()
            if first is None:
                first = last = _clock()
            self._close(owner, frame, first, last, busy)

    # ------------------------------------------------------------------ #
    # patching                                                            #
    # ------------------------------------------------------------------ #

    @contextmanager
    def install(self, patches):
        """Replace each ``(owner, attribute, name, options)`` with a wrapper.

        ``owner`` is a module or class that defines ``attribute`` itself;
        ``options`` are :meth:`wrap` keywords.  Class and static methods keep
        their descriptor type.  Every attribute is restored to its original
        object when the block exits, in reverse order, also on error.
        """
        saved = []
        try:
            for owner, attribute, name, options in patches:
                original = vars(owner)[attribute]
                if isinstance(original, (classmethod, staticmethod)):
                    kind = type(original)
                    wrapped = kind(self.wrap(original.__func__, name, **options))
                else:
                    wrapped = self.wrap(original, name, **options)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, wrapped)
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # readout                                                             #
    # ------------------------------------------------------------------ #

    def _snapshot(self) -> list[_ThreadLog]:
        with self._lock:
            return list(self._logs)

    def spans(self) -> list[tuple]:
        """Closed spans as ``(name, thread, phase, start, end, busy, self, parent)``.

        ``busy`` is the span's duration (for a generator, the sum of its
        resumptions); ``parent`` indexes the parent span within the same
        thread's spans, in recording order.
        """
        out = []
        for log in self._snapshot():
            for record in list(log.spans):
                if record is None:
                    continue
                name, phase, start, end, busy, child, parent = record
                out.append(
                    (name, log.thread, phase, start, end, busy, busy - child, parent)
                )
        return out

    def layers(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name in ``phase``: ``calls``, ``s`` (busy) and ``self_s``."""
        table: dict[str, dict[str, float]] = {}
        for name, _thread, span_phase, _start, _end, busy, self_s, _p in self.spans():
            if span_phase != phase:
                continue
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += busy
            row["self_s"] += self_s
        return table

    def counts(self, phase: str) -> dict[str, float]:
        """Counter totals recorded under ``phase``, summed over threads.

        Includes :data:`OVERHEAD`, the seconds of bookkeeping the tracer
        itself spent in that phase.
        """
        total: defaultdict = defaultdict(float)
        for log in self._snapshot():
            for (count_phase, key), value in list(log.counts.items()):
                if count_phase == phase:
                    total[key] += value
        return dict(total)
