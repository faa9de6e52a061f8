"""The thread-safe query server: micro-batching, coalescing and result caching.

:class:`QueryServer` turns the engine — a fast *library* of batched kernels —
into a fast *system*: many client threads submit
:class:`~repro.algorithms.queries.Query` descriptors concurrently, and the
server answers them with far less kernel work than one sweep per query:

1. **result cache** — a bounded LRU keyed on ``(mutation_version,
   cache_key)``.  ``mutation_version`` is exact (any in-place edit bumps
   it), so a hit is always safe to serve without touching a kernel; repeated
   and Zipf-skewed traffic is mostly absorbed here.
2. **in-flight dedup** — identical queries submitted while one of them is
   still being computed attach to the same pending computation.
3. **micro-batch coalescing** — queries that arrived within one batching
   window and share a :meth:`~repro.algorithms.queries.Query.sweep_key` are
   executed as *one* ``(T, N, R)`` block sweep (roots become the packed
   root lanes of one level-at-a-time sweep; see
   :mod:`repro.serving.coalesce`), and the per-query answers are scattered
   back to their futures.
4. **single-writer mutations** — :meth:`mutate` enqueues an edge batch that
   the dispatcher applies *between* micro-batches: the batch is validated,
   the graph is edited, the compiled artifact is delta-recompiled
   (:meth:`~repro.graph.compiled.CompiledTemporalGraph.recompile` — only
   touched snapshots rebuild), and every cache entry of an older version is
   pruned.  A mutation runs no sweep: a pruned answer that is asked for
   again misses, and the next burst's coalesced sweep answers it with the
   same readouts as any other miss.  Queries therefore always execute
   against a consistent ``(graph, artifact)`` pair.

Overload robustness adds three mechanisms on the admission side:

* **admission control** — ``max_pending`` bounds the submission queue; the
  ``admission`` policy decides what happens at the bound: ``"reject"``
  raises :class:`~repro.exceptions.ServerOverloadedError` synchronously,
  ``"shed-oldest"`` evicts the lowest-priority oldest pending query (its
  future fails with the same error, ``shed=True``) to make room, and
  ``"block"`` parks the submitting thread until the dispatcher drains.
* **per-query deadlines** — ``submit(query, deadline_s=...)`` stamps an
  absolute deadline at admission.  The dispatcher drops queries whose every
  attached future has already expired *before* spending sweep columns on
  them (futures fail with :class:`~repro.exceptions.DeadlineExceededError`),
  and the micro-batch gathering window never waits past the earliest
  pending deadline.  A query that expires while its sweep runs still fails,
  flagged ``swept=True``.

A cached BFS answer holds its root's own ``(T, N)`` distance column as a
read-only :class:`~repro.engine.reached.ReachedView`, and an
earliest-arrival or latest-departure answer its root's ``(N,)`` hit column
as a read-only :class:`~repro.engine.reached.TimesView`: only a client
that reads every entry of an answer decodes it, once, and no client can
edit what the cache and the other joiners hold.  No entry retains a
sweep's block.

Cancellation contract: ``future.cancel()`` follows :mod:`concurrent.futures`.
It succeeds until the dispatcher *takes* the future — a queued query and its
joiners at the drain, a later joiner at the scatter, a shed victim when it
is shed, a mutation when the writer drains it — and fails from then on.  A
cancelled mutation is never applied; a query whose every waiter was
cancelled spends no sweep column, while the other waiters on its key still
get their answer.  No cancel makes the dispatcher or another client raise.

Failure contract: an exception that escapes the dispatcher's per-group and
per-mutation handlers *breaks* the server.  Every waiting future fails with
a :class:`~repro.exceptions.ServingError` whose ``__cause__`` is that
exception; from then on :meth:`~QueryServer.submit` and
:meth:`~QueryServer.mutate` raise it, and ``join``/``close`` return at once.

Freshness contract: a query is answered at *some* mutation version at least
as new as the one current when it was submitted (the usual serving model);
:meth:`join` quiesces the server when a caller needs a fixed version.
Results are shared between callers (cache hits and joiners get the same
object), so every served answer is immutable: a dict-shaped answer is a
read-only view or a :class:`types.MappingProxyType`, whose ``copy()`` gives
a caller a plain ``dict`` of its own.

Thread-safety: ``submit``/``query``/``mutate`` may be called from any number
of threads.  All kernel execution happens on the dispatcher thread (a
sharded server's process backend runs its shard sweeps in its workers), and
the engine's dispatch cache is itself lock-safe, so readers can also keep
calling the plain ``repro.algorithms`` functions on the same graph between
mutations.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from repro.algorithms.queries import Query, Submission
from repro.engine.sharded_sweep import ShardedSweepDriver
from repro.exceptions import (
    DeadlineExceededError,
    GraphError,
    ServerOverloadedError,
    ServingError,
)
from repro.graph.base import BaseEvolvingGraph, TemporalEdgeTuple
from repro.graph.validation import validate_edge_batch
from repro.serving.coalesce import execute_group

# Nothing here calls ``decode_warm_block``; the name stays in this module's
# namespace because the layer ledger (``benchmarks/ledger/layers.py``) wraps
# it here for its ``serving.patch`` layer, and a traced run looks up every
# wrapped name.  It goes when the ledger reads an in-source registry
# (ROADMAP item 2).
from repro.serving.coalesce import decode_warm_block  # noqa: F401

__all__ = ["ADMISSION_POLICIES", "LatencyHistogram", "QueryServer", "ServingStats"]

#: Recognised values of the ``admission`` policy flag.
ADMISSION_POLICIES = ("reject", "shed-oldest", "block")


class LatencyHistogram:
    """Fixed log-spaced latency histogram (stdlib only, O(1) per record).

    Buckets are powers of two from 10 µs to ~10.5 s plus one overflow
    bucket; bucket ``i`` counts samples in ``(BOUNDS[i-1], BOUNDS[i]]``.
    Quantiles are read as the *upper bound* of the bucket containing the
    rank, so they over-estimate by at most one octave — plenty for the
    load-shedding reports this backs, with no per-sample storage.
    """

    #: Upper bucket bounds in seconds: 1e-5 * 2**i for i in 0..20.
    BOUNDS = tuple(1e-5 * 2.0**i for i in range(21))

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.counts[bisect.bisect_left(self.BOUNDS, seconds)] += 1

    def quantile(self, q: float) -> float | None:
        """Upper bound of the bucket holding the ``q``-quantile (``None`` if empty)."""
        if not 0.0 <= q <= 1.0:
            raise GraphError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.BOUNDS[i] if i < len(self.BOUNDS) else self.max_s
        return self.max_s

    def snapshot(self) -> dict:
        """Plain-dict copy (reports and assertions)."""
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.total_s / self.count if self.count else 0.0,
            "max_s": self.max_s,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
            "counts": list(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LatencyHistogram n={self.count} max={self.max_s:.6f}s>"


@dataclass
class ServingStats:
    """Op-stats of one :class:`QueryServer` (the serving analogue of
    :class:`~repro.linalg.csr.OperationCounter`).

    ``sweeps``/``sweep_columns`` are what the coalescing tests assert on: a
    micro-batch of ``R`` same-shape queries must execute as one sweep of
    ``R`` columns, not ``R`` sweeps.  ``coalesced_queries`` counts queries
    that shared their sweep with at least one other query or rode an
    in-flight duplicate.

    Admission accounting: ``submitted`` counts every well-formed ``submit``
    call; ``admitted`` those that entered the serving pipeline (cache hit,
    in-flight join, enqueue, or expired-at-admission); ``rejected`` those
    refused synchronously by the ``"reject"`` policy; ``shed`` every future
    failed by ``"shed-oldest"`` eviction (queue victims, their in-flight
    joiners, and newcomers that out-prioritized nothing).  Deadline
    accounting: ``expired_before_sweep`` counts futures dropped without
    kernel work, ``expired_after_sweep`` those whose deadline passed while
    their shared sweep ran.  Every future that resolves exceptionally —
    group errors, shedding, expiry, a broken dispatcher — also counts in
    ``failed``, and ``cancelled`` counts the futures the dispatcher found
    cancelled by their clients when it came to take them.  So every
    non-rejected submission ends exactly once:
    ``served + failed + cancelled == submitted - rejected`` (self-shed
    newcomers fail without ever counting as ``admitted``).

    ``queue_depth_high_water`` is the deepest the submission queue has ever
    been; ``batch_queue_depths`` records the per-micro-batch high-water
    marks (most recent :data:`_DEPTH_SAMPLES` kept).  ``wait_latency``
    (admission → drain) and ``service_latency`` (drain → resolution) are
    :class:`LatencyHistogram` instances.  ``entries_invalidated`` counts the
    cache entries a mutation pruned.  ``entries_patched`` always reads 0:
    a mutation carries no entry across and runs no sweep.  The field stays
    because the layer ledger's ``zipf_serving`` workload reads it from
    :meth:`QueryServer.stats_snapshot`.
    """

    submitted: int = 0
    admitted: int = 0
    served: int = 0
    failed: int = 0
    rejected: int = 0
    shed: int = 0
    cancelled: int = 0
    expired_before_sweep: int = 0
    expired_after_sweep: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    inflight_joins: int = 0
    micro_batches: int = 0
    sweeps: int = 0
    sweep_columns: int = 0
    coalesced_queries: int = 0
    mutations: int = 0
    edges_streamed: int = 0
    entries_invalidated: int = 0
    entries_patched: int = 0
    queue_depth_high_water: int = 0
    batch_queue_depths: list = field(default_factory=list)
    wait_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    service_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def snapshot(self) -> dict:
        """A plain-dict copy (reports and assertions); histograms nest as dicts."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                out[f.name] = list(value)
            elif hasattr(value, "snapshot"):
                out[f.name] = value.snapshot()
            else:
                out[f.name] = value
        return out


#: Retained per-micro-batch queue-depth samples (oldest dropped beyond this).
_DEPTH_SAMPLES = 4096


@dataclass
class _Waiter:
    """One future attached to a pending computation, with its deadline stamps."""

    future: Future
    deadline: float | None  # absolute time.monotonic() deadline, None = none
    budget: float | None  # the submitted relative deadline_s (error text)
    submitted: float  # time.monotonic() admission stamp

    def expired(self, now: float) -> bool:
        return self.deadline is not None and self.deadline <= now


@dataclass
class _Ticket(_Waiter):
    """A queued query: the owning waiter plus its identity and priority."""

    query: Query = None
    key: tuple = None
    priority: int = 0
    live: list = field(default_factory=list)  # waiters the dispatcher took


class _VersionedLRU:
    """Bounded LRU of ``(mutation_version, cache_key) -> answer``.

    Not itself locked — the server serializes access under its own lock.
    ``get`` double-checks the version so a stale entry is never served even
    if pruning were to lag a mutation.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise GraphError(f"cache capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, version: int, key: tuple):
        full_key = (version, key)
        if full_key not in self._entries:  # an answer may itself be None
            return None, False
        self._entries.move_to_end(full_key)
        return self._entries[full_key], True

    def put(self, version: int, key: tuple, value) -> None:
        full_key = (version, key)
        self._entries[full_key] = value
        self._entries.move_to_end(full_key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def prune_stale(self, version: int) -> int:
        """Drop every entry whose version no longer matches; returns the count."""
        stale = [k for k in self._entries if k[0] != version]
        for k in stale:
            del self._entries[k]
        return len(stale)


class QueryServer:
    """Concurrent query-serving façade over one evolving graph.

    Parameters
    ----------
    graph:
        The evolving graph to serve.  The server becomes the graph's single
        writer: mutate it only through :meth:`mutate` while serving.
    window_s:
        Micro-batch gathering window.  After the first query of a batch
        arrives the dispatcher waits up to this long for more queries to
        coalesce with it (a mutation, a full batch, or the earliest pending
        deadline cuts the wait short — a query is never *held* past its own
        deadline just to gather batchmates).
    max_batch:
        Upper bound on queries drained into one micro-batch.
    max_pending:
        Bound on the submission queue (``None`` = unbounded, the previous
        behaviour).  With the queue at the bound, the ``admission`` policy
        decides the fate of the next enqueue-path query; cache hits and
        in-flight joins cost no queue slot and are always admitted.
    admission:
        Overload policy at the ``max_pending`` bound: ``"reject"`` (default)
        raises :class:`~repro.exceptions.ServerOverloadedError` to the
        submitter; ``"shed-oldest"`` evicts the oldest pending query of the
        lowest priority not exceeding the newcomer's (the victim's future —
        and its in-flight joiners — fail with ``shed=True``; a newcomer that
        out-prioritizes nothing is itself shed); ``"block"`` parks the
        submitting thread until the dispatcher frees a slot (or the server
        closes, which raises).
    cache_entries:
        LRU capacity of the version-keyed result cache.
    chunk_size:
        Maximum roots per ``(T, N, R)`` sweep chunk (the engine's usual
        column-block width).
    sharded:
        A :class:`~repro.engine.sharded_sweep.ShardedSweepDriver` that
        serves the frontier, zero-one, Tang and reach-count families instead
        of the monolithic kernels — results stay bit-identical, and a driver
        over a memory-mapped store from :func:`repro.io.load_sharded` serves
        out-of-core.  The caller owns the driver and closes it; the server
        sweeps with its own ``chunk_size``.  A sharded server is
        **read-only**: :meth:`mutate` raises
        :class:`~repro.exceptions.GraphError`, and a graph mutated behind
        the server's back fails each micro-batch with a staleness error
        instead of serving results from the outdated shard layout.  The
        spectral family keeps executing on the monolithic kernel.
    """

    def __init__(
        self,
        graph: BaseEvolvingGraph,
        *,
        window_s: float = 0.002,
        max_batch: int = 1024,
        max_pending: int | None = None,
        admission: str = "reject",
        cache_entries: int = 1024,
        chunk_size: int = 128,
        sharded: ShardedSweepDriver | None = None,
    ) -> None:
        if window_s < 0:
            raise GraphError(f"window_s must be >= 0, got {window_s}")
        if max_batch < 1:
            raise GraphError(f"max_batch must be at least 1, got {max_batch}")
        if max_pending is not None and max_pending < 1:
            raise GraphError(
                f"max_pending must be at least 1 or None, got {max_pending}"
            )
        if admission not in ADMISSION_POLICIES:
            raise GraphError(
                f"unsupported admission policy {admission!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if chunk_size < 1:
            raise GraphError(f"chunk_size must be at least 1, got {chunk_size}")
        if sharded is not None and not isinstance(sharded, ShardedSweepDriver):
            raise GraphError(
                "sharded= takes a ShardedSweepDriver, got "
                f"{type(sharded).__name__}; build one over "
                "ShardedTemporalGraph.from_compiled(get_compiled(graph), n)"
            )
        self._graph = graph
        self._sharded_driver = sharded
        if sharded is not None:
            sharded.require_current(graph)
        self._window = float(window_s)
        self._max_batch = int(max_batch)
        self._max_pending = None if max_pending is None else int(max_pending)
        self._admission = admission
        self._chunk_size = int(chunk_size)
        self.stats = ServingStats()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)  # "block" admission waits
        self._cache = _VersionedLRU(cache_entries)
        self._pending: list[_Ticket] = []
        self._depth_peak = 0  # queue high-water since the last drain
        self._inflight: dict[tuple, list[_Waiter]] = {}
        self._mutations: list[tuple[list, list, Future]] = []
        self._executing = False
        self._closed = False
        self._broken: Exception | None = None  # what killed the dispatcher
        self._dispatcher = threading.Thread(
            target=self._serve_loop, name="repro-query-server", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------ #
    # client API                                                          #
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> BaseEvolvingGraph:
        """The served graph (mutate only through :meth:`mutate`)."""
        return self._graph

    @property
    def cache_size(self) -> int:
        """Current number of cached results (bounded by ``cache_entries``)."""
        with self._lock:
            return len(self._cache)

    def stats_snapshot(self) -> dict:
        """A consistent plain-dict copy of :attr:`stats`, taken under the lock."""
        with self._lock:
            return self.stats.snapshot()

    def submit(
        self,
        query: Query | Submission,
        *,
        deadline_s: float | None = None,
        priority: int = 0,
    ) -> Future:
        """Enqueue one query; the returned future resolves to its result.

        Accepts a bare :class:`~repro.algorithms.queries.Query` (optionally
        with the ``deadline_s``/``priority`` keywords) or a prebuilt
        :class:`~repro.algorithms.queries.Submission`.  Cache hits resolve
        immediately; in-flight duplicates attach to the pending computation;
        everything else must win a queue slot under the admission policy and
        joins the next micro-batch.  A query whose (relative) ``deadline_s``
        budget is already zero at admission expires immediately — it never
        sweeps, by contract.  Under ``admission="reject"`` a full queue
        raises :class:`~repro.exceptions.ServerOverloadedError` here; every
        other failure mode is delivered through the future.
        """
        if isinstance(query, Submission):
            if deadline_s is not None or priority != 0:
                raise GraphError(
                    "pass deadline_s/priority either inside the Submission or "
                    "as submit keywords, not both"
                )
            submission = query
        elif isinstance(query, Query):
            submission = Submission(query, deadline_s=deadline_s, priority=priority)
        else:
            raise GraphError(
                f"submit expects a Query descriptor, got {type(query).__name__}"
            )
        query = submission.query
        key = submission.cache_key()
        future: Future = Future()
        now = time.monotonic()
        deadline = None if submission.deadline_s is None else now + submission.deadline_s
        failure: Exception | None = None
        value = None
        resolve = False
        with self._lock:
            self._require_open()
            self.stats.submitted += 1
            if deadline is not None and deadline <= now:
                # zero-budget admission: expired before any serving work —
                # by contract it must never sweep, so it never enqueues
                self.stats.admitted += 1
                self.stats.expired_before_sweep += 1
                self.stats.failed += 1
                failure = DeadlineExceededError(submission.deadline_s, swept=False)
            else:
                value, hit = self._cache.get(self._graph.mutation_version, key)
                if hit:
                    self.stats.admitted += 1
                    self.stats.cache_hits += 1
                    self.stats.served += 1
                    resolve = True
                else:
                    waiters = self._inflight.get(key)
                    if waiters is not None:
                        waiters.append(
                            _Waiter(future, deadline, submission.deadline_s, now)
                        )
                        self.stats.admitted += 1
                        self.stats.inflight_joins += 1
                        self.stats.coalesced_queries += 1
                        return future
                    shed_failures = self._admit(submission, future)
                    if shed_failures is None:
                        return future  # the newcomer itself was shed
                    self.stats.admitted += 1
                    self.stats.cache_misses += 1
                    self._inflight[key] = []
                    ticket = _Ticket(
                        future,
                        deadline,
                        submission.deadline_s,
                        now,
                        query=query,
                        key=key,
                        priority=submission.priority,
                    )
                    self._pending.append(ticket)
                    depth = len(self._pending)
                    if depth > self._depth_peak:
                        self._depth_peak = depth
                    if depth > self.stats.queue_depth_high_water:
                        self.stats.queue_depth_high_water = depth
                    self._wake.notify()
        if failure is not None:
            future.set_exception(failure)
            return future
        if resolve:
            future.set_result(value)
            return future
        # shed-oldest evictions: fail the victims outside the lock
        for victim_future, exc in shed_failures:
            victim_future.set_exception(exc)
        return future

    def _admit(self, submission: Submission, future: Future):
        """Win a queue slot under the admission policy (caller holds the lock).

        Returns the list of ``(future, exception)`` shed-victim failures to
        deliver outside the lock (usually empty), or ``None`` when the
        newcomer itself was shed (its future already carries the error to
        set; the caller returns it without enqueueing).  Raises
        :class:`ServerOverloadedError` under ``"reject"`` and
        :class:`GraphError` when a ``"block"`` wait ends in :meth:`close`.
        """
        if self._max_pending is None or len(self._pending) < self._max_pending:
            return []
        depth = len(self._pending)
        if self._admission == "reject":
            self.stats.rejected += 1
            raise ServerOverloadedError(depth, self._max_pending)
        if self._admission == "block":
            while len(self._pending) >= self._max_pending and not self._closed:
                self._space.wait()
            self._require_open()
            return []
        # shed-oldest: evict the oldest pending query among the lowest
        # priority not exceeding the newcomer's; an out-prioritized
        # newcomer is its own victim
        victim = None
        for ticket in self._pending:
            if ticket.priority > submission.priority:
                continue
            if victim is None or (ticket.priority, ticket.submitted) < (
                victim.priority,
                victim.submitted,
            ):
                victim = ticket
        if victim is None:
            self.stats.shed += 1
            self.stats.failed += 1
            future.set_exception(
                ServerOverloadedError(depth, self._max_pending, shed=True)
            )
            return None
        self._pending.remove(victim)
        waiters = self._claim([victim, *self._inflight.pop(victim.key, [])])
        exc = ServerOverloadedError(depth, self._max_pending, shed=True)
        self.stats.shed += len(waiters)
        self.stats.failed += len(waiters)
        return [(waiter.future, exc) for waiter in waiters]

    def query(
        self,
        query: Query | Submission,
        *,
        timeout: float | None = 30.0,
        deadline_s: float | None = None,
        priority: int = 0,
    ):
        """Submit and wait: the blocking convenience form of :meth:`submit`."""
        return self.submit(query, deadline_s=deadline_s, priority=priority).result(
            timeout=timeout
        )

    def query_many(
        self, queries: Iterable[Query | Submission], *, timeout: float | None = 60.0
    ) -> list:
        """Submit a burst of queries and gather their results in order."""
        futures = [self.submit(q) for q in queries]
        return [f.result(timeout=timeout) for f in futures]

    def mutate(
        self,
        edges: Sequence[TemporalEdgeTuple],
        *,
        removals: Sequence[TemporalEdgeTuple] = (),
    ) -> Future:
        """Enqueue an edge batch for the single writer.

        Applied between micro-batches: the whole batch is validated, then
        ``removals`` are removed, ``edges`` added, the shared artifact is
        delta-recompiled, and every cache entry of an older version is
        pruned.  The writer runs no sweep; a pruned answer asked for again
        is a miss that the next burst's coalesced sweep answers.  The
        future resolves to the graph's new ``mutation_version`` (unchanged,
        and nothing pruned, for a batch of no-ops); a batch that fails
        validation fails the future and applies nothing.
        """
        if self._sharded_driver is not None:
            raise GraphError(
                "a sharded QueryServer is read-only: its shard layout (and "
                "any on-disk store behind it) is fixed at one mutation "
                "version; serve mutations from a monolithic server instead"
            )
        batch = [tuple(e) for e in edges]
        dropped = [tuple(e) for e in removals]
        future: Future = Future()
        with self._lock:
            self._require_open()
            self._mutations.append((batch, dropped, future))
            self._wake.notify()
        return future

    def join(self, *, timeout: float | None = 60.0) -> None:
        """Block until every enqueued query and mutation has been served."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._pending or self._mutations or self._executing:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("QueryServer.join timed out")
                self._idle.wait(remaining)

    def close(self, *, timeout: float | None = 60.0) -> None:
        """Serve everything already enqueued, then stop the dispatcher.

        Submitters parked by the ``"block"`` admission policy are woken and
        raise :class:`~repro.exceptions.GraphError` instead of waiting on a
        server that will never drain for them.
        """
        with self._lock:
            self._closed = True
            self._wake.notify_all()
            self._space.notify_all()
        self._dispatcher.join(timeout=timeout)

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # dispatcher                                                          #
    # ------------------------------------------------------------------ #

    def _serve_loop(self) -> None:
        while True:
            with self._lock:
                while not (self._pending or self._mutations or self._closed):
                    self._wake.wait()
                if self._closed and not self._pending and not self._mutations:
                    return
                # micro-batch window: let a burst accumulate before sweeping
                # (mutations, full batches and the earliest pending deadline
                # cut the wait short — deadline headroom is never spent on
                # waiting for batchmates)
                if self._window > 0 and self._pending and not self._mutations:
                    cut = time.monotonic() + self._window
                    while (
                        len(self._pending) < self._max_batch
                        and not self._mutations
                        and not self._closed
                    ):
                        wait_until = cut
                        for ticket in self._pending:
                            if ticket.deadline is not None:
                                wait_until = min(wait_until, ticket.deadline)
                        remaining = wait_until - time.monotonic()
                        if remaining <= 0:
                            break
                        self._wake.wait(remaining)
                mutations = self._take_mutations()
                tickets = self._pending[: self._max_batch]
                del self._pending[: len(tickets)]
                drained_at = time.monotonic()
                kept: list[_Ticket] = []
                expired: list[tuple[Future, Exception]] = []
                if tickets:
                    depths = self.stats.batch_queue_depths
                    depths.append(self._depth_peak)
                    if len(depths) > _DEPTH_SAMPLES:
                        del depths[: len(depths) - _DEPTH_SAMPLES]
                    self._depth_peak = len(self._pending)
                    self._space.notify_all()  # "block" admissions may proceed
                    kept, expired = self._gate(tickets, drained_at)
                self._executing = True
            try:
                for expired_future, error in expired:
                    expired_future.set_exception(error)
                for batch, dropped, future in mutations:
                    self._apply_mutation(batch, dropped, future)
                if kept:
                    self._execute_micro_batch(kept, drained_at)
            except Exception as exc:
                # no handler below caught it, so nothing is left to serve
                # the queue: fail every waiting future instead of hanging it
                self._break(exc, mutations, tickets)
                return
            finally:
                with self._lock:
                    self._executing = False
                    self._idle.notify_all()

    def _require_open(self) -> None:
        """Raise unless the server still accepts work (caller holds the lock)."""
        if self._broken is not None:
            raise ServingError("the QueryServer dispatcher failed") from self._broken
        if self._closed:
            raise GraphError("QueryServer is closed")

    def _claim(self, waiters: list[_Waiter]) -> list[_Waiter]:
        """Take ``waiters`` for resolution, dropping the ones their clients cancelled.

        Caller holds the lock.  A taken future is running, so its client's
        ``cancel()`` returns False from then on and resolving it cannot raise.
        """
        taken = [w for w in waiters if w.future.set_running_or_notify_cancel()]
        self.stats.cancelled += len(waiters) - len(taken)
        return taken

    def _take_mutations(self) -> list[tuple[list, list, Future]]:
        """Take every queued mutation its client has not cancelled (lock held)."""
        taken = [m for m in self._mutations if m[2].set_running_or_notify_cancel()]
        self._mutations = []
        return taken

    def _gate(
        self, tickets: list[_Ticket], drained_at: float
    ) -> tuple[list[_Ticket], list[tuple[Future, Exception]]]:
        """Take the drained tickets' waiters: ``(kept tickets, expiry failures)``.

        Caller holds the lock.  Cancelled waiters are dropped
        (:meth:`_claim`) and already-expired ones fail *before* any kernel
        work; a query with no live waiter left is dropped entirely, so its
        sweep column is never spent.
        """
        self.stats.micro_batches += 1
        kept: list[_Ticket] = []
        expired: list[tuple[Future, Exception]] = []
        for ticket in tickets:
            live: list[_Waiter] = []
            for waiter in self._claim([ticket, *self._inflight.get(ticket.key, [])]):
                self.stats.wait_latency.record(drained_at - waiter.submitted)
                if waiter.expired(drained_at):
                    self.stats.expired_before_sweep += 1
                    self.stats.failed += 1
                    error = DeadlineExceededError(waiter.budget, swept=False)
                    expired.append((waiter.future, error))
                else:
                    live.append(waiter)
            ticket.live = live
            if live:
                # joiners arriving between this gate and the scatter
                # accumulate in a fresh in-flight list
                self._inflight[ticket.key] = []
                kept.append(ticket)
            else:
                # nothing live: late joiners must re-enqueue, not attach to a
                # computation that will never run
                self._inflight.pop(ticket.key, None)
        return kept, expired

    def _break(
        self,
        exc: Exception,
        mutations: list[tuple[list, list, Future]],
        tickets: list[_Ticket],
    ) -> None:
        """Fail every waiting future with a :class:`ServingError` caused by ``exc``.

        The drained tickets' live waiters, every pending ticket, their
        in-flight joiners, and every drained or queued mutation fail, except
        the queued futures their clients cancelled.  The server is broken
        from then on: ``submit`` and ``mutate`` raise, and ``join`` and
        ``close`` return at once.
        """
        error = ServingError("the QueryServer dispatcher failed")
        error.__cause__ = exc
        with self._lock:
            self._broken = exc
            self._closed = True
            joiners = [w for waiters in self._inflight.values() for w in waiters]
            waiting = [w.future for ticket in tickets for w in ticket.live]
            waiting += [w.future for w in self._claim(self._pending + joiners)]
            waiting = [future for future in waiting if not future.done()]
            self.stats.failed += len(waiting)
            waiting += [future for _, _, future in mutations if not future.done()]
            waiting += [future for _, _, future in self._take_mutations()]
            self._pending.clear()
            self._inflight.clear()
            self._space.notify_all()  # "block" admissions raise instead
        for future in waiting:
            future.set_exception(error)

    def _apply_mutation(
        self,
        batch: list[TemporalEdgeTuple],
        removals: list[TemporalEdgeTuple],
        future: Future,
    ) -> None:
        """Single-writer admission of one streamed edge batch.

        The batch is validated before the first removal, so a bad item
        fails the future with nothing applied.  The artifact is
        delta-recompiled here, so the next micro-batch pays no compile, and
        the cache entries of older versions are pruned; no sweep runs.
        """
        from repro.engine import get_compiled

        try:
            batch, removals = validate_edge_batch(self._graph, batch, removals)
            for u, v, t in removals:
                self._graph.remove_edge(u, v, t)
            for u, v, t in batch:
                self._graph.add_edge(u, v, t)
            # refresh the artifact through the delta path so the next
            # micro-batch pays nothing; snapshots the batch did not touch are
            # shared with the previous artifact
            get_compiled(self._graph)
            version = self._graph.mutation_version
        except Exception as exc:
            future.set_exception(exc)
            return
        with self._lock:
            self.stats.mutations += 1
            self.stats.edges_streamed += len(batch) + len(removals)
            self.stats.entries_invalidated += self._cache.prune_stale(version)
        future.set_result(version)

    def _execute_micro_batch(self, kept: list[_Ticket], drained_at: float) -> None:
        """Sweep and scatter the tickets that passed the drain gate (:meth:`_gate`)."""
        version = self._graph.mutation_version

        # admission attaches a repeat submit of an in-flight key to that
        # key's ticket, so the kept tickets have distinct keys
        groups: "OrderedDict[tuple, list[_Ticket]]" = OrderedDict()
        for ticket in kept:
            groups.setdefault(ticket.query.sweep_key(), []).append(ticket)

        for sweep_key, members in groups.items():
            queries = [ticket.query for ticket in members]
            try:
                if self._sharded_driver is not None:
                    # a read-only sharded server never mutates the graph
                    # itself, so a version drift means someone edited the
                    # graph behind the server's back — fail loudly rather
                    # than serve from the outdated shard layout
                    self._sharded_driver.require_current(self._graph)
                outcome = execute_group(
                    self._graph,
                    sweep_key,
                    queries,
                    chunk_size=self._chunk_size,
                    driver=self._sharded_driver,
                )
                results, errors = outcome.results, outcome.errors
            except Exception as exc:  # whole-group failure
                outcome = None
                results = [None] * len(queries)
                errors = [exc] * len(queries)

            # a query is "coalesced" when its sweep was shared with at least
            # one other distinct query (in-flight joins are counted at submit)
            shared = len(queries) > 1
            scattered_at = time.monotonic()
            resolutions: list[tuple[Future, object, Exception | None]] = []
            with self._lock:
                if outcome is not None:
                    self.stats.sweeps += outcome.sweeps
                    self.stats.sweep_columns += outcome.columns
                for ticket, result, error in zip(members, results, errors, strict=True):
                    if error is None:
                        self._cache.put(version, ticket.key, result)
                    # late joiners are taken now; kept on the ticket, they
                    # stay reachable by _break until they are resolved
                    ticket.live += self._claim(self._inflight.pop(ticket.key, []))
                    for waiter in ticket.live:
                        self.stats.service_latency.record(scattered_at - drained_at)
                        if error is not None:
                            self.stats.failed += 1
                            resolutions.append((waiter.future, None, error))
                        elif waiter.expired(scattered_at):
                            self.stats.expired_after_sweep += 1
                            self.stats.failed += 1
                            resolutions.append(
                                (
                                    waiter.future,
                                    None,
                                    DeadlineExceededError(waiter.budget, swept=True),
                                )
                            )
                        else:
                            self.stats.served += 1
                            resolutions.append((waiter.future, result, None))
                    if shared:
                        self.stats.coalesced_queries += 1

            for waiter_future, result, error in resolutions:
                if error is None:
                    waiter_future.set_result(result)
                else:
                    waiter_future.set_exception(error)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QueryServer graph_version={self._graph.mutation_version} "
            f"cache={len(self._cache)}/{self._cache.capacity} "
            f"served={self.stats.served}>"
        )
