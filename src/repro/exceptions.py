"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch any failure originating in this package with a single ``except``
clause while still being able to distinguish more specific failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "TimestampNotFoundError",
    "InactiveNodeError",
    "ShardWorkerError",
    "InvalidTemporalPathError",
    "RepresentationError",
    "ConvergenceError",
    "IOFormatError",
    "ServingError",
    "ServerOverloadedError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Base class for errors related to evolving-graph construction or queries."""


class NodeNotFoundError(GraphError, KeyError):
    """A node (or temporal node) was requested that does not exist in the graph."""

    def __init__(self, node, time=None):
        self.node = node
        self.time = time
        if time is None:
            msg = f"node {node!r} not present in the evolving graph"
        else:
            msg = f"temporal node ({node!r}, {time!r}) not present in the evolving graph"
        super().__init__(msg)

    def __str__(self) -> str:  # KeyError quotes its argument; keep the message readable.
        return self.args[0]


class TimestampNotFoundError(GraphError, KeyError):
    """A timestamp was requested that has no snapshot in the evolving graph."""

    def __init__(self, time):
        self.time = time
        super().__init__(f"timestamp {time!r} not present in the evolving graph")

    def __str__(self) -> str:
        return self.args[0]


class InactiveNodeError(GraphError):
    """An operation that requires an active temporal node was given an inactive one.

    Following Definition 3 of the paper, a temporal node ``(v, t)`` is *active*
    when at least one edge at time ``t`` connects ``v`` to a different node.
    Several operations (e.g. rooting a BFS) are only defined for active nodes.
    """

    def __init__(self, node, time):
        self.node = node
        self.time = time
        super().__init__(f"temporal node ({node!r}, {time!r}) is not an active node")


class ShardWorkerError(GraphError):
    """A process-backend shard worker failed or died during a sharded sweep.

    Raised by :class:`repro.engine.sharded_sweep.ShardedSweepDriver` both
    for an exception relayed from a worker's sweep and for a worker process
    that is found dead while the driver waits on it; either way the driver
    has been closed.
    """


class InvalidTemporalPathError(ReproError, ValueError):
    """A sequence of temporal nodes does not form a valid temporal path (Definition 4)."""


class RepresentationError(ReproError, ValueError):
    """An evolving-graph or matrix representation is malformed or unsupported."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative algorithm failed to converge within its iteration budget."""


class IOFormatError(ReproError, ValueError):
    """An input file or stream does not conform to the expected format."""


class ServingError(ReproError):
    """Base class for query-serving failures (:mod:`repro.serving`).

    Serving errors describe the *admission* of a query rather than the
    computation itself: the question was well-formed but the server declined
    (or abandoned) answering it under its current load or deadline rules.
    """


class ServerOverloadedError(ServingError):
    """A query was refused (or shed) because the submission queue is full.

    Raised synchronously from :meth:`repro.serving.QueryServer.submit` under
    the ``"reject"`` admission policy, and delivered through the future of a
    previously admitted query that the ``"shed-oldest"`` policy evicted to
    make room for a newer one.
    """

    def __init__(self, pending: int, max_pending: int, *, shed: bool = False):
        self.pending = pending
        self.max_pending = max_pending
        self.shed = shed
        verb = "shed from" if shed else "rejected by"
        super().__init__(
            f"query {verb} a full submission queue "
            f"({pending}/{max_pending} pending)"
        )


class DeadlineExceededError(ServingError):
    """A query's deadline passed before the server produced its answer.

    Delivered through the query's future: before any kernel work when the
    deadline had already expired at micro-batch planning time (the query
    never costs a sweep column), or after the shared sweep when the deadline
    passed while the sweep ran (the computed result still warms the cache,
    but the caller asked not to wait this long).
    """

    def __init__(self, deadline_s: float, *, swept: bool = False):
        self.deadline_s = deadline_s
        self.swept = swept
        phase = "after its shared sweep" if swept else "before any sweep"
        super().__init__(
            f"query deadline of {deadline_s:.6g}s exceeded {phase}"
        )
