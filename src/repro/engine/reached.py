"""Search results as read-only views over a column, decoded on read.

The paper's Algorithm 1 returns ``reached``, a dictionary from every
reachable temporal node ``(v, t)`` to its distance.  A kernel sweep holds
the same answer as one ``(T, N)`` int32 column per root (``-1`` =
unreached), and turning a column into that dictionary hashes one fresh
``(node, time)`` tuple per reached slot — the dominant cost of a batched
sweep whose caller reads only sizes or a few distances.  So the engine hands
out read-only :class:`~collections.abc.Mapping` views over the column that
build the dictionary only when a caller reads every entry (late
materialization, Abadi et al., ICDE 2007):

* :class:`ReachedView` — ``{(node, time): distance}`` over a root's
  ``(T, N)`` distance column, the ``reached`` of every slot-keyed result;
* :class:`TimesView` — ``{node: time}`` over a root's ``(N,)`` hit column
  (the snapshot index of each node's first or last reached slot, ``-1`` =
  never reached), every earliest-arrival and latest-departure answer.

Both share one base, and so the same contract:

* ``len``, ``[]``, ``get`` and ``in`` read the column: ``len`` counts the
  reached entries, and a lookup resolves one key through the node and time
  index dicts.
* Iteration, ``keys``/``items``/``values``, ``==`` and ``repr`` decode the
  column once (:func:`_decode_column`, in ``(t, v)`` order, or
  :func:`_decode_hits`, in node order) and cache the dictionary.
  ``keys``/``items``/``values`` return that dictionary's own views, and
  ``[]`` answers from it once it exists.
* ``copy()`` returns a plain ``dict``, as ``MappingProxyType.copy()`` does.

The first decode needs no lock: concurrent readers may each build an equal
dictionary, and whichever is cached last is as good as the others.

A view holds its own column and the sweeper's :class:`SlotTable` — never
the sweep's block or the compiled artifact — so a retained result pins
``4·T·N`` (a time answer ``4·N``) bytes plus the tables it shares with its
siblings.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Sequence

import numpy as np

from repro.graph.base import Node, Time

__all__ = ["ReachedView", "SlotTable", "TimesView"]


def _slot_keys(labels: Sequence[Node], times: Sequence[Time]) -> np.ndarray:
    """The ``(node, time)`` label of every slot, in ``t * N + v`` order.

    An object array, so one fancy index picks the keys of many slots and
    every answer decoded through it shares the same key tuples.
    """
    return np.fromiter(
        ((label, time) for time in times for label in labels),
        dtype=object,
        count=len(times) * len(labels),
    )


def _decode_column(keys: np.ndarray, column: np.ndarray) -> dict:
    """``{(node, time): distance}`` of a ``(T, N)`` column's reached slots.

    Iterates in ``(t, v)``-major order, as :func:`numpy.nonzero` does.
    """
    flat_column = column.ravel()
    flat = np.flatnonzero(flat_column >= 0)
    return dict(zip(keys[flat].tolist(), flat_column[flat].tolist()))


def _decode_hits(slots: SlotTable, column: np.ndarray) -> dict:
    """``{node: time}`` of an ``(N,)`` hit column's reached nodes, in node order."""
    nodes = np.flatnonzero(column >= 0)
    labels, times = slots.labels, slots.times
    return {
        labels[v]: times[t] for v, t in zip(nodes.tolist(), column[nodes].tolist())
    }


class SlotTable:
    """The decode tables that every view of one sweeper shares.

    ``labels`` and ``times`` label the node and time axes of a column, and
    ``node_index`` and ``time_index`` invert them.  The ``(node, time)`` key
    of every slot (:meth:`key_table`) is built on the first decode.  The
    table holds no reference to the artifact it was read from.
    """

    __slots__ = ("labels", "times", "node_index", "time_index", "_keys")

    def __init__(self, labels: Sequence[Node], times: Sequence[Time]) -> None:
        self.labels = list(labels)
        self.times = tuple(times)
        self.node_index = {v: i for i, v in enumerate(self.labels)}
        self.time_index = {t: i for i, t in enumerate(self.times)}
        self._keys: np.ndarray | None = None

    def key_table(self) -> np.ndarray:
        """The slot keys (:func:`_slot_keys`), built once."""
        keys = self._keys
        if keys is None:
            keys = self._keys = _slot_keys(self.labels, self.times)
        return keys

    def __reduce__(self):
        return (SlotTable, (self.labels, self.times))


#: What :meth:`_ColumnView._value` returns for a key the mapping lacks.
_ABSENT = object()


class _ColumnView(Mapping):
    """The read-only mapping machinery over one int32 column.

    A subclass names the full decode (:meth:`_decode`) and one key's value
    (:meth:`_value`, :data:`_ABSENT` when the mapping lacks the key); see
    the module docstring for which reads decode.
    """

    __slots__ = ("_column", "_slots", "_len", "_dict")

    def __init__(self, column: np.ndarray, slots: SlotTable) -> None:
        column = np.ascontiguousarray(column, dtype=np.int32)
        column.flags.writeable = False
        self._column = column
        self._slots = slots
        self._len: int | None = None
        self._dict: dict | None = None

    def _decode(self) -> dict:
        raise NotImplementedError

    def _value(self, key):
        raise NotImplementedError

    def _decoded(self) -> dict:
        """The decoded dictionary, built on the first call and cached."""
        decoded = self._dict
        if decoded is None:
            decoded = self._dict = self._decode()
        return decoded

    def __getitem__(self, key):
        decoded = self._dict
        if decoded is not None:
            return decoded[key]
        value = self._value(key)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def get(self, key, default=None):
        value = self._value(key)
        return default if value is _ABSENT else value

    def __contains__(self, key) -> bool:
        return self._value(key) is not _ABSENT

    def __len__(self) -> int:
        count = self._len
        if count is None:
            count = self._len = int(np.count_nonzero(self._column >= 0))
        return count

    def __iter__(self):
        return iter(self._decoded())

    def keys(self):
        return self._decoded().keys()

    def items(self):
        return self._decoded().items()

    def values(self):
        return self._decoded().values()

    def copy(self) -> dict:
        """A plain ``dict`` of the mapping, owned by the caller."""
        decoded = self._dict
        return self._decode() if decoded is None else decoded.copy()

    def __eq__(self, other) -> bool:
        if isinstance(other, _ColumnView):
            other = other._decoded()
        elif not isinstance(other, Mapping):
            return NotImplemented
        return self._decoded() == other

    def __repr__(self) -> str:
        return repr(self._decoded())

    def __reduce__(self):
        return (type(self), (self._column, self._slots))


class ReachedView(_ColumnView):
    """``{(node, time): distance}`` of one search, read off its ``(T, N)`` column.

    Equal to the dictionary the Python oracle returns, in both directions of
    ``==``; iteration and ``repr`` follow the ``(t, v)`` slot order of the
    dictionaries the engine used to build.  Item assignment raises
    :class:`TypeError`.  See the module docstring for which reads decode.
    """

    __slots__ = ()

    def _decode(self) -> dict:
        return _decode_column(self._slots.key_table(), self._column)

    def _value(self, key):
        """The distance at ``key``'s slot; :data:`_ABSENT` when unreached or no slot."""
        if not (isinstance(key, tuple) and len(key) == 2):
            hash(key)  # an unhashable key raises, as a dict lookup would
            return _ABSENT
        node, time = key
        vi = self._slots.node_index.get(node)
        ti = self._slots.time_index.get(time)
        if vi is None or ti is None:
            return _ABSENT
        distance = int(self._column[ti, vi])
        return distance if distance >= 0 else _ABSENT


class TimesView(_ColumnView):
    """``{node: time}`` of one time answer, read off its ``(N,)`` hit column.

    The earliest-arrival answer maps each reached node to the time of its
    first reached slot, the latest-departure answer to that of its last;
    the column holds that slot's snapshot index (``-1`` = never reached).
    Equal to the dictionary the Python oracle returns, in both directions
    of ``==``; iteration and ``repr`` follow the node order of the
    dictionaries the engine used to build.  Item assignment raises
    :class:`TypeError`.  See the module docstring for which reads decode.
    """

    __slots__ = ()

    def _decode(self) -> dict:
        return _decode_hits(self._slots, self._column)

    def _value(self, key):
        """The time of ``key``'s hit; :data:`_ABSENT` when never reached or no node."""
        vi = self._slots.node_index.get(key)  # an unhashable key raises here
        if vi is None:
            return _ABSENT
        ti = int(self._column[vi])
        return self._slots.times[ti] if ti >= 0 else _ABSENT
