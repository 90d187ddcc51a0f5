"""Where span records go: pluggable, thread-safe trace sinks.

A sink is anything with ``emit(record: dict) -> None``; records are
plain JSON-able dicts (see :meth:`repro.obs.trace.Span.to_dict`).
Emit is called from event-loop callbacks, service worker threads, and
probe threads alike, so every sink here serializes with a lock.

Two concrete sinks cover the stack's needs:

* :class:`RingBufferTraceSink` — bounded in-memory buffer; what the
  gateway's ``trace`` op and the tests read back.
* :class:`StderrTraceSink` — one NDJSON line per span, for operators
  tailing a service process (:func:`repro.obs.report.load_spans`
  reads a captured stream back).

:class:`MultiTraceSink` fans one record out to several sinks (the
ring buffer for the ``trace`` op plus stderr under
``REPRO_TRACE=stderr``).
"""

from __future__ import annotations

import json
import sys
import threading
from collections import deque

__all__ = [
    "TraceSink",
    "RingBufferTraceSink",
    "StderrTraceSink",
    "MultiTraceSink",
]


class TraceSink:
    """The sink interface: consume one span record."""

    def emit(self, record: dict) -> None:
        raise NotImplementedError


class RingBufferTraceSink(TraceSink):
    """Keeps the most recent ``capacity`` span records in memory.

    When full, the oldest record is dropped (and ``dropped`` counts
    it; ``on_drop`` — usually a metrics counter increment — fires once
    per drop). ``recent()`` returns copies, oldest first, so callers
    can mutate freely.
    """

    def __init__(self, capacity: int = 2048, on_drop=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._records: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0
        self._on_drop = on_drop

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped(self) -> int:
        """Records evicted to make room, over the sink's lifetime."""
        return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def emit(self, record: dict) -> None:
        dropped = False
        with self._lock:
            if len(self._records) == self._capacity:
                self._dropped += 1
                dropped = True
            self._records.append(record)
        if dropped and self._on_drop is not None:
            self._on_drop()

    def recent(self, limit: int | None = None) -> list[dict]:
        """The buffered records, oldest first; last ``limit`` if given."""
        with self._lock:
            records = list(self._records)
        if limit is not None and limit < len(records):
            records = records[-limit:]
        return [dict(record) for record in records]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()


class StderrTraceSink(TraceSink):
    """One NDJSON line per span to a text stream (default stderr)."""

    def __init__(self, stream=None) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def emit(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True, default=str)
        stream = self._stream if self._stream is not None else sys.stderr
        with self._lock:
            stream.write(line + "\n")


class MultiTraceSink(TraceSink):
    """Fans each record out to every child sink, in order."""

    def __init__(self, *sinks: TraceSink) -> None:
        self._sinks = tuple(sinks)

    def emit(self, record: dict) -> None:
        for sink in self._sinks:
            sink.emit(record)
