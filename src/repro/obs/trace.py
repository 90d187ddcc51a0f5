"""Request tracing: spans, context propagation, and the tracer.

One request through the serving stack crosses an asyncio event loop,
a thread pool, and (with the pool tier enabled) a process boundary.
This module gives that journey a single identity — a 16-hex trace id
minted when the request enters the stack — and a tree of named spans
hanging off it, each recording wall-clock milliseconds, an outcome
(``ok`` / ``degraded`` / ``fallback`` / ``stale_retry`` / ...), and
the model fingerprint in effect.

Propagation is three-layered, matching the stack's own seams:

* **asyncio + threads** — the active trace lives in a
  :class:`contextvars.ContextVar`. Crossing ``run_in_executor`` or a
  ``ThreadPoolExecutor.submit`` requires copying the context
  explicitly (``contextvars.copy_context().run(...)``); the gateway
  and :class:`~repro.service.executor.ProbeExecutor` do so.
* **processes** — contextvars do not survive a spawn. The pool tier
  serializes the active position with :func:`wire_context`, ships it
  in the request payload, and the worker re-activates it with
  :func:`collecting_trace`, returning its spans as plain dicts in the
  result payload for the parent to :func:`replay_spans`.
* **disabled** — with no active trace and no tracer, :func:`span`
  yields a shared null object; the cost is the context manager's own
  enter and exit (1.2–1.5 µs on a 2-core x86 host). Code never checks "is tracing on":
  where a request enters the stack it passes its tracer (or ``None``)
  to :func:`span`, and everywhere else it just opens spans.

Span records are plain dicts (JSON-able by construction) so sinks can
write them as NDJSON without a serialization layer; see
``repro.obs.sinks``.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections.abc import Iterator
from contextvars import ContextVar

__all__ = [
    "Span",
    "NullSpan",
    "Tracer",
    "span",
    "trace_active",
    "current_trace_id",
    "wire_context",
    "collecting_trace",
    "replay_spans",
]

def _new_id() -> str:
    """A 16-hex identifier (64 random bits — plenty for correlation).

    ``os.urandom`` rather than ``uuid.uuid4``: ids are minted once per
    span on the request hot path, and urandom is ~5x cheaper.
    """
    return os.urandom(8).hex()


class Span:
    """One timed, named unit of work inside a trace.

    Mutable while open (``set_outcome`` / ``annotate``), frozen into a
    plain dict by :meth:`to_dict` when the enclosing context manager
    closes it. ``wall_ms`` comes from ``perf_counter`` so it is immune
    to wall-clock steps; ``started_at`` (epoch seconds) is only for
    human correlation across processes.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "outcome",
        "fingerprint",
        "attrs",
        "started_at",
        "wall_ms",
        "_started",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        fingerprint: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.outcome = "ok"
        self.fingerprint = fingerprint
        self.attrs = attrs
        self.started_at = time.time()
        self.wall_ms: float | None = None
        self._started = time.perf_counter()

    def set_outcome(self, outcome: str) -> None:
        """Record how the work ended (``ok`` is the default)."""
        self.outcome = str(outcome)

    def set_fingerprint(self, fingerprint: str) -> None:
        """Record the model fingerprint in effect for this span."""
        self.fingerprint = fingerprint

    def annotate(self, **attrs: object) -> None:
        """Attach extra JSON-able attributes to the span record."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def finish(self) -> None:
        """Stamp ``wall_ms``; idempotent."""
        if self.wall_ms is None:
            self.wall_ms = (time.perf_counter() - self._started) * 1000.0

    def to_dict(self) -> dict:
        """The JSON-able span record sinks receive."""
        record = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "started_at": self.started_at,
            "wall_ms": self.wall_ms,
            "outcome": self.outcome,
            "fingerprint": self.fingerprint,
        }
        if self.attrs:
            record["attrs"] = dict(self.attrs)
        return record

    def __repr__(self) -> str:
        return (
            f"Span(name={self.name!r}, trace_id={self.trace_id!r}, "
            f"outcome={self.outcome!r})"
        )


class NullSpan:
    """The shared no-op span yielded when no trace is active."""

    __slots__ = ()

    def set_outcome(self, outcome: str) -> None:
        pass

    def set_fingerprint(self, fingerprint: str) -> None:
        pass

    def annotate(self, **attrs: object) -> None:
        pass


_NULL_SPAN = NullSpan()


class _Active:
    """What the contextvar holds: the trace id, the tracer its records
    go to, and the open span's id."""

    __slots__ = ("trace_id", "tracer", "span_id")

    def __init__(self, trace_id: str, tracer: Tracer, span_id: str) -> None:
        self.trace_id = trace_id
        self.tracer = tracer
        self.span_id = span_id


_ACTIVE: ContextVar[_Active | None] = ContextVar(
    "repro_obs_active", default=None
)


def trace_active() -> bool:
    """Whether a trace is active in the current context."""
    return _ACTIVE.get() is not None


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` outside any trace."""
    active = _ACTIVE.get()
    return None if active is None else active.trace_id


@contextlib.contextmanager
def span(
    name: str,
    fingerprint: str | None = None,
    *,
    tracer: Tracer | None = None,
    **attrs: object,
) -> Iterator[Span | NullSpan]:
    """Open a span: the one way any code starts timing a unit of work.

    Under an active trace the span is a child of the open span and
    *tracer* is ignored, so an explicit tracer never nests a second
    root. With no active trace and a *tracer*, it starts a new trace
    whose root span id *is* the trace id (a span tree can then be
    reassembled from records alone: the root is the span whose
    ``span_id == trace_id``). With neither, it yields the shared null
    span and records nothing.

    The span's outcome defaults to ``ok``; an exception escaping the
    body sets it to ``error`` unless the body already chose an outcome
    (e.g. ``shed`` before raising). The record is emitted to the
    trace's sink when the block closes, even on error.
    """
    active = _ACTIVE.get()
    if active is not None:
        trace_id = active.trace_id
        tracer = active.tracer
        parent_id = active.span_id
        span_id = _new_id()
    elif tracer is not None:
        span_id = trace_id = _new_id()
        parent_id = None
    else:
        yield _NULL_SPAN
        return
    opened = Span(
        trace_id,
        span_id,
        parent_id,
        name,
        fingerprint=fingerprint,
        attrs=dict(attrs) if attrs else None,
    )
    token = _ACTIVE.set(_Active(trace_id, tracer, span_id))
    try:
        yield opened
    except BaseException:
        if opened.outcome == "ok":
            opened.set_outcome("error")
        raise
    finally:
        _ACTIVE.reset(token)
        opened.finish()
        tracer.emit(opened.to_dict())


# -- crossing the process boundary --------------------------------------------


def wire_context() -> dict | None:
    """Serialize the active position for shipping over a pipe.

    Returns ``None`` when no trace is active so callers can omit the
    field entirely from wire payloads.
    """
    active = _ACTIVE.get()
    if active is None:
        return None
    return {"trace_id": active.trace_id, "parent_id": active.span_id}


class _ListSink:
    """Collects span records in order; the worker-side sink."""

    __slots__ = ("records",)

    def __init__(self, records: list[dict]) -> None:
        self.records = records

    def emit(self, record: dict) -> None:
        self.records.append(record)


@contextlib.contextmanager
def collecting_trace(wire: dict | None) -> Iterator[list[dict]]:
    """Re-activate a wire-serialized trace, collecting spans locally.

    Used on the worker side of the pool's pipe protocol: spans opened
    inside the block land in the yielded list (as dicts) instead of a
    real sink, ready to travel back in the result payload. A ``None``
    wire context yields an empty list and activates nothing, so the
    worker code is identical whether or not the parent is tracing.
    """
    records: list[dict] = []
    if not wire:
        yield records
        return
    token = _ACTIVE.set(
        _Active(
            str(wire["trace_id"]),
            Tracer(_ListSink(records)),
            str(wire["parent_id"]),
        )
    )
    try:
        yield records
    finally:
        _ACTIVE.reset(token)


def replay_spans(records) -> None:
    """Emit worker-collected span records into the active trace.

    No-op when no trace is active (the records are then discarded —
    there is nowhere to put them) or when ``records`` is empty.
    """
    active = _ACTIVE.get()
    if active is None or not records:
        return
    for record in records:
        active.tracer.emit(dict(record))


# -- the tracer ---------------------------------------------------------------


class Tracer:
    """Owns the sink a trace's span records go to.

    ``span(..., tracer=tracer)`` starts a trace on it when none is
    active. One tracer per :class:`~repro.service.server.MetasearchService`
    (and per cluster router); ``None`` when tracing is disabled.
    ``on_emit`` (usually a metrics counter increment) fires once per
    span record emitted, including replayed worker spans.
    """

    def __init__(self, sink, on_emit=None) -> None:
        self._sink = sink
        self._on_emit = on_emit

    def emit(self, record: dict) -> None:
        """Hand one span record to the sink."""
        self._sink.emit(record)
        if self._on_emit is not None:
            self._on_emit()
