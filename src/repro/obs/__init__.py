"""Observability: request tracing across the serving stack.

Dependency-free (stdlib only) by design — this package is imported by
every tier including the spawn-started pool workers, so it must cost
nothing to import and nothing measurable when tracing is off.

See ``docs/OBSERVABILITY.md`` for the trace model and span catalog.
"""

from repro.obs.report import format_tier_breakdown, load_spans, tier_breakdown
from repro.obs.sinks import (
    MultiTraceSink,
    RingBufferTraceSink,
    StderrTraceSink,
    TraceSink,
)
from repro.obs.trace import (
    NullSpan,
    Span,
    Tracer,
    collecting_trace,
    current_trace_id,
    replay_spans,
    span,
    trace_active,
    wire_context,
)

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
    "TraceSink",
    "RingBufferTraceSink",
    "StderrTraceSink",
    "MultiTraceSink",
    "tier_breakdown",
    "format_tier_breakdown",
    "load_spans",
]
