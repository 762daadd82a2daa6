"""Causal trace context: the span-tree tracer as seen from ``repro.obs``.

The tracer and its :class:`SpanNode` trees live in :mod:`repro.trace`;
this module re-exports them under the names the observability layer
has always used (``CausalTracer`` is the same class as
:class:`repro.trace.Tracer`) and adds :func:`wrap_span` for timing
fan-out legs that run as spawned processes.
"""

from __future__ import annotations

from typing import Optional

from ..trace import SpanNode, Tracer

#: The one span-tree tracer, under its observability-layer name.
CausalTracer = Tracer

__all__ = ["CausalTracer", "SpanNode", "wrap_span"]


def wrap_span(span: Optional[SpanNode], gen):
    """Process: run ``gen`` to completion, closing ``span`` either way.

    Used to time fan-out legs that run as spawned processes (RBD
    per-object writes, an OSD primary's local apply): the span closes
    when the leg's process finishes, with the error flag set if it
    raised.  With ``span=None`` this is a transparent passthrough, so
    call sites need no tracing conditionals around process creation.
    """
    try:
        result = yield from gen
    except BaseException:
        if span is not None:
            span.finish(ok=False)
        raise
    if span is not None:
        span.finish()
    return result
