"""Span-based tracing with a bounded ring buffer and a slow-operation log.

``tracer.span("query.execute", target="Vehicle")`` times a block and
records it as a node in a parent/child tree; nesting follows the runtime
call stack (per thread).  Links point down only (a span keeps its
children and its depth, not its parent), so a span the ring drops is
freed by reference counting, not left to the cyclic collector.
Finished spans land in a fixed-size ring buffer so a long-lived
database never grows without bound, and any span slower than the
configured threshold is copied to the slow-op log — the first place to
look when a workload degrades.

A thread can also carry a *trace context*: ``with tracer.trace(id):``
stamps every span and note recorded inside the block with a
``trace=<id>`` tag.  The server session adopts the trace id the client
stamped into the request frame, so a slow query shows up in the
server-side ``SysSlowOp`` view under the id the client logged — the
end-to-end propagation contract is documented in DESIGN.md.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from collections import deque

from .metrics import MetricsRegistry


class Span:
    """One timed operation; ``elapsed`` is None while still running."""

    #: Children kept per span; beyond this they are counted, not stored,
    #: so a pathological loop inside one span cannot exhaust memory.
    MAX_CHILDREN = 128

    __slots__ = (
        "name",
        "tags",
        "start",
        "elapsed",
        "children",
        "dropped_children",
        "depth",
        "error",
    )

    def __init__(
        self,
        name: str,
        tags: Dict[str, Any],
        start: float,
        depth: int = 0,
    ) -> None:
        self.name = name
        self.tags = tags
        self.start = start
        self.elapsed: Optional[float] = None
        self.children: List["Span"] = []
        self.dropped_children = 0
        self.depth = depth
        self.error: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.elapsed is not None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "elapsed": self.elapsed,
            "depth": self.depth,
        }
        if self.tags:
            out["tags"] = dict(self.tags)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        if self.dropped_children:
            out["dropped_children"] = self.dropped_children
        return out

    def render(self) -> str:
        """Indented one-span-per-line view of this span's subtree."""
        lines: List[str] = []
        self._render_into(lines, self.depth)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], base_depth: int) -> None:
        elapsed = "%.3fms" % (self.elapsed * 1e3) if self.finished else "..."
        tags = (
            " {%s}" % ", ".join("%s=%r" % kv for kv in sorted(self.tags.items()))
            if self.tags
            else ""
        )
        error = " ERROR(%s)" % self.error if self.error else ""
        lines.append(
            "%s%s %s%s%s" % ("  " * (self.depth - base_depth), self.name, elapsed, tags, error)
        )
        for child in self.children:
            child._render_into(lines, base_depth)
        if self.dropped_children:
            lines.append(
                "%s... %d more children dropped"
                % ("  " * (self.depth - base_depth + 1), self.dropped_children)
            )

    def __repr__(self) -> str:
        status = "%.6fs" % self.elapsed if self.finished else "running"
        return "<Span %s %s>" % (self.name, status)


class SlowOp:
    """One slow-log entry: a finished span that crossed the threshold."""

    __slots__ = ("name", "elapsed", "threshold", "tags")

    def __init__(self, name: str, elapsed: float, threshold: float, tags: Dict[str, Any]) -> None:
        self.name = name
        self.elapsed = elapsed
        self.threshold = threshold
        self.tags = tags

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "elapsed": self.elapsed,
            "threshold": self.threshold,
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return "<SlowOp %s %.3fms (threshold %.3fms)>" % (
            self.name,
            self.elapsed * 1e3,
            self.threshold * 1e3,
        )


class _TraceLocal(threading.local):
    """A thread's open-span stack and active trace id, None until set:
    class-level defaults, so reading them on a thread that never set
    them raises (and catches) nothing."""

    stack: Optional[List[Span]] = None
    trace: Optional[str] = None


class _NullScope:
    """A disabled span's or ``trace(None)``'s scope: enters to None."""

    __slots__ = ()

    def __enter__(self) -> None:
        pass

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SCOPE = _NullScope()


class _TraceScope:
    """``Tracer.trace``'s scope: sets the thread's trace id on entry and
    puts the previous one back on exit, exception or not."""

    __slots__ = ("_local", "_trace_id", "_previous")

    def __init__(self, local: _TraceLocal, trace_id: str) -> None:
        self._local = local
        self._trace_id = trace_id

    def __enter__(self) -> None:
        self._previous = self._local.trace
        self._local.trace = self._trace_id

    def __exit__(self, *exc_info: Any) -> None:
        self._local.trace = self._previous


class _SpanScope:
    """``Tracer.span``'s scope: opens the span on entry, finishes it on
    exit.  The scope keeps the tracer, the span does not: no cycle."""

    __slots__ = ("_tracer", "_name", "_tags", "_span")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags

    def __enter__(self) -> Span:
        tracer = self._tracer
        local = tracer._local
        tags = self._tags
        trace_id = local.trace
        if trace_id is not None and "trace" not in tags:
            tags["trace"] = trace_id
        stack = local.stack
        if stack is None:
            stack = local.stack = []
        span = Span(self._name, tags, tracer._clock(), len(stack))
        if stack:
            parent = stack[-1]
            if len(parent.children) < Span.MAX_CHILDREN:
                parent.children.append(span)
            else:
                parent.dropped_children += 1
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        span = self._span
        tracer = self._tracer
        if exc_type is not None:
            span.error = exc_type.__name__
        span.elapsed = tracer._clock() - span.start
        tracer._local.stack.pop()
        tracer._buffer.append(span)
        tracer._span_counter.inc()
        threshold = tracer.slow_threshold
        if threshold is not None and span.elapsed >= threshold:
            tracer._slow.append(SlowOp(span.name, span.elapsed, threshold, span.tags))
            tracer._slow_counter.inc()


class Tracer:
    """Per-database tracer.

    Parameters
    ----------
    capacity:
        Ring-buffer size for finished spans (oldest evicted first).
    slow_threshold:
        Seconds; a finished span at or above this is copied to the
        slow-op log.  None disables the slow log.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` holding the
        ``trace.spans`` and ``trace.slow_ops`` counters (a private one
        when omitted), exposed as ``tracer.metrics``.
    """

    def __init__(
        self,
        capacity: int = 512,
        slow_threshold: Optional[float] = None,
        slow_capacity: int = 128,
        registry=None,
        clock=time.perf_counter,
    ) -> None:
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self.enabled = True
        self._clock = clock
        self._buffer: "deque[Span]" = deque(maxlen=capacity)
        self._slow: "deque[SlowOp]" = deque(maxlen=slow_capacity)
        self._local = _TraceLocal()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._span_counter = self.metrics.counter("trace.spans")
        self._slow_counter = self.metrics.counter("trace.slow_ops")

    # -- recording -----------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        stack = self._local.stack
        return stack[-1] if stack else None

    @property
    def current_trace(self) -> Optional[str]:
        """The trace id active on this thread, if any."""
        return self._local.trace

    def trace(self, trace_id: Optional[str]) -> "_TraceScope | _NullScope":
        """Activate ``trace_id`` as this thread's trace context.

        Every span and note recorded inside the block carries a
        ``trace=<trace_id>`` tag (unless the caller set one explicitly).
        Contexts nest: the innermost id wins and the previous one is
        restored on exit.  ``None`` is a no-op context, so call sites
        can pass an optional id through unconditionally.
        """
        if trace_id is None:
            return _NULL_SCOPE
        return _TraceScope(self._local, trace_id)

    def span(self, name: str, **tags: Any) -> "_SpanScope | _NullScope":
        """Time the ``with`` block as a child of the thread's open span;
        yields the :class:`Span`, or None while the tracer is disabled."""
        if not self.enabled:
            return _NULL_SCOPE
        return _SpanScope(self, name, tags)

    def note(self, name: str, **tags: Any) -> None:
        """Record a noteworthy non-timed event in the slow-op log.

        Unlike :meth:`span`, a note always lands in the slow log
        regardless of threshold — it marks events whose *occurrence* is
        the signal (e.g. a torn WAL tail truncated during replay), and
        makes them visible through ``slow_ops()`` and the SysSlowOp view.
        """
        if not self.enabled:
            return
        trace_id = self._local.trace
        if trace_id is not None and "trace" not in tags:
            tags["trace"] = trace_id
        self._slow.append(SlowOp(name, 0.0, 0.0, tags))
        self._slow_counter.inc()

    def set_slow_threshold(self, threshold: Optional[float]) -> None:
        """Enable, adjust or disable (None) the slow-op log at runtime.

        Applies to spans finishing after the call; entries already in
        the slow log are kept (their ``threshold`` records the value in
        force when they were captured).
        """
        if threshold is not None and threshold < 0:
            raise ValueError("slow threshold must be >= 0, got %r" % (threshold,))
        self.slow_threshold = threshold

    # -- reading -------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """Finished spans, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._buffer)
        return [span for span in self._buffer if span.name == name]

    def roots(self) -> List[Span]:
        """Finished top-level spans (whole-operation trees)."""
        return [span for span in self._buffer if span.depth == 0]

    def last(self, name: Optional[str] = None) -> Optional[Span]:
        for span in reversed(self._buffer):
            if name is None or span.name == name:
                return span
        return None

    def slow_ops(self) -> List[SlowOp]:
        return list(self._slow)

    def reset(self) -> None:
        self._buffer.clear()
        self._slow.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:
        return "<Tracer %d/%d spans, %d slow>" % (
            len(self._buffer),
            self.capacity,
            len(self._slow),
        )
