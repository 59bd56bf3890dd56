"""Span-based tracing driven entirely by the virtual clock.

A :class:`SpanTracer` records hierarchical spans — ``rpc``, ``ldc_copy``,
``serialize``, ``mprotect``, ``syscall_check``, ``agent_spawn``,
``restart``, ``batch``, ``admission_wait`` — whose start/end timestamps
are read from the simulation's :class:`~repro.sim.clock.VirtualClock`.
The tracer only ever *reads* the clock; instrumented code charges
exactly the same virtual time whether tracing is on or off, which is why
enabling traces leaves every reproduced number (the 3.68% overhead
figure included) unchanged.

The simulation is single-threaded and cooperative, so one global span
stack yields correct parent/child nesting; each span additionally
carries the ``pid`` of the simulated process it belongs to, which the
Chrome exporter turns into one process row per agent (and one per
tenant lane in serve mode).

The default tracer on every kernel is :data:`NULL_TRACER`, whose spans
are one shared no-op context manager, so instrumented code has a single
path whether tracing is on or off::

    with tracer.span("restart", category="restart", pid=pid):
        clock.advance(cost.process_restart_ns)

Only the five hottest operations (syscall entry, framework invoke,
channel send, gateway call, mprotect) guard on ``tracer.enabled``
instead, where the no-op span would cost more than the guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "SpanTracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One traced operation: a named interval of virtual time.

    ``out_of_band`` marks retrospective spans (e.g. ``admission_wait``,
    reconstructed from a request's enqueue timestamp) that overlap other
    work on the timeline; the mechanism rollup excludes them so its
    total still equals the run's end-to-end virtual time.
    """

    span_id: int
    name: str
    category: str
    start_ns: int
    end_ns: int
    pid: int
    parent_id: Optional[int]
    depth: int
    kind: str = "span"  # "span" | "instant"
    out_of_band: bool = False
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes after the span opened (e.g. once routed)."""
        self.attrs.update(attrs)


class _OpenSpan:
    """Context manager closing one span at the tracer's current clock."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def annotate(self, **attrs: Any) -> None:
        self._span.annotate(**attrs)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span)


class SpanTracer:
    """Collects spans against one virtual clock."""

    enabled = True

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.track_names: Dict[int, str] = {}
        self._stack: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(
        self, name: str, category: str, pid: int = 0, **attrs: Any
    ) -> _OpenSpan:
        """Open a span now; closes (even on exception) at ``with`` exit."""
        parent = self.current
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start_ns=self.clock.now_ns,
            end_ns=-1,
            pid=pid,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return _OpenSpan(self, span)

    def _close(self, span: Span) -> None:
        span.end_ns = self.clock.now_ns
        # Exceptions can unwind several instrumented frames at once; pop
        # everything the closing span still covers.
        while self._stack:
            popped = self._stack.pop()
            if popped.end_ns < 0:
                popped.end_ns = span.end_ns
            if popped is span:
                break

    def instant(
        self, name: str, category: str, pid: int = 0, **attrs: Any
    ) -> Span:
        """Record a zero-duration event at the current virtual time."""
        now = self.clock.now_ns
        parent = self.current
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start_ns=now,
            end_ns=now,
            pid=pid,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            kind="instant",
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def add_span(
        self,
        name: str,
        category: str,
        start_ns: int,
        end_ns: int,
        pid: int = 0,
        out_of_band: bool = True,
        **attrs: Any,
    ) -> Span:
        """Record a completed span with explicit timestamps.

        Used for retrospective intervals like ``admission_wait``, whose
        start (the enqueue time) predates the instrumentation point.
        Defaults to out-of-band: visible in exports, excluded from the
        mechanism rollup's time accounting.
        """
        parent = self.current
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            start_ns=start_ns,
            end_ns=end_ns,
            pid=pid,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            out_of_band=out_of_band,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Track naming (Chrome "process" rows)
    # ------------------------------------------------------------------

    def name_track(self, pid: int, name: str) -> None:
        """Label the export row for one simulated pid (first name wins)."""
        self.track_names.setdefault(pid, name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def closed_spans(self) -> List[Span]:
        """Spans whose interval is complete (open spans excluded)."""
        return [s for s in self.spans if s.end_ns >= 0]

    def by_category(self) -> Dict[str, List[Span]]:
        grouped: Dict[str, List[Span]] = {}
        for span in self.closed_spans():
            grouped.setdefault(span.category, []).append(span)
        return grouped


class _NullOpenSpan:
    """Shared no-op context manager; also absorbs ``annotate``."""

    __slots__ = ()

    def annotate(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullOpenSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_OPEN_SPAN = _NullOpenSpan()


class NullTracer:
    """The default: every operation is a no-op.

    ``enabled`` is False so the hottest paths (syscall entry, framework
    invoke, channel send, gateway call, mprotect) can skip building span
    attributes altogether; everything else calls through and pays a
    shared no-op context manager.
    """

    enabled = False
    spans: Tuple[Span, ...] = ()
    track_names: Dict[int, str] = {}

    @property
    def current(self) -> None:
        return None

    def span(self, name: str, category: str, pid: int = 0, **attrs: Any):
        return _NULL_OPEN_SPAN

    def instant(self, name: str, category: str, pid: int = 0, **attrs: Any):
        return None

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def name_track(self, pid: int, name: str) -> None:
        pass

    def closed_spans(self) -> List[Span]:
        return []

    def by_category(self) -> Dict[str, List[Span]]:
        return {}


NULL_TRACER = NullTracer()
