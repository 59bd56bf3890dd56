"""Observability: span tracing and time series over the virtual clock.

Every span timestamp and series window is derived from the
deterministic :class:`~repro.sim.clock.VirtualClock`, never from wall
time, so traces and series snapshots are bit-identical across machines.
The layer never *advances* the clock — with tracing enabled, every
virtual-clock quantity (the 3.68% overhead figure, serve throughput,
Table 9 rows) is unchanged from an untraced run.
"""

from repro.obs.slo import (
    DEFAULT_SLOS,
    AlertEvent,
    BurnWindow,
    RequestEvent,
    SLOResult,
    SLOSpec,
    evaluate_slos,
)
from repro.obs.timeseries import (
    FixedGridSketch,
    TimeSeries,
    TimeSeriesRegistry,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "AlertEvent",
    "BurnWindow",
    "DEFAULT_SLOS",
    "FixedGridSketch",
    "NULL_TRACER",
    "NullTracer",
    "RequestEvent",
    "SLOResult",
    "SLOSpec",
    "Span",
    "SpanTracer",
    "TimeSeries",
    "TimeSeriesRegistry",
    "evaluate_slos",
]
