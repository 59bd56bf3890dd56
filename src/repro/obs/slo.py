"""Declarative SLOs evaluated in virtual time with burn-rate alerting.

An :class:`SLOSpec` names an objective over a stream of
:class:`RequestEvent`\\ s — the per-request facts the serving layer
records at finish time.  Three kinds:

``availability``
    A request is *good* iff it succeeded (``ok``).
``latency``
    A request is *good* iff it finished within ``threshold_ns``
    (success or not — latency is judged on its own).
``goodput``
    A request is *good* iff it succeeded AND finished within
    ``threshold_ns`` — useful work delivered on time.

Evaluation replays the event stream onto fixed window grids of virtual
time (cell ``k`` of a window covers ``[k*W, (k+1)*W)``), so the result
is a pure function of the events: byte-identical across re-runs, no
wall-clock anywhere.

Alerting follows the multi-window burn-rate recipe: each spec carries a
*fast* and a *slow* :class:`BurnWindow`.  The error budget is
``1 - objective``; a window cell's burn rate is ``error_rate / budget``.
A cell alerts when its burn rate would consume the window's configured
share of the whole period's budget — by default the fast window alerts
on a 5%-of-budget burn (short, severe regressions) and the slow window
on a 1%-of-budget burn (long, shallow ones)::

    threshold = budget_share * period_ns / window_ns

Each firing cell emits one :class:`AlertEvent` — the signal autoscaling
policies consume and the run report's "burn-rate timeline" rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.clock import NS_PER_SEC

__all__ = [
    "RequestEvent",
    "BurnWindow",
    "SLOSpec",
    "AlertEvent",
    "WindowCell",
    "SLOResult",
    "DEFAULT_SLOS",
    "FAST_WINDOW",
    "SLOW_WINDOW",
    "evaluate_slos",
]

_KINDS = ("availability", "latency", "goodput")


@dataclass(frozen=True, order=True)
class RequestEvent:
    """One finished request, stamped from the virtual clock.

    ``at_ns`` is the finish time (the window the request lands in);
    events sort by ``(at_ns, node, tenant, latency_ns, ok)`` so merged
    multi-node streams are deterministic.
    """

    at_ns: int
    node: str = ""
    tenant: str = ""
    latency_ns: int = 0
    ok: bool = True


@dataclass(frozen=True)
class BurnWindow:
    """One burn-rate evaluation window.

    ``budget_share`` is the fraction of the *period's* error budget
    whose consumption within one window span trips the alert.
    """

    name: str
    window_ns: int
    budget_share: float

    def burn_threshold(self, period_ns: int) -> float:
        """The burn rate at which one window consumes ``budget_share``
        of the period's budget."""
        return self.budget_share * period_ns / self.window_ns


#: The default pair: a fast 1 ms window alerting at 5% budget burn and a
#: slow 10 ms window alerting at 1% — virtual-time analogues of the SRE
#: workbook's 1h/6h pair, scaled to runs that finish in milliseconds.
FAST_WINDOW = BurnWindow("fast", 1_000_000, 0.05)
SLOW_WINDOW = BurnWindow("slow", 10_000_000, 0.01)


@dataclass(frozen=True)
class SLOSpec:
    """A declarative objective over the request stream."""

    name: str
    kind: str
    objective: float
    threshold_ns: Optional[int] = None
    period_ns: int = NS_PER_SEC
    windows: Tuple[BurnWindow, ...] = (FAST_WINDOW, SLOW_WINDOW)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"SLO {self.name!r}: kind must be one of {_KINDS}, "
                f"got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r}: objective must be in (0, 1), "
                f"got {self.objective}"
            )
        if self.kind in ("latency", "goodput") and self.threshold_ns is None:
            raise ValueError(
                f"SLO {self.name!r}: kind {self.kind!r} needs threshold_ns"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def is_good(self, event: RequestEvent) -> bool:
        """Whether one request counts toward the objective."""
        if self.kind == "availability":
            return event.ok
        if self.kind == "latency":
            return event.latency_ns <= self.threshold_ns
        return event.ok and event.latency_ns <= self.threshold_ns

    def burning(self, requests: int, errors: int, threshold: float) -> bool:
        """The burn verdict of one window cell: it saw an error, and its
        error rate spends the budget at least ``threshold`` times faster
        than the period allows.  Report alerts and the autoscaler's
        scale-up signal both read it."""
        return (
            errors > 0
            and (errors / requests) / self.error_budget >= threshold
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "threshold_ns": self.threshold_ns,
            "period_ns": self.period_ns,
            "windows": [
                {
                    "name": window.name,
                    "window_ns": window.window_ns,
                    "budget_share": window.budget_share,
                    "burn_threshold": round(
                        window.burn_threshold(self.period_ns), 9
                    ),
                }
                for window in self.windows
            ],
        }


@dataclass(frozen=True)
class WindowCell:
    """One non-empty cell of one burn window's grid."""

    window: str
    start_ns: int
    end_ns: int
    requests: int
    errors: int
    error_rate: float
    burn_rate: float
    alert: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "requests": self.requests,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 9),
            "burn_rate": round(self.burn_rate, 9),
            "alert": self.alert,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One burn-rate alert: a window cell that blew its threshold.

    Sortable (slo, window start, window name) so merged alert lists are
    deterministic; this is the event autoscaling policies subscribe to.
    """

    slo: str
    window: str
    start_ns: int
    end_ns: int
    requests: int
    errors: int
    error_rate: float
    burn_rate: float
    threshold: float

    def sort_key(self) -> Tuple[Any, ...]:
        return (self.slo, self.start_ns, self.window)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "window": self.window,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "requests": self.requests,
            "errors": self.errors,
            "error_rate": round(self.error_rate, 9),
            "burn_rate": round(self.burn_rate, 9),
            "threshold": round(self.threshold, 9),
        }


@dataclass
class SLOResult:
    """One spec's verdict over one event stream."""

    spec: SLOSpec
    requests: int
    errors: int
    achieved: float
    met: bool
    alerts: List[AlertEvent] = field(default_factory=list)
    timeline: List[WindowCell] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "requests": self.requests,
            "errors": self.errors,
            "achieved": round(self.achieved, 9),
            "met": self.met,
            "alert_count": len(self.alerts),
            "alerts": [alert.to_dict() for alert in self.alerts],
            "timeline": [cell.to_dict() for cell in self.timeline],
        }


#: The default objective set every run report evaluates: availability
#: (did it answer), latency (did it answer fast), goodput (did it do
#: useful work on time).  Thresholds are virtual-time, far above any
#: clean run's p99 so fault-free runs alert exactly zero times.
DEFAULT_SLOS: Tuple[SLOSpec, ...] = (
    SLOSpec("availability", "availability", objective=0.999),
    SLOSpec(
        "latency-p99", "latency", objective=0.99,
        threshold_ns=100_000_000,
    ),
    SLOSpec(
        "goodput", "goodput", objective=0.99,
        threshold_ns=250_000_000,
    ),
)


def _evaluate_window(
    spec: SLOSpec,
    window: BurnWindow,
    events: Sequence[RequestEvent],
) -> Tuple[List[WindowCell], List[AlertEvent]]:
    """Replay one window grid; returns (timeline cells, fired alerts)."""
    cells: Dict[int, List[int]] = {}
    for event in events:
        bucket = cells.setdefault(event.at_ns // window.window_ns, [0, 0])
        bucket[0] += 1
        if not spec.is_good(event):
            bucket[1] += 1
    threshold = window.burn_threshold(spec.period_ns)
    budget = spec.error_budget
    timeline: List[WindowCell] = []
    alerts: List[AlertEvent] = []
    for index in sorted(cells):
        requests, errors = cells[index]
        error_rate = errors / requests
        burn_rate = error_rate / budget
        fired = spec.burning(requests, errors, threshold)
        cell = WindowCell(
            window=window.name,
            start_ns=index * window.window_ns,
            end_ns=(index + 1) * window.window_ns,
            requests=requests,
            errors=errors,
            error_rate=error_rate,
            burn_rate=burn_rate,
            alert=fired,
        )
        timeline.append(cell)
        if fired:
            alerts.append(AlertEvent(
                slo=spec.name,
                window=window.name,
                start_ns=cell.start_ns,
                end_ns=cell.end_ns,
                requests=requests,
                errors=errors,
                error_rate=error_rate,
                burn_rate=burn_rate,
                threshold=threshold,
            ))
    return timeline, alerts


def evaluate_slos(
    events: Sequence[RequestEvent],
    specs: Sequence[SLOSpec] = DEFAULT_SLOS,
) -> List[SLOResult]:
    """Evaluate every spec over one event stream.

    Pure and deterministic: sorted events in, sorted alerts out.  The
    overall verdict (``met``) compares the whole-stream good fraction to
    the objective; alerts are per window cell.
    """
    ordered = sorted(events)
    results: List[SLOResult] = []
    for spec in specs:
        errors = sum(1 for event in ordered if not spec.is_good(event))
        requests = len(ordered)
        achieved = (requests - errors) / requests if requests else 1.0
        alerts: List[AlertEvent] = []
        timeline: List[WindowCell] = []
        for window in spec.windows:
            cells, fired = _evaluate_window(spec, window, ordered)
            timeline.extend(cells)
            alerts.extend(fired)
        alerts.sort(key=AlertEvent.sort_key)
        timeline.sort(key=lambda cell: (cell.window, cell.start_ns))
        results.append(SLOResult(
            spec=spec,
            requests=requests,
            errors=errors,
            achieved=achieved,
            met=achieved >= spec.objective,
            alerts=alerts,
            timeline=timeline,
        ))
    return results
