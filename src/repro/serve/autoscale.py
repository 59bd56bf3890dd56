"""SLO-driven pool autoscaling and brownout-mode graceful degradation.

PR 9's burn-rate SLO engine produces the control signal; this module
closes the loop:

* :class:`BurnMonitor` — an *incremental* fast-window burn detector.
  It mirrors :func:`repro.obs.slo._evaluate_window`'s cell math (cell
  ``k`` of window ``W`` covers ``[k*W, (k+1)*W)``; a cell burns when
  ``errors > 0`` and ``(errors/requests)/budget >=
  window.burn_threshold(period)``) but evaluates cells as the request
  stream closes them, so policies can act mid-run instead of
  post-mortem.  Timeline finish times are not strictly monotone across
  lanes, so an event landing in an already-closed cell folds into the
  *current* cell — a deliberately conservative divergence from the
  offline evaluator, which stays the source of truth for reports.
* :class:`PoolAutoscaler` — scales a server's agent pools up on burning
  cells and down after a calm streak, under an up/down cooldown pair
  (hysteresis) and a finite spawn budget (scaling up costs real spawn
  time; the budget is the restart-storm guard).  Every decision is an
  ordered :class:`ScaleEvent` and an ``autoscale.pool_size`` series
  point.
* :class:`BrownoutController` — the degraded tier between "healthy" and
  "circuit-open".  A priority *floor* starts above every class (nothing
  shed); each burning cell lowers it one class (bronze sheds first),
  each sufficiently long calm streak raises it one (silver recovers
  before bronze... i.e. higher priority re-admits first).  Gold
  (priority 0) is never shed: ``min_floor`` is 1.

Everything is driven by the deterministic event stream, so autoscaling
decisions — like everything else in the simulation — replay
byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.slo import FAST_WINDOW, BurnWindow, RequestEvent, SLOSpec
from repro.sim.clock import NS_PER_SEC

__all__ = [
    "BurnMonitor",
    "AutoscaleConfig",
    "ScaleEvent",
    "PoolAutoscaler",
    "BrownoutConfig",
    "BrownoutEvent",
    "BrownoutController",
    "control_slo",
]


def control_slo(budget_ns: int) -> SLOSpec:
    """The goodput objective the control loop burns against.

    ``budget_ns`` is the per-request latency budget the run is judged
    at; a request is an error to the controller iff it failed or blew
    that budget.
    """
    return SLOSpec(
        "autoscale-goodput", "goodput", objective=0.99,
        threshold_ns=budget_ns, period_ns=NS_PER_SEC,
    )


class BurnMonitor:
    """Incremental single-cell burn-rate evaluation of one window."""

    def __init__(
        self, spec: SLOSpec, window: BurnWindow = FAST_WINDOW
    ) -> None:
        self.spec = spec
        self.window = window
        self.threshold = window.burn_threshold(spec.period_ns)
        self._cell: Optional[int] = None
        self._requests = 0
        self._errors = 0
        self.cells_closed = 0
        self.burning_cells = 0

    def observe(self, event: RequestEvent) -> Optional[bool]:
        """Feed one event; when it closes a cell, return its verdict.

        Returns ``True`` (the closed cell was burning), ``False``
        (calm), or ``None`` (no cell boundary crossed yet).
        """
        cell = event.at_ns // self.window.window_ns
        verdict: Optional[bool] = None
        if self._cell is not None and cell > self._cell:
            verdict = self._close()
            self._cell = cell
        elif self._cell is None:
            self._cell = cell
        self._requests += 1
        if not self.spec.is_good(event):
            self._errors += 1
        return verdict

    def _close(self) -> bool:
        burning = self.spec.burning(
            self._requests, self._errors, self.threshold
        )
        self.cells_closed += 1
        if burning:
            self.burning_cells += 1
        self._requests = 0
        self._errors = 0
        return burning


@dataclass(frozen=True)
class AutoscaleConfig:
    """The autoscaler's policy knobs (validated eagerly)."""

    min_size: int = 1
    max_size: int = 8
    scale_up_step: int = 2
    scale_down_step: int = 1
    #: Virtual time between consecutive scale-ups / scale-downs.
    up_cooldown_ns: int = 2_000_000
    down_cooldown_ns: int = 20_000_000
    #: Consecutive calm cells before a scale-down is considered — the
    #: hysteresis half of the loop (one quiet millisecond is noise).
    calm_cells_for_down: int = 10
    #: Member sets the autoscaler may ever spawn (its restart budget).
    scale_budget: int = 16

    def validate(self) -> None:
        if self.min_size < 1:
            raise ValueError(
                f"autoscale min_size must be >= 1, got {self.min_size}"
            )
        if self.max_size < self.min_size:
            raise ValueError(
                f"autoscale max_size ({self.max_size}) must be >= "
                f"min_size ({self.min_size})"
            )
        if self.scale_up_step < 1 or self.scale_down_step < 1:
            raise ValueError(
                "autoscale steps must be >= 1, got "
                f"up={self.scale_up_step} down={self.scale_down_step}"
            )
        if self.scale_budget < 0:
            raise ValueError(
                f"autoscale scale_budget must be >= 0, "
                f"got {self.scale_budget}"
            )


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision, stamped from the event stream."""

    at_ns: int
    direction: str  # "up" | "down"
    from_size: int
    to_size: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_ns": self.at_ns,
            "direction": self.direction,
            "from_size": self.from_size,
            "to_size": self.to_size,
            "reason": self.reason,
        }


class PoolAutoscaler:
    """Burn-rate-driven scale-up/down of one server's agent pools."""

    def __init__(
        self,
        server,
        config: Optional[AutoscaleConfig] = None,
        spec: Optional[SLOSpec] = None,
        window: BurnWindow = FAST_WINDOW,
    ) -> None:
        self.server = server
        self.config = config if config is not None else AutoscaleConfig()
        self.config.validate()
        self.monitor = BurnMonitor(
            spec if spec is not None else control_slo(10_000_000), window
        )
        self.events: List[ScaleEvent] = []
        self.spawned = 0
        self._last_up_ns: Optional[int] = None
        self._last_down_ns: Optional[int] = None
        self._calm_streak = 0

    @property
    def scale_ups(self) -> int:
        return sum(1 for event in self.events if event.direction == "up")

    @property
    def scale_downs(self) -> int:
        return sum(1 for event in self.events if event.direction == "down")

    def on_request(self, event: RequestEvent) -> None:
        """The server calls this once per finished request."""
        verdict = self.monitor.observe(event)
        if verdict is None:
            return
        if verdict:
            self._calm_streak = 0
            self._scale_up(event.at_ns)
        else:
            self._calm_streak += 1
            if self._calm_streak >= self.config.calm_cells_for_down:
                self._scale_down(event.at_ns)

    def _scale_up(self, at_ns: int) -> None:
        config = self.config
        if (
            self._last_up_ns is not None
            and at_ns - self._last_up_ns < config.up_cooldown_ns
        ):
            return
        size = self.server.pools.size
        step = min(
            config.scale_up_step,
            config.max_size - size,
            config.scale_budget - self.spawned,
        )
        if step <= 0:
            return
        actual = self.server.scale_to(
            size + step, reason="fast-window burn", at_ns=at_ns
        )
        if actual == size:
            return
        self.spawned += actual - size
        self._last_up_ns = at_ns
        self.events.append(ScaleEvent(
            at_ns=at_ns, direction="up", from_size=size, to_size=actual,
            reason="fast-window burn",
        ))

    def _scale_down(self, at_ns: int) -> None:
        config = self.config
        if (
            self._last_down_ns is not None
            and at_ns - self._last_down_ns < config.down_cooldown_ns
        ):
            return
        size = self.server.pools.size
        target = max(config.min_size, size - config.scale_down_step)
        if target >= size:
            return
        actual = self.server.scale_to(
            target, reason="calm streak", at_ns=at_ns
        )
        if actual == size:
            return
        self._last_down_ns = at_ns
        self._calm_streak = 0
        self.events.append(ScaleEvent(
            at_ns=at_ns, direction="down", from_size=size,
            to_size=actual, reason="calm streak",
        ))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "spawned": self.spawned,
            "final_pool_size": self.server.pools.size,
            "cells_closed": self.monitor.cells_closed,
            "burning_cells": self.monitor.burning_cells,
            "events": [event.to_dict() for event in self.events],
        }


@dataclass(frozen=True)
class BrownoutConfig:
    """The brownout state machine's knobs."""

    #: Number of priority classes (0 = highest).
    classes: int = 3
    #: The floor never drops below this: priorities < min_floor are
    #: always served (gold is sacred).
    min_floor: int = 1
    #: Consecutive burning cells before the floor drops a class —
    #: brownout is the *last-resort* tier, so one bad millisecond
    #: (which the autoscaler already reacts to) must not shed anyone.
    trip_cells: int = 2
    #: Consecutive calm cells before one class is re-admitted.
    recover_cells: int = 5

    def validate(self) -> None:
        if self.classes < 1:
            raise ValueError(
                f"brownout needs >= 1 class, got {self.classes}"
            )
        if not 1 <= self.min_floor <= self.classes:
            raise ValueError(
                f"brownout min_floor must be in [1, {self.classes}], "
                f"got {self.min_floor}"
            )
        if self.trip_cells < 1 or self.recover_cells < 1:
            raise ValueError(
                "brownout trip_cells and recover_cells must be >= 1, "
                f"got trip={self.trip_cells} recover={self.recover_cells}"
            )


@dataclass(frozen=True)
class BrownoutEvent:
    """One floor transition (a brownout deepening or a recovery)."""

    at_ns: int
    direction: str  # "brownout" | "recover"
    floor_before: int
    floor_after: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "at_ns": self.at_ns,
            "direction": self.direction,
            "floor_before": self.floor_before,
            "floor_after": self.floor_after,
        }


class BrownoutController:
    """Priority-floor load shedding between healthy and circuit-open.

    The *floor* is the first shed priority: requests with
    ``priority >= floor`` are refused at admission.  Healthy state is
    ``floor == classes`` (nobody shed); each burning cell lowers the
    floor by one (sheds the lowest class still admitted); each
    ``recover_cells``-long calm streak raises it by one, so classes
    recover strictly in priority order.
    """

    def __init__(
        self,
        config: Optional[BrownoutConfig] = None,
        spec: Optional[SLOSpec] = None,
        window: BurnWindow = FAST_WINDOW,
    ) -> None:
        self.config = config if config is not None else BrownoutConfig()
        self.config.validate()
        self.monitor = BurnMonitor(
            spec if spec is not None else control_slo(10_000_000), window
        )
        self.floor = self.config.classes
        self.events: List[BrownoutEvent] = []
        self.shed_requests = 0
        self.sheds_by_priority: Dict[int, int] = {}
        self._calm_streak = 0
        self._burn_streak = 0

    def sheds(self, priority: int) -> bool:
        """Whether a request of ``priority`` is refused right now."""
        return priority >= self.floor

    def record_shed(self, priority: int) -> None:
        self.shed_requests += 1
        self.sheds_by_priority[priority] = (
            self.sheds_by_priority.get(priority, 0) + 1
        )

    def observe(self, event: RequestEvent) -> None:
        """The server calls this once per finished request."""
        verdict = self.monitor.observe(event)
        if verdict is None:
            return
        if verdict:
            self._calm_streak = 0
            self._burn_streak += 1
            if (
                self._burn_streak >= self.config.trip_cells
                and self.floor > self.config.min_floor
            ):
                self.events.append(BrownoutEvent(
                    at_ns=event.at_ns, direction="brownout",
                    floor_before=self.floor, floor_after=self.floor - 1,
                ))
                self.floor -= 1
        else:
            self._burn_streak = 0
            self._calm_streak += 1
            if (
                self._calm_streak >= self.config.recover_cells
                and self.floor < self.config.classes
            ):
                self.events.append(BrownoutEvent(
                    at_ns=event.at_ns, direction="recover",
                    floor_before=self.floor, floor_after=self.floor + 1,
                ))
                self.floor += 1
                self._calm_streak = 0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "floor": self.floor,
            "classes": self.config.classes,
            "shed_requests": self.shed_requests,
            "sheds_by_priority": {
                str(priority): count
                for priority, count in sorted(
                    self.sheds_by_priority.items()
                )
            },
            "transitions": [event.to_dict() for event in self.events],
        }
