"""Experiment runner shared by the benchmark harness.

Everything the per-table benches need: run an application under one or
more techniques with a fixed workload, collect :class:`RunReport`
objects, and compute the normalized overheads of Fig. 13 — all on the
deterministic virtual clock, so a benchmark's *reported* numbers are
identical on every machine (pytest-benchmark additionally measures the
harness's real wall time for regression tracking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps.base import Application, Workload, execute_app
from repro.apps.suite import SAMPLE_IDS, make_app
from repro.attacks.scenarios import build_gateway
from repro.core.runtime import FreePartConfig, RunReport
from repro.sim.kernel import SimKernel

#: The workload every overhead bench uses unless told otherwise.
DEFAULT_WORKLOAD = Workload(items=2, image_size=16)


def run_under(
    app: Application,
    technique: str,
    workload: Workload = DEFAULT_WORKLOAD,
    config: Optional[FreePartConfig] = None,
) -> RunReport:
    """One app, one technique, one fresh kernel."""
    kernel = SimKernel()
    gateway = build_gateway(technique, kernel, app=app, config=config)
    return execute_app(app, gateway, workload)


@dataclass
class OverheadRow:
    """One Fig. 13 data point."""

    sample_id: int
    app_name: str
    baseline_seconds: float
    protected_seconds: float

    @property
    def overhead_percent(self) -> float:
        if self.baseline_seconds == 0:
            return 0.0
        return (self.protected_seconds / self.baseline_seconds - 1.0) * 100.0

    @property
    def normalized_runtime(self) -> float:
        if self.baseline_seconds == 0:
            return 1.0
        return self.protected_seconds / self.baseline_seconds


def overhead_for_sample(
    sample_id: int,
    technique: str = "freepart",
    workload: Workload = DEFAULT_WORKLOAD,
    config: Optional[FreePartConfig] = None,
) -> OverheadRow:
    """Native vs protected runtime for one evaluation sample."""
    native = run_under(make_app(sample_id), "none", workload)
    protected = run_under(make_app(sample_id), technique, workload, config)
    if native.failed or protected.failed:
        raise RuntimeError(
            f"sample {sample_id} failed: {native.error or protected.error}"
        )
    return OverheadRow(
        sample_id=sample_id,
        app_name=native.app_name,
        baseline_seconds=native.virtual_seconds,
        protected_seconds=protected.virtual_seconds,
    )


def overhead_sweep(
    sample_ids: Sequence[int] = SAMPLE_IDS,
    technique: str = "freepart",
    workload: Workload = DEFAULT_WORKLOAD,
    config: Optional[FreePartConfig] = None,
) -> List[OverheadRow]:
    """Fig. 13: one row per evaluation application."""
    return [
        overhead_for_sample(sample_id, technique, workload, config)
        for sample_id in sample_ids
    ]


def average_overhead(rows: Sequence[OverheadRow]) -> float:
    """Mean overhead percent across a sweep's rows."""
    if not rows:
        return 0.0
    return sum(r.overhead_percent for r in rows) / len(rows)
