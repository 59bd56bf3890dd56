"""Deterministic perf trajectory: ``BENCH_*.json`` payloads + the gate.

Three benchmark payloads — ``table9`` (end-to-end overhead), ``serve``
(pooled serving throughput), ``ldc`` (lazy-data-copy ablation) — are
rendered from the virtual clock only, so re-running a payload on any
machine produces byte-identical JSON.  Committed baselines live at the
repo root (``BENCH_table9.json`` etc.); ``repro bench`` re-measures and
fails when a gated metric regresses by more than the tolerance.

Payload schema (``freepart-bench/v1``)::

    {
      "schema": "freepart-bench/v1",
      "bench": "table9",
      "metrics": {
        "<name>": {"value": <number>, "direction": "lower" | "higher"}
      },
      "details": { ... informational, never gated ... }
    }

``direction`` says which way is better; the gate fires when a metric
moves the *wrong* way by more than ``tolerance`` (relative).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

SCHEMA = "freepart-bench/v1"
BENCH_NAMES = (
    "table9", "serve", "ldc", "cluster", "staticcheck", "obs_report",
    "loadgen",
)
DEFAULT_TOLERANCE = 0.05

_DIRECTIONS = ("lower", "higher")


# ----------------------------------------------------------------------
# Payload builders (virtual-clock only — deterministic by construction)
# ----------------------------------------------------------------------

def _metric(value: float, direction: str) -> Dict[str, Any]:
    if direction not in _DIRECTIONS:
        raise ValueError(f"bad direction {direction!r}")
    return {"value": value, "direction": direction}


def _table9_run(technique: str):
    """The Table 9 workload: OMRChecker over paper-scale sheets."""
    import numpy as np

    from repro.apps.base import Workload, execute_app
    from repro.apps.suite import make_app
    from repro.attacks.scenarios import build_gateway
    from repro.sim.kernel import SimKernel

    workload = Workload(items=4, image_size=16)
    app = make_app(8)
    kernel = SimKernel()
    gateway = build_gateway(technique, kernel, app=app)
    app.setup(kernel, workload)
    rng = np.random.default_rng(9)
    for item in range(workload.items):
        sheet = np.zeros((128, 128, 3))
        for x, y, w, h in ((8, 8, 32, 32), (72, 8, 32, 32), (8, 72, 32, 32)):
            sheet[y:y + h, x:x + w] = 255.0
        sheet += rng.normal(scale=2.0, size=sheet.shape)
        kernel.fs.write_file(app.input_path(item), sheet)
    report = execute_app(app, gateway, workload, setup=False)
    if report.failed:
        raise RuntimeError(f"table9 {technique} run failed: {report.error}")
    return report


def bench_table9() -> Dict[str, Any]:
    """End-to-end FreePart overhead vs native (the Table 9 headline)."""
    native = _table9_run("none")
    freepart = _table9_run("freepart")
    ratio = freepart.virtual_seconds / native.virtual_seconds
    return {
        "schema": SCHEMA,
        "bench": "table9",
        "metrics": {
            "freepart_seconds": _metric(freepart.virtual_seconds, "lower"),
            "overhead_ratio": _metric(round(ratio, 9), "lower"),
            "ipc_messages": _metric(freepart.ipc_messages, "lower"),
            "data_mb": _metric(
                round(freepart.data_transferred_bytes / 1e6, 6), "lower"
            ),
        },
        "details": {
            "native_seconds": native.virtual_seconds,
            "zero_copy_transfers": freepart.zero_copy_transfers,
            "zero_copy_bytes": freepart.zero_copy_bytes,
            "cow_downgrades": freepart.cow_downgrades,
            "framed_messages": freepart.framed_messages,
            "lazy_copies": freepart.lazy_copies,
            "nonlazy_copies": freepart.nonlazy_copies,
        },
    }


def bench_serve() -> Dict[str, Any]:
    """Pooled + batched serving throughput vs the naive baseline."""
    from repro.serve.bench import best_pooled, run_serving_benchmark

    result = run_serving_benchmark(
        tenants=4,
        requests_per_tenant=2,
        pool_sizes=(2,),
        batching_modes=(True,),
    )
    champion = best_pooled(result)
    return {
        "schema": SCHEMA,
        "bench": "serve",
        "metrics": {
            "pooled_requests_per_second": _metric(
                champion["requests_per_second"], "higher"
            ),
            "speedup_vs_naive": _metric(
                champion["speedup_vs_naive"], "higher"
            ),
            "ipc_messages_saved": _metric(
                champion["ipc_messages_saved"], "higher"
            ),
            "fused_bytes_saved": _metric(
                champion["fused_bytes_saved"], "higher"
            ),
        },
        "details": {
            "naive_requests_per_second":
                result["configs"][0]["requests_per_second"],
            "workload": result["workload"],
            "champion": champion["name"],
        },
    }


def bench_ldc() -> Dict[str, Any]:
    """Overhead with LDC on vs the Section 5.2 no-LDC ablation."""
    from repro.apps.base import Workload
    from repro.bench.runner import average_overhead, overhead_sweep
    from repro.core.runtime import FreePartConfig

    workload = Workload(items=2, image_size=16)
    samples = (1, 8, 16, 20)
    with_ldc = average_overhead(overhead_sweep(samples, workload=workload))
    without_ldc = average_overhead(overhead_sweep(
        samples, workload=workload, config=FreePartConfig(ldc=False)
    ))
    return {
        "schema": SCHEMA,
        "bench": "ldc",
        "metrics": {
            "avg_overhead_with_ldc_pct": _metric(
                round(with_ldc, 9), "lower"
            ),
            "ldc_gain_ratio": _metric(
                round(without_ldc / with_ldc, 9), "higher"
            ),
        },
        "details": {
            "avg_overhead_without_ldc_pct": round(without_ldc, 9),
            "samples": list(samples),
        },
    }


def bench_cluster() -> Dict[str, Any]:
    """Multi-node scaling, failure goodput, and cross-node locality.

    ``cross_node_derefs`` gates at a 0 baseline with direction
    ``lower``: sharded serving keeps each request on its tenant's node
    and ships no object between nodes, so *any* cross-node dereference
    creeping in trips the gate regardless of tolerance.
    """
    from repro.cluster.bench import run_cluster_benchmark

    result = run_cluster_benchmark(
        nodes=4,
        tenants=8,
        requests_per_tenant=2,
        pool_size=2,
        image_size=16,
        failure=True,
    )
    multi = result["configs"][1]
    chaos = result["configs"][2]
    return {
        "schema": SCHEMA,
        "bench": "cluster",
        "metrics": {
            "scaling_vs_single_node": _metric(result["scaling"], "higher"),
            "cluster_requests_per_second": _metric(
                multi["requests_per_second"], "higher"
            ),
            "single_node_failure_goodput": _metric(
                result["failure_goodput"], "higher"
            ),
            "cross_node_derefs": _metric(multi["cross_node_derefs"], "lower"),
        },
        "details": {
            "workload": result["workload"],
            "single_node_requests_per_second":
                result["configs"][0]["requests_per_second"],
            "failure_config": chaos["name"],
            "failure_resubmissions": chaos["resubmissions"],
            "failure_shards_replaced": chaos["shards_replaced"],
        },
    }


#: Embedded corpus for the staticcheck bench — inline so the payload is
#: byte-identical regardless of where the repo is checked out.
_FLOW_VIOLATIONS = (
    # cross-partition-leak: materialized copy laundered via a container.
    "def pipeline(gateway):\n"
    "    image = gateway.call('opencv', 'imread', '/d/in.png')\n"
    "    pixels = gateway.materialize(image)\n"
    "    batch = [pixels]\n"
    "    return gateway.call('opencv', 'Canny', batch[0])\n",
    # tenant-taint-escape: tenant payload parked in module state.
    "STATS = {}\n"
    "\n"
    "def handle_request(gateway, tenant_id, path):\n"
    "    image = gateway.call('opencv', 'imread', path)\n"
    "    pixels = gateway.materialize(image)\n"
    "    STATS[tenant_id] = pixels\n"
    "    return pixels\n",
    # frozen-alias-write: aliased write to a frozen tag.
    "from repro.sim.memory import MemoryLayout\n"
    "\n"
    "ANNOTATIONS = (MemoryLayout(name='s', tag='s', nbytes=64),)\n"
    "\n"
    "def pipeline(gateway):\n"
    "    gateway.host_alloc('s', [0.0])\n"
    "    image = gateway.call('opencv', 'imread', '/d/in.png')\n"
    "    tag = 's'\n"
    "    gateway.host_write(tag, [1.0])\n"
    "    return image\n",
)

_FLOW_CLEAN = (
    "def pipeline(gateway):\n"
    "    image = gateway.call('opencv', 'imread', '/d/in.png')\n"
    "    batch = [image]\n"
    "    return gateway.call('opencv', 'Canny', batch[0])\n",
    "def handle_request(gateway, tenant_id, path):\n"
    "    image = gateway.call('opencv', 'imread', path)\n"
    "    pixels = gateway.materialize(image)\n"
    "    local = {}\n"
    "    local[tenant_id] = pixels\n"
    "    return pixels\n",
)


def bench_staticcheck() -> Dict[str, Any]:
    """The flow pass as a trajectory: detection, precision, privilege
    reduction, and parity — all deterministic counts.

    ``dataflow_clean_findings`` and ``trace_parity_violations`` gate at
    0 with direction ``lower``: any false positive on the clean corpus
    or any runtime touch outside the static universe trips the gate
    regardless of tolerance.
    """
    from repro.apps.base import Workload, execute_app
    from repro.apps.drone import DroneApp
    from repro.attacks.scenarios import build_gateway
    from repro.core.runtime import FreePartConfig
    from repro.frameworks.syscall_pools import pool_for
    from repro.obs.export import to_chrome_trace
    from repro.sim.kernel import SimKernel
    from repro.staticcheck.checker import check_source
    from repro.staticcheck.parity import check_trace_parity, universe_from_app
    from repro.staticcheck.privileges import privileges_for_app

    violation_findings = 0
    for index, source in enumerate(_FLOW_VIOLATIONS):
        findings, _ = check_source(f"violation_{index}.py", source)
        violation_findings += len(findings)
    clean_findings = 0
    for index, source in enumerate(_FLOW_CLEAN):
        findings, _ = check_source(f"clean_{index}.py", source)
        clean_findings += len(findings)

    app = DroneApp()
    privileges = privileges_for_app(app)
    pool_total = 0
    minimal_total = 0
    for privilege in privileges.values():
        pool = pool_for(privilege.api_type)
        if pool is None:
            continue
        pool_total += len(pool)
        minimal_total += len(
            privilege.minimal_allowed() | privilege.minimal_init_only()
        )

    kernel = SimKernel()
    kernel.enable_tracing()
    config = FreePartConfig(trace=True, annotations=tuple(app.annotations))
    gateway = build_gateway("freepart", kernel, app=app, config=config)
    execute_app(app, gateway, Workload(items=2, image_size=16))
    payload = to_chrome_trace(kernel.tracer)
    parity = check_trace_parity(
        universe_from_app(app), payload, "bench-trace"
    )

    return {
        "schema": SCHEMA,
        "bench": "staticcheck",
        "metrics": {
            "dataflow_violation_findings": _metric(
                violation_findings, "higher"
            ),
            "dataflow_clean_findings": _metric(clean_findings, "lower"),
            "pool_reduction_syscalls": _metric(
                pool_total - minimal_total, "higher"
            ),
            "trace_parity_violations": _metric(len(parity), "lower"),
        },
        "details": {
            "violation_sources": len(_FLOW_VIOLATIONS),
            "clean_sources": len(_FLOW_CLEAN),
            "agents_inferred": sorted(privileges),
            "pool_syscalls_total": pool_total,
            "minimal_syscalls_total": minimal_total,
            "trace_events": len(payload["traceEvents"]),
        },
    }


def bench_obs_report() -> Dict[str, Any]:
    """The observability control plane as a trajectory.

    ``clean_alerts`` gates at a 0 baseline with direction ``lower``:
    a clean serving run must never trip a burn-rate alert, so *any*
    alert creeping in trips the gate regardless of tolerance.
    ``chaos_alerting_schedules`` gates with direction ``higher``: the
    fixed faulted sweep must keep tripping alerts — losing them means
    request failures stopped reaching the SLO engine.
    """
    from repro.core.runtime import FreePartConfig
    from repro.faults.campaign import ChaosSettings, run_target
    from repro.faults.plan import FaultPlan, FaultRates
    from repro.obs.report import build_report, render_report_json
    from repro.obs.slo import evaluate_slos
    from repro.serve.bench import load_requests
    from repro.serve.server import PipelineServer
    from repro.sim.kernel import SimKernel

    # Clean traced serving run -> full report artifact.
    server = PipelineServer(
        kernel=SimKernel(),
        config=FreePartConfig(trace=True),
        pool_size=2,
        batching=True,
    )
    load_requests(server, 2, 2, 16)
    server.drain()
    server.shutdown()
    kernel = server.kernel
    report = build_report(
        "serve-bench", "serve",
        nodes=[("node0", kernel.tracer, kernel.clock.now_ns)],
        events=server.events,
        series=kernel.series,
    )
    clean_alerts = report["slo"]["alert_count"]
    report_bytes = len(render_report_json(report).encode("utf-8"))

    # Fixed faulted sweep: some schedules must exhaust their retries
    # and trip burn-rate alerts.
    settings = ChaosSettings(
        target="serve-bench", seed=11, campaign=5, fault_rate=0.2
    )
    rates = FaultRates.scaled(settings.fault_rate)
    alerting_schedules = 0
    chaos_alerts = 0
    for index in range(settings.campaign):
        plan = FaultPlan(settings.schedule_seed(index), rates)
        outcome = run_target("serve-bench", settings, plan)
        results = evaluate_slos(outcome.request_events)
        fired = sum(len(result.alerts) for result in results)
        chaos_alerts += fired
        if fired:
            alerting_schedules += 1

    return {
        "schema": SCHEMA,
        "bench": "obs_report",
        "metrics": {
            "clean_alerts": _metric(clean_alerts, "lower"),
            "chaos_alerting_schedules": _metric(
                alerting_schedules, "higher"
            ),
            "series_points": _metric(kernel.series.points, "higher"),
            "report_bytes": _metric(report_bytes, "lower"),
        },
        "details": {
            "requests": report["slo"]["requests"],
            "all_met": report["slo"]["all_met"],
            "critical_path_ns": report["critical_path"]["total_ns"],
            "chaos_alerts": chaos_alerts,
            "chaos_seed": settings.seed,
            "chaos_campaign": settings.campaign,
            "chaos_fault_rate": settings.fault_rate,
        },
    }


def bench_loadgen() -> Dict[str, Any]:
    """Open-loop traffic realism: fixed pool vs autoscaled + brownout.

    ``burst_goodput_retention`` gates with direction ``higher``: under
    the burst profile with 1 % faults, the elastic server must keep
    answering at least 1.5x the fixed pool's goodput at the same p99
    budget.  ``diurnal_clean_alerts`` and ``diurnal_clean_sheds`` gate
    at 0 with direction ``lower``: a clean diurnal day with both
    controllers armed must fire no burn-rate alert and shed nobody —
    any creep trips the gate regardless of tolerance.
    """
    from repro.serve.loadbench import BUDGET_NS, run_loadgen_benchmark

    comparison = run_loadgen_benchmark()
    runs = comparison["runs"]
    diurnal = runs["diurnal_elastic"]
    return {
        "schema": SCHEMA,
        "bench": "loadgen",
        "metrics": {
            "burst_goodput_retention": _metric(
                comparison["burst_goodput_retention"], "higher"
            ),
            "flash_goodput_retention": _metric(
                comparison["flash_goodput_retention"], "higher"
            ),
            "burst_elastic_goodput": _metric(
                runs["burst_elastic"]["goodput"], "higher"
            ),
            "burst_elastic_p99_ms": _metric(
                runs["burst_elastic"]["p99_latency_ms"], "lower"
            ),
            "diurnal_clean_alerts": _metric(
                diurnal["slo_alerts"], "lower"
            ),
            "diurnal_clean_sheds": _metric(diurnal["shed"], "lower"),
        },
        "details": {
            "budget_ms": BUDGET_NS / 1e6,
            "fault_rate": comparison["fault_rate"],
            "burst_fixed_goodput": runs["burst_fixed"]["goodput"],
            "burst_fixed_p99_ms": runs["burst_fixed"]["p99_latency_ms"],
            "burst_scale_ups": runs["burst_elastic"]["scale_ups"],
            "burst_sheds": runs["burst_elastic"]["shed"],
            "burst_sheds_by_priority":
                runs["burst_elastic"]["sheds_by_priority"],
            "burst_final_pool": runs["burst_elastic"]["pool_size"],
            "diurnal_goodput": diurnal["goodput"],
            "diurnal_scale_ups": diurnal["scale_ups"],
            "flash_elastic_goodput": runs["flash_elastic"]["goodput"],
            "flash_scale_ups": runs["flash_elastic"]["scale_ups"],
            "schedule_digests": {
                name: run["schedule_digest"]
                for name, run in sorted(runs.items())
            },
        },
    }


_BUILDERS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "table9": bench_table9,
    "serve": bench_serve,
    "ldc": bench_ldc,
    "cluster": bench_cluster,
    "staticcheck": bench_staticcheck,
    "obs_report": bench_obs_report,
    "loadgen": bench_loadgen,
}


def build_payload(which: str) -> Dict[str, Any]:
    """Measure one bench and return its validated payload."""
    try:
        builder = _BUILDERS[which]
    except KeyError:
        raise ValueError(
            f"unknown bench {which!r} (expected one of {BENCH_NAMES})"
        ) from None
    payload = builder()
    errors = validate_payload(payload)
    if errors:
        raise RuntimeError(f"bench {which!r} produced a bad payload: {errors}")
    return payload


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------

def validate_payload(payload: Any) -> List[str]:
    """Structural check of one payload; returns problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    if payload.get("schema") != SCHEMA:
        errors.append(
            f"schema is {payload.get('schema')!r}, expected {SCHEMA!r}"
        )
    if payload.get("bench") not in BENCH_NAMES:
        errors.append(f"bench is {payload.get('bench')!r}")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        errors.append("metrics must be a non-empty object")
        return errors
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            errors.append(f"metric {name!r} is not an object")
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"metric {name!r} value is not a number")
        if entry.get("direction") not in _DIRECTIONS:
            errors.append(
                f"metric {name!r} direction must be one of {_DIRECTIONS}"
            )
    return errors


# ----------------------------------------------------------------------
# Serialization (byte-identical across re-runs)
# ----------------------------------------------------------------------

def render_payload(payload: Dict[str, Any]) -> str:
    """Canonical JSON text (sorted keys, trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def payload_filename(which: str) -> str:
    """The committed-baseline filename for one bench."""
    return f"BENCH_{which}.json"


def write_payload(payload: Dict[str, Any], out_dir: str) -> str:
    """Write a payload under ``out_dir``; returns the file path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, payload_filename(payload["bench"]))
    with open(path, "w") as fh:
        fh.write(render_payload(payload))
    return path


def load_payload(path: str) -> Dict[str, Any]:
    """Load and validate a payload file (ValueError when malformed)."""
    with open(path) as fh:
        payload = json.load(fh)
    errors = validate_payload(payload)
    if errors:
        raise ValueError(f"{path}: {'; '.join(errors)}")
    return payload


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Regression:
    """One gated metric that moved the wrong way past tolerance."""

    bench: str
    metric: str
    baseline: float
    current: float
    direction: str

    @property
    def change_pct(self) -> float:
        if self.baseline == 0:
            return float("inf")
        return (self.current / self.baseline - 1.0) * 100.0

    def describe(self) -> str:
        arrow = "above" if self.direction == "lower" else "below"
        return (
            f"{self.bench}.{self.metric}: {self.current} is "
            f"{abs(self.change_pct):.2f}% {arrow} baseline {self.baseline} "
            f"(direction: {self.direction} is better)"
        )


def compare_payloads(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Regression]:
    """Gated metrics of ``current`` that regressed vs ``baseline``.

    The *baseline* defines the gate: every baseline metric must exist in
    the current payload (a vanished metric is a regression) and must not
    have moved the wrong way by more than ``tolerance`` relative.  New
    metrics in ``current`` are informational until they land in the
    committed baseline.
    """
    regressions: List[Regression] = []
    bench = baseline.get("bench", "?")
    for name, entry in baseline["metrics"].items():
        base_value = entry["value"]
        direction = entry["direction"]
        got = current["metrics"].get(name)
        if got is None:
            regressions.append(Regression(
                bench=bench, metric=name, baseline=base_value,
                current=float("nan"), direction=direction,
            ))
            continue
        value = got["value"]
        if direction == "lower":
            bad = value > base_value * (1.0 + tolerance)
        else:
            bad = value < base_value * (1.0 - tolerance)
        if bad:
            regressions.append(Regression(
                bench=bench, metric=name, baseline=base_value,
                current=value, direction=direction,
            ))
    return regressions


def run_gate(
    which: Tuple[str, ...],
    baseline_dir: Optional[str],
    out_dir: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Tuple[List[Dict[str, Any]], List[Regression]]:
    """Measure the requested benches and gate them against baselines.

    Returns ``(payloads, regressions)``.  Baselines are looked up as
    ``<baseline_dir>/BENCH_<which>.json``; a missing or malformed
    baseline file raises (usage error), it does not silently pass.
    """
    payloads: List[Dict[str, Any]] = []
    regressions: List[Regression] = []
    for name in which:
        payload = build_payload(name)
        payloads.append(payload)
        if out_dir:
            write_payload(payload, out_dir)
        if baseline_dir is not None:
            baseline_path = os.path.join(
                baseline_dir, payload_filename(name)
            )
            baseline = load_payload(baseline_path)
            regressions.extend(
                compare_payloads(payload, baseline, tolerance)
            )
    return payloads, regressions
