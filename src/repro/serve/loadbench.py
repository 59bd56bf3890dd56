"""The open-loop load benchmark: fixed pool vs autoscaled + brownout.

The acceptance harness for traffic realism.  Every profile is replayed
twice against identical arrival schedules (and, when faulted, identical
fault plans):

* **fixed** — the static ``pool_size=2`` server every earlier PR built;
* **elastic** — the same server with the burn-rate autoscaler
  (``2 -> 8`` lanes under a spawn budget) and the brownout controller
  attached.

Two headline metrics gate the perf trajectory
(``BENCH_loadgen.json``):

``burst_goodput_retention``
    elastic goodput / fixed goodput on the burst profile with 1 %
    faults injected — how much of the offered storm the elastic server
    answers inside the latency budget, relative to the fixed pool.
    Must stay ≥ 1.5 (direction ``higher``).
``diurnal_clean_alerts`` / ``diurnal_clean_sheds``
    A clean diurnal day must fire **zero** burn-rate alerts and shed
    **zero** requests even with both controllers armed (direction
    ``lower``, baseline 0 — any creep trips the gate).

Calibration notes (why these numbers): mean virtual service is
~1.49 ms/request, so one lane sustains ~670 rps and the fixed 2-lane
pool ~1 345 rps.  The burst profile storms at ``8 x 300 = 2 400`` rps —
comfortably over the fixed pool, comfortably under the elastic
maximum's ~5 380 rps — and the diurnal peak (``1.4 x 300 = 420`` rps)
never threatens either.  The controller burns against a *tighter*
budget (:data:`CONTROL_BUDGET_NS`) than the one goodput is judged at
(:data:`BUDGET_NS`): scaling must begin while the backlog is still
recoverable, not once the SLO is already blown.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.serve.autoscale import AutoscaleConfig, control_slo
from repro.serve.loadgen import (
    ArrivalSchedule,
    LoadProfile,
    LoadgenResult,
    generate_schedule,
    profile_by_name,
    run_open_loop,
)

__all__ = [
    "BUDGET_NS",
    "CONTROL_BUDGET_NS",
    "canonical_profile",
    "canonical_schedule",
    "elastic_config",
    "run_profile",
    "run_loadgen_benchmark",
]

#: The latency budget goodput is judged at (client-perceived).
BUDGET_NS = 10_000_000
#: The tighter budget the control loop burns against.
CONTROL_BUDGET_NS = 4_000_000
#: Offered base rate; deliberately below one lane's ~670 rps capacity
#: so only profile peaks (storms, flash crowds) create backlog.
BASE_RPS = 300.0
DURATION_NS = 200_000_000
#: A flat-ish, wide tenant population: per-tenant arrival runs stay
#: short, so fair-share dispatch ~= arrival order and lane backlog —
#: the thing elasticity fixes — dominates latency.
TENANTS = 60
ZIPF_ALPHA = 0.5
FIXED_POOL = 2
MAX_POOL = 8
SEED = 42
FAULT_RATE = 0.01


def canonical_profile(name: str, **overrides: Any) -> LoadProfile:
    """The benchmark's pinned parameterization of a named profile."""
    params: Dict[str, Any] = dict(
        base_rps=BASE_RPS, duration_ns=DURATION_NS
    )
    if name == "burst":
        # One 50 ms storm window at 8x, mid-run: ~2 400 rps against the
        # fixed pool's ~1 345 rps.
        params.update(
            storm_every_ns=200_000_000,
            storm_ns=50_000_000,
            storm_offset_ns=50_000_000,
            storm_multiplier=8.0,
        )
    params.update(overrides)
    return profile_by_name(name, **params)


def canonical_schedule(name: str, seed: int = SEED) -> ArrivalSchedule:
    """The pinned arrival schedule for one named profile."""
    return generate_schedule(
        canonical_profile(name), seed=seed,
        tenants=TENANTS, zipf_alpha=ZIPF_ALPHA,
    )


def elastic_config(
    pool_size: int = FIXED_POOL, max_size: int = MAX_POOL
) -> AutoscaleConfig:
    """The benchmark's autoscaler policy (2 -> 8, fast up, slow down)."""
    return AutoscaleConfig(
        min_size=pool_size,
        max_size=max_size,
        scale_up_step=3,
        up_cooldown_ns=2_000_000,
    )


def _make_server(
    fault_rate: float,
    seed: int,
    elastic: bool,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
    nodes: int = 1,
):
    """One server (``nodes == 1``) or a sharded cluster front door.

    Tenants hash across a cluster's nodes (no manifest needed for
    synthetic traffic), and when ``elastic`` every node runs its own
    autoscaler and brownout controller — elasticity is a per-machine
    decision, exactly as a real per-machine agent pool would scale.
    """
    from repro.core.runtime import FreePartConfig
    from repro.faults.plan import FaultPlan, FaultRates

    faulted = fault_rate > 0
    server_args = dict(
        config=FreePartConfig(
            rpc_retries=2, max_restarts_per_agent=8
        ) if faulted else FreePartConfig(),
        pool_size=pool_size,
        batching=True,
        queue_capacity=512,
        max_retries=2 if faulted else 1,
    )
    if nodes == 1:
        from repro.faults.injector import FaultInjector
        from repro.serve.server import PipelineServer
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        if faulted:
            kernel.enable_tracing()
            kernel.inject_faults(
                FaultInjector(FaultPlan(seed, FaultRates.scaled(fault_rate)))
            )
        front = PipelineServer(kernel=kernel, **server_args)
    else:
        from repro.cluster.kernel import ClusterKernel
        from repro.cluster.serve import ClusterServer

        cluster = ClusterKernel(nodes=nodes)
        if faulted:
            cluster.enable_tracing()
            cluster.inject_faults(
                FaultPlan(seed, FaultRates.scaled(fault_rate))
            )
        front = ClusterServer(cluster=cluster, **server_args)
    if elastic:
        # The autoscaler burns against the tight control budget (act
        # early); the brownout is the last-resort tier and only sheds
        # once the *judged* budget itself is burning.
        for server in front.nodes():
            server.enable_autoscale(
                elastic_config(pool_size, max_pool),
                spec=control_slo(CONTROL_BUDGET_NS),
            )
            server.enable_brownout(spec=control_slo(BUDGET_NS))
    return front


def run_profile(
    name: str,
    seed: int = SEED,
    elastic: bool = False,
    fault_rate: float = 0.0,
    schedule: Optional[ArrivalSchedule] = None,
    pool_size: int = FIXED_POOL,
    max_pool: int = MAX_POOL,
    nodes: int = 1,
) -> Dict[str, Any]:
    """One open-loop replay; returns the run's flattened facts."""
    from repro.obs.slo import evaluate_slos

    if schedule is None:
        schedule = canonical_schedule(name, seed=seed)
    front = _make_server(
        fault_rate, seed, elastic, pool_size, max_pool, nodes
    )
    result: LoadgenResult = run_open_loop(front, schedule)
    servers = front.nodes()
    alerts = sum(len(r.alerts) for r in evaluate_slos(
        [event for server in servers for event in server.events]
    ))
    out: Dict[str, Any] = {
        "profile": name,
        "seed": seed,
        "elastic": elastic,
        "fault_rate": fault_rate,
        "schedule_digest": result.schedule_digest,
        "offered": result.offered,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "shed": result.shed,
        "served_ok": result.served_ok,
        "served_failed": result.served_failed,
        "goodput": round(result.goodput(BUDGET_NS), 9),
        "p99_latency_ms": round(result.p99_latency_ns() / 1e6, 4),
        "slo_alerts": alerts,
        "sheds_by_priority": dict(sorted(
            result.sheds_by_priority.items()
        )),
    }
    if nodes == 1:
        server = servers[0]
        stats = server.stats()
        out["send_backoff_retries"] = stats["send_backoff_retries"]
        out["pool_size"] = stats["pool_size"]
        if elastic:
            out["scale_ups"] = server.autoscaler.scale_ups
            out["scale_downs"] = server.autoscaler.scale_downs
            out["burning_cells"] = server.autoscaler.monitor.burning_cells
            out["brownout_floor"] = server.brownout.floor
            out["scale_events"] = [
                event.to_dict() for event in server.autoscaler.events
            ]
    else:
        out["nodes"] = nodes
        out["per_node"] = {
            server.node_label: {
                "pool_size": server.stats()["pool_size"],
                "requests": len(server.events),
                "scale_ups": (
                    server.autoscaler.scale_ups
                    if server.autoscaler is not None else 0
                ),
                "shed": (
                    server.brownout.shed_requests
                    if server.brownout is not None else 0
                ),
            }
            for server in servers
        }
        if elastic:
            out["scale_ups"] = sum(
                node["scale_ups"] for node in out["per_node"].values()
            )
    front.shutdown()
    return out


def run_loadgen_benchmark(seed: int = SEED) -> Dict[str, Any]:
    """The full comparison: every profile, fixed vs elastic.

    Burst runs with :data:`FAULT_RATE` faults (the acceptance
    condition); diurnal runs clean (the zero-alert/zero-shed
    condition); flash runs clean as the onset-transient case.
    Everything is virtual-clock deterministic, so two invocations
    return byte-identical dictionaries.
    """
    burst_fixed = run_profile(
        "burst", seed=seed, elastic=False, fault_rate=FAULT_RATE
    )
    burst_elastic = run_profile(
        "burst", seed=seed, elastic=True, fault_rate=FAULT_RATE
    )
    diurnal_elastic = run_profile("diurnal", seed=seed, elastic=True)
    flash_fixed = run_profile("flash", seed=seed, elastic=False)
    flash_elastic = run_profile("flash", seed=seed, elastic=True)
    retention = (
        burst_elastic["goodput"] / burst_fixed["goodput"]
        if burst_fixed["goodput"] > 0 else float("inf")
    )
    flash_retention = (
        flash_elastic["goodput"] / flash_fixed["goodput"]
        if flash_fixed["goodput"] > 0 else float("inf")
    )
    return {
        "budget_ns": BUDGET_NS,
        "control_budget_ns": CONTROL_BUDGET_NS,
        "fault_rate": FAULT_RATE,
        "burst_goodput_retention": round(retention, 9),
        "flash_goodput_retention": round(flash_retention, 9),
        "runs": {
            "burst_fixed": burst_fixed,
            "burst_elastic": burst_elastic,
            "diurnal_elastic": diurnal_elastic,
            "flash_fixed": flash_fixed,
            "flash_elastic": flash_elastic,
        },
    }
