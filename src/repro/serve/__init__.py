"""``repro.serve`` — FreePart as a multi-tenant pipeline service.

The one-shot runtime (:mod:`repro.core.runtime`) spawns a fresh host and
agent set per run; this subsystem turns it into a serving layer that
amortizes those costs across many tenants and requests:

* :class:`~repro.serve.server.PipelineServer` — the service: shared
  per-API-type agent pools, bounded fair-share admission, batched RPC,
  per-tenant ObjectRef namespacing;
* :class:`~repro.serve.server.NaiveServer` — the one-runtime-per-request
  baseline the throughput benchmark compares against;
* :data:`~repro.serve.batching.PREV` — the pipeline-chaining sentinel
  ("the previous call's result") that batching resolves agent-locally;
* :mod:`~repro.serve.loadgen` — seeded open-loop traffic (diurnal /
  burst / flash profiles, Zipf tenant popularity, slow clients) and the
  one driver that replays it against a server or a cluster in virtual
  time;
* :mod:`~repro.serve.autoscale` — the SLO-burn-driven pool autoscaler
  and the brownout (priority-shedding) controller;
* :mod:`~repro.serve.loadbench` — the fixed-vs-elastic comparison the
  perf gate pins (``BENCH_loadgen.json``).
"""

from repro.core.gateway import ApiCall
from repro.serve.admission import AdmissionQueue
from repro.serve.autoscale import (
    AutoscaleConfig,
    BrownoutConfig,
    BrownoutController,
    BurnMonitor,
    PoolAutoscaler,
)
from repro.serve.batching import PREV, BatchGroup, BatchingStats, plan_batches
from repro.serve.gateway import ServeGateway
from repro.serve.loadgen import (
    PROFILE_NAMES,
    Arrival,
    ArrivalSchedule,
    LoadProfile,
    LoadgenResult,
    TenantPopulation,
    generate_schedule,
    profile_by_name,
    run_open_loop,
    run_open_loop_cluster,
)
from repro.serve.metrics import RequestTiming, ServingTimeline
from repro.serve.pool import AgentPool, PoolMember, PoolSet
from repro.serve.server import (
    NaiveServer,
    PipelineServer,
    ServeRequest,
    ServeResponse,
)
from repro.serve.tenancy import Tenant, TenantRegistry

__all__ = [
    "AdmissionQueue",
    "AgentPool",
    "ApiCall",
    "Arrival",
    "ArrivalSchedule",
    "AutoscaleConfig",
    "BatchGroup",
    "BatchingStats",
    "BrownoutConfig",
    "BrownoutController",
    "BurnMonitor",
    "LoadProfile",
    "LoadgenResult",
    "NaiveServer",
    "PREV",
    "PROFILE_NAMES",
    "PipelineServer",
    "PoolAutoscaler",
    "PoolMember",
    "PoolSet",
    "RequestTiming",
    "ServeGateway",
    "ServeRequest",
    "ServeResponse",
    "ServingTimeline",
    "Tenant",
    "TenantPopulation",
    "TenantRegistry",
    "generate_schedule",
    "plan_batches",
    "profile_by_name",
    "run_open_loop",
    "run_open_loop_cluster",
]
