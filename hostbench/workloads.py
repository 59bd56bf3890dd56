"""The benchmark's workloads, and one pass of each.

An *episode* builds one instance of a workload from a seed and drives it
to the end through the program's public API.  A *pass* runs a few
episodes back to back, checks their outputs and measures them; the
benchmark runs every pass in a fresh single-threaded child process
(``python -m hostbench.workloads '<json>'``), so set-up time and peak
memory are the pass's own.  Tests call :func:`run_pass` in-process on
the shrunken :data:`SMALL` specs, through the same code.

Episode ``j`` of a run (counting over its passes) uses seed
``seed + 1000 * j``, so the first episode of ``--seed 42`` is the seed-42
instance itself, and every run averages over many independent inputs.

An *op* is one offered arrival on the serving workloads: its host time
is the gap between the driver's consecutive ``submit`` calls.  On
``oneshot_suite`` an op is one framework API call, timed as the
outermost ``FreePartGateway.call`` or ``NativeGateway.call``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from hostbench.clock import OpClock
from hostbench.layers import LayerTrace, Patches

#: Tenant population of every serving workload: flat and wide, so lane
#: backlog rather than one tenant's fair share dominates latency.
TENANTS = 60
ZIPF_ALPHA = 0.5
POOL_SIZE = 2
MAX_POOL = 8
QUEUE_CAPACITY = 512
#: Seed stride between consecutive episodes of one run.
SEED_STRIDE = 1000
#: Event counts every pass tallies from the simulated machines.
COUNTS = (
    "serve.retries", "serve.degraded", "serve.shed",
    "serve.autoscale.scale_ups", "serve.autoscale.scale_downs",
    "serve.pool.restarts", "faults.injected", "cluster.node_failures",
    "cluster.resubmissions", "cluster.inter_node_bytes",
    "obs.events_retained", "sim.write_denials", "sim.ipc.messages",
    "sim.ipc.copy_bytes",
)


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop serving workload on one node or a cluster."""

    profile: str
    base_rps: float
    #: The schedule is cut to its first ``arrivals``, so every seed
    #: offers the same number of ops; ``duration_s`` only has to be long
    #: enough to generate them.
    arrivals: int
    duration_s: float
    episodes: int = 1
    fault_rate: float = 0.0
    #: Restart budget per pooled agent.  Pinned high: with a small
    #: budget an exhausted pool raises out of the driver (see README).
    max_restarts: Optional[int] = None
    nodes: int = 1
    #: Cluster only: kill node 1 at this node-failure consult (0 = never).
    fail_after: int = 0


@dataclass(frozen=True)
class SuiteSpec:
    """The Table 6 apps, each run natively and under FreePart."""

    sample_ids: Tuple[int, ...]
    items: int
    image_size: int
    episodes: int = 1


Spec = Union[ServeSpec, SuiteSpec]

_ALL_APPS = tuple(range(1, 24))

#: Diurnal at 300 rps never burns the control budget, so the pool stays
#: at 2 and the freeze-scan work is the same for every seed; its 1000
#: arrivals let per-op cost grow along the run.  Faults, storms and node
#: imbalance make the other serving workloads' host cost vary 10-30%
#: between seeds, so they run shorter episodes, several per pass.
WORKLOADS: Dict[str, Spec] = {
    "serve_diurnal": ServeSpec(
        "diurnal", base_rps=300.0, arrivals=1000, duration_s=4.0),
    "serve_burst_faults": ServeSpec(
        "burst", base_rps=300.0, arrivals=600, duration_s=1.0, episodes=8,
        fault_rate=0.01, max_restarts=1000),
    "cluster_failover": ServeSpec(
        "diurnal", base_rps=1000.0, arrivals=600, duration_s=0.9,
        episodes=2, nodes=4, fail_after=500),
    "oneshot_suite": SuiteSpec(_ALL_APPS, items=4, image_size=16),
}

#: The same workloads shrunk to a fraction of a second each (tests).
SMALL: Dict[str, Spec] = {
    "serve_diurnal": ServeSpec(
        "diurnal", base_rps=300.0, arrivals=40, duration_s=0.3),
    "serve_burst_faults": ServeSpec(
        "burst", base_rps=300.0, arrivals=60, duration_s=0.3, episodes=2,
        fault_rate=0.05, max_restarts=1000),
    "cluster_failover": ServeSpec(
        "diurnal", base_rps=1000.0, arrivals=80, duration_s=0.2,
        nodes=4, fail_after=20),
    "oneshot_suite": SuiteSpec((4, 8), items=1, image_size=8),
}

WORKLOAD_NAMES: Tuple[str, ...] = tuple(WORKLOADS)


def episode_seeds(seed: int, pass_index: int, episodes: int) -> List[int]:
    """Seeds of one pass's episodes: episode ``j`` of the run gets
    ``seed + SEED_STRIDE * j``."""
    first = pass_index * episodes
    return [seed + SEED_STRIDE * j for j in range(first, first + episodes)]


# ----------------------------------------------------------------------
# Inputs and construction
# ----------------------------------------------------------------------


def make_schedule(spec: ServeSpec, seed: int):
    """The seed's arrival schedule, cut to ``spec.arrivals``."""
    from repro.serve.loadbench import canonical_profile
    from repro.serve.loadgen import ArrivalSchedule, generate_schedule

    profile = canonical_profile(
        spec.profile, base_rps=spec.base_rps,
        duration_ns=int(spec.duration_s * 1e9),
    )
    full = generate_schedule(
        profile, seed=seed, tenants=TENANTS, zipf_alpha=ZIPF_ALPHA
    )
    if len(full.arrivals) < spec.arrivals:
        raise ValueError(
            f"{spec.profile} at {spec.base_rps} rps for {spec.duration_s} s "
            f"gave {len(full.arrivals)} arrivals, fewer than {spec.arrivals}"
        )
    return ArrivalSchedule(
        profile=full.profile, seed=seed,
        arrivals=full.arrivals[:spec.arrivals],
    )


def _config(spec: ServeSpec):
    from repro.core.runtime import FreePartConfig

    if spec.fault_rate > 0:
        return FreePartConfig(
            rpc_retries=2, max_restarts_per_agent=spec.max_restarts
        )
    return FreePartConfig()


def _elastic(server) -> None:
    """Arm the pool 2->8 autoscaler and the brownout tier."""
    from repro.serve.autoscale import control_slo
    from repro.serve.loadbench import (
        BUDGET_NS, CONTROL_BUDGET_NS, elastic_config,
    )

    server.enable_autoscale(
        elastic_config(POOL_SIZE, MAX_POOL),
        spec=control_slo(CONTROL_BUDGET_NS),
    )
    server.enable_brownout(spec=control_slo(BUDGET_NS))


def build_serving(spec: ServeSpec, seed: int):
    """-> (front door, node servers, driver function, cluster or None)."""
    from repro.serve.loadgen import run_open_loop, run_open_loop_cluster

    server_args = dict(
        config=_config(spec), pool_size=POOL_SIZE, batching=True,
        queue_capacity=QUEUE_CAPACITY,
        max_retries=2 if spec.fault_rate > 0 else 1,
    )
    if spec.nodes == 1:
        from repro.serve.server import PipelineServer
        from repro.sim.kernel import SimKernel

        kernel = SimKernel()
        if spec.fault_rate > 0:
            from repro.faults.injector import FaultInjector
            from repro.faults.plan import FaultPlan, FaultRates

            kernel.inject_faults(FaultInjector(
                FaultPlan(seed, FaultRates.scaled(spec.fault_rate))
            ))
        server = PipelineServer(kernel=kernel, **server_args)
        _elastic(server)
        return server, [server], run_open_loop, None

    from repro.cluster.bench import SingleNodeFailurePlan
    from repro.cluster.kernel import ClusterKernel
    from repro.cluster.serve import ClusterServer

    cluster = ClusterKernel(nodes=spec.nodes)
    if spec.fail_after:
        cluster.inject_faults(
            SingleNodeFailurePlan(victim=1, after=spec.fail_after)
        )
    front = ClusterServer(cluster=cluster, **server_args)
    nodes = [front.servers[index] for index in sorted(front.servers)]
    for node in nodes:
        _elastic(node)
    return front, nodes, run_open_loop_cluster, cluster


# ----------------------------------------------------------------------
# Episodes
# ----------------------------------------------------------------------


def _p(values: List[float], fraction: float) -> float:
    from repro.serve.metrics import percentile

    return percentile(sorted(values), fraction)


@dataclass
class Totals:
    """What the episodes of one pass add up to."""

    offered: int = 0
    unanswered: int = 0
    aborted: Optional[str] = None
    checks: List[str] = field(default_factory=list)
    ok: int = 0
    good: int = 0
    ok_latencies_ns: List[int] = field(default_factory=list)
    waits_ns: List[int] = field(default_factory=list)
    lags_ns: List[int] = field(default_factory=list)
    runs: int = 0
    ok_runs: int = 0
    native_s: float = 0.0
    freepart_s: float = 0.0
    cache_hits: int = 0
    cache_lookups: int = 0
    counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTS, 0))
    max_live_buffers: int = 0

    def add_kernels(self, kernels) -> None:
        """Fold in the simulated machines' own counters."""
        for kernel in kernels:
            for process in kernel.processes():
                self.counts["sim.write_denials"] += \
                    process.memory.write_denials
                if process.role == "agent" and process.alive:
                    self.max_live_buffers = max(
                        self.max_live_buffers,
                        len(list(process.memory.buffers())),
                    )
            self.counts["sim.ipc.messages"] += kernel.ipc.messages
            self.counts["sim.ipc.copy_bytes"] += kernel.ipc.total_copy_bytes
            self.counts["obs.events_retained"] += kernel.series.points

    def virtual(self) -> Dict[str, Any]:
        """The pass's virtual metrics and counts; they repeat exactly."""
        offered = self.offered or 1
        return {
            "failed_frac": (
                1.0 - self.ok_runs / self.runs if self.runs
                else 1.0 - self.ok / offered
            ),
            "goodput": self.good / offered if not self.runs else 0.0,
            "virt_p99_ms": _p(self.ok_latencies_ns, 0.99) / 1e6,
            "virt_overhead_ratio":
                self.freepart_s / self.native_s if self.native_s else 0.0,
            "serve.lane_wait_virt_p99_ms": _p(self.waits_ns, 0.99) / 1e6,
            "serve.driver_lag_virt_p99_ms": _p(self.lags_ns, 0.99) / 1e6,
            "core.dispatch_cache.hit_rate": (
                self.cache_hits / self.cache_lookups
                if self.cache_lookups else 0.0
            ),
            "sim.live_buffers.max_per_agent": self.max_live_buffers,
            **self.counts,
        }


def _output_path(calls) -> Optional[str]:
    for call in calls:
        if call.name == "imwrite":
            return call.args[0]
    return None


def _serve_episode(spec: ServeSpec, seed: int, clock: OpClock,
                   totals: Totals) -> None:
    from repro.obs import slo
    from repro.serve.loadbench import BUDGET_NS
    from repro.serve.server import PipelineServer

    schedule = make_schedule(spec, seed)
    front, nodes, driver, cluster = build_serving(spec, seed)
    due = [arrival.at_ns for arrival in schedule.arrivals]
    first_op = len(clock.starts)
    outputs: Dict[Tuple[int, int], Optional[str]] = {}
    driver_code = driver.__code__

    def record_outputs(submit):
        def wrapper(self, tenant_id, calls, *args, **kwargs):
            request = submit(self, tenant_id, calls, *args, **kwargs)
            outputs[(id(self), request.request_id)] = _output_path(calls)
            return request
        return wrapper

    def mark_ops(submit):
        def wrapper(self, *args, **kwargs):
            if sys._getframe(1).f_code is not driver_code:
                return submit(self, *args, **kwargs)  # a resubmission
            clock.begin()
            request = submit(self, *args, **kwargs)
            # The queue stamps the node clock at admission; the driver
            # rewinds it to the due time only after submit returns.
            totals.lags_ns.append(
                request.enqueued_at_ns - due[len(clock.starts) - 1 - first_op]
            )
            return request
        return wrapper

    hooks = Patches()
    hooks.wrap(PipelineServer, "submit", record_outputs)
    hooks.wrap(type(front), "submit", mark_ops)
    result = None
    try:
        result = driver(front, schedule)
    except Exception as exc:  # the pass reports it as aborted
        totals.aborted = type(exc).__name__
    finally:
        clock.stop()
        hooks.restore()

    # Every serving run ends with its SLO report; outside the timed phase,
    # it shows in the trace as the obs layer's evaluation cost.
    events = sorted(event for node in nodes for event in node.events)
    slo.evaluate_slos(events)

    offered = len(schedule.arrivals)
    responses = [r for node in nodes for r in node.responses]
    refused = sum(
        node.queue.stats.rejected_capacity
        + node.queue.stats.rejected_tenant_budget + node.queue.stats.shed
        for node in nodes
    )
    if result is not None:
        answered = (result.served_ok + result.served_failed
                    + result.rejected + result.shed)
        if answered != offered:
            totals.checks.append(
                f"seed {seed}: offered {offered} != answered {answered}")
        if len(result.client_events) != offered:
            totals.checks.append(
                f"seed {seed}: {len(result.client_events)} client events "
                f"for {offered} arrivals")
    for node in nodes:
        for response in node.responses:
            path = outputs.get((id(node), response.request_id))
            written = path is not None and node.kernel.fs.exists(path)
            if response.ok and not written:
                totals.checks.append(
                    f"seed {seed}: ok response {response.request_id} on "
                    f"{node.node_label or 'node'} wrote no {path}")
    if cluster is not None:
        try:
            cluster.verify_accounting()
        except Exception as exc:  # AccountingError names the lane
            totals.checks.append(f"seed {seed}: cluster accounting: {exc}")

    totals.offered += offered
    totals.unanswered += max(0, offered - len(responses) - refused)
    totals.ok += sum(1 for r in responses if r.ok)
    ok_events = [e for e in events if e.ok]
    totals.good += sum(1 for e in ok_events if e.latency_ns <= BUDGET_NS)
    totals.ok_latencies_ns += [e.latency_ns for e in ok_events]
    totals.waits_ns += [t.wait_ns for node in nodes
                        for t in node.timeline.timings]
    counts = totals.counts
    counts["serve.retries"] += sum(r.retries for r in responses)
    counts["serve.degraded"] += sum(n.degraded_responses for n in nodes)
    counts["serve.shed"] += sum(n.queue.stats.shed for n in nodes)
    counts["serve.autoscale.scale_ups"] += sum(
        n.autoscaler.scale_ups for n in nodes)
    counts["serve.autoscale.scale_downs"] += sum(
        n.autoscaler.scale_downs for n in nodes)
    counts["serve.pool.restarts"] += sum(
        n.pools.total_restarts() for n in nodes)
    counts["faults.injected"] += sum(
        len(getattr(n.kernel.faults, "injected", ())) for n in nodes)
    counts["obs.events_retained"] += sum(len(n.events) for n in nodes)
    if cluster is not None:
        counts["cluster.node_failures"] += cluster.node_failures
        counts["cluster.resubmissions"] += front.resubmissions
        counts["cluster.inter_node_bytes"] += \
            cluster.accounting.inter_node_bytes
    totals.add_kernels(node.kernel for node in nodes)


def _suite_episode(spec: SuiteSpec, seed: int, clock: OpClock,
                   totals: Totals) -> None:
    from repro.apps.base import Workload, execute_app
    from repro.apps.suite import make_app
    from repro.attacks.scenarios import build_gateway
    from repro.core.gateway import NativeGateway
    from repro.core.runtime import FreePartGateway
    from repro.sim.kernel import SimKernel

    depth = [0]

    def mark_ops(call):
        def wrapper(self, *args, **kwargs):
            depth[0] += 1
            if depth[0] == 1:
                clock.begin()
            try:
                return call(self, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    clock.end()
        return wrapper

    hooks = Patches()
    hooks.wrap(FreePartGateway, "call", mark_ops)
    hooks.wrap(NativeGateway, "call", mark_ops)
    workload = Workload(items=spec.items, image_size=spec.image_size,
                        seed=seed)
    first_op = len(clock.starts)
    totals.runs += 2 * len(spec.sample_ids)
    reports: Dict[str, List[Any]] = {"none": [], "freepart": []}
    try:
        for sample_id in spec.sample_ids:
            for technique in ("none", "freepart"):
                app = make_app(sample_id)
                kernel = SimKernel()
                gateway = build_gateway(technique, kernel, app=app)
                report = execute_app(app, gateway, workload)
                reports[technique].append(report)
                if report.failed:
                    totals.checks.append(
                        f"seed {seed}: {report.app_name} under {technique} "
                        f"failed: {report.error}")
                stats = getattr(gateway, "dispatch_stats", None)
                if stats is not None:
                    totals.cache_hits += stats.hits
                    totals.cache_lookups += stats.hits + stats.misses
                totals.add_kernels([kernel])
                gateway.shutdown()
    except Exception as exc:  # the pass reports it as aborted
        # execute_app turns an app's own errors into failed runs, so an
        # escaping exception comes from set-up, between ops; the runs
        # it prevents count in failed_frac.
        totals.aborted = type(exc).__name__
    finally:
        clock.stop()
        hooks.restore()
    totals.offered += len(clock.starts) - first_op

    for native, freepart in zip(reports["none"], reports["freepart"]):
        ours, theirs = native.result, freepart.result
        if ours is None or theirs is None:
            continue  # already reported as a failed run
        if sorted(ours.outputs) != sorted(theirs.outputs) or \
                ours.items_processed != theirs.items_processed:
            totals.checks.append(
                f"seed {seed}: {native.app_name}: native and FreePart "
                "runs produced different outputs")
    done = reports["none"] + reports["freepart"]
    totals.ok_runs += sum(1 for report in done if not report.failed)
    totals.native_s += sum(r.virtual_seconds for r in reports["none"])
    totals.freepart_s += sum(r.virtual_seconds for r in reports["freepart"])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


def run_pass(name: str, seed: int, pass_index: int = 0, trace: bool = False,
             spec: Optional[Spec] = None,
             trace_path: Optional[str] = None,
             started_at: Optional[float] = None) -> Dict[str, Any]:
    """Build, drive, check and measure the episodes of one pass.

    ``started_at`` is the ``time.monotonic()`` reading taken just before
    this process was spawned, so set-up time includes interpreter start
    and imports; without it set-up is timed from this call.  Host times
    are at reference speed (:mod:`hostbench.clock`); the per-layer table
    is in raw host time.
    """
    started = time.perf_counter()
    if started_at is not None:
        started -= time.monotonic() - started_at
    spec = spec if spec is not None else WORKLOADS[name]
    layer_trace = LayerTrace() if trace else None
    clock = OpClock(layer_trace)
    clock.probe()
    totals = Totals()
    episode = _serve_episode if isinstance(spec, ServeSpec) else _suite_episode
    patches = Patches()
    try:
        if layer_trace is not None:
            layer_trace.install(patches)
        seeds = episode_seeds(seed, pass_index, spec.episodes)
        for number, episode_seed in enumerate(seeds):
            if number:
                # The last episode's servers sit in reference cycles
                # until a full collection; left to the collector's own
                # timing, that made a pass's peak memory jump between
                # two levels.
                gc.collect()
            episode(spec, episode_seed, clock, totals)
            if totals.aborted:
                break
    finally:
        patches.restore()
    op_ms = [d * 1e3 for d in clock.scaled_durations()]
    timed_s = clock.timed_ref_s()
    outcome: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "pass": pass_index,
        "traced": trace,
        "offered": totals.offered,
        "unanswered": totals.unanswered,
        "aborted": totals.aborted,
        "checks": totals.checks,
        "host": {
            "setup_s": clock.setup_ref_s(started),
            "timed_s": timed_s,
            "ops": len(op_ms),
            "ops_per_s": len(op_ms) / timed_s if timed_s else 0.0,
            "op_p50_ms": _p(op_ms, 0.50),
            "op_p99_ms": _p(op_ms, 0.99),
            "op_ms": op_ms,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "probe_ms": clock.probe_s() * 1e3,
        },
        "virtual": totals.virtual(),
    }
    if layer_trace is not None:
        outcome["layers"] = layer_trace.table(clock.timed_s())
        counts = layer_trace.counts
        scanned = counts["sim.freeze_scan.scanned"]
        transitions = counts["core.transitions"]
        outcome["virtual"].update({
            "core.transitions": transitions,
            "sim.freeze_scan.buffers_per_transition":
                scanned / transitions if transitions else 0.0,
            "sim.freeze_scan.frozen_ratio":
                counts["sim.freeze_scan.frozen"] / scanned if scanned else 0.0,
        })
        if trace_path is not None:
            layer_trace.write_chrome(
                trace_path, clock.starts[0] if clock.starts else 0.0
            )
        outcome["trace"] = layer_trace
    return outcome


def main(argv: List[str]) -> int:
    """Child entry: one JSON argument in, one JSON line out."""
    request = json.loads(argv[0])
    outcome = run_pass(
        request["workload"], request["seed"], request["pass"],
        trace=request["trace"], trace_path=request.get("trace_path"),
        started_at=request["started_at"],
    )
    outcome.pop("trace", None)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
