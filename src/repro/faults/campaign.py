"""Seeded chaos campaigns: run a target many times under injected faults.

One campaign runs N *schedules* of one target (an evaluation app, a CVE
replay, or the multi-tenant serving workload).  Schedule ``i`` derives
its own seed from the campaign seed, builds a
:class:`~repro.faults.plan.FaultPlan`, arms it on a fresh machine, runs
the target, and checks four invariants against a fault-free baseline run
of the same target:

``output``
    Everything the faulted run wrote under ``/out`` is byte-identical to
    the baseline's file of the same path, and a run that *claims*
    success produced exactly the baseline's outputs.  Partial output is
    only acceptable on a clean failure — whole-run, or item-level losses
    the run itself accounted for (crashes survived, failed responses).
    An open-loop baseline sheds load, so a faulted run may write a file
    the baseline lacks — only where the baseline lost that request and
    only with the baseline's output for an identical input.
``frozen``
    No write onto a frozen (temporal read-only) page ever completed —
    fault injection must not weaken the paper's protection.
``refs``
    No tenant-namespaced ObjectRef survived the restart of the address
    space that minted it (serving target only; vacuous elsewhere).
``observed``
    Every injected fault appears as an ``obs`` trace instant (category
    ``"fault"``) carrying its fault id — chaos runs are fully auditable.

Everything — fault draws, virtual timing, outputs — is a pure function
of (target, seed, rates), so a campaign report's digest is byte-stable
across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRates

#: Spreads schedule seeds far apart so adjacent campaigns don't overlap.
SCHEDULE_SEED_STRIDE = 1_000_003

#: Recovery knobs every chaos run enables (the hardened configuration
#: under test): crash-retries per dispatch and a per-agent restart
#: budget that restart storms can exhaust without wedging the run.
CHAOS_RPC_RETRIES = 2
CHAOS_MAX_RESTARTS = 8


@dataclass(frozen=True)
class ChaosSettings:
    """Everything that determines a campaign (and hence its digest)."""

    target: str
    seed: int = 0
    campaign: int = 20
    fault_rate: float = 0.02
    items: int = 2
    image_size: int = 16
    #: Cluster width for the ``cluster`` target (single-kernel targets
    #: ignore it; they have exactly one machine).
    nodes: int = 1
    #: Load profile for the ``loadgen`` target (diurnal | burst |
    #: flash); other targets ignore it.
    profile: str = "burst"

    def schedule_seed(self, index: int) -> int:
        """The derived seed of schedule ``index``."""
        return self.seed * SCHEDULE_SEED_STRIDE + index


@dataclass
class RunOutcome:
    """What one run of the target (baseline or faulted) produced."""

    ok: bool
    failed_clean: bool
    error: str
    outputs: Dict[str, str]
    frozen_writes: int
    stale_refs: int
    fault_ids: Tuple[int, ...]
    observed_fault_ids: Tuple[int, ...]
    injected_by_kind: Dict[str, int]
    decisions: int
    virtual_ns: int
    restarts: int
    retries: int
    #: Cleanly absorbed losses (items skipped after a survived crash,
    #: failed/degraded serve responses).  Missing outputs are only
    #: acceptable when the run accounted for the loss here or failed.
    losses_accounted: int = 0
    #: Per-request :class:`~repro.obs.slo.RequestEvent`s (serving
    #: targets only; empty elsewhere).  Sorted, so SLO evaluation over
    #: them is deterministic.  NOT part of the digest — ScheduleResult
    #: carries only aggregates.
    request_events: Tuple = ()
    #: Autoscaler decisions (``loadgen`` target only; 0 elsewhere).
    scale_ups: int = 0
    #: Brownout refusals (``loadgen`` target only; 0 elsewhere).
    shed_requests: int = 0
    #: ``loadgen`` target only (empty elsewhere): the schedule's output
    #: paths the run never wrote (every ok answer writes its output, so
    #: these are its shed, rejected and failed requests) and, per output
    #: path, the digest of that request's input.  A faulted run may
    #: serve a request its baseline lost.
    lost_outputs: FrozenSet[str] = frozenset()
    input_digests: Dict[str, str] = field(default_factory=dict)


@dataclass
class ScheduleResult:
    """One faulted schedule's verdict."""

    index: int
    seed: int
    ok: bool
    failed_clean: bool
    error: str
    injected: Dict[str, int]
    decisions: int
    invariants: Dict[str, bool]
    virtual_ns: int
    restarts: int
    scale_ups: int = 0
    shed_requests: int = 0

    @property
    def passed(self) -> bool:
        """All four invariants held."""
        return all(self.invariants.values())

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON view (digest input)."""
        return {
            "index": self.index,
            "seed": self.seed,
            "ok": self.ok,
            "failed_clean": self.failed_clean,
            "error": self.error,
            "injected": dict(sorted(self.injected.items())),
            "decisions": self.decisions,
            "invariants": dict(sorted(self.invariants.items())),
            "passed": self.passed,
            "virtual_ns": self.virtual_ns,
            "restarts": self.restarts,
            "scale_ups": self.scale_ups,
            "shed_requests": self.shed_requests,
        }


@dataclass
class CampaignReport:
    """The full campaign: settings, baseline fingerprint, N schedules."""

    settings: ChaosSettings
    baseline_outputs: Dict[str, str]
    schedules: List[ScheduleResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every schedule's every invariant held."""
        return all(schedule.passed for schedule in self.schedules)

    @property
    def faults_injected(self) -> int:
        return sum(
            sum(schedule.injected.values()) for schedule in self.schedules
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON view; json.dumps(sort_keys=True) is the digest
        input, so every field here must be deterministic."""
        return {
            "target": self.settings.target,
            "seed": self.settings.seed,
            "campaign": self.settings.campaign,
            "fault_rate": self.settings.fault_rate,
            "items": self.settings.items,
            "image_size": self.settings.image_size,
            "nodes": self.settings.nodes,
            "profile": self.settings.profile,
            "baseline_outputs": dict(sorted(self.baseline_outputs.items())),
            "schedules": [s.to_dict() for s in self.schedules],
            "passed": self.passed,
            "faults_injected": self.faults_injected,
        }

    def digest(self) -> str:
        """Byte-stable fingerprint of the whole campaign."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Output fingerprinting
# ----------------------------------------------------------------------


def _payload_digest(payload: Any) -> str:
    """Content digest of one simulated file's payload."""
    import numpy as np

    hasher = hashlib.sha256()
    if isinstance(payload, np.ndarray):
        hasher.update(str(payload.shape).encode())
        hasher.update(str(payload.dtype).encode())
        hasher.update(payload.tobytes())
    elif isinstance(payload, bytes):
        hasher.update(payload)
    else:
        data = getattr(payload, "data", None)
        if isinstance(data, np.ndarray):
            return _payload_digest(data)
        hasher.update(repr(payload).encode())
    return hasher.hexdigest()


def fingerprint_outputs(kernel, prefix: str = "/out") -> Dict[str, str]:
    """path -> content digest for every file the run wrote under /out."""
    outputs: Dict[str, str] = {}
    for path in sorted(kernel.fs.listdir(prefix)):
        outputs[path] = _payload_digest(kernel.fs.read_file(path))
    return outputs


def _observed_fault_ids(tracer) -> Tuple[int, ...]:
    """fault_ids of every ``fault`` obs instant the run emitted."""
    ids = []
    for span in tracer.closed_spans():
        if span.category == "fault":
            fault_id = span.attrs.get("fault_id")
            if fault_id is not None:
                ids.append(int(fault_id))
    return tuple(sorted(ids))


def _frozen_writes(kernel) -> int:
    """Completed writes onto frozen pages, machine-wide (must be 0)."""
    return sum(
        process.memory.frozen_write_granted
        for process in kernel.processes()
    )


# ----------------------------------------------------------------------
# Target runners
# ----------------------------------------------------------------------


def _chaos_config(annotations: Tuple[Any, ...] = ()):
    from repro.core.runtime import FreePartConfig

    return FreePartConfig(
        trace=True,
        annotations=annotations,
        rpc_retries=CHAOS_RPC_RETRIES,
        max_restarts_per_agent=CHAOS_MAX_RESTARTS,
    )


def _make_kernel(plan: Optional[FaultPlan]):
    from repro.sim.kernel import SimKernel

    kernel = SimKernel()
    kernel.enable_tracing()
    if plan is not None:
        kernel.inject_faults(FaultInjector(plan))
    return kernel


def _outcome(
    kernels,
    plan: Optional[FaultPlan],
    ok: bool,
    failed_clean: bool,
    error: str,
    outputs: Dict[str, str],
    stale_refs: int = 0,
    retries: int = 0,
    **facts: Any,
) -> RunOutcome:
    """Fold a run over its machines (one, or every node of a cluster).

    ``facts`` fills :class:`RunOutcome`'s optional fields.
    """
    injected = [
        fault for kernel in kernels for fault in kernel.faults.injected
    ]
    by_kind = Counter(fault.kind.value for fault in injected)
    return RunOutcome(
        ok=ok,
        failed_clean=failed_clean,
        error=error,
        outputs=outputs,
        frozen_writes=sum(_frozen_writes(kernel) for kernel in kernels),
        stale_refs=stale_refs,
        fault_ids=tuple(sorted(fault.fault_id for fault in injected)),
        observed_fault_ids=tuple(sorted(
            fault_id for kernel in kernels
            for fault_id in _observed_fault_ids(kernel.tracer)
        )),
        injected_by_kind=dict(sorted(by_kind.items())),
        decisions=plan.decisions if plan is not None else 0,
        virtual_ns=max(kernel.clock.now_ns for kernel in kernels),
        restarts=sum(kernel.restarted_processes for kernel in kernels),
        retries=retries,
        **facts,
    )


def _run_app(target: str, settings: ChaosSettings,
             plan: Optional[FaultPlan]) -> RunOutcome:
    """One run of an evaluation application (faulted when plan given)."""
    from repro.apps.base import Workload, execute_app
    from repro.attacks.scenarios import build_gateway

    if target in ("drone", "drone-tracker"):
        from repro.apps.drone import DroneApp

        app = DroneApp()
    else:
        from repro.apps.suite import make_app

        app = make_app(int(target))
    kernel = _make_kernel(plan)
    config = _chaos_config(annotations=tuple(app.annotations))
    gateway = build_gateway("freepart", kernel, app=app, config=config)
    workload = Workload(items=settings.items, image_size=settings.image_size)
    report = execute_app(app, gateway, workload)
    return _outcome(
        [kernel], plan,
        ok=not report.failed,
        failed_clean=report.failed,
        error=report.error,
        outputs=fingerprint_outputs(kernel),
        retries=gateway.retransmits,
        losses_accounted=(
            report.result.crashes_survived if report.result else 0
        ),
    )


def _run_cve(target: str, settings: ChaosSettings,
             plan: Optional[FaultPlan]) -> RunOutcome:
    """One protected CVE replay (the attack must stay prevented)."""
    from repro.attacks.scenarios import run_attack

    kernel = _make_kernel(plan)
    config = _chaos_config()
    try:
        result = run_attack(
            target, technique="freepart", kernel=kernel, config=config
        )
    except ReproError as exc:
        # Recovery machinery gave up (restart budget, retransmit cap):
        # the experiment aborted cleanly before the verdict.
        return _outcome(
            [kernel], plan,
            ok=False, failed_clean=True,
            error=f"{type(exc).__name__}: {exc}",
            outputs=fingerprint_outputs(kernel),
        )
    outputs = fingerprint_outputs(kernel)
    # The attacker-goal booleans are part of the "output": a fault must
    # never flip one of them to True.
    for goal in ("data_corrupted", "data_exfiltrated",
                 "host_crashed", "code_rewritten"):
        outputs[f"goal:{goal}"] = str(getattr(result, goal))
    return _outcome(
        [kernel], plan,
        ok=result.delivered,
        failed_clean=not result.delivered,
        error="" if result.delivered else "exploit aborted before arming",
        outputs=outputs,
        # CVE apps absorb crashes per item (crashes_survived); a crash
        # observed during the replay accounts for missing output files.
        losses_accounted=result.agent_crashes,
    )


def _serving_outcome(front, plan: Optional[FaultPlan],
                     **facts: Any) -> RunOutcome:
    """Fold every node behind a serving front door, then shut it down.

    Outputs, frozen-write counts, stale refs, observed fault ids and
    request events aggregate over all nodes (one for a single server).
    """
    servers = front.nodes()
    outputs: Dict[str, str] = {}
    for server in servers:
        outputs.update(fingerprint_outputs(server.kernel))
    outcome = _outcome(
        [server.kernel for server in servers], plan, outputs=outputs,
        stale_refs=sum(
            len(server.registry.stale_keys(server.kernel.processes()))
            for server in servers
        ),
        request_events=tuple(sorted(
            event for server in servers for event in server.events
        )),
        **facts,
    )
    front.shutdown()
    return outcome


def _drained_outcome(front, plan: Optional[FaultPlan]) -> RunOutcome:
    """Serve everything queued on a closed-loop target and fold the run."""
    responses = front.drain()
    failed = [r for r in responses if not r.ok]
    return _serving_outcome(
        front, plan,
        ok=not failed,
        failed_clean=bool(failed),
        error=failed[0].error if failed else "",
        retries=sum(r.retries for r in responses),
        losses_accounted=len(failed),
    )


def _run_serve(settings: ChaosSettings,
               plan: Optional[FaultPlan]) -> RunOutcome:
    """One multi-tenant serving workload (2 tenants x items requests)."""
    from repro.serve.bench import load_requests
    from repro.serve.server import PipelineServer

    server = PipelineServer(
        kernel=_make_kernel(plan),
        config=_chaos_config(),
        pool_size=2,
        batching=True,
        max_retries=CHAOS_RPC_RETRIES,
    )
    load_requests(server, 2, settings.items, settings.image_size)
    return _drained_outcome(server, plan)


def _run_loadgen(settings: ChaosSettings,
                 plan: Optional[FaultPlan]) -> RunOutcome:
    """One open-loop load-profile replay with the elastic controllers.

    The canonical schedule of ``settings.profile`` (same for every
    schedule in the campaign — only the fault plan varies) drives a
    server with the autoscaler and brownout controller armed.  Brownout
    sheds, admission rejections and failed responses are accounted
    losses: the chaos output invariant tolerates their missing files,
    and a file the baseline lost only when it equals the baseline's
    output for an identical input.
    """
    from repro.serve.loadbench import (
        CONTROL_BUDGET_NS, canonical_schedule, elastic_config,
    )
    from repro.serve.autoscale import control_slo
    from repro.serve.loadgen import arrival_paths, run_open_loop
    from repro.serve.server import PipelineServer

    kernel = _make_kernel(plan)
    server = PipelineServer(
        kernel=kernel,
        config=_chaos_config(),
        pool_size=2,
        batching=True,
        queue_capacity=512,
        max_retries=CHAOS_RPC_RETRIES,
    )
    server.enable_autoscale(
        elastic_config(), spec=control_slo(CONTROL_BUDGET_NS)
    )
    server.enable_brownout()
    schedule = canonical_schedule(settings.profile, seed=settings.seed)
    result = run_open_loop(server, schedule)
    input_digests: Dict[str, str] = {}
    for sequence, arrival in enumerate(schedule.arrivals, start=1):
        path, out = arrival_paths(sequence, arrival)
        input_digests[out] = _payload_digest(kernel.fs.read_file(path))
    return _serving_outcome(
        server, plan,
        ok=result.served_failed == 0,
        failed_clean=result.served_failed > 0,
        error=(
            f"{result.served_failed} of {result.offered} requests failed"
            if result.served_failed else ""
        ),
        retries=sum(r.retries for r in server.responses),
        losses_accounted=(
            result.served_failed + result.shed + result.rejected
        ),
        lost_outputs=frozenset(
            out for out in input_digests if not kernel.fs.exists(out)
        ),
        input_digests=input_digests,
        scale_ups=server.autoscaler.scale_ups,
        shed_requests=result.shed,
    )


def _run_cluster(settings: ChaosSettings,
                 plan: Optional[FaultPlan]) -> RunOutcome:
    """One sharded multi-node serving workload under node failures.

    Arms the plan across every node (shared RNG, shared fault-id
    counter), so besides the single-machine faults the drain loop's
    node-failure hook can take whole nodes down; the server re-places
    the dead node's shards and requests on the survivors.
    """
    from repro.cluster.bench import load_sharded_requests
    from repro.cluster.kernel import ClusterKernel
    from repro.cluster.serve import ClusterServer

    nodes = max(settings.nodes, 2)
    cluster = ClusterKernel(nodes=nodes)
    cluster.enable_tracing()
    if plan is not None:
        cluster.inject_faults(plan)
    server = ClusterServer(
        cluster=cluster,
        config=_chaos_config(),
        pool_size=2,
        batching=True,
        max_retries=CHAOS_RPC_RETRIES,
    )
    load_sharded_requests(
        server, 2 * nodes, settings.items, settings.image_size
    )
    return _drained_outcome(server, plan)


def run_target(target: str, settings: ChaosSettings,
               plan: Optional[FaultPlan]) -> RunOutcome:
    """Dispatch one run of the campaign's target."""
    if target == "serve-bench":
        return _run_serve(settings, plan)
    if target == "loadgen":
        return _run_loadgen(settings, plan)
    if target == "cluster":
        return _run_cluster(settings, plan)
    if target.upper().startswith("CVE-"):
        return _run_cve(target, settings, plan)
    if target.isdigit() or target in ("drone", "drone-tracker"):
        return _run_app(target, settings, plan)
    raise ValueError(
        f"unknown chaos target {target!r} (expected a sample id, 'drone', "
        "'serve-bench', 'loadgen', 'cluster', or a CVE id)"
    )


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------


def _output_ok(baseline: RunOutcome, faulted: RunOutcome, path: str,
               digest: str) -> bool:
    """Whether one faulted output file agrees with the baseline.

    A file the baseline also wrote must be byte-identical.  A file the
    baseline lacks is only acceptable where the baseline lost that very
    request (shed, rejected or failed it) and the file equals what the
    baseline wrote for an identical input.
    """
    if path in baseline.outputs:
        return baseline.outputs[path] == digest
    source = faulted.input_digests.get(path)
    return path in baseline.lost_outputs and any(
        baseline.outputs.get(other) == digest
        for other, other_source in baseline.input_digests.items()
        if other_source == source
    )


def check_invariants(baseline: RunOutcome,
                     faulted: RunOutcome) -> Dict[str, bool]:
    """The four chaos invariants for one schedule."""
    subset_ok = all(
        _output_ok(baseline, faulted, path, digest)
        for path, digest in faulted.outputs.items()
    )
    return {
        # 1. Output equals the fault-free output, or the run failed
        #    cleanly having written nothing that disagrees with it.
        #    "Failed cleanly" includes item-level losses the run itself
        #    accounted for (crashes survived, failed responses): those
        #    may leave output files missing, never different.
        "output": subset_ok and (
            faulted.outputs == baseline.outputs
            or faulted.failed_clean
            or faulted.losses_accounted > 0
        ),
        # 2. No frozen-page write ever completed.
        "frozen": faulted.frozen_writes == 0,
        # 3. No tenant ref survived the restart of its minting process.
        "refs": faulted.stale_refs == 0,
        # 4. Every injected fault was emitted as an obs instant.
        "observed": faulted.observed_fault_ids == faulted.fault_ids,
    }


def run_campaign(settings: ChaosSettings) -> CampaignReport:
    """Run the baseline plus ``settings.campaign`` faulted schedules."""
    rates = FaultRates.scaled(settings.fault_rate)
    baseline = run_target(settings.target, settings, plan=None)
    if not baseline.ok:
        raise ReproError(
            f"chaos baseline for {settings.target!r} failed fault-free: "
            f"{baseline.error}"
        )
    report = CampaignReport(
        settings=settings, baseline_outputs=baseline.outputs
    )
    for index in range(settings.campaign):
        seed = settings.schedule_seed(index)
        plan = FaultPlan(seed, rates)
        faulted = run_target(settings.target, settings, plan)
        report.schedules.append(ScheduleResult(
            index=index,
            seed=seed,
            ok=faulted.ok,
            failed_clean=faulted.failed_clean,
            error=faulted.error,
            injected=faulted.injected_by_kind,
            decisions=faulted.decisions,
            invariants=check_invariants(baseline, faulted),
            virtual_ns=faulted.virtual_ns,
            restarts=faulted.restarts,
            scale_ups=faulted.scale_ups,
            shed_requests=faulted.shed_requests,
        ))
    return report
