"""The pipeline server: FreePart as a multi-tenant service.

One :class:`PipelineServer` owns a simulated machine, runs the offline
analysis ONCE, stocks shared per-API-type agent pools ONCE, and then
serves pipeline requests from many tenants:

* requests enter through the :class:`~repro.serve.admission.AdmissionQueue`
  (bounded, per-tenant fair share, virtual-clock deadlines);
* a dispatched request leases one agent per API type from the pools,
  runs its call sequence through a tenant-scoped
  :class:`~repro.serve.gateway.ServeGateway` (batched IPC when enabled),
  and returns the lease;
* a served object lives while its tenant holds a handle to it: each
  dispatch first releases every object whose last handle died since the
  one before, in whichever pool member holds it;
* a crash costs one in-place restart and an at-least-once retry of the
  victim request — the pool, and every other tenant's work, is
  untouched.

:class:`NaiveServer` is the contrast baseline: the seed's
one-runtime-per-request model (fresh host + four fresh agents, torn down
after every request) behind the same interface, which is what the
serving-throughput benchmark measures the pools against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.gateway import ApiCall
from repro.core.rpc import ObjectRef
from repro.core.runtime import (
    FreePart,
    FreePartConfig,
    Route,
    SecurityEvent,
    resolve_route,
)
from repro.errors import (
    AgentUnavailable,
    BrownoutShed,
    CircuitOpen,
    FrameworkCrash,
    ReproError,
    RequestTimeout,
    TenantIsolationError,
)
from repro.frameworks.base import FrameworkAPI
from repro.frameworks.registry import get_api
from repro.obs.slo import RequestEvent
from repro.serve.admission import AdmissionQueue
from repro.serve.batching import BatchingStats
from repro.serve.breaker import CircuitBreaker
from repro.serve.gateway import ServeGateway, release_served
from repro.serve.metrics import ServingTimeline
from repro.serve.pool import PoolSet
from repro.serve.tenancy import Tenant, TenantRegistry
from repro.sim.kernel import SimKernel


@dataclass
class ServeRequest:
    """One tenant's pipeline: an ordered sequence of API calls."""

    request_id: int
    tenant_id: str
    calls: Tuple[ApiCall, ...]
    deadline_ns: Optional[int] = None
    enqueued_at_ns: int = 0
    timed_out: bool = False
    #: Tenant class: 0 = gold, 1 = silver, 2 = bronze.  The brownout
    #: controller sheds the highest numbers first.
    priority: int = 0


@dataclass
class ServeResponse:
    """The outcome of one served request."""

    request_id: int
    tenant_id: str
    ok: bool
    values: Optional[List[Any]] = None
    error: str = ""
    timed_out: bool = False
    retries: int = 0
    service_ns: int = 0
    latency_ns: int = 0
    #: True when the request was shed by an open circuit breaker: no
    #: agent touched it, no output was produced — degraded but correct.
    degraded: bool = False


class PipelineServer:
    """Shared-pool, admission-controlled, batching pipeline service."""

    def __init__(
        self,
        kernel: Optional[SimKernel] = None,
        config: Optional[FreePartConfig] = None,
        pool_size: int = 2,
        batching: bool = True,
        queue_capacity: int = 64,
        per_tenant_limit: Optional[int] = None,
        max_retries: int = 1,
        used_apis: Optional[Sequence[FrameworkAPI]] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else SimKernel()
        self.config = config if config is not None else FreePartConfig()
        self.batching = batching
        self.max_retries = max_retries
        # Offline phase, once for every future request.
        freepart = FreePart(kernel=self.kernel, config=self.config)
        self.categorization = freepart.analyze(used_apis)
        self.plan = freepart.build_plan(self.categorization)
        # Online substrate, spawned once and shared.
        self.pools = PoolSet(
            self.kernel, self.plan, self.categorization, self.config,
            size=pool_size,
        )
        self.queue = AdmissionQueue(
            self.kernel.clock,
            capacity=queue_capacity,
            per_tenant_limit=per_tenant_limit,
            series=self.kernel.series,
        )
        self.registry = TenantRegistry()
        #: The route memo every request's gateway dispatches through and
        #: the breaker labels come from: (framework, API name) -> route.
        #: The plan is fixed, so one resolution serves every request; an
        #: unknown name stays out, so traffic cannot grow it.
        self.routes: Dict[Tuple[str, str], Route] = {}
        #: Refs of the handles every request's gateway made that their
        #: tenants dropped since the last dispatch, in the order they
        #: died; each dispatch releases them first.
        self._released: List[ObjectRef] = []
        #: The ``node`` label stamped on this server's request events
        #: and time-series points; the cluster front door sets it to the
        #: owning node's name, single-machine servers leave it empty.
        self.node_label = ""
        #: Per-request SLO facts (one per dispatched request, queue
        #: timeouts included), the input stream for ``repro.obs.slo``
        #: evaluation, the control loops and run reports.
        self.events: List[RequestEvent] = []
        self.batch_stats = BatchingStats()
        self.timeline = ServingTimeline(lanes=pool_size)
        self.tenants: Dict[str, Tenant] = {}
        self._request_ids = itertools.count(1)
        #: Every response's outcome, without its values: the log must
        #: not keep a result alive once its tenant drops the handle.
        self.responses: List[ServeResponse] = []
        #: One circuit breaker per partition: a partition whose agents
        #: keep crashing is fenced off for a cooldown and its requests
        #: shed to degraded responses instead of thrashing the pool.
        self.breakers: Dict[str, CircuitBreaker] = {
            partition.label: CircuitBreaker(
                partition.label, self.kernel.clock
            )
            for partition in self.plan.partitions
        }
        self.degraded_responses = 0
        #: Optional control loops, attached via :meth:`enable_autoscale`
        #: / :meth:`enable_brownout` (None = the fixed-pool server every
        #: earlier PR built).
        self.autoscaler = None
        self.brownout = None
        #: Ordered scale decisions (mirrors ``autoscaler.events``).
        self.scale_events: List = []
        #: Transient-ChannelFull send retries absorbed across every
        #: request's gateway (overload made visible, not silent).
        self.send_backoff_retries = 0
        #: The security events every request's gateway recorded (agent
        #: crashes, forged replies), in order; each gateway is dropped
        #: with its request.
        self.security_events: List[SecurityEvent] = []

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------

    def register_tenant(self, tenant_id: str) -> Tenant:
        """Create (or fetch) a tenant and its persistent host process."""
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            host = self.kernel.spawn(
                f"tenant:{tenant_id}", role="host", charge=False
            )
            tenant = Tenant(tenant_id=tenant_id, host=host)
            self.tenants[tenant_id] = tenant
        return tenant

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------

    def submit(
        self,
        tenant_id: str,
        calls: Sequence[ApiCall],
        deadline_ns: Optional[int] = None,
        priority: int = 0,
    ) -> ServeRequest:
        """Admit a request (raises AdmissionRejected on backpressure).

        A brownout-shed request (``priority`` at or below the current
        floor) raises :class:`BrownoutShed` *before* taking a queue
        slot — the cheapest possible refusal.
        """
        if self.brownout is not None and self.brownout.sheds(priority):
            self.brownout.record_shed(priority)
            self.queue.stats.shed += 1
            labels = {"tenant": tenant_id}
            if self.node_label:
                labels["node"] = self.node_label
            self.kernel.series.observe(
                "admission.shed", labels, 1,
                t_ns=self.kernel.clock.now_ns,
            )
            raise BrownoutShed(
                f"brownout floor {self.brownout.floor}: priority "
                f"{priority} request from tenant {tenant_id!r} shed"
            )
        self.register_tenant(tenant_id)
        request = ServeRequest(
            request_id=next(self._request_ids),
            tenant_id=tenant_id,
            calls=tuple(calls),
            deadline_ns=deadline_ns,
            priority=priority,
        )
        self.queue.submit(request)  # stamps enqueued_at_ns
        return request

    # ------------------------------------------------------------------
    # Elastic capacity
    # ------------------------------------------------------------------

    def enable_autoscale(self, config=None, spec=None):
        """Attach a :class:`~repro.serve.autoscale.PoolAutoscaler`."""
        from repro.serve.autoscale import PoolAutoscaler

        self.autoscaler = PoolAutoscaler(self, config=config, spec=spec)
        self.scale_events = self.autoscaler.events
        return self.autoscaler

    def enable_brownout(self, config=None, spec=None):
        """Attach a :class:`~repro.serve.autoscale.BrownoutController`."""
        from repro.serve.autoscale import BrownoutController

        self.brownout = BrownoutController(config=config, spec=spec)
        return self.brownout

    def scale_to(
        self, size: int, reason: str = "", at_ns: Optional[int] = None
    ) -> int:
        """Resize the agent pools (and the latency model's lanes).

        Growing spawns fresh member sets — charging the virtual clock
        their full spawn cost — and adds timeline lanes that become free
        only at ``at_ns`` (the decision's own event time) *plus* that
        measured spawn cost: new capacity arrives late, like real
        capacity.  The decision time matters because the serial drive
        clock and the lane-replay timeline are different timebases;
        lanes must be stamped in timeline time or elastic capacity would
        land long after the overload it was bought for.  Shrinking
        retires idle member sets (never below one) and the idlest lanes.
        Returns the size actually reached.
        """
        size = max(1, size)
        before = self.pools.size
        spawn_started_ns = self.kernel.clock.now_ns
        if size > before:
            self.pools.grow(size - before)
        elif size < before:
            self.pools.shrink(before - size)
        actual = self.pools.size
        if actual != before:
            spawn_cost_ns = self.kernel.clock.now_ns - spawn_started_ns
            decided_ns = at_ns if at_ns is not None else spawn_started_ns
            lane_at_ns = decided_ns + spawn_cost_ns
            self.timeline.set_lanes(actual, at_ns=lane_at_ns)
            labels = {"node": self.node_label} if self.node_label else {}
            self.kernel.series.observe(
                "autoscale.pool_size", labels, actual, t_ns=lane_at_ns
            )
        return actual

    # ------------------------------------------------------------------
    # Front door (the view a ClusterServer also offers)
    # ------------------------------------------------------------------

    def nodes(self) -> List["PipelineServer"]:
        """The servers behind this front door: just this one."""
        return [self]

    def home(self, tenant_id: str) -> "PipelineServer":
        """The server a tenant's requests land on: this one."""
        return self

    def advance_to(self, at_ns: int) -> None:
        """Idle the clock forward to ``at_ns`` (never backwards)."""
        clock = self.kernel.clock
        if clock.now_ns < at_ns:
            clock.advance(at_ns - clock.now_ns)

    def step(self) -> List[ServeResponse]:
        """Dispatch at most one queued request; return what it produced."""
        response = self.serve_one()
        return [] if response is None else [response]

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------

    def drain(self) -> List[ServeResponse]:
        """Serve every queued request (fair-share order); return results."""
        served: List[ServeResponse] = []
        while True:
            response = self.serve_one()
            if response is None:
                break
            served.append(response)
        return served

    def serve_one(self) -> Optional[ServeResponse]:
        """Dispatch exactly one queued request (None when idle).

        :meth:`step` and the cluster's round-robin drain (which checks
        the node-failure fault hook between dispatches) both step through
        here rather than the run-to-empty :meth:`drain`.
        """
        request = self.queue.next_request()
        if request is None:
            return None
        if self._released:
            release_served(self._released, self.pools, self.registry)
        response = self._dispatch(request)
        kept = response
        if response.values is not None:
            # The log keeps the outcome without its values (built
            # directly: ``dataclasses.replace`` costs 5x as much).
            kept = ServeResponse(
                response.request_id, response.tenant_id, response.ok, None,
                response.error, response.timed_out, response.retries,
                response.service_ns, response.latency_ns, response.degraded,
            )
        self.responses.append(kept)
        return response

    def _dispatch(self, request: ServeRequest) -> ServeResponse:
        tracer = self.kernel.tracer
        if not tracer.enabled:
            return self._dispatch_request(request)
        tenant = self.tenants[request.tenant_id]
        tracer.name_track(tenant.host.pid, f"tenant:{request.tenant_id}")
        # The queue wait already elapsed (it overlaps other requests'
        # service), so it is recorded retrospectively and out-of-band.
        tracer.add_span(
            "admission_wait", category="admission",
            start_ns=request.enqueued_at_ns,
            end_ns=self.kernel.clock.now_ns,
            pid=tenant.host.pid, tenant=request.tenant_id,
            request_id=request.request_id,
        )
        with tracer.span("serve_request", category="serve",
                         pid=tenant.host.pid, tenant=request.tenant_id,
                         request_id=request.request_id) as span:
            response = self._dispatch_request(request)
            span.annotate(ok=response.ok, retries=response.retries,
                          timed_out=response.timed_out)
            return response

    def _dispatch_request(self, request: ServeRequest) -> ServeResponse:
        tenant = self.tenants[request.tenant_id]
        if request.timed_out:
            # The client waited from its send time until now; the
            # request never reaches the serving timeline.
            now_ns = self.kernel.clock.now_ns
            tenant.requests_failed += 1
            self._record(request.tenant_id, now_ns,
                         now_ns - request.enqueued_at_ns, ok=False)
            return ServeResponse(
                request_id=request.request_id,
                tenant_id=request.tenant_id,
                ok=False,
                timed_out=True,
                error=(
                    f"{RequestTimeout.__name__}: deadline "
                    f"{request.deadline_ns} ns passed in queue"
                ),
            )

        breaker_labels = self._breaker_labels(request)
        retries = 0
        while True:
            shed = self._acquire_breakers(request, breaker_labels, retries)
            if shed is not None:
                tenant.requests_degraded += 1
                self.degraded_responses += 1
                return shed
            try:
                leased = self.pools.lease_set(
                    request.tenant_id, slot_hint=request.request_id
                )
            except AgentUnavailable as exc:
                # A pool has no member left to lease (each is dead with
                # its restart budget spent).  Nothing was dispatched, so
                # the probe slots go back unused.
                for label in breaker_labels:
                    self.breakers[label].release_probe()
                return self._finish(
                    request, self.kernel.clock.now_ns, retries, failure=exc
                )
            agents = {index: member.agent for index, member in leased.items()}
            gateway = ServeGateway(
                kernel=self.kernel,
                tenant=tenant,
                plan=self.plan,
                categorization=self.categorization,
                config=self.config,
                agents=agents,
                registry=self.registry,
                pools=self.pools,
                routes=self.routes,
                releases=self._released,
                batching=self.batching,
                batch_stats=self.batch_stats,
            )
            started_ns = self.kernel.clock.now_ns
            values, failure = None, None
            try:
                values = gateway.call_many(list(request.calls))
            except ReproError as exc:  # the request failed, not the server
                failure = exc
            crashed = isinstance(failure, FrameworkCrash)
            self.send_backoff_retries += gateway.send_backoff_retries
            self.security_events.extend(gateway.events)
            self.pools.restore_set(leased)
            self._settle_breakers(
                breaker_labels,
                crashed=gateway.last_crash_partition if crashed else None,
            )
            if crashed and retries < self.max_retries:
                # The crash handler restarted the agent in place, or it
                # stays down and the retry leases a sibling; retry the
                # whole request — at-least-once, like the one-shot
                # runtime's post-restart re-execution.
                retries += 1
                continue
            if isinstance(failure, TenantIsolationError):
                tenant.isolation_violations += 1
            try:
                return self._finish(
                    request, started_ns, retries, values=values,
                    failure=failure,
                )
            finally:
                # The failure's traceback reaches this frame: holding it
                # here would keep both, and the request's gateway, for
                # the cycle collector.
                failure = None

    # ------------------------------------------------------------------
    # Circuit breaking
    # ------------------------------------------------------------------

    def _breaker_labels(self, request: ServeRequest) -> List[str]:
        """Partition labels this request's calls are expected to touch:
        each one's route partition, read through the route memo.

        Type-neutral APIs are skipped (they follow the framework state,
        which is not known before dispatch), and so are names that do
        not resolve; the set is sorted so breaker acquisition order is
        deterministic.
        """
        labels = set()
        routes = self.routes
        for call in request.calls:
            key = (call.framework, call.name)
            route = routes.get(key)
            if route is None:
                try:
                    route = routes[key] = resolve_route(
                        get_api(*key), self.categorization, self.plan
                    )
                except ReproError:
                    continue
            partition = route[2]
            if partition is not None:
                labels.add(partition.label)
        return sorted(labels)

    def _acquire_breakers(
        self, request: ServeRequest, labels: List[str], retries: int
    ) -> Optional[ServeResponse]:
        """Ask every involved breaker for passage.

        Returns None when the request may dispatch; otherwise a shed
        (degraded) response.  Probes granted by earlier breakers are
        released if a later one sheds, so a half-open slot is never
        leaked on a request that did not run.
        """
        granted: List[CircuitBreaker] = []
        for label in labels:
            breaker = self.breakers[label]
            if breaker.allow():
                granted.append(breaker)
                continue
            for earlier in granted:
                earlier.release_probe()
            breaker.record_shed()
            response = self._finish(
                request, self.kernel.clock.now_ns, retries,
                failure=CircuitOpen(
                    f"partition {label!r} is shedding load "
                    "(degraded response, no agent dispatched)"
                ),
            )
            response.degraded = True
            return response
        return None

    def _settle_breakers(
        self, labels: List[str], crashed: Optional[str]
    ) -> None:
        """Record the dispatch outcome with every involved breaker."""
        for label in labels:
            breaker = self.breakers[label]
            if crashed is None:
                breaker.record_success()
            elif label == crashed:
                breaker.record_failure()
            else:
                # Not implicated in the crash: return any probe slot
                # without resetting its failure history.
                breaker.release_probe()
        if crashed is not None and crashed not in labels:
            # A neutral API crashed in a partition the pre-dispatch
            # estimate missed; its breaker still learns about it.
            breaker = self.breakers.get(crashed)
            if breaker is not None:
                breaker.record_failure()

    def _finish(
        self,
        request: ServeRequest,
        started_ns: int,
        retries: int,
        values: Optional[List[Any]] = None,
        failure: Optional[ReproError] = None,
    ) -> ServeResponse:
        """Place a dispatched request on the timeline and answer it."""
        service_ns = self.kernel.clock.now_ns - started_ns
        timing = self.timeline.observe(
            request.request_id, request.tenant_id,
            arrival_ns=request.enqueued_at_ns, service_ns=service_ns,
        )
        # The queue checks deadlines on the drive clock, but the client
        # hears back at the timeline's finish time: an answer later than
        # its deadline is a timeout, not a success.
        late = (
            failure is None and request.deadline_ns is not None
            and timing.finish_ns > request.deadline_ns
        )
        if late:
            values, failure = None, RequestTimeout(
                f"deadline {request.deadline_ns} ns passed before the "
                f"answer at {timing.finish_ns} ns"
            )
        ok = failure is None
        if not ok:
            self.tenants[request.tenant_id].requests_failed += 1
        self._record(
            request.tenant_id, timing.finish_ns, timing.latency_ns, ok
        )
        labels = {"tenant": request.tenant_id}
        if self.node_label:
            labels["node"] = self.node_label
        self.kernel.series.observe(
            "serve.latency_ns", labels, timing.latency_ns,
            t_ns=timing.finish_ns,
        )
        self.kernel.series.observe(
            "serve.service_ns", labels, service_ns, t_ns=timing.finish_ns,
        )
        return ServeResponse(
            request_id=request.request_id,
            tenant_id=request.tenant_id,
            ok=ok,
            values=values,
            error="" if ok else f"{type(failure).__name__}: {failure}",
            timed_out=late,
            retries=retries,
            service_ns=service_ns,
            latency_ns=timing.latency_ns,
        )

    def _record(
        self, tenant_id: str, at_ns: int, latency_ns: int, ok: bool
    ) -> None:
        """Append one request event and close the control loops on it."""
        event = RequestEvent(
            at_ns=at_ns, node=self.node_label, tenant=tenant_id,
            latency_ns=latency_ns, ok=ok,
        )
        self.events.append(event)
        if self.autoscaler is not None:
            self.autoscaler.on_request(event)
        if self.brownout is not None:
            self.brownout.observe(event)

    # ------------------------------------------------------------------
    # Reporting / teardown
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        summary = self.timeline.summary()
        summary.update({
            "pool_size": self.pools.size,
            "batching": self.batching,
            "pool_restarts": self.pools.total_restarts(),
            "admission": {
                "admitted": self.queue.stats.admitted,
                "rejected_capacity": self.queue.stats.rejected_capacity,
                "rejected_tenant_budget":
                    self.queue.stats.rejected_tenant_budget,
                "dispatched": self.queue.stats.dispatched,
                "timed_out": self.queue.stats.timed_out,
                "shed": self.queue.stats.shed,
            },
            "send_backoff_retries": self.send_backoff_retries,
            "batching_stats": {
                "calls": self.batch_stats.calls,
                "batches": self.batch_stats.batches,
                "messages_saved": self.batch_stats.messages_saved,
                "chains_local": self.batch_stats.chains_local,
                "fused_bytes_saved": self.batch_stats.fused_bytes_saved,
            },
            "tenant_refs_minted": self.registry.minted,
            "isolation_checks": self.registry.checks,
            "isolation_violations": self.registry.violations,
            "degraded_responses": self.degraded_responses,
            "breakers": {
                label: breaker.snapshot()
                for label, breaker in sorted(self.breakers.items())
            },
        })
        if self.autoscaler is not None:
            summary["autoscale"] = self.autoscaler.snapshot()
        if self.brownout is not None:
            summary["brownout"] = self.brownout.snapshot()
        return summary

    def shutdown(self) -> None:
        self.pools.shutdown()


class NaiveServer:
    """The seed model behind the serving interface: one runtime per request.

    Every dispatch pays the full online-phase cost — a fresh host, four
    fresh agent spawns, teardown — exactly what
    :class:`~repro.core.runtime.FreePart.deploy` does today.  The
    serving benchmark's baseline.
    """

    def __init__(
        self,
        kernel: Optional[SimKernel] = None,
        config: Optional[FreePartConfig] = None,
        queue_capacity: int = 64,
        used_apis: Optional[Sequence[FrameworkAPI]] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else SimKernel()
        self.config = config if config is not None else FreePartConfig()
        # The offline analysis is cacheable even naively; what the naive
        # model cannot amortize is the per-request process spawning.
        freepart = FreePart(kernel=self.kernel, config=self.config)
        self.categorization = freepart.analyze(used_apis)
        self.plan = freepart.build_plan(self.categorization)
        self._freepart = freepart
        self.queue = AdmissionQueue(self.kernel.clock, capacity=queue_capacity)
        self.timeline = ServingTimeline(lanes=1)
        self.node_label = ""
        self.events: List[RequestEvent] = []
        self._request_ids = itertools.count(1)

    def submit(
        self,
        tenant_id: str,
        calls: Sequence[ApiCall],
        deadline_ns: Optional[int] = None,
    ) -> ServeRequest:
        request = ServeRequest(
            request_id=next(self._request_ids),
            tenant_id=tenant_id,
            calls=tuple(calls),
            deadline_ns=deadline_ns,
        )
        self.queue.submit(request)
        return request

    def drain(self) -> List[ServeResponse]:
        served: List[ServeResponse] = []
        while True:
            request = self.queue.next_request()
            if request is None:
                break
            served.append(self._dispatch(request))
        return served

    def _dispatch(self, request: ServeRequest) -> ServeResponse:
        tracer = self.kernel.tracer
        tracer.add_span(
            "admission_wait", category="admission",
            start_ns=request.enqueued_at_ns,
            end_ns=self.kernel.clock.now_ns,
            tenant=request.tenant_id, request_id=request.request_id,
        )
        with tracer.span("serve_request", category="serve",
                         tenant=request.tenant_id,
                         request_id=request.request_id) as span:
            response = self._dispatch_request(request)
            span.annotate(ok=response.ok)
            return response

    def _dispatch_request(self, request: ServeRequest) -> ServeResponse:
        started_ns = self.kernel.clock.now_ns
        gateway = self._freepart.deploy(plan=self.plan)
        ok, error, values = True, "", None
        try:
            values = gateway.call_many(request.calls)
        except ReproError as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        finally:
            gateway.shutdown()
        service_ns = self.kernel.clock.now_ns - started_ns
        timing = self.timeline.observe(
            request.request_id, request.tenant_id,
            arrival_ns=request.enqueued_at_ns, service_ns=service_ns,
        )
        self.events.append(RequestEvent(
            at_ns=timing.finish_ns,
            node=self.node_label,
            tenant=request.tenant_id,
            latency_ns=timing.latency_ns,
            ok=ok,
        ))
        return ServeResponse(
            request_id=request.request_id,
            tenant_id=request.tenant_id,
            ok=ok,
            values=values,
            error=error,
            service_ns=service_ns,
            latency_ns=timing.latency_ns,
        )

    def stats(self) -> Dict[str, Any]:
        summary = self.timeline.summary()
        summary.update({"pool_size": 0, "batching": False})
        return summary
