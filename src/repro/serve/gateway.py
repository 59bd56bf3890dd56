"""The per-request gateway of the serving layer.

A :class:`ServeGateway` is a :class:`~repro.core.runtime.FreePartGateway`
with three serving-specific behaviours layered on:

* it runs over **leased pool agents** instead of spawning its own (and
  therefore never tears them down — the pool owns their lifecycle),
  resolves a presented handle in whichever pool member owns it, and
  makes its handles on the server's release list, so a served object
  lives while its tenant holds a handle to it (:func:`release_served`);
* every ObjectRef crossing the tenant boundary is **namespaced**: refs a
  request produces are minted under its tenant, refs a request presents
  are checked, and a pooled agent's crash evicts the dead generation's
  refs for every tenant at once;
* :meth:`call_many` **coalesces adjacent same-agent calls** into batched
  IPC round trips, resolving :data:`~repro.serve.batching.PREV` chains
  inside the agent so intermediates never cross a channel.

Constructing one is cheap (no process spawns), so the server builds a
fresh gateway per request — which also gives each request its own
temporal state machine, exactly like a one-shot pipeline run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.agent import AgentProcess
from repro.core.gateway import ApiCall
from repro.core.hybrid import Categorization
from repro.core.partitioner import PartitionPlan
from repro.core.rpc import (
    BatchChain,
    ObjectRef,
    RpcRequest,
    batch_request,
)
from repro.core.runtime import (
    FreePartConfig,
    FreePartGateway,
    Route,
    release_objects,
)
from repro.errors import (
    FrameworkCrash,
    ProcessCrashed,
    SegmentationFault,
    SyscallDenied,
    TenantIsolationError,
)
from repro.frameworks.base import DataObject
from repro.serve.batching import PREV, BatchingStats, plan_batches
from repro.serve.pool import PoolSet
from repro.serve.tenancy import Tenant, TenantRegistry
from repro.sim.kernel import SimKernel


def release_served(
    refs: List[ObjectRef], pools: PoolSet, registry: TenantRegistry
) -> None:
    """Release the objects behind the handles tenants dropped, in the
    order the handles died, and empty ``refs``.

    Each object goes in whichever pool member owns it, leased or not,
    every member drops its lazy copy, and the ref's registry key goes
    too, so a ref kept past its last handle fails as unknown.
    """
    registry.forget(refs)
    release_objects(refs, pools.agents())


class ServeGateway(FreePartGateway):
    """Tenant-scoped dispatch over a leased set of pooled agents.

    ``routes`` is the server's route memo: every request's gateway
    shares it as its dispatch cache, so a call site resolves once per
    server, not once per request.  ``releases`` is the server's release
    list: the handles every request's gateway makes report their death
    there.
    """

    def __init__(
        self,
        kernel: SimKernel,
        tenant: Tenant,
        plan: PartitionPlan,
        categorization: Categorization,
        config: FreePartConfig,
        agents: Dict[int, AgentProcess],
        registry: TenantRegistry,
        pools: PoolSet,
        routes: Dict[Tuple[str, str], Route],
        releases: List[ObjectRef],
        batch_stats: BatchingStats,
        batching: bool = True,
    ) -> None:
        super().__init__(
            kernel, tenant.host, plan, categorization, config, agents=agents
        )
        self.pools = pools
        self.tenant = tenant
        self.registry = registry
        self.batching = batching
        self.batch_stats = batch_stats
        self._dispatch_cache = routes
        self._released = releases

    def _release_dropped(self) -> None:
        # Over every pool member, not only the leased ones.
        release_served(self._released, self.pools, self.registry)

    # ------------------------------------------------------------------
    # Tenant namespacing
    # ------------------------------------------------------------------

    def _finish_value(self, agent: AgentProcess, spec, value: Any) -> Any:
        """Mint a reply's ref under this request's tenant before any
        handle to it exists.

        A shared agent's reply passes the reply check when it names the
        agent's own live object, even one minted for another tenant.
        Minting refuses that ref, and the reply is then forged like any
        other: the agent crashes and restarts, which evicts the dead
        generation's refs for every tenant, and the call fails.
        """
        process = agent.process
        if (isinstance(value, ObjectRef)
                and value.owner_pid == process.pid
                and value.owner_generation == process.generation):
            # Any other ref fails the reply check itself, unminted.
            try:
                self.registry.mint(self.tenant.tenant_id, value)
            except TenantIsolationError:
                self._reject_forged_reply(
                    agent, spec.qualname, value, "another tenant holds"
                )
        return super()._finish_value(agent, spec, value)

    def _host_ref(self, value: DataObject) -> ObjectRef:
        # A host-minted ref (raw payload passed by the tenant's own
        # program) belongs to that tenant's namespace too.
        ref = super()._host_ref(value)
        self.registry.mint(self.tenant.tenant_id, ref)
        return ref

    def _check_args(self, args: tuple, kwargs: dict) -> None:
        tenant_id = self.tenant.tenant_id
        for value in args:
            self.registry.check_value(tenant_id, value)
        for value in kwargs.values():
            self.registry.check_value(tenant_id, value)

    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        self._check_args(args, kwargs)
        return super().call(framework, name, *args, **kwargs)

    def _resolve_ref(self, ref: ObjectRef) -> Any:
        # A handle an earlier response returned may live in a pool
        # member this request did not lease.  ``_check_args`` has
        # already rejected another tenant's handle.
        for pool in self.pools.pools.values():
            for member in pool.members:
                process = member.agent.process
                if (process.pid == ref.owner_pid
                        and process.generation == ref.owner_generation):
                    return member.agent.fetch_local(ref)
        return super()._resolve_ref(ref)

    def _handle_agent_crash(self, agent, qualname, exc) -> None:
        dead_pid = agent.process.pid
        dead_generation = agent.process.generation
        super()._handle_agent_crash(agent, qualname, exc)
        # The dead address space took every tenant's objects in it along;
        # their refs must stop resolving for everyone, owner included.
        self.registry.evict_generation(dead_pid, dead_generation)

    # ------------------------------------------------------------------
    # Pipeline dispatch (PREV chaining, optional batching)
    # ------------------------------------------------------------------

    def call_many(self, calls: List[ApiCall]) -> List[Any]:
        if not self.batching:
            return super().call_many(calls)
        # Route every call first (state machine advances in call order;
        # each call's request carries the state label at its routing
        # point, exactly as per-call dispatch would).
        apis, partitions, labels = [], [], []
        for call in calls:
            api, partition = self._route(call.framework, call.name)
            apis.append(api)
            partitions.append(partition)
            labels.append(self.machine.state_label)

        groups = plan_batches(calls, [p.index for p in partitions])
        results: List[Any] = [None] * len(calls)
        tracer = self.kernel.tracer
        for group in groups:
            if not tracer.enabled:
                self._exchange_group(group, apis, partitions, labels, results)
                continue
            with tracer.span("batch", category="batch", pid=self.host.pid,
                             size=len(group), tenant=self.tenant.tenant_id,
                             agent=partitions[group.start].label):
                self._exchange_group(group, apis, partitions, labels, results)
        return results

    def _exchange_group(
        self, group, apis, partitions, labels, results: List[Any]
    ) -> None:
        """One IPC round trip for a run of adjacent same-agent calls."""
        agent = self._ensure_agent(partitions[group.start])
        requests: List[RpcRequest] = []
        group_apis = []
        chains = 0
        tenant_id = self.tenant.tenant_id
        check_value = self.registry.check_value
        for offset, call in enumerate(group.calls):
            index = group.start + offset
            chained_args: List[Any] = []
            for value in call.args:
                if value is PREV:
                    if offset > 0:
                        # Same batch: resolve inside the agent, zero IPC.
                        chained_args.append(BatchChain(1))
                        chains += 1
                        continue
                    value = self._resolve_prev(value, index, results)
                chained_args.append(value)
            kwargs = {}
            for key, value in call.kwargs:
                kwargs[key] = self._resolve_prev(value, index, results)
            for value in chained_args:
                if type(value) is not BatchChain:
                    check_value(tenant_id, value)
            for value in kwargs.values():
                check_value(tenant_id, value)
            # A BatchChain placeholder is neither data nor a handle, so
            # the builder passes it through untouched.
            requests.append(self._build_request(
                agent, apis[index].spec.qualname, tuple(chained_args),
                kwargs, labels[index],
            ))
            group_apis.append(apis[index])

        batch = batch_request(requests)

        def execute():
            if not self.config.ldc:
                for request in requests:
                    self._eager_copy_args(agent, request)
            return agent.execute_batch(
                group_apis, batch, self._resolve_ref, ldc=self.config.ldc
            )

        try:
            # The hardened roundtrip retransmits lost batches and drains
            # duplicated deliveries; the agent's per-item reply cache
            # keeps re-delivered batch items exactly-once.
            response = self._rpc_roundtrip(
                agent, batch, execute,
                request_kind="batch-request",
                response_kind="batch-response",
                framed=self._frame_ready(agent),
            )
        except (ProcessCrashed, SyscallDenied, SegmentationFault) as exc:
            label = f"{group_apis[0].spec.qualname} (batch of {len(group)})"
            self._handle_agent_crash(agent, label, exc)
            raise FrameworkCrash(label, exc) from exc
        self._maybe_end_init(agent)
        self.batch_stats.record_group(
            len(group), chains,
            fused_bytes_saved=batch.fused_savings + response.fused_savings,
        )

        for offset, item in enumerate(response.responses):
            index = group.start + offset
            results[index] = self._finish_value(
                agent, group_apis[offset].spec, item.value
            )
