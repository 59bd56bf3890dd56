"""The per-request gateway of the serving layer.

A :class:`ServeGateway` is a :class:`~repro.core.runtime.FreePartGateway`
with three serving-specific behaviours layered on:

* it runs over **leased pool agents** instead of spawning its own (and
  therefore never tears them down — the pool owns their lifecycle), and
  resolves a presented handle in whichever pool member owns it;
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

from typing import Any, Dict, List, Optional

from repro.core.agent import AgentProcess
from repro.core.gateway import ApiCall
from repro.core.hybrid import Categorization
from repro.core.partitioner import PartitionPlan
from repro.core.rpc import (
    BatchChain,
    ObjectRef,
    RemoteHandle,
    RpcBatchRequest,
    RpcRequest,
)
from repro.core.runtime import FreePartConfig, FreePartGateway
from repro.errors import (
    FrameworkCrash,
    ProcessCrashed,
    SegmentationFault,
    SyscallDenied,
)
from repro.frameworks.base import DataObject
from repro.serve.batching import PREV, BatchingStats, plan_batches
from repro.serve.pool import PoolSet
from repro.serve.tenancy import Tenant, TenantRegistry
from repro.sim.kernel import SimKernel


class ServeGateway(FreePartGateway):
    """Tenant-scoped dispatch over a leased set of pooled agents."""

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
        batching: bool = True,
        max_batch_calls: int = 16,
        batch_stats: Optional[BatchingStats] = None,
    ) -> None:
        super().__init__(
            kernel, tenant.host, plan, categorization, config, agents=agents
        )
        self.pools = pools
        self.tenant = tenant
        self.registry = registry
        self.batching = batching
        self.max_batch_calls = max_batch_calls
        self.batch_stats = batch_stats if batch_stats is not None else BatchingStats()

    # ------------------------------------------------------------------
    # Tenant namespacing
    # ------------------------------------------------------------------

    def _mint(self, value: Any) -> Any:
        if isinstance(value, RemoteHandle):
            self.registry.mint(self.tenant.tenant_id, value.ref)
        return value

    def _wrap_outbound(self, value: Any) -> Any:
        wrapped = super()._wrap_outbound(value)
        if isinstance(wrapped, ObjectRef) and isinstance(value, DataObject):
            # A host-minted ref (raw payload passed by the tenant's own
            # program) belongs to that tenant's namespace too.
            self.registry.mint(self.tenant.tenant_id, wrapped)
        return wrapped

    def _check_args(self, args: tuple, kwargs: dict) -> None:
        tenant_id = self.tenant.tenant_id
        for value in args:
            self.registry.check_value(tenant_id, value)
        for value in kwargs.values():
            self.registry.check_value(tenant_id, value)

    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        self._check_args(args, kwargs)
        return self._mint(super().call(framework, name, *args, **kwargs))

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

        groups = plan_batches(
            calls, [p.index for p in partitions], self.max_batch_calls
        )
        results: List[Any] = [None] * len(calls)
        tracer = self.kernel.tracer
        for group in groups:
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
        for offset, call in enumerate(group.calls):
            index = group.start + offset
            chained_args: List[Any] = []
            for value in call.args:
                if value is PREV and offset > 0:
                    # Same batch: resolve inside the agent, zero IPC.
                    chained_args.append(BatchChain(1))
                    chains += 1
                    continue
                chained_args.append(self._resolve_prev(value, index, results))
            kwargs = {
                key: self._resolve_prev(value, index, results)
                for key, value in call.kwargs
            }
            self._check_args(tuple(
                v for v in chained_args if not isinstance(v, BatchChain)
            ), kwargs)
            # A BatchChain placeholder is neither data nor a handle, so
            # the builder passes it through untouched.
            requests.append(self._build_request(
                agent, apis[index].spec.qualname, tuple(chained_args),
                kwargs, labels[index],
            ))
            group_apis.append(apis[index])

        batch = RpcBatchRequest(requests=tuple(requests))

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
            value = self._finish_value(agent, group_apis[offset].spec, item.value)
            results[index] = self._mint(value)
