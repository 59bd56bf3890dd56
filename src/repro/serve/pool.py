"""Shared per-API-type agent pools.

The one-shot runtime spawns four fresh agents per run and tears them down
afterwards; at serving scale that spawn cost (milliseconds of virtual
time per process) dominates small requests.  A pool spawns ``size``
agents per partition once, leases one agent of each type to a request,
and returns them afterwards — the paper's agents are stateless or
periodically checkpointed RPC servers (Sections 4.3–4.4), which is what
makes this reuse sound.

Crash handling: a leased agent that dies is restarted *in place* by the
pool (fresh process, fresh address space, freshly built filter — the paper's
Section 4.4.2 restart), so the pool never shrinks and other members'
in-flight work is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.agent import AgentProcess
from repro.core.hybrid import Categorization
from repro.core.partitioner import PartitionPlan
from repro.core.runtime import FreePartConfig, build_agents
from repro.errors import AgentUnavailable
from repro.sim.kernel import SimKernel
from repro.sim.process import ProcessState


@dataclass
class PoolStats:
    """Counters one partition's pool keeps across its lifetime."""

    leases: int = 0
    returns: int = 0
    restarts: int = 0
    crashes_repaired: int = 0
    #: Repairs abandoned because the member's restart budget ran out;
    #: the member stays dead and lease() skips it.
    budget_exhausted: int = 0


class PoolMember:
    """One pooled agent plus its lease bookkeeping."""

    __slots__ = ("agent", "slot", "leased_to")

    def __init__(self, agent: AgentProcess, slot: int) -> None:
        self.agent = agent
        self.slot = slot
        self.leased_to: Optional[str] = None  # tenant id while leased

    @property
    def leased(self) -> bool:
        return self.leased_to is not None


class AgentPool:
    """A fixed-size pool of interchangeable agents for ONE partition."""

    def __init__(self, members: List[PoolMember]) -> None:
        if not members:
            raise ValueError("an agent pool needs at least one member")
        self.members = members
        #: Every member serves this partition (a restart keeps it).
        self.partition = members[0].agent.partition
        self.stats = PoolStats()
        self._next = 0  # round-robin cursor over free members

    def lease(self, tenant_id: str) -> PoolMember:
        """Lease a free member (round-robin), repairing dead ones.

        Raises :class:`AgentUnavailable` when no member can be leased:
        each is either leased or dead with its restart budget spent.
        Requests run one at a time, so in practice the members are out
        of budget, and the server fails just the request that asked.
        """
        leased = out_of_budget = 0
        members = self.members
        count = len(members)
        for _ in range(count):
            member = members[self._next % count]
            self._next += 1
            if member.leased_to is not None:
                leased += 1
                continue
            repaired = False
            if member.agent.process.state is not ProcessState.RUNNING:
                # Died between leases (e.g. a crash observed at return
                # time with repair deferred): repair before handing out.
                try:
                    member.agent.restart()
                except AgentUnavailable:
                    # Restart budget spent: this member is permanently
                    # down, but its pool siblings can still serve.
                    self.stats.budget_exhausted += 1
                    out_of_budget += 1
                    continue
                self.stats.restarts += 1
                self.stats.crashes_repaired += 1
                repaired = True
            member.leased_to = tenant_id
            self.stats.leases += 1
            tracer = member.agent.kernel.tracer
            if tracer.enabled:
                tracer.instant(
                    "pool_lease", category="pool",
                    pid=member.agent.process.pid, tenant=tenant_id,
                    slot=member.slot,
                    partition=self.partition.label, repaired=repaired,
                )
            return member
        raise AgentUnavailable(
            f"pool for partition {self.partition.label!r} has no free "
            f"member ({leased} leased, {out_of_budget} out of restart budget)"
        )

    def restore(self, member: PoolMember) -> None:
        """Return a member to the pool, repairing it if the request
        crashed it.  The pool never shrinks: a crash costs one restart,
        not a pool slot."""
        repaired = False
        if member.agent.process.state is not ProcessState.RUNNING:
            try:
                member.agent.restart()
            except AgentUnavailable:
                # Out of restart budget: return the member dead; lease()
                # will skip it while its siblings carry the load.
                self.stats.budget_exhausted += 1
                member.leased_to = None
                self.stats.returns += 1
                return
            self.stats.restarts += 1
            self.stats.crashes_repaired += 1
            repaired = True
        tracer = member.agent.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "pool_restore", category="pool",
                pid=member.agent.process.pid, tenant=member.leased_to,
                slot=member.slot, repaired=repaired,
            )
        member.leased_to = None
        self.stats.returns += 1


class PoolSet:
    """One :class:`AgentPool` per partition of a plan."""

    def __init__(
        self,
        kernel: SimKernel,
        plan: PartitionPlan,
        categorization: Categorization,
        config: FreePartConfig,
        size: int = 2,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.kernel = kernel
        self.plan = plan
        self.categorization = categorization
        self.config = config
        self.size = size
        #: Member sets ever added after construction (autoscale grow);
        #: the autoscaler's spawn budget is charged against this.
        self.grown = 0
        #: Member sets retired by shrink.
        self.shrunk = 0
        columns: Dict[int, List[PoolMember]] = {
            partition.index: [] for partition in plan.partitions
        }
        # Spawn size × |partitions| agents up front; this is the one-time
        # cost the serving layer amortizes across every future request.
        for slot in range(size):
            agents = build_agents(
                kernel, plan, categorization, config,
                name_suffix=f"pool{slot}",
            )
            for index, agent in agents.items():
                columns[index].append(PoolMember(agent, slot))
        self.pools: Dict[int, AgentPool] = {
            index: AgentPool(members) for index, members in columns.items()
        }

    # ------------------------------------------------------------------
    # Elastic capacity (autoscaling)
    # ------------------------------------------------------------------

    def grow(self, count: int) -> int:
        """Spawn ``count`` additional member sets (one agent/partition).

        Each added set pays the same spawn + filter-install virtual time
        a pool slot costs at construction — scaling up is deliberately
        not free, which is why the autoscaler needs cooldowns and a
        budget.  Returns the new size.
        """
        if count < 0:
            raise ValueError(f"grow count must be >= 0, got {count}")
        for offset in range(count):
            slot = self.size + offset
            agents = build_agents(
                self.kernel, self.plan, self.categorization, self.config,
                name_suffix=f"pool{slot}",
            )
            for index, agent in agents.items():
                self.pools[index].members.append(PoolMember(agent, slot))
        self.size += count
        self.grown += count
        return self.size

    def shrink(self, count: int) -> int:
        """Retire up to ``count`` member sets, highest slots first.

        Only whole unleased sets are removed (a leased member stops the
        walk), and the pool never drops below one set.  Live slots stay
        the contiguous range ``0..size-1``, so a later :meth:`grow`
        numbers fresh slots without collision.  Returns the new size.
        """
        if count < 0:
            raise ValueError(f"shrink count must be >= 0, got {count}")
        target = max(1, self.size - count)
        while self.size > target:
            slot = self.size - 1
            doomed = []
            for pool in self.pools.values():
                member = next(
                    (m for m in pool.members if m.slot == slot), None
                )
                if member is None or member.leased:
                    doomed = None
                    break
                doomed.append((pool, member))
            if doomed is None:
                break
            for pool, member in doomed:
                pool.members.remove(member)
                member.agent.stop()
            self.size -= 1
            self.shrunk += 1
        return self.size

    def lease_set(self, tenant_id: str, slot_hint: Optional[int] = None
                  ) -> Dict[int, PoolMember]:
        """Lease one agent per partition (a full four-type set).

        ``slot_hint`` biases the round-robin so consecutive requests
        spread over distinct members, exercising the whole pool.
        """
        leased: Dict[int, PoolMember] = {}
        try:
            for index, pool in self.pools.items():
                if slot_hint is not None:
                    pool._next = slot_hint
                leased[index] = pool.lease(tenant_id)
                self.kernel.series.observe(
                    "pool.lease",
                    {"agent_pool": pool.partition.label},
                    1,
                    t_ns=self.kernel.clock.now_ns,
                )
        except AgentUnavailable:
            for index, member in leased.items():
                self.pools[index].restore(member)
            raise
        return leased

    def restore_set(self, leased: Dict[int, PoolMember]) -> None:
        for index, member in leased.items():
            self.pools[index].restore(member)

    def agents(self) -> List[AgentProcess]:
        """Every pooled agent, leased or not, pool by pool."""
        agents = []
        for pool in self.pools.values():
            for member in pool.members:
                agents.append(member.agent)
        return agents

    def total_restarts(self) -> int:
        """Restarts across every pooled agent, however they were repaired
        (pool-side on lease/restore, or in place by a gateway's crash
        handler mid-request)."""
        return sum(agent.stats.restarts for agent in self.agents())

    def shutdown(self) -> None:
        """Stop every pooled agent."""
        for agent in self.agents():
            agent.stop()
