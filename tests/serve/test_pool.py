"""Agent pools: lease/restore, round-robin reuse, in-place repair."""

import pytest

from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import AgentUnavailable
from repro.serve.pool import PoolSet
from repro.sim.kernel import SimKernel


@pytest.fixture
def poolset():
    kernel = SimKernel()
    config = FreePartConfig()
    freepart = FreePart(kernel=kernel, config=config)
    categorization = freepart.analyze()
    plan = freepart.build_plan(categorization)
    return PoolSet(kernel, plan, categorization, config, size=2)


def test_pool_spawns_size_agents_per_partition(poolset):
    for pool in poolset.pools.values():
        assert len(pool.members) == 2
        assert not any(m.leased for m in pool.members)


def test_lease_set_gives_one_agent_per_partition(poolset):
    leased = poolset.lease_set("tenant-a")
    assert set(leased) == set(poolset.pools)
    for index, member in leased.items():
        assert member.leased_to == "tenant-a"
        assert member.agent.partition.index == index


def test_restore_frees_members(poolset):
    leased = poolset.lease_set("tenant-a")
    poolset.restore_set(leased)
    for pool in poolset.pools.values():
        assert not any(m.leased for m in pool.members)


def test_exhausted_pool_raises(poolset):
    poolset.lease_set("a")
    poolset.lease_set("b")
    with pytest.raises(AgentUnavailable):
        poolset.lease_set("c")


def test_failed_lease_set_releases_partial_leases(poolset):
    # Exhaust a single partition's pool so lease_set fails midway.
    pool = next(iter(poolset.pools.values()))
    for member in pool.members:
        member.leased_to = "hog"
    with pytest.raises(AgentUnavailable):
        poolset.lease_set("victim")
    # Partitions leased before the failure were rolled back.
    for other in poolset.pools.values():
        if other is pool:
            continue
        assert not any(m.leased for m in other.members)


def test_round_robin_spreads_leases(poolset):
    pool = next(iter(poolset.pools.values()))
    first = pool.lease("a")
    pool.restore(first)
    second = pool.lease("a")
    assert second.slot != first.slot


def test_dead_member_repaired_on_restore(poolset):
    pool = next(iter(poolset.pools.values()))
    member = pool.lease("a")
    member.agent.process.crash("boom")
    old_generation = member.agent.process.generation
    pool.restore(member)
    assert member.agent.alive
    assert member.agent.process.generation == old_generation + 1
    assert pool.stats.restarts == 1
    assert len(pool.members) == 2  # the pool never shrinks


def test_dead_member_repaired_on_lease(poolset):
    pool = next(iter(poolset.pools.values()))
    for member in pool.members:
        member.agent.process.crash("poison")
    member = pool.lease("a")
    assert member.agent.alive
    assert pool.stats.restarts >= 1


def test_shutdown_exits_all_members(poolset):
    poolset.shutdown()
    for pool in poolset.pools.values():
        for member in pool.members:
            assert not member.agent.process.alive


def test_scale_down_releases_the_retired_members_memory(
    image_pipeline, seed_inputs
):
    from repro.serve import PipelineServer

    server = PipelineServer(pool_size=2)
    paths = seed_inputs(server, tenants=1, requests=2)
    for r in range(2):
        server.submit("tenant-0", image_pipeline(paths[(0, r)], f"/out/{r}"))
    assert all(response.ok for response in server.drain())
    retired = [
        member.agent
        for pool in server.pools.pools.values()
        for member in pool.members
        if member.slot == 1
    ]
    assert any(list(agent.process.memory.buffers()) for agent in retired)
    assert server.scale_to(1) == 1
    for agent in retired:
        assert not agent.process.alive
        assert list(agent.process.memory.buffers()) == []
        assert not agent._reply_cache
        assert not agent._resident
    server.shutdown()
