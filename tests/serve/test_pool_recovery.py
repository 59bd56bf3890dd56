"""Pool crash recovery: restart in place, retry at-least-once.

A pooled agent killed mid-request must be restarted without shrinking
the pool, the victim request must be retried (at-least-once execution),
and every other tenant's in-flight work must complete untouched.
"""

import pytest

from repro.core.runtime import FreePartConfig
from repro.errors import ProcessCrashed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultRates
from repro.frameworks.registry import get_api
from repro.serve import PipelineServer
from repro.serve.loadbench import canonical_profile
from repro.serve.loadgen import (
    ArrivalSchedule,
    generate_schedule,
    run_open_loop,
)
from repro.sim.kernel import SimKernel


class CrashOnce:
    """Wrap an API impl so its first N invocations kill the agent."""

    def __init__(self, inner, crashes=1):
        self.inner = inner
        self.crashes = crashes
        self.calls = 0

    def __call__(self, ctx, *args, **kwargs):
        self.calls += 1
        if self.calls <= self.crashes:
            ctx.process.crash("injected mid-request kill")
            raise ProcessCrashed(ctx.process.pid, "injected mid-request kill")
        return self.inner(ctx, *args, **kwargs)


@pytest.fixture
def server():
    server = PipelineServer(pool_size=2, max_retries=1)
    yield server
    server.shutdown()


def _submit_all(server, image_pipeline, seed_inputs, tenants=3):
    paths = seed_inputs(server, tenants=tenants, requests=1)
    for t in range(tenants):
        server.submit(
            f"tenant-{t}",
            image_pipeline(paths[(t, 0)], f"/out/tenant-{t}/r0"),
        )


def test_crash_mid_request_is_retried_and_succeeds(
    server, image_pipeline, seed_inputs, monkeypatch
):
    api = get_api("opencv", "GaussianBlur")
    crasher = CrashOnce(api.impl, crashes=1)
    monkeypatch.setattr(api, "impl", crasher)

    _submit_all(server, image_pipeline, seed_inputs, tenants=3)
    responses = server.drain()

    by_tenant = {r.tenant_id: r for r in responses}
    victim = by_tenant["tenant-0"]  # first dispatched, hits the crash
    assert victim.ok, victim.error
    assert victim.retries == 1
    # At-least-once: the crashed call ran again on the fresh generation.
    # 3 requests x 1 blur each, plus the one that died mid-flight.
    assert crasher.calls == 4


def test_pool_is_repaired_not_shrunk(
    server, image_pipeline, seed_inputs, monkeypatch
):
    api = get_api("opencv", "GaussianBlur")
    monkeypatch.setattr(api, "impl", CrashOnce(api.impl, crashes=1))

    _submit_all(server, image_pipeline, seed_inputs, tenants=3)
    server.drain()

    assert server.pools.total_restarts() == 1
    for pool in server.pools.pools.values():
        assert len(pool.members) == 2
        # Every lease was returned.
        assert not any(m.leased for m in pool.members)
        for member in pool.members:
            assert member.agent.process.alive


def test_without_restarts_the_crashed_member_stays_down(
    image_pipeline, seed_inputs, monkeypatch
):
    server = PipelineServer(
        pool_size=2, max_retries=1,
        config=FreePartConfig(restart_agents=False),
    )
    api = get_api("opencv", "GaussianBlur")
    monkeypatch.setattr(api, "impl", CrashOnce(api.impl, crashes=1))

    _submit_all(server, image_pipeline, seed_inputs, tenants=1)
    (response,) = server.drain()

    # The retry ran on the crashed member's sibling; nothing restarted.
    assert response.ok, response.error
    assert response.retries == 1
    assert server.kernel.restarted_processes == 0
    dead = [
        member for pool in server.pools.pools.values()
        for member in pool.members if not member.agent.alive
    ]
    assert len(dead) == 1
    assert dead[0].agent.partition.label == "data_processing"
    server.shutdown()


def test_other_tenants_unaffected_by_crash(
    server, image_pipeline, seed_inputs, monkeypatch
):
    api = get_api("opencv", "GaussianBlur")
    monkeypatch.setattr(api, "impl", CrashOnce(api.impl, crashes=1))

    _submit_all(server, image_pipeline, seed_inputs, tenants=4)
    responses = server.drain()

    by_tenant = {r.tenant_id: r for r in responses}
    for tenant_id, response in by_tenant.items():
        assert response.ok, f"{tenant_id}: {response.error}"
        if tenant_id != "tenant-0":
            assert response.retries == 0
    for t in range(4):
        assert server.kernel.fs.exists(f"/out/tenant-{t}/r0")


def test_persistent_crash_exhausts_retries(
    server, image_pipeline, seed_inputs, monkeypatch
):
    api = get_api("opencv", "GaussianBlur")
    # Crashes forever: retry budget (1) cannot save the request.
    monkeypatch.setattr(api, "impl", CrashOnce(api.impl, crashes=10**9))

    _submit_all(server, image_pipeline, seed_inputs, tenants=1)
    responses = server.drain()

    assert len(responses) == 1
    assert not responses[0].ok
    assert responses[0].retries == 1
    assert "FrameworkCrash" in responses[0].error
    # Even after repeated crashes the pool is whole again.
    for pool in server.pools.pools.values():
        assert not any(m.leased for m in pool.members)


def test_crash_evicts_dead_generation_refs(
    server, image_pipeline, seed_inputs, monkeypatch
):
    api = get_api("opencv", "GaussianBlur")
    monkeypatch.setattr(api, "impl", CrashOnce(api.impl, crashes=1))

    _submit_all(server, image_pipeline, seed_inputs, tenants=1)
    responses = server.drain()
    assert responses[0].ok

    # Refs surviving in the registry all point at live generations.
    live = {
        (member.agent.process.pid, member.agent.process.generation)
        for pool in server.pools.pools.values()
        for member in pool.members
    }
    for pid, generation, _buffer in server.registry._owners:
        assert (pid, generation) in live


# ----------------------------------------------------------------------
# A pool whose members are all out of restart budget
# ----------------------------------------------------------------------


def _budget_spent_server(pool_size=1):
    """A server whose data-loading agents are dead with no restarts left."""
    server = PipelineServer(
        pool_size=pool_size,
        config=FreePartConfig(rpc_retries=0, max_restarts_per_agent=0),
    )
    pool = next(p for p in server.pools.pools.values()
                if p.partition.label == "data_loading")
    for member in pool.members:
        member.agent.process.crash("injected: out of restarts")
    return server


def test_exhausted_pool_fails_the_request(image_pipeline, seed_inputs):
    server = _budget_spent_server()
    paths = seed_inputs(server, tenants=1, requests=2)
    for r in range(2):
        server.submit("tenant-0", image_pipeline(paths[(0, r)], f"/out/{r}"))
    responses = server.drain()

    assert [r.ok for r in responses] == [False, False]
    assert responses[0].error == (
        "AgentUnavailable: pool for partition 'data_loading' has no free "
        "member (0 leased, 1 out of restart budget)"
    )
    # Each failure is counted once and reaches the SLO event stream.
    assert server.tenants["tenant-0"].requests_failed == 2
    assert [e.ok for e in server.events] == [False, False]
    # The other pools got their leased members back.
    for pool in server.pools.pools.values():
        assert not any(m.leased for m in pool.members)
    server.shutdown()


def test_exhausted_pool_returns_half_open_probes(image_pipeline, seed_inputs):
    server = _budget_spent_server()
    breaker = server.breakers["data_loading"]
    for _ in range(breaker.failure_threshold):
        breaker.record_failure()
    server.kernel.clock.advance(breaker.current_cooldown_ns)
    paths = seed_inputs(server, tenants=1, requests=1)
    server.submit("tenant-0", image_pipeline(paths[(0, 0)], "/out/0"))
    (response,) = server.drain()

    assert not response.ok and "AgentUnavailable" in response.error
    assert breaker.probes == 1
    # The probe went back unused, so the next request may probe again.
    assert breaker.allow()
    server.shutdown()


@pytest.mark.parametrize("rate,budget", [(0.2, 0), (0.05, 1)])
def test_open_loop_survives_an_exhausted_pool(rate, budget):
    kernel = SimKernel()
    kernel.inject_faults(FaultInjector(FaultPlan(7, FaultRates.scaled(rate))))
    server = PipelineServer(
        kernel=kernel, pool_size=1,
        config=FreePartConfig(rpc_retries=0, max_restarts_per_agent=budget),
    )
    full = generate_schedule(
        canonical_profile("diurnal", base_rps=300.0, duration_ns=10**9),
        seed=7,
    )
    schedule = ArrivalSchedule(
        profile=full.profile, seed=7, arrivals=full.arrivals[:60]
    )
    result = run_open_loop(server, schedule)

    assert result.offered == 60
    assert result.offered == (result.served_ok + result.served_failed
                              + result.rejected + result.shed)
    assert any("out of restart budget" in r.error for r in server.responses)
    server.shutdown()
