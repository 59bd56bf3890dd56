"""Handles in serving: a kept handle resolves, a dropped one is released.

A served object lives while its tenant holds a handle to it.  A handle
one request returned still resolves in that tenant's later requests,
wherever its owner is.  Once the tenant drops the last handle, the next
dispatch releases the object in the pool member that owns it, leased or
not, drops every lazy copy of it and forgets its registry key, so a raw
ref kept past the handle is refused as unknown.  The server's own
response log keeps no values, and a release costs no virtual time.  A
duplicated batch delivery answers each item from the reply cache, which
holds responses only, so a chained item reads the earlier item's result
from its buffer.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.gateway import ApiCall
from repro.core.rpc import RemoteHandle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, NoFaultPlan
from repro.serve import PREV, PipelineServer
from repro.serve.bench import standard_pipeline


class DuplicateSecondBatch(NoFaultPlan):
    """Duplicate the second batch request (the first goes to the
    loader); deliver everything else."""

    def __init__(self):
        self.batches = 0

    def channel_verdict(self, channel_name, kind, nbytes):
        if kind != "batch-request":
            return None
        self.batches += 1
        return FaultKind.IPC_DUPLICATE if self.batches == 2 else None


def chained(path, out):
    return [
        ApiCall("opencv", "imread", (path,)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
        ApiCall("opencv", "threshold", (PREV,)),
        ApiCall("opencv", "blur", (PREV,)),
        ApiCall("opencv", "imwrite", (out, PREV)),
    ]


def deduped(server):
    return sum(
        member.agent.stats.deduped_requests
        for pool in server.pools.pools.values() for member in pool.members
    )


def test_a_duplicated_batch_still_resolves_its_chain(seed_inputs):
    outputs = []
    for faulted in (False, True):
        server = PipelineServer(pool_size=1)
        paths = seed_inputs(server, tenants=1, requests=1)
        if faulted:
            server.kernel.inject_faults(FaultInjector(DuplicateSecondBatch()))
        server.submit("tenant-0", chained(paths[(0, 0)], "/out.png"))
        (response,) = server.drain()
        assert response.ok, response.error
        # The three chained processing items were each re-delivered and
        # answered from the reply cache.
        assert deduped(server) == (3 if faulted else 0)
        outputs.append(server.kernel.fs.read_file("/out.png"))
        server.shutdown()
    assert (outputs[0] == outputs[1]).all()


@pytest.mark.parametrize("batching, pool_size", [
    pytest.param(True, 1, id="True"),
    pytest.param(False, 1, id="False"),
    pytest.param(True, 2, id="True-pool2"),
    pytest.param(False, 2, id="False-pool2"),
])
def test_a_responses_handle_resolves_in_the_next_request(
        seed_inputs, batching, pool_size):
    # With two members per pool, later requests lease the other member
    # too: the handle resolves wherever its owner is.
    server = PipelineServer(pool_size=pool_size, batching=batching)
    paths = seed_inputs(server, tenants=1, requests=1)
    server.submit("tenant-a", [
        ApiCall("opencv", "imread", (paths[(0, 0)],)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ])
    (first,) = server.drain()
    assert first.ok, first.error
    kept = first.values[-1]
    assert isinstance(kept, RemoteHandle)
    for request in range(3):
        server.submit("tenant-a", [
            ApiCall("opencv", "threshold", (kept,)),
            ApiCall("opencv", "imwrite", (f"/out/{request}.png", PREV)),
        ])
        (response,) = server.drain()
        assert response.ok, response.error
        assert server.kernel.fs.exists(f"/out/{request}.png")
    server.shutdown()


def loaded(path):
    """imread, then GaussianBlur: the response's values are handles."""
    return [
        ApiCall("opencv", "imread", (path,)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ]


def payloads(agent):
    """The ids of the agent's buffers that still carry a payload."""
    return {b.buffer_id for b in agent.process.memory.buffers()
            if not b.released}


def owner_of(server, ref):
    [agent] = [agent for agent in server.pools.agents()
               if agent.process.pid == ref.owner_pid]
    return agent


def test_a_dropped_responses_objects_go_at_the_next_dispatch(seed_inputs):
    server = PipelineServer(pool_size=2)
    paths = seed_inputs(server, tenants=1, requests=2)
    server.submit("tenant-a", loaded(paths[(0, 0)]))
    (first,) = server.drain()
    assert first.ok, first.error
    refs = [handle.ref for handle in first.values]
    owners = [owner_of(server, ref) for ref in refs]
    for ref, owner in zip(refs, owners):
        assert ref.buffer_id in payloads(owner)
    # GaussianBlur copied imread's result into the processing agent.
    key = (refs[0].owner_pid, refs[0].owner_generation, refs[0].buffer_id)
    [copier] = [agent for agent in server.pools.agents()
                if key in agent._resident]
    copy = copier._resident[key]
    assert copy.buffer_id in payloads(copier)

    del first  # the tenant drops every handle
    server.submit("tenant-a", loaded(paths[(0, 1)]))
    (second,) = server.drain()
    assert second.ok, second.error
    # The second request leased the other member of each pool...
    leased = {owner_of(server, handle.ref) for handle in second.values}
    assert leased.isdisjoint(owners) and copier not in leased
    # ...and the first one's objects went in the members that own them.
    for ref, owner in zip(refs, owners):
        assert ref.buffer_id not in payloads(owner)
    assert not any(key in agent._resident for agent in server.pools.agents())
    assert copy.released and copy.payload is None
    assert copy.buffer_id not in payloads(copier)
    server.shutdown()


def test_a_ref_kept_past_its_handle_is_refused(seed_inputs):
    server = PipelineServer(pool_size=2)
    paths = seed_inputs(server, tenants=1, requests=2)
    server.submit("tenant-a", loaded(paths[(0, 0)]))
    (first,) = server.drain()
    kept = first.values[-1].ref
    del first
    server.submit("tenant-a", [ApiCall("opencv", "threshold", (kept,))])
    (refused,) = server.drain()
    assert not refused.ok
    assert refused.error.startswith("TenantIsolationError")
    assert "unknown ref" in refused.error
    # Refused before any agent saw it: nothing crashed or restarted.
    assert server.security_events == []
    assert server.pools.total_restarts() == 0
    assert all(agent.alive for agent in server.pools.agents())
    server.submit("tenant-a", standard_pipeline(paths[(0, 1)], "/out.png"))
    (after,) = server.drain()
    assert after.ok, after.error
    server.shutdown()


def serve_mixed(batching, keep):
    """Thirty requests from three tenants, alternating the standard
    pipeline and one that ends in handles; the client keeps every
    response it is handed, or drops each at once."""
    server = PipelineServer(pool_size=2, batching=batching)
    rng = np.random.default_rng(0)
    kept = []
    for index in range(30):
        path = f"/in/{index}.png"
        server.kernel.fs.write_file(path, rng.normal(size=(16, 16)))
        calls = (standard_pipeline(path, f"/out/{index}.png")
                 if index % 2 else loaded(path))
        server.submit(f"tenant-{index % 3}", calls)
        responses = server.step()
        if keep:
            kept.extend(responses)
    return server, kept


@pytest.mark.parametrize("batching", [True, False])
def test_keeping_or_dropping_responses_moves_no_virtual_number(batching):
    keeping, kept = serve_mixed(batching, keep=True)
    dropping, _ = serve_mixed(batching, keep=False)
    assert keeping.kernel.clock.now_ns == dropping.kernel.clock.now_ns
    assert keeping.responses == dropping.responses
    assert all(r.ok for r in keeping.responses)
    assert keeping.events == dropping.events
    # The log keeps outcomes only; what the client was handed has values.
    assert all(r.values is None for r in keeping.responses)
    assert [dataclasses.replace(r, values=None) for r in kept] \
        == keeping.responses
    # Kept handles keep their objects; dropped ones are gone.
    live = sum(len(payloads(a)) for a in keeping.pools.agents())
    assert live > sum(len(payloads(a)) for a in dropping.pools.agents())
    keeping.shutdown()
    dropping.shutdown()


def test_pooled_agents_stop_growing():
    server = PipelineServer(pool_size=2)
    rng = np.random.default_rng(0)
    counts = {}
    for index in range(1, 201):
        path = f"/in/{index}.png"
        server.kernel.fs.write_file(path, rng.normal(size=(16, 16)))
        server.submit(f"tenant-{index % 4}",
                      standard_pipeline(path, f"/out/{index}.png"))
        (response,) = server.step()
        assert response.ok, response.error
        del response
        if index in (50, 200):
            counts[index] = [len(payloads(agent))
                             for agent in server.pools.agents()]
    assert counts[50] == counts[200]
    assert max(counts[200]) <= 3
    server.shutdown()
