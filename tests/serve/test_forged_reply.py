"""A forged reply in a shared agent cannot move an object across tenants.

Tenant B loads a private image and keeps the handle.  Tenant A's
request then runs a ``GaussianBlur`` whose implementation replies with
B's ref, as an exploit in the shared processing agent could.  The host
refuses the reply, so A's request fails and never receives B's object,
and B's handle stays B's.
"""

import numpy as np
import pytest

from repro.core.gateway import ApiCall
from repro.core.rpc import RemoteHandle
from repro.errors import TenantIsolationError
from repro.frameworks.registry import get_api
from repro.serve import PREV, PipelineServer


@pytest.mark.parametrize("batching", [True, False])
def test_a_forged_reply_fails_the_request_and_keeps_the_owner(
        monkeypatch, batching):
    server = PipelineServer(pool_size=1, batching=batching)
    fs = server.kernel.fs
    private = np.random.default_rng(0).normal(size=(16, 16))
    fs.write_file("/data/b.png", private)
    fs.write_file("/data/a.png", np.zeros((16, 16)))

    server.submit("tenant-b", [ApiCall("opencv", "imread", ("/data/b.png",))])
    (loaded,) = server.drain()
    assert loaded.ok, loaded.error
    b_handle = loaded.values[-1]
    assert isinstance(b_handle, RemoteHandle)

    monkeypatch.setattr(
        get_api("opencv", "GaussianBlur"), "impl",
        lambda ctx, *args, **kwargs: b_handle.ref,
    )
    server.submit("tenant-a", [
        ApiCall("opencv", "imread", ("/data/a.png",)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ])
    (forged,) = server.drain()
    assert not forged.ok
    assert "ForgedReply" in forged.error or "does not own" in forged.error
    assert forged.values is None
    monkeypatch.undo()

    # B still owns its object, and A cannot present it.
    server.submit("tenant-b", [
        ApiCall("opencv", "imwrite", ("/out/b.png", b_handle)),
    ])
    (stored,) = server.drain()
    assert stored.ok, stored.error
    assert np.array_equal(np.asarray(fs.read_file("/out/b.png")), private)
    server.submit("tenant-a", [
        ApiCall("opencv", "imwrite", ("/out/a.png", b_handle)),
    ])
    (stolen,) = server.drain()
    assert not stolen.ok
    assert "TenantIsolationError" in stolen.error or "tenant-b" in stolen.error
    assert not fs.exists("/out/a.png")
    server.shutdown()


@pytest.mark.parametrize("batching", [True, False])
def test_a_forged_reply_naming_a_co_tenant_object_of_the_same_agent(
        monkeypatch, batching):
    """A shared agent's own object passes the pid/generation check,
    since the agent owns it, but minting it for another tenant is
    refused, and the reply is then handled as forged: the agent crashes
    and restarts, and its dead generation's refs go for every tenant."""
    server = PipelineServer(pool_size=1, batching=batching)
    fs = server.kernel.fs
    private = np.random.default_rng(1).normal(size=(16, 16))
    fs.write_file("/data/b.png", private)
    fs.write_file("/data/a.png", np.zeros((16, 16)))
    server.submit("tenant-b", [
        ApiCall("opencv", "imread", ("/data/b.png",)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ])
    (blurred,) = server.drain()
    assert blurred.ok, blurred.error
    b_handle = blurred.values[-1]  # lives in the shared processing agent
    shared = next(
        member.agent
        for pool in server.pools.pools.values()
        for member in pool.members
        if member.agent.process.pid == b_handle.ref.owner_pid
    )
    generation = shared.process.generation

    monkeypatch.setattr(
        get_api("opencv", "GaussianBlur"), "impl",
        lambda ctx, *args, **kwargs: b_handle.ref,
    )
    server.submit("tenant-a", [
        ApiCall("opencv", "imread", ("/data/a.png",)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ])
    (forged,) = server.drain()
    monkeypatch.undo()
    assert not forged.ok
    assert "replied with a ref" in forged.error
    assert forged.values is None  # A got nothing
    assert shared.process.generation > generation
    assert "ForgedReply" in [event.kind for event in server.security_events]
    with pytest.raises(TenantIsolationError):
        # Evicted with the dead generation: B's ref is gone for B too.
        server.registry.check("tenant-b", b_handle.ref)
    server.shutdown()
