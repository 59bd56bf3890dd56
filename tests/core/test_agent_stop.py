"""A stopped agent gives its memory back.

An exited process releases its whole address space, and stopping an
agent also drops the replies and resident copies it cached.  Without
that, the results of every finished one-shot run stayed reachable from
the dead gateway until a full garbage collection.
"""

import numpy as np
import pytest

from repro.core.rpc import ObjectStore
from repro.core.runtime import FreePart
from repro.errors import StaleObjectRef
from repro.frameworks.base import Mat
from repro.sim.kernel import SimKernel


def run_pipeline():
    freepart = FreePart()
    kernel = freepart.kernel
    gateway = freepart.deploy()
    kernel.fs.write_file("/in.png", np.ones((8, 8)))
    handle = gateway.call("opencv", "imread", "/in.png")
    blurred = gateway.call("opencv", "GaussianBlur", handle)
    gateway.call("opencv", "imwrite", "/out.png", blurred)
    return kernel, gateway


def test_shutdown_releases_every_agents_memory_and_caches():
    kernel, gateway = run_pipeline()
    agents = list(gateway.agents.values())
    assert any(list(agent.process.memory.buffers()) for agent in agents)
    assert any(agent._reply_cache for agent in agents)
    assert any(agent._resident for agent in agents)
    clock_ns = kernel.clock.now_ns
    gateway.shutdown()
    for agent in agents:
        assert not agent.process.alive
        assert list(agent.process.memory.buffers()) == []
        assert agent.process.memory.resident_bytes == 0
        assert not agent._reply_cache
        assert not agent._resident
        assert agent.channel.request.closed
    assert kernel.clock.now_ns == clock_ns  # releasing costs no time


def test_exit_frees_buffers_but_a_crash_keeps_them():
    kernel = SimKernel()
    exited = kernel.spawn("a", charge=False)
    crashed = kernel.spawn("b", charge=False)
    kept = []
    for process in (exited, crashed):
        buffer = process.memory.alloc_object(np.ones(4096), tag="x")
        kept.append(buffer)
    exited.exit()
    crashed.crash("exploited")
    assert list(exited.memory.buffers()) == []
    assert kept[0].freed and kept[0].payload is None
    assert not exited.memory.is_writable(kept[0].buffer_id)
    assert [b.buffer_id for b in crashed.memory.buffers()] == [
        kept[1].buffer_id
    ]
    assert not kept[1].freed


def test_exit_releases_shared_segment_mappings():
    kernel = SimKernel()
    source = kernel.spawn("src", charge=False)
    destination = kernel.spawn("dst", charge=False)
    buffer = kernel.transfer(
        source, destination, np.ones((64, 64)), zero_copy=True
    )
    segment = buffer.segment
    assert segment is not None and segment.mappings == 1
    destination.exit()
    assert segment.mappings == 0
    assert buffer.segment is None


def test_fetch_from_an_exited_owner_is_stale():
    kernel = SimKernel()
    owner = kernel.spawn("owner", charge=False)
    store = ObjectStore(owner)
    ref = store.register(Mat(np.ones((4, 4))), state_label="initialization")
    assert store.fetch(ref) is not None
    owner.exit()
    with pytest.raises(StaleObjectRef, match="exited"):
        store.fetch(ref)
