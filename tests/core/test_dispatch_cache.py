"""The per-call-site dispatch cache and prebuilt RPC frame templates.

The cache must make steady-state dispatch cheaper without ever routing
around enforcement.  It holds only what no framework state changes (an
API and its categorization entry), so no transition invalidates it; the
property that matters is that the state is read on every dispatch, hit
or miss: a cached call still drives ``observe_call``, and a cached
type-neutral call runs in the agent of the state it is made in, in the
one-shot runtime and across the requests that share a server's route
memo.  A restarted agent's frame template is rebuilt before the next
send is framed.
"""

import numpy as np
import pytest

from repro.core.apitypes import APIType, FrameworkState
from repro.core.gateway import ApiCall
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import FrameworkCrash, SegmentationFault
from repro.serve import PREV, PipelineServer
from repro.sim.memory import MemoryLayout


def fresh(config=None):
    freepart = FreePart(config=config)
    gateway = freepart.deploy()
    return freepart.kernel, gateway


def write_image(kernel, path="/in.png", seed=0):
    rng = np.random.default_rng(seed)
    kernel.fs.write_file(path, rng.integers(0, 256, (16, 16, 3)).astype(float))
    return path


class TestDispatchCache:
    def test_repeat_calls_hit_the_cache(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        for _ in range(5):
            gateway.call("opencv", "imread", path)
        stats = gateway.dispatch_stats
        assert stats.misses == 1  # the first call resolves the site
        assert stats.hits == 4    # steady-state calls served from cache

    def test_a_transition_keeps_the_cache_warm(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        handle = gateway.call("opencv", "imread", path)
        gateway.call("opencv", "GaussianBlur", handle)  # LOADING->PROCESSING
        gateway.call("opencv", "imread", path)  # PROCESSING->LOADING
        assert gateway.dispatch_stats.misses == 2
        assert gateway.dispatch_stats.hits == 1

    def test_a_warm_neutral_route_follows_the_state(self):
        """``cvtColor`` is type-neutral: it runs in the agent of the
        state it is called in, even once its route is cached."""
        kernel, gateway = fresh()
        path = write_image(kernel)
        loading = gateway.plan.partition_for_type(APIType.LOADING).index
        processing = gateway.plan.partition_for_type(APIType.PROCESSING).index
        image = gateway.call("opencv", "imread", path)
        gray = gateway.call("opencv", "cvtColor", image)  # warms the route
        assert gray.ref.owner_pid == gateway.agents[loading].process.pid
        blurred = gateway.call("opencv", "GaussianBlur", image)
        assert gateway.machine.state is FrameworkState.PROCESSING
        hits = gateway.dispatch_stats.hits
        gray = gateway.call("opencv", "cvtColor", blurred)
        assert gateway.dispatch_stats.hits == hits + 1
        assert gray.ref.owner_pid == gateway.agents[processing].process.pid

    def test_cached_dispatch_still_advances_the_state_machine(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        handle = gateway.call("opencv", "imread", path)
        gateway.call("opencv", "imread", path)  # cache warm for imread
        gateway.call("opencv", "GaussianBlur", handle)
        assert gateway.machine.state is FrameworkState.PROCESSING
        # Re-dispatching the cached call site must still transition back.
        gateway.call("opencv", "imread", path)
        assert gateway.machine.state is FrameworkState.LOADING

    def test_stale_cache_cannot_bypass_frozen_write_sigsegv(self):
        """The security property: a warm cache must not skip the
        ``observe_call`` that arms temporal freezing, so a write to the
        annotated buffer after cached dispatches still faults."""
        layout = MemoryLayout(name="t", tag="template", nbytes=64)
        kernel, gateway = fresh(FreePartConfig(annotations=(layout,)))
        gateway.host_alloc("template", [1, 2, 3])
        path = write_image(kernel)
        for _ in range(4):  # the last three dispatches are cache hits
            gateway.call("opencv", "imread", path)
        assert gateway.dispatch_stats.hits >= 2
        with pytest.raises(SegmentationFault):
            gateway.host_write("template", [9])

    def test_hit_rate_is_zero_before_any_dispatch(self):
        kernel, gateway = fresh()
        assert gateway.dispatch_stats.hits == 0
        assert gateway.dispatch_stats.misses == 0


class TestServerRouteMemo:
    def test_a_warm_served_route_follows_each_requests_state(self):
        """Tenant A warms the server's memo with ``cvtColor`` in
        LOADING; tenant B calls it in PROCESSING and must get the
        processing agent, and A's next request the loading agent."""
        server = PipelineServer(pool_size=1)
        write_image(server.kernel)

        def agent_pid(api_type):
            index = server.plan.partition_for_type(api_type).index
            return server.pools.pools[index].members[0].agent.process.pid

        def loading_gray():
            return [ApiCall("opencv", "imread", ("/in.png",)),
                    ApiCall("opencv", "cvtColor", (PREV,))]

        server.submit("a", loading_gray())
        [warm] = server.drain()
        assert ("opencv", "cvtColor") in server.routes
        server.submit("b", [
            ApiCall("opencv", "imread", ("/in.png",)),
            ApiCall("opencv", "GaussianBlur", (PREV,)),
            ApiCall("opencv", "cvtColor", (PREV,)),
        ])
        server.submit("a", loading_gray())
        by_tenant = {r.tenant_id: r for r in server.drain()}
        for response in (warm, *by_tenant.values()):
            assert response.ok, response.error
        assert warm.values[-1].ref.owner_pid == agent_pid(APIType.LOADING)
        assert (by_tenant["b"].values[-1].ref.owner_pid
                == agent_pid(APIType.PROCESSING))
        assert (by_tenant["a"].values[-1].ref.owner_pid
                == agent_pid(APIType.LOADING))


class TestFrameTemplates:
    def test_first_send_builds_then_reuses_the_template(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        gateway.call("opencv", "imread", path)
        assert gateway.dispatch_stats.frame_rebuilds == 1
        framed_after_first = kernel.ipc.framed_messages
        gateway.call("opencv", "imread", path)
        gateway.call("opencv", "imread", path)
        # Template reused: no rebuild, both roundtrips fully framed.
        assert gateway.dispatch_stats.frame_rebuilds == 1
        assert kernel.ipc.framed_messages == framed_after_first + 4

    def test_framed_roundtrip_is_cheaper(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        gateway.call("opencv", "imread", path)  # unframed: builds template

        def call_ns():
            start = kernel.clock.now_ns
            gateway.call("opencv", "imread", path)
            return kernel.clock.now_ns - start

        second = call_ns()
        third = call_ns()
        assert second == third  # steady state is stable
        cost = kernel.clock.cost_model
        discount = cost.ipc_message_ns - cost.ipc_framed_message_ns
        assert discount > 0
        # Both directions of the roundtrip enjoy the framed discount:
        # a framed send charges the framed per-message cost.
        channel = kernel.channel_pair("framed-probe").request
        before = kernel.clock.now_ns
        channel.send(1, "request", b"", framed=True)
        assert kernel.clock.now_ns - before == cost.ipc_framed_message_ns

    def test_restart_forces_a_frame_rebuild(self):
        """A stale template must never frame a message for a process it
        was not built against: the restarted agent's first roundtrip is
        unframed while the template is rebuilt."""
        from repro.attacks.exploits import DosExploit
        from repro.attacks.payloads import CraftedInput, benign_image

        kernel, gateway = fresh()
        path = write_image(kernel)
        gateway.call("opencv", "imread", path)
        rebuilds = gateway.dispatch_stats.frame_rebuilds
        crafted = CraftedInput("CVE-2017-14136", DosExploit(), benign_image())
        kernel.fs.write_file("/evil.png", crafted)
        with pytest.raises(FrameworkCrash):
            gateway.call("opencv", "imread", "/evil.png")
        framed_before = kernel.ipc.framed_messages
        gateway.call("opencv", "imread", path)  # restarts the agent
        assert gateway.dispatch_stats.frame_rebuilds == rebuilds + 1
        # The post-restart request went out unframed (template rebuild);
        # only the response of that roundtrip could have been framed.
        assert kernel.ipc.framed_messages - framed_before <= 1
        gateway.call("opencv", "imread", path)
        assert gateway.dispatch_stats.frame_rebuilds == rebuilds + 1
