"""The per-call-site dispatch cache and prebuilt RPC frame templates.

The cache must make steady-state dispatch cheaper without ever routing
around enforcement: any state-machine transition flushes it, cached
dispatches still drive ``observe_call``, and a restarted agent's frame
template is rebuilt before the next send is framed.
"""

import numpy as np
import pytest

from repro.core.apitypes import FrameworkState
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import FrameworkCrash, SegmentationFault
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
        assert stats.hits >= 3  # steady-state calls served from cache
        assert stats.misses >= 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_state_transition_invalidates_the_cache(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        handle = gateway.call("opencv", "imread", path)
        gateway.call("opencv", "imread", path)
        gateway.call("opencv", "imread", path)  # warm
        invalidations = gateway.dispatch_stats.invalidations
        gateway.call("opencv", "GaussianBlur", handle)  # LOADING->PROCESSING
        gateway.call("opencv", "imread", path)  # flushed: must re-resolve
        assert gateway.dispatch_stats.invalidations > invalidations

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
        assert gateway.dispatch_stats.hit_rate == 0.0


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
