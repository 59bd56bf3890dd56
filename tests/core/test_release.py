"""Agents release the objects the host can no longer reach.

When the host drops its last :class:`RemoteHandle` to an agent object,
the gateway releases it at its next call: the owner unmaps the buffer,
and every agent holding a lazy copy drops the copy.  A buffer still
waiting for its state's freeze keeps its pages until the freeze has
protected it, so a release moves no virtual number.  A ref that outlives
its handle, or whose owner crashed, is stale; reading it blames no agent.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.apps.base import Workload, execute_app
from repro.apps.suite import make_app
from repro.attacks.scenarios import build_gateway
from repro.core.apitypes import APIType, FrameworkState
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import StaleObjectRef
from repro.sim.kernel import SimKernel

SEE_IN_THE_DARK = 21


def deploy(**config):
    freepart = FreePart(config=FreePartConfig(**config))
    gateway = freepart.deploy()
    freepart.kernel.fs.write_file("/in.png", np.ones((64, 64)))
    return freepart.kernel, gateway


def agent_of(gateway, api_type):
    return gateway.agents[gateway.plan.partition_for_type(api_type).index]


def mapped(agent, buffer_id):
    return buffer_id in {b.buffer_id for b in agent.process.memory.buffers()}


def run_app(technique, items, trace=True):
    """Traced peak bytes (0 untraced) and the most buffers any live
    agent holds at the end."""
    app = make_app(SEE_IN_THE_DARK)
    kernel = SimKernel()
    gateway = build_gateway(technique, kernel, app=app)
    workload = Workload(items=items, image_size=16, seed=42)
    peak = 0
    if trace:
        tracemalloc.start()
        try:
            report = execute_app(app, gateway, workload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    else:
        report = execute_app(app, gateway, workload)
    assert not report.failed, report.error
    live = max(
        (len(list(p.memory.buffers())) for p in kernel.processes()
         if p.role == "agent" and p.alive),
        default=0,
    )
    gateway.shutdown()
    return peak, live


def test_see_in_the_dark_holds_about_what_its_native_run_holds():
    native_peak, _ = run_app("none", items=2)
    freepart_peak, live = run_app("freepart", items=2)
    # Every dropped result used to stay in its agent: 38x native.
    assert freepart_peak <= 3 * native_peak
    # What the agents hold at the end does not grow with the input.
    assert run_app("freepart", items=4, trace=False)[1] == live


def test_dropping_a_result_moves_no_virtual_number_and_unmaps_it():
    def run(drop):
        kernel, gateway = deploy()
        processing = agent_of(gateway, APIType.PROCESSING)
        visualizing = agent_of(gateway, APIType.VISUALIZING)
        h = gateway.call("opencv", "imread", "/in.png")
        b = gateway.call("opencv", "GaussianBlur", h)
        c = gateway.call("opencv", "threshold", b)
        b_id, c_id = b.ref.buffer_id, c.ref.buffer_id
        if drop:
            del b  # while its state, processing, is still current
        gateway.call("opencv", "imshow", "w", c)
        # The freeze out of processing protected b, then unmapped it.
        assert mapped(processing, b_id) != drop
        key = (c.ref.owner_pid, c.ref.owner_generation, c_id)
        copy_id = visualizing._resident[key].buffer_id
        if drop:
            del c  # already frozen in its owner; copied while visualizing
        gateway.call("opencv", "waitKey", 1)
        assert mapped(processing, c_id) != drop  # unmapped at once
        # The copy waits for the freeze out of visualizing.
        assert mapped(visualizing, copy_id)
        copy_buffer = visualizing.process.memory.get_buffer(copy_id)
        assert copy_buffer.released == drop
        gateway.call("opencv", "imwrite", "/out.png", h)
        assert mapped(visualizing, copy_id) != drop
        transitions = [
            (t.previous, t.current, t.protected_buffers)
            for t in gateway.machine.transitions
        ]
        return transitions, gateway.machine.protected_total, kernel.clock.now_ns

    kept, dropped = run(drop=False), run(drop=True)
    assert dropped == kept


@pytest.mark.parametrize("enforce", [True, False])
def test_leaving_a_state_unmaps_what_it_released(enforce):
    kernel, gateway = deploy(enforce_permissions=enforce)
    h = gateway.call("opencv", "imread", "/in.png")
    for _ in range(100):
        h = gateway.call("opencv", "GaussianBlur", h)
    gateway.call("opencv", "imwrite", "/out.png", h)
    processing = FrameworkState.PROCESSING.value
    left = [
        b for agent in gateway.agents.values()
        for b in agent.process.memory.buffers()
        if b.released and b.origin_state == processing
    ]
    assert left == []
    del h  # the last blur's state, processing, is already frozen
    gateway.call("opencv", "imwrite", "/again.png", np.ones((8, 8)))
    # The imread result and the last blur were unmapped on release:
    # their states' freezes had already passed them.  Only the storing
    # agent's copy of the blur waits, because storing is still current.
    storing = agent_of(gateway, APIType.STORING)
    left = [
        (agent is storing, b.origin_state)
        for agent in gateway.agents.values()
        for b in agent.process.memory.buffers()
        if b.released
    ]
    assert left == [(True, FrameworkState.STORING.value)]


def test_a_ref_kept_after_its_handle_died_is_stale():
    kernel, gateway = deploy()
    h = gateway.call("opencv", "imread", "/in.png")
    b = gateway.call("opencv", "GaussianBlur", h)
    loaded, blurred = h.ref, b.ref
    del h, b
    # The loader's buffer was frozen, so it is unmapped; the blurred
    # result still waits for the freeze, its payload dropped.
    with pytest.raises(StaleObjectRef, match="released"):
        gateway.call("opencv", "GaussianBlur", loaded)
    with pytest.raises(StaleObjectRef, match="released"):
        gateway.call("opencv", "GaussianBlur", blurred)
    assert gateway.total_crashes() == 0
    assert gateway.total_restarts() == 0
    assert gateway.events == []


@pytest.mark.parametrize("restart_agents", [True, False])
def test_reading_a_crashed_owners_object_blames_no_agent(restart_agents):
    kernel, gateway = deploy(restart_agents=restart_agents)
    h = gateway.call("opencv", "imread", "/in.png")
    agent_of(gateway, APIType.LOADING).process.crash("exploited")
    processing = agent_of(gateway, APIType.PROCESSING)
    with pytest.raises(StaleObjectRef, match="crashed"):
        gateway.call("opencv", "GaussianBlur", h)
    assert processing.alive
    assert processing.stats.crashes == 0
    assert processing.stats.restarts == 0
    assert gateway.events == []


def test_a_copied_handle_is_the_handle():
    kernel, gateway = deploy()
    h = gateway.call("opencv", "imread", "/in.png")
    assert copy.copy(h) is h
    assert copy.deepcopy({"current": [h]})["current"][0] is h
    del h
    assert len(gateway._released) == 1  # one death, one release
