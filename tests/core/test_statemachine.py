"""Temporal state machine and Fig. 3 permission enforcement."""

import pytest

from repro.core.apitypes import APIType, FrameworkState
from repro.core.statemachine import TemporalStateMachine
from repro.errors import SegmentationFault
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


def machine_for(kernel, processes, **kwargs):
    return TemporalStateMachine(processes=lambda: processes, **kwargs)


def test_starts_in_initialization(kernel):
    machine = machine_for(kernel, [])
    assert machine.state is FrameworkState.INITIALIZATION


def test_transition_on_new_type(kernel):
    machine = machine_for(kernel, [])
    transition = machine.observe_call(APIType.LOADING)
    assert transition is not None
    assert machine.state is FrameworkState.LOADING
    assert transition.previous is FrameworkState.INITIALIZATION


def test_same_type_no_transition(kernel):
    machine = machine_for(kernel, [])
    machine.observe_call(APIType.LOADING)
    assert machine.observe_call(APIType.LOADING) is None
    assert machine.transition_count() == 1


def test_neutral_never_transitions(kernel):
    machine = machine_for(kernel, [])
    machine.observe_call(APIType.LOADING)
    assert machine.observe_call(APIType.PROCESSING, neutral=True) is None
    assert machine.state is FrameworkState.LOADING


def test_agent_buffers_become_readonly_on_transition(kernel):
    agent = kernel.spawn("agent", role="agent", charge=False)
    machine = machine_for(kernel, [agent])
    machine.observe_call(APIType.LOADING)
    buffer = agent.memory.alloc_object("image", tag="img",
                                       origin_state="data_loading")
    transition = machine.observe_call(APIType.PROCESSING)
    assert transition.protected_buffers == 1
    with pytest.raises(SegmentationFault):
        agent.memory.store(buffer.buffer_id, "evil")


def test_host_buffers_need_annotation(kernel):
    host = kernel.spawn("host", role="host", charge=False)
    annotated = machine_for(kernel, [host], annotated_tags=["template"])
    host.memory.alloc_object([1], tag="template", origin_state="initialization")
    host.memory.alloc_object([2], tag="scratch", origin_state="initialization")
    transition = annotated.observe_call(APIType.LOADING)
    assert transition.protected_buffers == 1
    template = host.memory.find_buffer("template")
    scratch = host.memory.find_buffer("scratch")
    assert not host.memory.is_writable(template.buffer_id)
    assert host.memory.is_writable(scratch.buffer_id)


def test_fig3_timeline_template_then_omrcrop(kernel):
    """Fig. 3: template RO at the imread call; OMRCrop RO when
    processing begins; both RO afterwards."""
    host = kernel.spawn("host", role="host", charge=False)
    machine = machine_for(
        kernel, [host], annotated_tags=["template", "OMRCrop"]
    )
    template = host.memory.alloc_object("t", tag="template",
                                        origin_state=machine.state_label)
    machine.observe_call(APIType.LOADING)          # imread
    assert not host.memory.is_writable(template.buffer_id)
    omrcrop = host.memory.alloc_object("img", tag="OMRCrop",
                                       origin_state=machine.state_label)
    assert host.memory.is_writable(omrcrop.buffer_id)  # writable during loading
    machine.observe_call(APIType.PROCESSING)       # GaussianBlur
    assert not host.memory.is_writable(omrcrop.buffer_id)
    machine.observe_call(APIType.VISUALIZING)      # imshow
    assert not host.memory.is_writable(template.buffer_id)
    assert not host.memory.is_writable(omrcrop.buffer_id)


def test_enforce_false_tracks_but_does_not_protect(kernel):
    agent = kernel.spawn("a", role="agent", charge=False)
    machine = machine_for(kernel, [agent], enforce=False)
    machine.observe_call(APIType.LOADING)
    buffer = agent.memory.alloc_object("x", tag="x", origin_state="data_loading")
    machine.observe_call(APIType.PROCESSING)
    assert agent.memory.is_writable(buffer.buffer_id)
    assert machine.transition_count() == 2


def test_dead_processes_skipped(kernel):
    agent = kernel.spawn("a", role="agent", charge=False)
    machine = machine_for(kernel, [agent])
    machine.observe_call(APIType.LOADING)
    agent.memory.alloc_object("x", tag="x", origin_state="data_loading")
    agent.crash("dead")
    transition = machine.observe_call(APIType.PROCESSING)
    assert transition.protected_buffers == 0


def test_states_visited(kernel):
    machine = machine_for(kernel, [])
    machine.observe_call(APIType.LOADING)
    machine.observe_call(APIType.PROCESSING)
    assert machine.states_visited() == (
        FrameworkState.INITIALIZATION, FrameworkState.LOADING,
        FrameworkState.PROCESSING,
    )
