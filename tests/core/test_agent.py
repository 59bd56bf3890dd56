"""Agent processes: execution, materialization, checkpointing."""

import numpy as np
import pytest

from repro.core.agent import AgentProcess, CHECKPOINT_INTERVAL
from repro.core.apitypes import APIType
from repro.core.partitioner import Partition
from repro.core.rpc import ObjectRef, RpcRequest, request_nbytes
from repro.errors import AgentUnavailable, StaleObjectRef
from repro.frameworks.base import Mat
from repro.frameworks.registry import get_api
from repro.sim.filters import FilterSpec
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


def make_agent(kernel, api_type=APIType.PROCESSING, qualnames=("cv2.GaussianBlur",),
               filter_spec=None, restrict=False):
    partition = Partition(index=1, label=api_type.value, api_type=api_type,
                          qualnames=tuple(qualnames))
    return AgentProcess(kernel, partition, filter_spec=filter_spec,
                        restrict_syscalls=restrict)


def request_for(agent, qualname, *args, state="data_processing"):
    return RpcRequest(
        seq=agent.sequence.next_seq(), api_qualname=qualname,
        args=args, kwargs=(), state_label=state,
        nbytes=request_nbytes(args, ()),
    )


def no_refs(ref):
    raise AssertionError("resolver should not be called")


def test_execute_runs_api_and_counts(kernel):
    agent = make_agent(kernel)
    api = get_api("opencv", "GaussianBlur")
    request = request_for(agent, api.spec.qualname, Mat(np.ones((4, 4))))
    response = agent.execute(api, request, no_refs, ldc=False)
    assert isinstance(response.value, Mat)
    assert agent.stats.requests == 1


def test_ldc_result_registered_as_ref(kernel):
    agent = make_agent(kernel)
    api = get_api("opencv", "GaussianBlur")
    request = request_for(agent, api.spec.qualname, Mat(np.ones((4, 4))))
    response = agent.execute(api, request, no_refs, ldc=True)
    assert isinstance(response.value, ObjectRef)
    assert response.value.owner_pid == agent.process.pid
    # and it is fetchable locally
    assert isinstance(agent.fetch_local(response.value), Mat)


def test_local_ref_materializes_without_copy(kernel):
    agent = make_agent(kernel)
    api = get_api("opencv", "GaussianBlur")
    first = agent.execute(
        api, request_for(agent, api.spec.qualname, Mat(np.ones((4, 4)))),
        no_refs, ldc=True,
    )
    before = kernel.ipc.lazy_copies
    agent.execute(
        api, request_for(agent, api.spec.qualname, first.value),
        no_refs, ldc=True,
    )
    assert kernel.ipc.lazy_copies == before


def test_foreign_ref_copied_lazily(kernel):
    owner = kernel.spawn("owner", charge=False)
    payload = Mat(np.ones((8, 8)))
    buffer = owner.memory.alloc_object(payload, tag="img")
    ref = ObjectRef(owner.pid, owner.generation, buffer.buffer_id,
                    payload.nbytes, kind="mat")
    agent = make_agent(kernel)
    api = get_api("opencv", "GaussianBlur")
    agent.execute(api, request_for(agent, api.spec.qualname, ref),
                  lambda r: payload, ldc=True)
    assert kernel.ipc.lazy_copies == 1


def test_nested_list_refs_resolved(kernel):
    owner = kernel.spawn("owner", charge=False)
    payload = Mat(np.ones((4, 4)))
    buffer = owner.memory.alloc_object(payload, tag="img")
    ref = ObjectRef(owner.pid, owner.generation, buffer.buffer_id,
                    payload.nbytes, kind="mat")
    agent = make_agent(kernel, api_type=APIType.STORING)
    api = get_api("opencv", "imwritemulti")
    request = request_for(agent, api.spec.qualname, "/out.tiff", [ref])
    response = agent.execute(api, request, lambda r: payload, ldc=True)
    assert response.value is True


def test_restart_invalidates_store_and_bumps_generation(kernel):
    agent = make_agent(kernel)
    api = get_api("opencv", "GaussianBlur")
    response = agent.execute(
        api, request_for(agent, api.spec.qualname, Mat(np.ones((2, 2)))),
        no_refs, ldc=True,
    )
    old_pid = agent.process.pid
    agent.process.crash("exploited")
    agent.restart()
    assert agent.process.pid != old_pid
    assert agent.stats.restarts == 1
    with pytest.raises(StaleObjectRef):
        agent.fetch_local(response.value)


def test_restart_reinstalls_sealed_filter(kernel):
    spec = FilterSpec(allowed=frozenset({"brk"}))
    agent = make_agent(kernel, filter_spec=spec, restrict=True)
    agent.process.crash("x")
    agent.restart()
    assert agent.process.filter.allowed_names == {"brk"}


def test_require_alive(kernel):
    agent = make_agent(kernel)
    agent.require_alive()
    agent.process.crash("x")
    with pytest.raises(AgentUnavailable):
        agent.require_alive()


def test_stateful_api_checkpointing(kernel):
    agent = make_agent(kernel)
    api = get_api("pytorch", "backward")  # DATA_STATE stateful
    for _ in range(CHECKPOINT_INTERVAL):
        request = request_for(agent, api.spec.qualname,
                              Mat(np.ones(4)), state="data_processing")
        agent.execute(api, request, no_refs, ldc=False)
    assert agent.stats.stateful_calls == CHECKPOINT_INTERVAL
    assert agent.stats.checkpoints == 1
    assert api.spec.qualname in agent._checkpoint


def test_restart_restores_from_checkpoint_flag(kernel):
    agent = make_agent(kernel)
    api = get_api("pytorch", "backward")
    agent.execute(
        api, request_for(agent, api.spec.qualname, Mat(np.ones(2))),
        no_refs, ldc=False,
    )
    agent.process.crash("x")
    agent.restart()
    assert agent.stats.restored_from_checkpoint == 1
