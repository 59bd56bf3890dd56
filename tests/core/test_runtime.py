"""The FreePart runtime: dispatch, LDC, permissions, restart, crashes."""

import numpy as np
import pytest

from repro.core.apitypes import APIType, FrameworkState
from repro.core.rpc import RemoteHandle
from repro.core.runtime import FreePart, FreePartConfig
from repro.errors import (
    AgentUnavailable,
    AnnotationError,
    FrameworkCrash,
    StaleObjectRef,
)
from repro.frameworks.base import Mat
from repro.sim.memory import MemoryLayout


def fresh(config=None, used=None):
    freepart = FreePart(config=config)
    gateway = freepart.deploy(used_apis=used)
    return freepart.kernel, gateway


def write_image(kernel, path="/in.png", seed=0):
    rng = np.random.default_rng(seed)
    kernel.fs.write_file(path, rng.integers(0, 256, (16, 16, 3)).astype(float))
    return path


class TestDispatch:
    def test_five_processes(self):
        kernel, gateway = fresh()
        assert gateway.process_count == 5
        roles = [p.role for p in kernel.processes()]
        assert roles.count("agent") == 4

    def test_loading_api_runs_in_loading_agent(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        gateway.call("opencv", "imread", path)
        loading_agent = gateway.agents[0]
        assert loading_agent.stats.requests == 1
        assert loading_agent.partition.api_type is APIType.LOADING

    def test_data_object_results_are_handles(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        assert isinstance(handle, RemoteHandle)

    def test_by_value_results_returned_directly(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        classifier = gateway.call("opencv", "CascadeClassifier")
        rects = gateway.call(
            "opencv", "CascadeClassifier_detectMultiScale", classifier, handle
        )
        assert isinstance(rects, list)

    def test_state_machine_follows_calls(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        assert gateway.machine.state is FrameworkState.LOADING
        blurred = gateway.call("opencv", "GaussianBlur", handle)
        assert gateway.machine.state is FrameworkState.PROCESSING
        gateway.call("opencv", "imwrite", "/out.png", blurred)
        assert gateway.machine.state is FrameworkState.STORING

    def test_neutral_api_runs_in_current_agent(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        gateway.call("opencv", "cvtColor", handle)  # neutral, state=LOADING
        assert gateway.machine.state is FrameworkState.LOADING
        assert gateway.agents[0].stats.requests == 2

    def test_neutral_in_initialization_uses_processing_agent(self):
        kernel, gateway = fresh()
        gateway.call("opencv", "cvtColor", Mat(np.ones((4, 4))))
        assert gateway.agents[1].stats.requests == 1

    def test_exactly_once_per_agent(self):
        kernel, gateway = fresh()
        path = write_image(kernel)
        for _ in range(5):
            gateway.call("opencv", "imread", path)
        assert set(gateway.agents[0].sequence.executed.values()) == {1}


class TestLazyDataCopy:
    def test_chained_calls_copy_directly_between_agents(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        gateway.call("opencv", "GaussianBlur", handle)
        assert kernel.ipc.lazy_copies == 1
        assert kernel.ipc.nonlazy_copies == 0

    def test_same_agent_chain_needs_no_copy(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        blurred = gateway.call("opencv", "GaussianBlur", handle)  # 1 lazy
        gateway.call("opencv", "erode", blurred)                  # local
        assert kernel.ipc.lazy_copies == 1

    def test_messages_stay_small_with_ldc(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        before = kernel.ipc.message_bytes
        gateway.call("opencv", "GaussianBlur", handle)
        request_response_bytes = kernel.ipc.message_bytes - before
        assert request_response_bytes < 1024  # refs, not pixels

    def test_materialize_copies_to_host_nonlazy(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        data = gateway.materialize(handle)
        assert isinstance(data, np.ndarray)
        assert kernel.ipc.nonlazy_copies == 1

    def test_materialize_plain_values_passthrough(self):
        kernel, gateway = fresh()
        assert gateway.materialize(42) == 42
        assert isinstance(gateway.materialize(Mat(np.ones(2))), np.ndarray)

    def test_host_data_object_argument_copied_lazily(self):
        kernel, gateway = fresh()
        gateway.call("opencv", "GaussianBlur", Mat(np.ones((8, 8))))
        assert kernel.ipc.lazy_copies == 1

    def test_ldc_off_copies_eagerly(self):
        config = FreePartConfig(ldc=False)
        kernel, gateway = fresh(config)
        result = gateway.call("opencv", "imread", write_image(kernel))
        assert isinstance(result, Mat)  # real value, not a handle
        assert kernel.ipc.nonlazy_copies >= 1
        assert kernel.ipc.lazy_copies == 0

    def test_ldc_off_costs_more_time(self):
        image = Mat(np.ones((64, 64, 3)))

        def pipeline(config):
            kernel, gateway = fresh(config)
            start = kernel.clock.now_ns
            handle = gateway.call("opencv", "GaussianBlur", image)
            for _ in range(5):
                handle = gateway.call("opencv", "erode", handle)
            gateway.call("opencv", "imwrite", "/o.png", handle)
            return kernel.clock.now_ns - start

        assert pipeline(FreePartConfig(ldc=False)) > pipeline(FreePartConfig(ldc=True))


class TestTemporalPermissions:
    def test_annotated_host_data_protected_after_state_change(self):
        layout = MemoryLayout(name="t", tag="template", nbytes=64)
        config = FreePartConfig(annotations=(layout,))
        kernel, gateway = fresh(config)
        gateway.host_alloc("template", [1, 2, 3])
        gateway.call("opencv", "imread", write_image(kernel))
        from repro.errors import SegmentationFault

        with pytest.raises(SegmentationFault):
            gateway.host_write("template", [9])

    def test_unannotated_host_data_stays_writable(self):
        kernel, gateway = fresh()
        gateway.host_alloc("counter", 0)
        gateway.call("opencv", "imread", write_image(kernel))
        gateway.host_write("counter", 1)
        assert gateway.host_read("counter") == 1

    def test_enforcement_disabled(self):
        layout = MemoryLayout(name="t", tag="template", nbytes=64)
        config = FreePartConfig(annotations=(layout,), enforce_permissions=False)
        kernel, gateway = fresh(config)
        gateway.host_alloc("template", [1])
        gateway.call("opencv", "imread", write_image(kernel))
        gateway.host_write("template", [2])  # no protection

    def test_strict_annotations_reject_unknown_custom_data(self):
        config = FreePartConfig(strict_annotations=True)
        kernel, gateway = fresh(config)
        with pytest.raises(AnnotationError):
            gateway.host_alloc("mystery", {"a": 1})

    def test_strict_annotations_allow_framework_objects(self):
        config = FreePartConfig(strict_annotations=True)
        kernel, gateway = fresh(config)
        gateway.host_alloc("img", Mat(np.ones(2)))  # built-in definition


class TestCrashAndRestart:
    def _crash_loading_agent(self, gateway, kernel):
        from repro.attacks.exploits import DosExploit
        from repro.attacks.payloads import CraftedInput, benign_image

        crafted = CraftedInput("CVE-2017-14136", DosExploit(), benign_image())
        kernel.fs.write_file("/evil.png", crafted)
        with pytest.raises(FrameworkCrash):
            gateway.call("opencv", "imread", "/evil.png")

    def test_crash_is_contained_and_agent_restarted(self):
        kernel, gateway = fresh()
        self._crash_loading_agent(gateway, kernel)
        assert gateway.host.alive
        assert gateway.total_crashes() == 1
        assert gateway.total_restarts() == 1
        # The replacement works.
        handle = gateway.call("opencv", "imread", write_image(kernel))
        assert isinstance(handle, RemoteHandle)

    def test_restart_disabled_leaves_agent_down(self):
        config = FreePartConfig(restart_agents=False)
        kernel, gateway = fresh(config)
        self._crash_loading_agent(gateway, kernel)
        with pytest.raises(AgentUnavailable):
            gateway.call("opencv", "imread", write_image(kernel))

    def test_refs_into_crashed_agent_go_stale(self):
        kernel, gateway = fresh()
        handle = gateway.call("opencv", "imread", write_image(kernel))
        self._crash_loading_agent(gateway, kernel)
        with pytest.raises(StaleObjectRef):
            gateway.materialize(handle)

    def test_security_event_recorded(self):
        kernel, gateway = fresh()
        self._crash_loading_agent(gateway, kernel)
        assert gateway.events
        assert gateway.events[0].agent == "data_loading"


class TestSyscallRestriction:
    def test_agent_filters_sealed(self):
        kernel, gateway = fresh()
        for agent in gateway.agents.values():
            # Each agent runs the filter its spec built, not the host's.
            assert (agent.process.filter.allowed_names
                    == agent.filter_spec.allowed)
            host_names = gateway.host.filter.allowed_names
            assert agent.process.filter.allowed_names < host_names

    def test_init_phase_ends_after_first_request(self):
        kernel, gateway = fresh()
        agent = gateway.agents[2]  # visualizing
        assert agent.process.filter.in_init_phase
        gateway.call("opencv", "imshow", "w", Mat(np.ones((4, 4))))
        assert not agent.process.filter.in_init_phase

    def test_visualizing_connect_works_then_gets_restricted(self):
        kernel, gateway = fresh()
        gateway.call("opencv", "imshow", "w", Mat(np.ones((4, 4))))
        gateway.call("opencv", "imshow", "w", Mat(np.ones((4, 4))))
        agent = gateway.agents[2]
        decision = agent.process.filter.would_allow("mprotect")
        assert not decision.allowed

    def test_restriction_disabled_gives_permissive_agents(self):
        config = FreePartConfig(restrict_syscalls=False)
        kernel, gateway = fresh(config)
        agent = gateway.agents[1]
        assert agent.process.filter.would_allow("fork").allowed


class TestPlanOptions:
    def test_partition_count_above_four(self):
        config = FreePartConfig(partition_count=7)
        kernel, gateway = fresh(config)
        assert gateway.process_count == 8

    def test_shutdown_closes_agents(self):
        kernel, gateway = fresh()
        gateway.shutdown()
        assert all(not a.process.alive for a in gateway.agents.values())
