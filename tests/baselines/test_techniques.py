"""The five baseline techniques: semantics, traffic, and weaknesses."""

import numpy as np
import pytest

from repro.apps.base import Workload, execute_app
from repro.apps.suite import make_app
from repro.baselines import (
    CodeApiDataIsolation,
    CodeApiIsolation,
    EntireLibraryIsolation,
    IndividualApiIsolation,
    MemoryBasedIsolation,
    TECHNIQUES,
)
from repro.errors import SegmentationFault
from repro.frameworks.base import Mat
from repro.sim.kernel import SimKernel

WORKLOAD = Workload(items=2, image_size=16)


def run_omr(technique_key):
    app = make_app(8)
    kernel = SimKernel()
    gateway = TECHNIQUES[technique_key](kernel)
    report = execute_app(app, gateway, WORKLOAD)
    return kernel, gateway, report


def test_registry_has_all_six():
    assert set(TECHNIQUES) == {
        "none", "code_api", "code_api_data", "lib_entire",
        "lib_individual", "memory_based",
    }


@pytest.mark.parametrize("key", sorted(TECHNIQUES))
def test_every_technique_runs_omrchecker(key):
    kernel, gateway, report = run_omr(key)
    assert not report.failed, report.error
    assert report.result.items_processed == WORKLOAD.items


class TestCodeApi:
    def test_three_worker_partitions_max(self):
        kernel, gateway, _ = run_omr("code_api")
        # p1 (init+load) and p2 (imshow); the rest runs with host code.
        assert gateway.process_count <= 4

    def test_template_colocated_with_loader(self):
        kernel = SimKernel()
        gateway = CodeApiIsolation(kernel)
        gateway.host_alloc("template.QBlocks.orig", [1])
        p1 = gateway._worker("p1-init-and-load")
        assert p1.memory.find_buffer("template.QBlocks.orig") is not None

    def test_gui_breakage_warning(self):
        kernel, gateway, _ = run_omr("code_api")
        assert gateway.functionality_warnings

    def test_processing_calls_are_local(self):
        kernel = SimKernel()
        gateway = CodeApiIsolation(kernel)
        before = kernel.ipc.messages
        gateway.call("opencv", "GaussianBlur", Mat(np.ones((4, 4))))
        assert kernel.ipc.messages == before


class TestCodeApiData:
    def test_data_gets_own_process(self):
        kernel = SimKernel()
        gateway = CodeApiDataIsolation(kernel)
        gateway.host_alloc("template.QBlocks.orig", [1])
        home = gateway._data_homes["template.QBlocks.orig"]
        assert home.role == "agent"
        assert home.memory.find_buffer("template.QBlocks.orig") is not None

    def test_every_data_access_is_an_ipc_round(self):
        kernel = SimKernel()
        gateway = CodeApiDataIsolation(kernel)
        gateway.host_alloc("t", [1])
        before = kernel.ipc.messages
        gateway.host_read("t")
        assert kernel.ipc.messages == before + 2

    def test_hot_loop_generates_most_ipc(self):
        _, _, report_data = run_omr("code_api_data")
        _, _, report_entire = run_omr("lib_entire")
        assert report_data.ipc_messages > report_entire.ipc_messages

    def test_writeback_does_not_clobber_variable(self):
        kernel = SimKernel()
        gateway = CodeApiDataIsolation(kernel)
        gateway.host_alloc("t", [1, 2])
        gateway.call("opencv", "GaussianBlur", Mat(np.ones((4, 4))))
        assert gateway.host_read("t") == [1, 2]


class TestEntireLibrary:
    def test_two_processes(self):
        kernel, gateway, _ = run_omr("lib_entire")
        assert gateway.process_count == 2

    def test_shared_memory_means_no_per_call_copies(self):
        kernel = SimKernel()
        gateway = EntireLibraryIsolation(kernel)
        gateway.call("opencv", "GaussianBlur", Mat(np.ones((16, 16))))
        assert kernel.ipc.total_copies == 0
        assert kernel.ipc.messages == 2  # request + response only

    def test_shared_data_objects_live_in_library_process(self):
        kernel = SimKernel()
        gateway = EntireLibraryIsolation(kernel)
        gateway.host_alloc("OMRCrop", Mat(np.ones(4)))
        library = gateway.library_process()
        assert library.memory.find_buffer("OMRCrop") is not None

    def test_scalar_host_state_stays_private(self):
        kernel = SimKernel()
        gateway = EntireLibraryIsolation(kernel)
        gateway.host_alloc("template", [1])
        assert gateway.host.memory.find_buffer("template") is not None


class TestIndividualApis:
    def test_one_process_per_api(self):
        kernel = SimKernel()
        gateway = IndividualApiIsolation(kernel)
        gateway.call("opencv", "GaussianBlur", Mat(np.ones(4)))
        gateway.call("opencv", "erode", Mat(np.ones(4)))
        gateway.call("opencv", "erode", Mat(np.ones(4)))
        assert len(gateway._workers) == 2

    def test_full_data_transferred_every_call(self):
        kernel = SimKernel()
        gateway = IndividualApiIsolation(kernel)
        image = Mat(np.ones((32, 32)))
        gateway.call("opencv", "GaussianBlur", image)
        # argument in + result out
        assert kernel.ipc.nonlazy_copies == 2
        assert kernel.ipc.message_bytes > image.nbytes

    def test_highest_overhead_of_all(self):
        times = {}
        for key in ("none", "code_api", "lib_entire", "lib_individual"):
            _, _, report = run_omr(key)
            times[key] = report.virtual_seconds
        assert times["lib_individual"] == max(times.values())
        assert times["lib_individual"] > 1.5 * times["none"]


class TestMemoryBased:
    def test_single_process(self):
        kernel, gateway, _ = run_omr("memory_based")
        assert gateway.process_count == 1

    def test_protected_tags_become_readonly(self):
        kernel = SimKernel()
        gateway = MemoryBasedIsolation(kernel)
        gateway.host_alloc("template.QBlocks.orig", [1])
        with pytest.raises(SegmentationFault):
            gateway.host_write("template.QBlocks.orig", [2])

    def test_unprotected_tags_writable(self):
        kernel = SimKernel()
        gateway = MemoryBasedIsolation(kernel)
        gateway.host_alloc("scores", [])
        gateway.host_write("scores", [1])

    def test_near_zero_overhead(self):
        _, _, native = run_omr("none")
        _, _, protected = run_omr("memory_based")
        overhead = protected.virtual_seconds / native.virtual_seconds - 1
        assert overhead < 0.01


def test_table9_cost_ordering():
    """Table 9's shape: none ≈ memory < code_api ≈ entire < api_data < individual."""
    times = {}
    for key in TECHNIQUES:
        _, _, report = run_omr(key)
        times[key] = report.virtual_seconds
    assert times["memory_based"] == pytest.approx(times["none"], rel=0.02)
    assert times["code_api"] < times["code_api_data"]
    assert times["lib_entire"] < times["code_api_data"]
    assert times["code_api_data"] < times["lib_individual"]


def test_table9_data_volume_ordering():
    volumes = {}
    for key in ("code_api", "code_api_data", "lib_entire", "lib_individual"):
        _, _, report = run_omr(key)
        volumes[key] = report.data_transferred_bytes
    # Entire library shares memory: least data; individual APIs move most.
    assert volumes["lib_entire"] == min(volumes.values())
    assert volumes["lib_individual"] == max(
        volumes[k] for k in ("code_api", "lib_entire", "lib_individual")
    )
