"""Gateway base behaviour and the native (no-isolation) gateway."""

import numpy as np
import pytest

from repro.core.apitypes import APIType
from repro.core.gateway import (
    PREV,
    ApiCall,
    CallRecord,
    GatewayStats,
    NativeGateway,
)
from repro.core.runtime import FreePart
from repro.errors import ProcessCrashed
from repro.frameworks.base import Mat
from repro.serve.bench import standard_pipeline
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


@pytest.fixture
def gateway(kernel):
    return NativeGateway(kernel)


def test_single_process(gateway, kernel):
    assert len(kernel.processes()) == 1
    assert gateway.host.role == "host"


def test_call_returns_real_objects(gateway, kernel):
    kernel.fs.write_file("/i.png", np.ones((4, 4)))
    result = gateway.call("opencv", "imread", "/i.png")
    assert isinstance(result, Mat)


def test_call_runs_in_host_process(gateway, kernel):
    kernel.fs.write_file("/i.png", np.ones((4, 4)))
    gateway.call("opencv", "imread", "/i.png")
    assert "openat" in gateway.host.syscalls_used()


def test_no_ipc_for_native(gateway, kernel):
    kernel.fs.write_file("/i.png", np.ones((4, 4)))
    image = gateway.call("opencv", "imread", "/i.png")
    gateway.call("opencv", "GaussianBlur", image)
    assert kernel.ipc.messages == 0
    assert kernel.ipc.total_copies == 0


def test_host_alloc_read_write(gateway):
    gateway.host_alloc("speed", 0.3)
    assert gateway.host_read("speed") == 0.3
    gateway.host_write("speed", -0.3)
    assert gateway.host_read("speed") == -0.3


def test_host_read_unknown_tag(gateway):
    with pytest.raises(KeyError):
        gateway.host_read("ghost")


def test_host_file_io(gateway, kernel):
    gateway.host_write_file("/cfg", {"a": 1})
    assert gateway.host_read_file("/cfg") == {"a": 1}
    assert kernel.fs.exists("/cfg")


def test_send_uses_network_and_syscalls(gateway, kernel):
    gateway.send("server", {"note": 1})
    outbound = kernel.devices.network.outbound_to("server")
    assert len(outbound) == 1
    assert "sendto" in gateway.host.syscalls_used()


def test_materialize_unwraps(gateway):
    assert isinstance(gateway.materialize(Mat(np.ones(2))), np.ndarray)
    assert gateway.materialize("x") == "x"


def test_host_crash_propagates(gateway, kernel):
    from repro.attacks.exploits import DosExploit
    from repro.attacks.payloads import CraftedInput, benign_image

    crafted = CraftedInput("CVE-2017-14136", DosExploit(), benign_image())
    kernel.fs.write_file("/evil.png", crafted)
    with pytest.raises(ProcessCrashed):
        gateway.call("opencv", "imread", "/evil.png")
    assert not gateway.host.alive


GATEWAYS = {
    "native": NativeGateway,
    "freepart": lambda kernel: FreePart(kernel=kernel).deploy(),
}


@pytest.mark.parametrize("make_gateway", GATEWAYS.values(), ids=GATEWAYS)
def test_call_many_resolves_prev(make_gateway):
    kernel = SimKernel()
    image = np.random.default_rng(0).normal(size=(8, 8))
    kernel.fs.write_file("/in.png", image)
    gateway = make_gateway(kernel)
    results = gateway.call_many(standard_pipeline("/in.png", "/out.png"))
    assert len(results) == 4
    assert kernel.fs.exists("/out.png")


@pytest.mark.parametrize("make_gateway", GATEWAYS.values(), ids=GATEWAYS)
def test_prev_in_the_first_call_is_rejected(make_gateway):
    gateway = make_gateway(SimKernel())
    with pytest.raises(ValueError, match="PREV used in the first call"):
        gateway.call_many([ApiCall("opencv", "GaussianBlur", (PREV,))])
    assert gateway.stats.total_calls() == 0


class TestGatewayStats:
    def test_record_keeps_every_call_in_order(self):
        stats = GatewayStats()
        record = CallRecord(
            framework="opencv", name="imread", qualname="cv2.imread",
            api_type=APIType.LOADING,
        )
        stats.record(record)
        stats.record(record)
        assert stats.calls == [record, record]
        assert stats.total_calls() == 2
        assert stats.unique_qualnames() == ["cv2.imread"]

    def test_counts_by_type(self):
        stats = GatewayStats()
        for name in ("a", "a", "b"):
            stats.record(CallRecord("fw", name, f"fw.{name}", APIType.PROCESSING))
        stats.record(CallRecord("fw", "ld", "fw.ld", APIType.LOADING))
        counts = stats.counts_by_type()
        assert counts[APIType.PROCESSING] == (2, 3)
        assert counts[APIType.LOADING] == (1, 1)

    def test_unique_qualnames_ordered(self):
        stats = GatewayStats()
        for name in ("x", "y", "x"):
            stats.record(CallRecord("fw", name, f"fw.{name}", APIType.PROCESSING))
        assert stats.unique_qualnames() == ["fw.x", "fw.y"]

    def test_total_calls(self, gateway, kernel):
        kernel.fs.write_file("/i.png", np.ones((4, 4)))
        gateway.call("opencv", "imread", "/i.png")
        assert gateway.stats.total_calls() == 1
