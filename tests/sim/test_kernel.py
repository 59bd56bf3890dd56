"""The simulated kernel: process table, transfer, restart."""

import numpy as np
import pytest

from repro.errors import ProcessCrashed, ProcessNotFound, SyscallDenied
from repro.sim.filters import FilterSpec
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


def test_spawn_assigns_unique_pids(kernel):
    a = kernel.spawn("a")
    b = kernel.spawn("b")
    assert a.pid != b.pid
    assert kernel.process(a.pid) is a


def test_spawn_charges_clock_unless_disabled(kernel):
    t0 = kernel.clock.now_ns
    kernel.spawn("a")
    charged = kernel.clock.now_ns
    assert charged > t0
    kernel.spawn("b", charge=False)
    assert kernel.clock.now_ns == charged


def test_process_lookup_missing(kernel):
    with pytest.raises(ProcessNotFound):
        kernel.process(9999)


def test_processes_filter_by_role(kernel):
    kernel.spawn("h", role="host")
    kernel.spawn("a1", role="agent")
    kernel.spawn("a2", role="agent")
    assert len(kernel.processes(role="agent")) == 2
    assert len(kernel.processes()) == 3


def test_kill_and_living(kernel):
    a = kernel.spawn("a")
    b = kernel.spawn("b")
    a.crash("test")
    living = kernel.living()
    assert b in living and a not in living


def test_transfer_copies_into_destination(kernel):
    src = kernel.spawn("src")
    dst = kernel.spawn("dst")
    payload = np.ones((4, 4))
    buffer = kernel.transfer(src, dst, payload, tag="img", lazy=True)
    assert dst.memory.load(buffer.buffer_id) is payload
    assert kernel.ipc.lazy_copies == 1
    assert kernel.ipc.lazy_copy_bytes == payload.nbytes


def test_transfer_counts_message_by_default(kernel):
    src, dst = kernel.spawn("s"), kernel.spawn("d")
    kernel.transfer(src, dst, np.ones(4))
    assert kernel.ipc.messages == 1


def test_transfer_count_message_false(kernel):
    src, dst = kernel.spawn("s"), kernel.spawn("d")
    kernel.transfer(src, dst, np.ones(4), count_message=False)
    assert kernel.ipc.messages == 0
    assert kernel.ipc.nonlazy_copies == 1


def test_transfer_requires_living_endpoints(kernel):
    src, dst = kernel.spawn("s"), kernel.spawn("d")
    src.crash("dead")
    with pytest.raises(ProcessCrashed):
        kernel.transfer(src, dst, 1)


def test_data_transferred_bytes_combines_messages_and_lazy(kernel):
    src, dst = kernel.spawn("s"), kernel.spawn("d")
    kernel.ipc.record_message(100)
    kernel.transfer(src, dst, np.zeros(8), lazy=True, count_message=False)
    assert kernel.data_transferred_bytes == 100 + 64


def test_restart_replaces_with_fresh_process(kernel):
    original = kernel.spawn("agent", role="agent")
    original.memory.alloc_object("state", tag="s")
    original.crash("exploited")
    replacement = kernel.restart(original)
    assert replacement.pid != original.pid
    assert replacement.name == original.name
    assert replacement.role == original.role
    assert replacement.generation == original.generation + 1
    # Variables are intentionally NOT restored (Section 6).
    assert replacement.memory.find_buffer("s") is None
    assert kernel.restarted_processes == 1


def test_restart_installs_sealed_filter(kernel):
    original = kernel.spawn("agent", role="agent")
    original.crash("x")
    spec = FilterSpec(allowed=frozenset({"read"}))
    replacement = kernel.restart(original, filter_spec=spec)
    assert replacement.filter.allowed_names == {"read"}
    replacement.syscall("read")
    with pytest.raises(SyscallDenied):
        replacement.syscall("fork")


def test_restart_charges_clock(kernel):
    original = kernel.spawn("a")
    original.crash("x")
    before = kernel.clock.now_ns
    kernel.restart(original)
    assert kernel.clock.now_ns - before >= kernel.clock.cost_model.process_restart_ns


def test_channel_pair_is_cached(kernel):
    assert kernel.channel_pair("x") is kernel.channel_pair("x")


def test_summary_shape(kernel):
    kernel.spawn("a")
    summary = kernel.summary()
    assert summary["processes"] == 1
    assert summary["alive"] == 1
    assert "virtual_seconds" in summary
