"""Simulated processes: lifecycle, syscall entry, seccomp kill."""

import pytest

from repro.errors import ProcessCrashed, SyscallDenied
from repro.sim.clock import VirtualClock
from repro.sim.filters import SyscallFilter
from repro.sim.process import ProcessState, SimProcess


@pytest.fixture
def clock():
    return VirtualClock()


def make_process(clock, allowed=None):
    syscall_filter = SyscallFilter(allowed=allowed) if allowed else None
    return SimProcess(1, "proc", clock, syscall_filter=syscall_filter)


def test_process_starts_running(clock):
    assert make_process(clock).state is ProcessState.RUNNING


def test_default_filter_is_permissive(clock):
    process = make_process(clock)
    process.syscall("fork")
    process.syscall("mprotect")


def test_syscall_records_trace(clock):
    process = make_process(clock)
    process.syscall("read", fd=3, path="/x")
    assert process.syscall_counts == {"read": 1}


def test_syscall_charges_clock(clock):
    process = make_process(clock)
    cost = clock.cost_model
    process.syscall("read")
    assert clock.now_ns == cost.syscall_filter_check_ns + cost.syscall_ns


def test_denied_syscall_kills_process(clock):
    process = make_process(clock, allowed=["read"])
    with pytest.raises(SyscallDenied):
        process.syscall("fork")
    # The kill comes after the filter check and before the syscall runs.
    assert clock.now_ns == clock.cost_model.syscall_filter_check_ns
    assert process.state is ProcessState.CRASHED
    assert process.crash_record.syscall == "fork"
    assert process.crash_record.at_ns == clock.now_ns
    assert process.syscall_counts == {}


def test_crashed_process_rejects_syscalls(clock):
    process = make_process(clock)
    process.crash("boom")
    with pytest.raises(ProcessCrashed):
        process.syscall("read")


def test_crash_is_idempotent(clock):
    process = make_process(clock)
    process.crash("first")
    process.crash("second")
    assert process.crash_record.reason == "first"


def test_exit_state(clock):
    process = make_process(clock)
    process.exit()
    assert process.state is ProcessState.EXITED
    assert not process.alive


def test_syscalls_used_distinct_ordered(clock):
    process = make_process(clock)
    for name in ("read", "openat", "read", "close"):
        process.syscall(name)
    assert process.syscall_counts == {"read": 2, "openat": 1, "close": 1}
    assert list(process.syscall_counts) == ["read", "openat", "close"]


def test_denied_calls_excluded_from_used(clock):
    process = make_process(clock, allowed=["read"])
    process.syscall("read")
    with pytest.raises(SyscallDenied):
        process.syscall("write")
    assert "write" not in process.syscall_counts


def test_require_alive(clock):
    process = make_process(clock)
    process.require_alive()
    process.crash("x")
    with pytest.raises(ProcessCrashed):
        process.require_alive()
