"""The exception hierarchy: messages, attributes, inheritance."""

import pytest

from repro import errors


def test_hierarchy_roots():
    assert issubclass(errors.SimulationError, errors.ReproError)
    assert issubclass(errors.SegmentationFault, errors.SimulationError)
    assert issubclass(errors.SyscallDenied, errors.SimulationError)
    assert issubclass(errors.RuntimeSupportError, errors.ReproError)
    assert issubclass(errors.FrameworkCrash, errors.RuntimeSupportError)
    assert issubclass(errors.AnalysisError, errors.ReproError)


def test_segfault_message_and_attributes():
    fault = errors.SegmentationFault(7, 0x1234, "write", reason="read-only")
    assert fault.pid == 7
    assert fault.address == 0x1234
    assert "0x1234" in str(fault)
    assert "read-only" in str(fault)


def test_syscall_denied_attributes():
    denied = errors.SyscallDenied(3, "fork")
    assert denied.syscall == "fork"
    assert "not in allowlist" in str(denied)
    custom = errors.SyscallDenied(3, "ioctl", reason="fd 9")
    assert "fd 9" in str(custom)


def test_process_crashed_message():
    assert "process 5 has crashed" in str(errors.ProcessCrashed(5))
    assert "boom" in str(errors.ProcessCrashed(5, "boom"))


def test_framework_crash_wraps_cause():
    cause = errors.ProcessCrashed(9, "DoS")
    crash = errors.FrameworkCrash("cv2.imread", cause)
    assert crash.qualname == "cv2.imread"
    assert crash.cause is cause
    assert "cv2.imread" in str(crash)


def test_catch_all_with_repro_error():
    for exc in (
        errors.SegmentationFault(1, 0, "read"),
        errors.SyscallDenied(1, "read"),
        errors.FrameworkCrash("x", ValueError("y")),
        errors.UncategorizableAPI("z"),
        errors.StaleObjectRef("gone"),
        errors.ChannelFull("full"),
    ):
        with pytest.raises(errors.ReproError):
            raise exc
