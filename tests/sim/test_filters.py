"""seccomp-like syscall filters: allowlists, NO_NEW_PRIVS, fd checks."""

import pytest

from repro.errors import SyscallDenied, UnknownSyscall
from repro.sim.filters import FilterSpec, SyscallFilter, permissive_filter
from repro.sim.syscalls import SYSCALL_TABLE, FD_CHECKED_SYSCALLS, lookup


def test_allowlisted_call_passes():
    f = SyscallFilter(allowed=["read", "write"])
    f.check(1, "read")
    f.check(1, "write")


def test_unlisted_call_denied():
    f = SyscallFilter(allowed=["read"])
    with pytest.raises(SyscallDenied):
        f.check(1, "write")
    assert f.denials == 1


def test_unknown_syscall_name_rejected_at_config():
    with pytest.raises(UnknownSyscall):
        SyscallFilter(allowed=["read", "not_a_syscall"])
    with pytest.raises(UnknownSyscall):
        SyscallFilter(init_only=["not_a_syscall"])


def test_built_filter_has_no_widening_call():
    """NO_NEW_PRIVS by construction: a built filter's only public
    mutator is ``end_init_phase``, which tightens it."""
    f = SyscallFilter(allowed=["read"], init_only=["mprotect"])
    mutators = {
        name for name in dir(f)
        if not name.startswith("_") and callable(getattr(f, name))
    }
    assert mutators == {"check", "end_init_phase", "would_allow"}
    before = f.unchecked_names
    f.end_init_phase()
    assert f.unchecked_names < before
    assert not f.would_allow("mprotect").allowed


def test_init_only_allowed_during_init_phase():
    f = SyscallFilter(allowed=["read"], init_only=["mprotect"])
    f.check(1, "mprotect")  # init phase open
    f.end_init_phase()
    with pytest.raises(SyscallDenied):
        f.check(1, "mprotect")


def test_fd_restriction_applies_to_device_syscalls():
    f = SyscallFilter(allowed=["ioctl", "read"], allowed_fds=[10])
    f.check(1, "ioctl", fd=10)
    with pytest.raises(SyscallDenied):
        f.check(1, "ioctl", fd=20)


def test_fd_restriction_ignores_non_device_syscalls():
    f = SyscallFilter(allowed=["read"], allowed_fds=[10])
    f.check(1, "read", fd=999)  # read is not fd-checked


def test_fd_restriction_none_fd_passes():
    f = SyscallFilter(allowed=["select"], allowed_fds=[30])
    f.check(1, "select")  # fd unknown: allowed (argument not inspected)


def test_would_allow_does_not_count_denial():
    f = SyscallFilter(allowed=["read"])
    decision = f.would_allow("write")
    assert not decision.allowed
    assert f.denials == 0


def test_permissive_filter_allows_everything():
    f = permissive_filter()
    for name in list(SYSCALL_TABLE)[:20]:
        f.check(1, name)


def test_fd_checked_set_matches_paper():
    assert FD_CHECKED_SYSCALLS == {"ioctl", "connect", "select", "fcntl"}
    for name in FD_CHECKED_SYSCALLS:
        assert lookup(name).needs_fd_check


def test_filter_spec_builds_equivalent_filter():
    spec = FilterSpec(
        allowed=frozenset({"read", "close"}),
        init_only=frozenset({"mprotect"}),
        allowed_fds=frozenset({10}),
    )
    built = spec.build()
    assert built.allowed_names == {"read", "close"}
    assert built._init_only == {"mprotect"}
    assert built.allowed_fds == {10}


def test_filter_spec_build_is_fresh_each_time():
    spec = FilterSpec(
        allowed=frozenset({"read"}), init_only=frozenset({"brk"})
    )
    first = spec.build()
    first.end_init_phase()
    second = spec.build()
    assert second.in_init_phase
    assert second.would_allow("brk").allowed


def test_filters_share_their_name_sets():
    """No process keeps a private copy of an allowlist: every permissive
    filter, and every filter built from one spec, holds the same sets."""
    a, b = permissive_filter(), permissive_filter()
    assert a.allowed_names is b.allowed_names
    assert a.unchecked_names is b.unchecked_names is a.allowed_names
    spec = FilterSpec(
        allowed=frozenset({"read", "ioctl"}),
        init_only=frozenset({"mprotect"}),
        allowed_fds=frozenset({10}),
    )
    first, second = spec.build(), spec.build()
    assert first.unchecked_names is second.unchecked_names
    assert first.unchecked_names == {"read", "mprotect"}  # ioctl: fd-checked
    first.end_init_phase()
    second.end_init_phase()
    assert first.unchecked_names is second.unchecked_names == {"read"}
