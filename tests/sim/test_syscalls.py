"""The simulated syscall table."""

import pytest

from repro.errors import UnknownSyscall
from repro.sim.syscalls import SYSCALL_TABLE, lookup, validate_names


def test_table_has_the_paper_syscalls():
    # Every syscall named in the paper's tables/figures must exist.
    for name in (
        "openat", "close", "brk", "fstat", "read", "lseek", "ioctl",
        "mmap", "select", "bind", "futex", "getcwd", "getpid", "listen",
        "mkdir", "recvfrom", "getrandom", "gettimeofday", "open",
        "clock_gettime", "access", "connect", "eventfd2", "getuid",
        "sendto", "accept", "dup", "exit", "lstat", "umask", "uname",
        "unlink", "write", "mprotect", "shm_open", "fork",
    ):
        assert name in SYSCALL_TABLE, name


def test_lookup_returns_entry():
    entry = lookup("read")
    assert entry.name == "read"
    assert entry.number == 0
    assert entry.category == "file"


def test_lookup_unknown_raises():
    with pytest.raises(UnknownSyscall):
        lookup("frobnicate")


def test_numbers_are_unique():
    numbers = [s.number for s in SYSCALL_TABLE.values()]
    assert len(numbers) == len(set(numbers))


def test_validate_names_roundtrip():
    names = ["read", "write", "close"]
    assert validate_names(names) == names


def test_validate_names_rejects_unknown():
    with pytest.raises(UnknownSyscall):
        validate_names(["read", "bogus"])


def test_dangerous_syscalls_categorized():
    assert lookup("fork").category == "process"
    assert lookup("mprotect").category == "memory"
    assert lookup("sendto").category == "network"
    assert lookup("shm_open").category == "ipc"
