"""Simulated system-call table.

A trimmed-down x86-64 Linux syscall table covering everything the paper's
framework APIs need (Fig. 12, Table 7) plus the calls attack payloads try
to make (``mprotect``, ``fork``, ``connect``, ``sendto``, ``shm_open``,
...).  Each entry records whether the call needs the additional
*file-descriptor argument check* FreePart applies to device-capable calls
(``ioctl``, ``connect``, ``select``, ``fcntl``) and a coarse category used
for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.errors import UnknownSyscall


@dataclass(frozen=True)
class Syscall:
    """One entry in the simulated syscall table."""

    name: str
    number: int
    category: str
    needs_fd_check: bool = False


# Calls whose arguments FreePart additionally restricts because they can
# reach arbitrary devices depending on the fd they are handed (Section
# 4.4.1 of the paper).
FD_CHECKED_SYSCALLS = frozenset({"ioctl", "connect", "select", "fcntl"})

_RAW_TABLE: List = [
    # (name, number, category)
    ("read", 0, "file"),
    ("write", 1, "file"),
    ("open", 2, "file"),
    ("close", 3, "file"),
    ("stat", 4, "file"),
    ("fstat", 5, "file"),
    ("lstat", 6, "file"),
    ("poll", 7, "io-mux"),
    ("lseek", 8, "file"),
    ("mmap", 9, "memory"),
    ("mprotect", 10, "memory"),
    ("munmap", 11, "memory"),
    ("brk", 12, "memory"),
    ("rt_sigaction", 13, "signal"),
    ("rt_sigprocmask", 14, "signal"),
    ("ioctl", 16, "device"),
    ("pread64", 17, "file"),
    ("pwrite64", 18, "file"),
    ("readv", 19, "file"),
    ("writev", 20, "file"),
    ("access", 21, "file"),
    ("pipe", 22, "ipc"),
    ("select", 23, "io-mux"),
    ("sched_yield", 24, "process"),
    ("mremap", 25, "memory"),
    ("msync", 26, "memory"),
    ("mincore", 27, "memory"),
    ("madvise", 28, "memory"),
    ("shmget", 29, "ipc"),
    ("shmat", 30, "ipc"),
    ("shmctl", 31, "ipc"),
    ("dup", 32, "file"),
    ("dup2", 33, "file"),
    ("pause", 34, "process"),
    ("nanosleep", 35, "time"),
    ("getitimer", 36, "time"),
    ("alarm", 37, "time"),
    ("setitimer", 38, "time"),
    ("getpid", 39, "process"),
    ("sendfile", 40, "network"),
    ("socket", 41, "network"),
    ("connect", 42, "network"),
    ("accept", 43, "network"),
    ("sendto", 44, "network"),
    ("recvfrom", 45, "network"),
    ("sendmsg", 46, "network"),
    ("recvmsg", 47, "network"),
    ("shutdown", 48, "network"),
    ("bind", 49, "network"),
    ("listen", 50, "network"),
    ("getsockname", 51, "network"),
    ("getpeername", 52, "network"),
    ("socketpair", 53, "network"),
    ("setsockopt", 54, "network"),
    ("getsockopt", 55, "network"),
    ("clone", 56, "process"),
    ("fork", 57, "process"),
    ("vfork", 58, "process"),
    ("execve", 59, "process"),
    ("exit", 60, "process"),
    ("wait4", 61, "process"),
    ("kill", 62, "signal"),
    ("uname", 63, "misc"),
    ("fcntl", 72, "file"),
    ("flock", 73, "file"),
    ("fsync", 74, "file"),
    ("fdatasync", 75, "file"),
    ("truncate", 76, "file"),
    ("ftruncate", 77, "file"),
    ("getdents", 78, "file"),
    ("getcwd", 79, "file"),
    ("chdir", 80, "file"),
    ("fchdir", 81, "file"),
    ("rename", 82, "file"),
    ("mkdir", 83, "file"),
    ("rmdir", 84, "file"),
    ("creat", 85, "file"),
    ("link", 86, "file"),
    ("unlink", 87, "file"),
    ("symlink", 88, "file"),
    ("readlink", 89, "file"),
    ("chmod", 90, "file"),
    ("fchmod", 91, "file"),
    ("chown", 92, "file"),
    ("fchown", 93, "file"),
    ("umask", 95, "file"),
    ("gettimeofday", 96, "time"),
    ("getrlimit", 97, "process"),
    ("getrusage", 98, "process"),
    ("sysinfo", 99, "misc"),
    ("times", 100, "time"),
    ("getuid", 102, "identity"),
    ("getgid", 104, "identity"),
    ("geteuid", 107, "identity"),
    ("getegid", 108, "identity"),
    ("getppid", 110, "process"),
    ("getpgrp", 111, "process"),
    ("statfs", 137, "file"),
    ("fstatfs", 138, "file"),
    ("sched_setaffinity", 203, "process"),
    ("sched_getaffinity", 204, "process"),
    ("epoll_create", 213, "io-mux"),
    ("getdents64", 217, "file"),
    ("futex", 202, "sync"),
    ("epoll_wait", 232, "io-mux"),
    ("epoll_ctl", 233, "io-mux"),
    ("clock_gettime", 228, "time"),
    ("clock_nanosleep", 230, "time"),
    ("exit_group", 231, "process"),
    ("tgkill", 234, "signal"),
    ("openat", 257, "file"),
    ("mkdirat", 258, "file"),
    ("newfstatat", 262, "file"),
    ("unlinkat", 263, "file"),
    ("readlinkat", 267, "file"),
    ("faccessat", 269, "file"),
    ("ppoll", 271, "io-mux"),
    ("set_robust_list", 273, "sync"),
    ("get_robust_list", 274, "sync"),
    ("accept4", 288, "network"),
    ("eventfd2", 290, "io-mux"),
    ("epoll_create1", 291, "io-mux"),
    ("dup3", 292, "file"),
    ("pipe2", 293, "ipc"),
    ("prlimit64", 302, "process"),
    ("getrandom", 318, "misc"),
    ("memfd_create", 319, "memory"),
    ("statx", 332, "file"),
    ("rseq", 334, "sync"),
    ("shm_open", 1000, "ipc"),
    ("shm_unlink", 1001, "ipc"),
    ("prctl", 157, "process"),
    ("arch_prctl", 158, "process"),
    ("setpriority", 141, "process"),
    ("getpriority", 140, "process"),
    ("sigaltstack", 131, "signal"),
    ("personality", 135, "process"),
    ("ptrace", 101, "process"),
]

SYSCALL_TABLE: Dict[str, Syscall] = {
    name: Syscall(
        name=name,
        number=number,
        category=category,
        needs_fd_check=name in FD_CHECKED_SYSCALLS,
    )
    for name, number, category in _RAW_TABLE
}


def lookup(name: str) -> Syscall:
    """Return the table entry for ``name`` or raise :class:`UnknownSyscall`."""
    try:
        return SYSCALL_TABLE[name]
    except KeyError:
        raise UnknownSyscall(f"unknown syscall {name!r}") from None


def validate_names(names: Iterable[str]) -> List[str]:
    """Validate a collection of syscall names; returns them as a list."""
    resolved = []
    for name in names:
        lookup(name)
        resolved.append(name)
    return resolved

