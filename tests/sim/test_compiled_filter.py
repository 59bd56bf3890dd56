"""Model check: the compiled syscall check decides as the full check does.

An untraced ``SimProcess.syscall`` passes a name in its filter's
``unchecked_names`` with no further check, and sends every other name
through ``SyscallFilter.check``.  Over random filters (allowlist and
init-only subsets of the syscall table, with and without designated fds
and path prefixes) and random calls, before and after the init phase
ends, the process must allow exactly what ``would_allow`` allows, and
charge the clock, raise and count denials exactly as the full check
does.  The oracle is a second filter built from the same arguments.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProcessCrashed, SyscallDenied, UnknownSyscall
from repro.sim.clock import CostModel, VirtualClock
from repro.sim.filters import SyscallFilter
from repro.sim.process import SimProcess
from repro.sim.syscalls import FD_CHECKED_SYSCALLS, SYSCALL_TABLE

#: The names filters are built from: every fd-checked call, file calls
#: (path checks), memory, network and process calls.  Calls also draw
#: from the whole table and from unknown names.
FOCUS = st.sampled_from(sorted(FD_CHECKED_SYSCALLS) + [
    "read", "write", "openat", "close", "fstat", "lseek", "memfd_create",
    "brk", "mprotect", "mmap", "socket", "sendto", "recvfrom", "futex",
    "fork",
])
ANY = st.sampled_from(sorted(SYSCALL_TABLE))
UNKNOWN = st.sampled_from(["not_a_syscall", "frobnicate", ""])
FDS = st.integers(min_value=0, max_value=6)
PATHS = st.sampled_from(
    ["/data/in.png", "/data", "/out/x.png", "/etc/passwd", ""]
)

filters = st.fixed_dictionaries({
    "allowed": st.frozensets(FOCUS, max_size=10),
    "init_only": st.frozensets(FOCUS, max_size=5),
    "allowed_fds": st.none() | st.frozensets(FDS, min_size=1, max_size=3),
    "allowed_path_prefixes": st.none() | st.lists(
        st.sampled_from(["/data/", "/out/", "/tmp/"]), max_size=2
    ),
})


def calls_for(spec):
    """Calls that mostly name the filter's own syscalls, where the fd,
    path and phase checks decide."""
    own = sorted(spec["allowed"] | spec["init_only"])
    names = st.sampled_from(own) if own else FOCUS
    return st.tuples(names | FOCUS | ANY | UNKNOWN,
                     st.none() | FDS, st.none() | PATHS)


COST = CostModel()


def spawn(spec, init_phase):
    built = SyscallFilter(**spec)
    if not init_phase:
        built.end_init_phase()
    return SimProcess(1, "agent", VirtualClock(), syscall_filter=built,
                      role="agent")


def decide(oracle, name, fd, path):
    """The full check's verdict, or None for an unknown name."""
    try:
        return oracle.would_allow(name, fd=fd, path=path)
    except UnknownSyscall:
        return None


cases = filters.flatmap(lambda spec: st.tuples(
    st.just(spec),
    st.lists(calls_for(spec), max_size=12),
    st.integers(min_value=0, max_value=12),
))


def assert_sound(compiled, oracle):
    """Every compiled name passes the full check whatever its arguments."""
    for name in compiled.unchecked_names:
        for fd in (None, *range(7)):
            for path in (None, "/data/in.png", "/etc/passwd", ""):
                assert oracle.would_allow(name, fd=fd, path=path).allowed, (
                    name, fd, path)


@settings(max_examples=100, deadline=None)
@given(cases)
def test_compiled_check_matches_the_full_check(case):
    spec, script, end_at = case
    init_phase = True
    process = spawn(spec, init_phase)
    oracle = SyscallFilter(**spec)
    assert_sound(process.filter, oracle)
    for step, (name, fd, path) in enumerate(script):
        if step == end_at:
            init_phase = False
            process.filter.end_init_phase()
            oracle.end_init_phase()
            assert_sound(process.filter, oracle)
        decision = decide(oracle, name, fd, path)
        clock, denials = process.clock.now_ns, process.filter.denials
        counts = dict(process.syscall_counts)
        if decision is None:
            with pytest.raises(UnknownSyscall):
                process.syscall(name, fd=fd, path=path)
            assert process.clock.now_ns == clock
            assert process.alive
        elif decision.allowed:
            process.syscall(name, fd=fd, path=path)
            assert process.clock.now_ns == (
                clock + COST.syscall_filter_check_ns + COST.syscall_ns
            )
            counts[name] = counts.get(name, 0) + 1
        else:
            with pytest.raises(SyscallDenied) as denied:
                process.syscall(name, fd=fd, path=path)
            assert denied.value.reason == decision.reason
            assert process.clock.now_ns == clock + COST.syscall_filter_check_ns
            assert process.filter.denials == denials + 1
            assert process.crash_record.syscall == name
            with pytest.raises(ProcessCrashed):
                process.syscall(name, fd=fd, path=path)
            # A restarted agent gets a fresh filter in the same phase.
            process = spawn(spec, init_phase)
            continue
        assert process.filter.denials == denials
        assert process.syscall_counts == counts
