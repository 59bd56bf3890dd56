"""Simulated processes.

A :class:`SimProcess` owns an address space and a syscall filter and has a
lifecycle (running → crashed/exited).  Framework APIs "run in" a process
by issuing their syscalls through it — the filter check happens on every
entry, and a seccomp denial kills the process exactly like
``SECCOMP_RET_KILL_PROCESS`` would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ProcessCrashed, SyscallDenied
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import VirtualClock
from repro.sim.filters import SyscallFilter, permissive_filter
from repro.sim.memory import AddressSpace


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""
    RUNNING = "running"
    CRASHED = "crashed"
    EXITED = "exited"


@dataclass
class CrashRecord:
    """Why and when a process died."""

    pid: int
    reason: str
    at_ns: int
    syscall: Optional[str] = None


class SimProcess:
    """One simulated OS process."""

    def __init__(
        self,
        pid: int,
        name: str,
        clock: VirtualClock,
        syscall_filter: Optional[SyscallFilter] = None,
        role: str = "host",
        tracer: Optional[Any] = None,
    ) -> None:
        self.pid = pid
        self.name = name
        self.role = role
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.memory = AddressSpace(pid, clock, tracer=self.tracer)
        self.filter = syscall_filter if syscall_filter is not None else permissive_filter()
        self.state = ProcessState.RUNNING
        self.crash_record: Optional[CrashRecord] = None
        #: Executed syscalls by name, in first-use order.  A denied call
        #: is not counted; it kills the process, and ``crash_record``
        #: names it.
        self.syscall_counts: Dict[str, int] = {}
        self.generation = 0  # bumped on restart
        #: Internal state kept by stateful framework APIs (training steps,
        #: accumulated gradients, ...).  Lives and dies with the process;
        #: the agent layer checkpoints it periodically (Appendix A.2.4).
        self.framework_state: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNING

    def require_alive(self) -> None:
        if not self.alive:
            reason = self.crash_record.reason if self.crash_record else self.state.value
            raise ProcessCrashed(self.pid, reason)

    def crash(self, reason: str, syscall: Optional[str] = None) -> None:
        if self.state is ProcessState.RUNNING:
            self.state = ProcessState.CRASHED
            self.crash_record = CrashRecord(
                pid=self.pid, reason=reason, at_ns=self.clock.now_ns, syscall=syscall
            )

    def exit(self) -> None:
        """Exit cleanly and release the whole address space.  A crashed
        process keeps its memory."""
        if self.state is ProcessState.RUNNING:
            self.state = ProcessState.EXITED
            self.memory.release()

    # ------------------------------------------------------------------
    # Syscall entry
    # ------------------------------------------------------------------

    def syscall(
        self,
        name: str,
        fd: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        """Enter a syscall: filter check, cost, count.

        A denied call crashes the process (seccomp kill) and re-raises
        :class:`SyscallDenied` so the caller — typically an exploit payload
        or a hooked framework API — observes the failure.
        """
        if self.state is not ProcessState.RUNNING:
            self.require_alive()
        cost = self.clock.cost_model
        tracer = self.tracer
        # Hot (~42k calls/suite pass): a guard costs less than a no-op span.
        if tracer.enabled:
            with tracer.span("syscall_check", category="filter_check",
                             pid=self.pid, syscall=name):
                self._check_filter(name, fd, path)
                self.clock.advance(cost.syscall_filter_check_ns)
            with tracer.span("syscall", category="syscall", pid=self.pid,
                             syscall=name):
                self.clock.advance(cost.syscall_ns)
        else:
            # A name the filter passes whatever its arguments needs no
            # full check.  The check reads no clock, so charging both
            # costs after it shows every later reader the same times as
            # two charges.
            if name not in self.filter.unchecked_names:
                self._check_filter(name, fd, path)
            self.clock.advance(cost.syscall_filter_check_ns + cost.syscall_ns)
        counts = self.syscall_counts
        counts[name] = counts.get(name, 0) + 1

    def _check_filter(
        self, name: str, fd: Optional[int], path: Optional[str]
    ) -> None:
        """Run the filter check; a denial charges it and crashes us."""
        try:
            self.filter.check(self.pid, name, fd=fd, path=path)
        except SyscallDenied:
            self.clock.advance(self.clock.cost_model.syscall_filter_check_ns)
            self.crash(f"seccomp kill on {name}", syscall=name)
            raise

    def __repr__(self) -> str:
        return (
            f"SimProcess(pid={self.pid}, name={self.name!r}, role={self.role!r}, "
            f"state={self.state.value})"
        )
