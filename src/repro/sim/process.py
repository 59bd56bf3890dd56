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
from typing import Any, List, Optional

from repro.errors import ProcessCrashed, SyscallDenied
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import VirtualClock
from repro.sim.filters import SyscallFilter, permissive_filter
from repro.sim.memory import AddressSpace
from repro.sim.syscalls import SyscallInvocation


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
        self.syscall_log: List[SyscallInvocation] = []
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
        nbytes: int = 0,
    ) -> SyscallInvocation:
        """Enter a syscall: filter check, cost, trace record.

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
                self._checked_filter_entry(name, fd, path, nbytes)
            with tracer.span("syscall", category="syscall", pid=self.pid,
                             syscall=name):
                self.clock.advance(cost.syscall_ns)
        else:
            self._checked_filter_entry(name, fd, path, nbytes)
            self.clock.advance(cost.syscall_ns)
        record = SyscallInvocation(
            pid=self.pid, name=name, fd=fd, path=path, nbytes=nbytes, allowed=True
        )
        self.syscall_log.append(record)
        return record

    def _checked_filter_entry(
        self, name: str, fd: Optional[int], path: Optional[str], nbytes: int
    ) -> None:
        """Charge the filter check and run it; a denial crashes us."""
        self.clock.advance(self.clock.cost_model.syscall_filter_check_ns)
        try:
            self.filter.check(self.pid, name, fd=fd, path=path)
        except SyscallDenied:
            self.syscall_log.append(
                SyscallInvocation(
                    pid=self.pid, name=name, fd=fd, path=path, nbytes=nbytes,
                    allowed=False,
                )
            )
            self.crash(f"seccomp kill on {name}", syscall=name)
            raise

    def syscalls_used(self) -> List[str]:
        """Distinct syscall names this process successfully executed."""
        seen: List[str] = []
        for record in self.syscall_log:
            if record.allowed and record.name not in seen:
                seen.append(record.name)
        return seen

    def denied_syscalls(self) -> List[str]:
        return [r.name for r in self.syscall_log if not r.allowed]

    def __repr__(self) -> str:
        return (
            f"SimProcess(pid={self.pid}, name={self.name!r}, role={self.role!r}, "
            f"state={self.state.value})"
        )
