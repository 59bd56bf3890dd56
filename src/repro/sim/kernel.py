"""The simulated kernel: process table, shared resources, data movement.

One :class:`SimKernel` is one machine.  It owns the virtual clock, the
filesystem, the device board, the GUI subsystem, the IPC accounting, and
the process table, and it provides the two data-movement primitives the
runtime builds on:

``transfer``
    Copy a payload from one process's address space into another's,
    charging copy cost and updating the lazy/non-lazy counters.  This is
    *the* operation whose count and volume the paper reports in Tables 9
    and 12.
``restart``
    Replace a crashed process with a fresh one of the same role, with a
    newly built (sealed) filter — the paper's agent-restart support.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.errors import ProcessNotFound
from repro.faults.injector import NULL_INJECTOR
from repro.obs.timeseries import TimeSeriesRegistry
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import CostModel, VirtualClock
from repro.sim.devices import DeviceBoard
from repro.sim.files import SimFileSystem
from repro.sim.filters import FilterSpec, SyscallFilter
from repro.sim.gui import GuiSubsystem
from repro.sim.ipc import ChannelPair, IpcAccounting
from repro.sim.memory import (
    PAGE_SIZE,
    Buffer,
    SharedSegment,
    payload_nbytes,
)
from repro.sim.process import SimProcess

#: Smallest payload worth remapping instead of copying (4 pages): below
#: this the page-table updates cost more than the byte copy they avoid,
#: so small transfers always take the copy path regardless of the flag.
ZERO_COPY_MIN_BYTES = 4 * PAGE_SIZE


class SimKernel:
    """A single simulated machine."""

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        self.clock = VirtualClock(cost_model=cost_model or CostModel())
        #: Span tracer (repro.obs).  The no-op default turns every span
        #: into a shared no-op; ``enable_tracing`` swaps in a real one.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Dimensional time-series registry (repro.obs.timeseries):
        #: windowed, labeled observations stamped from this clock — the
        #: machine's one metrics store.
        self.series = TimeSeriesRegistry(self.clock)
        #: Fault injector (repro.faults).  The no-op default costs hot
        #: paths a single ``enabled`` check; ``inject_faults`` arms one.
        self.faults = NULL_INJECTOR
        self.fs = SimFileSystem()
        self.devices = DeviceBoard()
        self.gui = GuiSubsystem()
        self.ipc = IpcAccounting()
        self._pids = itertools.count(100)
        self._segment_ids = itertools.count(1)
        self._processes: Dict[int, SimProcess] = {}
        self._channels: Dict[str, ChannelPair] = {}
        self.spawned_processes = 0
        self.restarted_processes = 0
        #: Audit trail of security-relevant events (exploit attempts and
        #: their outcomes); appended to by the attack layer, inspected by
        #: the evaluation harness.
        self.security_events: List[Any] = []

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def enable_tracing(self):
        """Install a real span tracer on this machine (idempotent).

        Existing processes and channels hold their own tracer reference,
        so the swap walks the live topology too.  Returns the tracer.
        """
        if self.tracer.enabled:
            return self.tracer
        from repro.obs.tracer import SpanTracer

        tracer = SpanTracer(self.clock)
        self.tracer = tracer
        for process in self._processes.values():
            process.tracer = tracer
            process.memory.tracer = tracer
            tracer.name_track(process.pid, process.name)
        for pair in self._channels.values():
            pair.request.tracer = tracer
            pair.response.tracer = tracer
        return tracer

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def inject_faults(self, injector):
        """Install a fault injector on this machine.

        Channels created before the call hold their own injector
        reference (like tracers), so the swap walks the live topology.
        Passing :data:`~repro.faults.injector.NULL_INJECTOR` disarms
        injection again.  Returns the injector.
        """
        self.faults = injector
        injector.attach(self)
        for pair in self._channels.values():
            pair.request.faults = injector
            pair.response.faults = injector
        return injector

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn(
        self,
        name: str,
        syscall_filter: Optional[SyscallFilter] = None,
        role: str = "host",
        charge: bool = True,
    ) -> SimProcess:
        """Create a new simulated process (charges spawn cost unless disabled)."""
        pid = next(self._pids)
        process = SimProcess(
            pid=pid, name=name, clock=self.clock,
            syscall_filter=syscall_filter, role=role,
            tracer=self.tracer,
        )
        process.memory.accounting = self.ipc
        self._processes[pid] = process
        self.spawned_processes += 1
        tracer = self.tracer
        tracer.name_track(pid, name)
        span_name = "agent_spawn" if role == "agent" else "spawn"
        if charge:
            with tracer.span(span_name, category="spawn", pid=pid,
                             process=name):
                self.clock.advance(self.clock.cost_model.process_spawn_ns)
        else:
            tracer.instant(span_name, category="spawn", pid=pid,
                           process=name)
        return process

    def process(self, pid: int) -> SimProcess:
        """Look up a process by pid (ProcessNotFound if absent)."""
        try:
            return self._processes[pid]
        except KeyError:
            raise ProcessNotFound(f"no process with pid {pid}") from None

    def processes(self, role: Optional[str] = None) -> List[SimProcess]:
        """All processes, optionally filtered by role."""
        found = list(self._processes.values())
        if role is not None:
            found = [p for p in found if p.role == role]
        return found

    def living(self) -> List[SimProcess]:
        """Processes still running."""
        return [p for p in self._processes.values() if p.alive]

    def kill(self, pid: int, reason: str = "killed") -> None:
        """Crash a process by pid."""
        self.process(pid).crash(reason)

    def restart(
        self,
        process: SimProcess,
        filter_spec: Optional[FilterSpec] = None,
    ) -> SimProcess:
        """Replace a dead process with a fresh one of the same identity.

        The replacement keeps the name and role but gets a brand-new
        address space (the paper intentionally does not restore variable
        values of a crashed process — the crash may have been an attack)
        and a freshly built, sealed filter.
        """
        new_filter = filter_spec.build() if filter_spec is not None else None
        if new_filter is not None:
            new_filter.seal()
        with self.tracer.span("restart", category="restart", pid=process.pid,
                              process=process.name) as span:
            replacement = self.spawn(
                name=process.name,
                syscall_filter=new_filter,
                role=process.role,
                charge=False,
            )
            span.annotate(new_pid=replacement.pid)
            self.clock.advance(self.clock.cost_model.process_restart_ns)
        replacement.generation = process.generation + 1
        self.restarted_processes += 1
        return replacement

    # ------------------------------------------------------------------
    # IPC channels
    # ------------------------------------------------------------------

    def channel_pair(self, name: str) -> ChannelPair:
        """Get-or-create a named request/response channel pair."""
        pair = self._channels.get(name)
        if pair is None:
            pair = ChannelPair(
                name, self.clock, self.ipc, tracer=self.tracer,
                faults=self.faults,
            )
            self._channels[name] = pair
        return pair

    # ------------------------------------------------------------------
    # Cross-process data movement
    # ------------------------------------------------------------------

    def transfer(
        self,
        source: SimProcess,
        destination: SimProcess,
        payload: Any,
        tag: str = "",
        origin_state: str = "initialization",
        lazy: bool = False,
        count_message: bool = True,
        zero_copy: bool = False,
    ) -> Buffer:
        """Copy a payload into ``destination``'s address space.

        ``lazy=True`` marks the copy as a direct agent-to-agent transfer
        performed on first dereference (the LDC path); ``lazy=False`` is a
        copy routed eagerly through message serialization.  Both charge
        per-byte copy cost; pass ``count_message=False`` when the payload
        already rode in an accounted IPC message (the RPC layer does this
        to avoid double-counting message traffic).

        ``zero_copy=True`` asks for the remap path: payloads of at least
        :data:`ZERO_COPY_MIN_BYTES` cross as a shared-page segment —
        page-table updates charged per page instead of a per-byte copy —
        and the destination's first write to a frozen-eligible mapping
        pays the deferred copy (COW downgrade in
        :class:`~repro.sim.memory.AddressSpace`).  Smaller payloads fall
        back to the copy path silently.
        """
        source.require_alive()
        destination.require_alive()
        nbytes = payload_nbytes(payload)
        cost = self.clock.cost_model
        tracer = self.tracer
        if count_message:
            with tracer.span("ipc_message", category="ipc",
                             pid=destination.pid, bytes=nbytes, tag=tag):
                self.clock.advance(cost.ipc_message_ns)
                self.ipc.record_message(nbytes)
        if zero_copy and nbytes >= ZERO_COPY_MIN_BYTES:
            segment = SharedSegment(
                segment_id=next(self._segment_ids),
                nbytes=nbytes,
                payload=payload,
            )
            with tracer.span("page_remap", category="zero_copy",
                             pid=destination.pid, bytes=nbytes, tag=tag,
                             src=source.pid, pages=segment.npages,
                             segment=segment.segment_id):
                self.clock.advance(cost.remap_cost(segment.npages))
                self.ipc.record_zero_copy(nbytes)
            return destination.memory.map_shared(
                segment, tag=tag, origin_state=origin_state
            )
        with tracer.span("ldc_copy" if lazy else "copy", category="copy",
                         pid=destination.pid, bytes=nbytes, tag=tag,
                         src=source.pid, lazy=lazy):
            self.clock.advance(cost.copy_cost(nbytes))
            self.ipc.record_copy(nbytes, lazy=lazy)
        return destination.memory.alloc(
            nbytes, tag=tag, payload=payload, origin_state=origin_state
        )

    @property
    def data_transferred_bytes(self) -> int:
        """Total bytes moved between processes (messages + direct copies
        + bytes made visible by zero-copy remaps)."""
        return (
            self.ipc.message_bytes
            + self.ipc.lazy_copy_bytes
            + self.ipc.zero_copy_bytes
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Machine-wide counters for reports."""
        return {
            "virtual_seconds": self.clock.now_seconds,
            "processes": len(self._processes),
            "alive": len(self.living()),
            "spawned": self.spawned_processes,
            "restarted": self.restarted_processes,
            "ipc_messages": self.ipc.messages,
            "ipc_bytes": self.ipc.message_bytes,
            "lazy_copies": self.ipc.lazy_copies,
            "nonlazy_copies": self.ipc.nonlazy_copies,
            "zero_copy_transfers": self.ipc.zero_copy_transfers,
            "zero_copy_bytes": self.ipc.zero_copy_bytes,
            "cow_downgrades": self.ipc.cow_downgrades,
            "cow_bytes": self.ipc.cow_bytes,
            "framed_messages": self.ipc.framed_messages,
        }
