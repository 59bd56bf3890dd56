"""Deterministic virtual clock and cost model.

All performance numbers reported by the reproduction come from this clock,
not from wall time.  Every simulated operation (API compute, syscall entry,
IPC message, byte copied, mprotect call, process spawn) charges a fixed
cost in virtual nanoseconds, making the benchmark results exactly
reproducible across machines.

The constants in :class:`CostModel` are calibrated so that the *relative*
quantities the paper reports emerge from the simulation: the average
overhead with lazy data copy, and the 1.4x jump in Fig. 4 when the two
hot-loop APIs are split into different partitions.  DESIGN §6 says where
each lands today, and the overhead without lazy data copy with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs for simulated operations, in nanoseconds.

    The defaults model a commodity desktop: a syscall costs on the order
    of a microsecond, an IPC round trip a few microseconds, and memory
    copies run at a few GiB/s.
    """

    syscall_ns: int = 700
    syscall_filter_check_ns: int = 40
    ipc_message_ns: int = 5_200
    #: Per-message cost when the sender reuses a prebuilt RPC frame
    #: template (cached gateway dispatch): header layout, channel
    #: selection, and framing metadata are precomputed, so only the
    #: enqueue + futex wake remain.
    ipc_framed_message_ns: int = 4_200
    copy_ns_per_byte: float = 0.5
    serialize_ns_per_byte: float = 0.08
    mprotect_ns: int = 1_200
    #: Remapping one page into another address space (zero-copy LDC):
    #: a page-table entry update instead of a byte copy.
    page_remap_ns: int = 250
    process_spawn_ns: int = 2_500_000
    process_restart_ns: int = 3_500_000
    page_fault_ns: int = 900
    checkpoint_ns_per_byte: float = 0.30

    def copy_cost(self, nbytes: int) -> int:
        """Cost of moving ``nbytes`` between two address spaces."""
        return int(self.copy_ns_per_byte * nbytes)

    def serialize_cost(self, nbytes: int) -> int:
        """Cost of serializing ``nbytes`` into an IPC message."""
        return int(self.serialize_ns_per_byte * nbytes)

    def remap_cost(self, npages: int) -> int:
        """Cost of remapping ``npages`` shared pages (zero-copy transfer)."""
        return int(self.page_remap_ns * npages)


@dataclass
class VirtualClock:
    """A monotonically advancing virtual clock.

    The clock only moves when simulated work is charged to it, so two runs
    of the same workload always report identical timings.
    """

    cost_model: CostModel = field(default_factory=CostModel)
    #: Current virtual time in nanoseconds since simulation start.  A
    #: plain attribute, read on every hot path; only :meth:`advance` and
    #: :meth:`reset` write it.
    now_ns: int = 0

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self.now_ns / NS_PER_MS

    @property
    def now_seconds(self) -> float:
        """Current virtual time in seconds."""
        return self.now_ns / NS_PER_SEC

    def advance(self, ns: int) -> int:
        """Charge ``ns`` nanoseconds of work and return the new time."""
        if ns < 0:
            raise ValueError(f"cannot advance the clock backwards ({ns} ns)")
        self.now_ns += int(ns)
        return self.now_ns

