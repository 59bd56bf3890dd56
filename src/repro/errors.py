"""Exception hierarchy shared across the simulated substrate and runtime.

The exceptions mirror the failure modes of the native mechanisms FreePart
relies on: memory faults (``mprotect`` violations, wild writes), seccomp
kills, IPC failures, and agent-process crashes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the reproduction."""


class SimulationError(ReproError):
    """Base class for errors raised by the simulated OS substrate."""


class SegmentationFault(SimulationError):
    """A memory access violated the page permissions of an address space.

    Equivalent to SIGSEGV delivered by the MMU.  The faulting process is
    expected to be killed by the kernel unless the fault is handled.
    """

    def __init__(self, pid: int, address: int, access: str, reason: str = "") -> None:
        self.pid = pid
        self.address = address
        self.access = access
        self.reason = reason
        detail = f" ({reason})" if reason else ""
        super().__init__(
            f"segmentation fault: pid={pid} addr={address:#x} access={access}{detail}"
        )


class SyscallDenied(SimulationError):
    """A system call was rejected by the process's seccomp-like filter.

    Equivalent to ``SECCOMP_RET_KILL_PROCESS``: the kernel terminates the
    offending process.
    """

    def __init__(self, pid: int, syscall: str, reason: str = "not in allowlist") -> None:
        self.pid = pid
        self.syscall = syscall
        self.reason = reason
        super().__init__(f"syscall denied: pid={pid} syscall={syscall} ({reason})")


class FilterSealed(SimulationError):
    """An attempt was made to reconfigure a sealed syscall filter.

    Raised when NO_NEW_PRIVS semantics forbid loosening an installed
    filter (the paper's defence against attackers re-configuring seccomp).
    """


class UnknownSyscall(SimulationError):
    """A syscall name is not present in the simulated syscall table."""


class ProcessCrashed(SimulationError):
    """An operation targeted a process that is no longer running."""

    def __init__(self, pid: int, detail: str = "") -> None:
        self.pid = pid
        suffix = f": {detail}" if detail else ""
        super().__init__(f"process {pid} has crashed{suffix}")


class ProcessNotFound(SimulationError):
    """No process with the given pid exists in the kernel process table."""


class ChannelClosed(SimulationError):
    """A message was sent to or received from a closed IPC channel."""


class ChannelFull(SimulationError):
    """The ring buffer backing an IPC channel ran out of capacity.

    ``permanent`` distinguishes a message that exceeds the channel's total
    capacity (it can never be delivered; retrying would loop forever) from
    transient fullness that draining the queue resolves.
    """

    def __init__(self, message: str = "", permanent: bool = False) -> None:
        self.permanent = permanent
        super().__init__(message)


class AccountingError(SimulationError):
    """IPC/byte accounting failed to reconcile.

    Raised instead of a bare assert so the report names exactly which
    lane (messages, lazy, zero-copy, inter-node, ...) is off and by how
    much — a reconciliation failure is a bookkeeping bug in the
    substrate, and "some assert tripped" is useless for finding it.
    """

    def __init__(self, context: str, mismatches: "list") -> None:
        self.context = context
        self.mismatches = list(mismatches)
        lanes = "; ".join(
            f"lane {name!r} is off by {recorded - expected:+d} "
            f"(recorded {recorded}, expected {expected})"
            for name, recorded, expected in self.mismatches
        )
        super().__init__(f"{context} failed to reconcile: {lanes}")


class FileSystemError(SimulationError):
    """Base class for simulated filesystem failures."""


class FileNotFoundInSim(FileSystemError):
    """The simulated filesystem has no entry at the requested path."""


class DeviceError(SimulationError):
    """A simulated device (camera, network) operation failed."""


class GuiError(SimulationError):
    """A simulated GUI subsystem operation failed."""


class AnalysisError(ReproError):
    """Base class for offline analysis (static/dynamic/hybrid) failures."""


class UncategorizableAPI(AnalysisError):
    """The hybrid analysis could not assign an API to any of the four types."""


class RuntimeSupportError(ReproError):
    """Base class for online runtime-support failures."""


class AgentUnavailable(RuntimeSupportError):
    """An RPC targeted an agent process that crashed and was not restarted."""


class RpcError(RuntimeSupportError):
    """An RPC request failed to complete with exactly-once semantics."""


class FrameworkCrash(RuntimeSupportError):
    """A hooked framework API crashed its agent process.

    Raised to the host program in place of the process-wide crash the
    exploit would have caused without isolation; the host may catch it and
    continue (the drone case study) or let it propagate.
    """

    def __init__(self, qualname: str, cause: Exception) -> None:
        self.qualname = qualname
        self.cause = cause
        super().__init__(f"{qualname} crashed its agent process: {cause}")


class StaleObjectRef(RuntimeSupportError):
    """A lazy-data-copy reference points at a buffer that no longer exists.

    Happens when the owning agent crashed before the reference was
    dereferenced (Section 6 of the paper: crashed-process state is
    intentionally not restored), or when the owner released the object
    because the host no longer held a handle to it.
    """


class AnnotationError(RuntimeSupportError):
    """A user annotation of a protected data structure is invalid."""


class ServeError(RuntimeSupportError):
    """Base class for failures of the multi-tenant serving layer."""


class TenantIsolationError(ServeError):
    """A tenant presented an ObjectRef it does not own.

    The serving layer namespaces every reference minted for a tenant;
    replaying another tenant's (or a stale generation's) reference is
    treated as an attack on the sharing boundary, not a recoverable
    error — the request is rejected outright.
    """


class AdmissionRejected(ServeError):
    """The admission controller refused to enqueue a request.

    Raised when the bounded request queue is at capacity or the tenant
    exceeded its fair-share pending budget (backpressure to the client).
    """


class BrownoutShed(AdmissionRejected):
    """The brownout controller shed a low-priority request at admission.

    Between "healthy" and "circuit-open" the server runs a degraded tier:
    when the fast burn window trips, the lowest-priority tenant classes
    are refused at the door (cheapest possible rejection — no queue slot,
    no agent time) and re-admitted in priority order as burn subsides.
    """


class RequestTimeout(ServeError):
    """A queued request's virtual-clock deadline passed before dispatch."""


class CircuitOpen(ServeError):
    """A per-partition circuit breaker is open.

    After repeated crashes of the same partition's agents the serving
    layer stops dispatching work at it for a cooldown window and sheds
    affected requests to degraded-but-correct responses instead of
    burning restart budget on a crash loop.
    """


class ClusterError(ReproError):
    """Base class for multi-node cluster failures."""


class NodeDown(ClusterError):
    """An operation targeted a cluster node that has failed."""

    def __init__(self, node_index: int, detail: str = "") -> None:
        self.node_index = node_index
        suffix = f": {detail}" if detail else ""
        super().__init__(f"node {node_index} is down{suffix}")

