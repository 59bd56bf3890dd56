"""Static analysis of framework API source (Section 4.2.2).

The real system walks LLVM IR / PyCG call graphs looking for data-loading
and storing syscalls, memory assignments, and GUI accesses.  Here the
"source" of an API is a synthesized IR derived from its spec: explicit
statements for statically visible flows, and :class:`IndirectCallStmt`
placeholders for flows hidden behind dynamic dispatch (``static_opaque``
APIs — the pandas/json/matplotlib cases of Table 2, hub downloads, etc.).

The analyzer collects the flows it can prove and reports whether the walk
was *complete*; incomplete results are handed to the dynamic analysis by
the hybrid driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.core.apitypes import APIType
from repro.core.dataflow import Flow, Storage, categorize_flows
from repro.frameworks.base import APISpec


# ----------------------------------------------------------------------
# Synthesized IR
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SyscallStmt:
    """A direct system-call site (``read(fd, buf)`` / ``write(...)``)."""

    syscall: str
    storage: Optional[Storage] = None
    direction: str = "read"  # "read" | "write"
    label: str = ""


@dataclass(frozen=True)
class AssignStmt:
    """A memory assignment ``x = y`` (the W(MEM, R(MEM)) evidence)."""

    dst: str = "x"
    src: str = "y"


@dataclass(frozen=True)
class GuiAccessStmt:
    """A statement touching a GUI object (``g_windows`` etc.)."""

    mode: str = "write"  # "read" | "write"
    label: str = ""


@dataclass(frozen=True)
class IndirectCallStmt:
    """A call through a pointer / dynamic dispatch: opaque to the walk."""

    hint: str = ""


Statement = Union[SyscallStmt, AssignStmt, GuiAccessStmt, IndirectCallStmt]

_LOAD_SYSCALLS = frozenset({"read", "pread64", "readv", "recvfrom", "recvmsg"})
_STORE_SYSCALLS = frozenset({"write", "pwrite64", "writev", "sendto", "sendmsg"})


def synthesize_ir(spec: APISpec) -> List[Statement]:
    """Build the statement list that stands in for an API's source code.

    Statically visible flows expand to the obvious statements; for an
    opaque API every flow collapses into one :class:`IndirectCallStmt`
    (the parser table / callback the real analysis cannot resolve).
    """
    statements: List[Statement] = []
    if spec.static_opaque:
        statements.append(IndirectCallStmt(hint=spec.qualname))
        statements.append(AssignStmt())
        return statements
    for flow in spec.flows:
        statements.extend(_statements_for_flow(flow))
    if not statements:
        statements.append(AssignStmt())
    return statements


def _statements_for_flow(flow: Flow) -> List[Statement]:
    source, dest = flow.source, flow.dest
    if dest is None:
        if source is Storage.GUI:
            return [GuiAccessStmt(mode="read", label=flow.label)]
        return [SyscallStmt("read", storage=source, direction="read",
                            label=flow.label)]
    if dest is Storage.GUI:
        return [GuiAccessStmt(mode="write", label=flow.label)]
    if source is Storage.GUI:
        return [GuiAccessStmt(mode="read", label=flow.label), AssignStmt()]
    if dest is Storage.MEM and source in (Storage.FILE, Storage.DEV):
        return [
            SyscallStmt("openat", storage=source, direction="read",
                        label=flow.label),
            SyscallStmt("read", storage=source, direction="read",
                        label=flow.label),
            AssignStmt(),
        ]
    if dest in (Storage.FILE, Storage.DEV) and source is Storage.MEM:
        return [
            SyscallStmt("openat", storage=dest, direction="write",
                        label=flow.label),
            SyscallStmt("write", storage=dest, direction="write",
                        label=flow.label),
        ]
    return [AssignStmt()]


# ----------------------------------------------------------------------
# Analyzer
# ----------------------------------------------------------------------


@dataclass
class StaticResult:
    """Outcome of the static walk over one API."""

    qualname: str
    flows: Tuple[Flow, ...]
    complete: bool
    category: Optional[APIType]

    @property
    def needs_dynamic(self) -> bool:
        """True when dynamic analysis must confirm or find the category."""
        return not self.complete or self.category is None


class StaticAnalyzer:
    """Walks synthesized IR and recovers the Fig. 8 flow set."""

    def analyze(self, spec: APISpec) -> StaticResult:
        flows: List[Flow] = []
        complete = True
        for statement in synthesize_ir(spec):
            if isinstance(statement, IndirectCallStmt):
                complete = False
            elif isinstance(statement, SyscallStmt):
                flow = self._flow_for_syscall(statement)
                if flow is not None:
                    flows.append(flow)
            elif isinstance(statement, GuiAccessStmt):
                if statement.mode == "read":
                    flows.append(Flow(source=Storage.GUI, dest=None,
                                      label=statement.label))
                else:
                    flows.append(Flow(source=Storage.MEM, dest=Storage.GUI,
                                      label=statement.label))
            elif isinstance(statement, AssignStmt):
                flows.append(Flow(source=Storage.MEM, dest=Storage.MEM))
        category = categorize_flows(flows) if complete else None
        if not complete and flows:
            # Partial evidence is still useful, but not conclusive.
            category = None
        return StaticResult(
            qualname=spec.qualname,
            flows=tuple(flows),
            complete=complete,
            category=category,
        )

    @staticmethod
    def _flow_for_syscall(statement: SyscallStmt) -> Optional[Flow]:
        if statement.storage is None:
            return None
        if statement.direction == "read" and statement.syscall in (
            _LOAD_SYSCALLS | {"openat"}
        ):
            if statement.syscall == "openat":
                return None  # open alone moves no data
            return Flow(source=statement.storage, dest=Storage.MEM,
                        label=statement.label)
        if statement.direction == "write" and statement.syscall in _STORE_SYSCALLS:
            return Flow(source=Storage.MEM, dest=statement.storage,
                        label=statement.label)
        return None
