"""The hook object the simulated substrate consults for faults.

Mirrors the tracing layer's NULL-object pattern: every kernel carries
:data:`NULL_INJECTOR` (one ``enabled`` flag check on hot paths, zero
draws, zero behavior change); ``kernel.inject_faults(FaultInjector(plan))``
walks the live topology and arms the hooks.

Every injected fault is recorded as an :class:`InjectedFault` *and*
emitted as an ``obs`` trace instant (category ``"fault"``, carrying the
same ``fault_id``), which is what the chaos campaign's fourth invariant
— "every injected fault appears as an obs span" — checks 1:1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultKind, NoFaultPlan


@dataclass(frozen=True)
class InjectedFault:
    """One fault the injector actually fired."""

    fault_id: int
    kind: FaultKind
    site: str
    at_ns: int
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fault_id": self.fault_id,
            "kind": self.kind.value,
            "site": self.site,
            "at_ns": self.at_ns,
            "detail": dict(sorted(self.detail.items())),
        }


class NullInjector:
    """Zero-cost default: hot paths check ``enabled`` and move on."""

    enabled = False
    injected: Tuple = ()

    def attach(self, kernel: Any) -> None:
        pass

    def rpc_crash_point(self, agent: Any, request: Any) -> Optional[FaultKind]:
        return None

    def channel_action(
        self, channel: Any, kind: str, nbytes: int
    ) -> Optional[FaultKind]:
        return None

    def checkpoint_tear(self, agent: Any, items: int) -> Optional[int]:
        return None

    def restart_crash(self, agent: Any) -> bool:
        return False

    def node_failure(self, candidates: Any) -> Optional[int]:
        return None


NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Arms a :class:`~repro.faults.plan.FaultPlan` against one machine."""

    enabled = True

    def __init__(
        self,
        plan: Optional[NoFaultPlan] = None,
        ids: Optional[Any] = None,
    ) -> None:
        self.plan = plan if plan is not None else NoFaultPlan()
        self.kernel: Any = None
        self.injected: List[InjectedFault] = []
        #: Fault-id source.  A cluster arms one injector per node but
        #: passes a shared counter, so fault ids stay unique
        #: cluster-wide and the "observed" invariant matches 1:1.
        self._ids = ids if ids is not None else itertools.count(1)

    def attach(self, kernel: Any) -> None:
        """Bind to a machine (called by ``kernel.inject_faults``)."""
        self.kernel = kernel

    # ------------------------------------------------------------------
    # Hook points
    # ------------------------------------------------------------------

    def rpc_crash_point(self, agent: Any, request: Any) -> Optional[FaultKind]:
        """Consulted once per RPC execution inside the agent."""
        point = self.plan.rpc_crash_point(request.api_qualname, request.seq)
        if point is not None:
            self._record(
                point,
                site=f"rpc:{request.api_qualname}",
                pid=agent.process.pid,
                agent=agent.partition.label,
                seq=request.seq,
            )
        return point

    def channel_action(
        self, channel: Any, kind: str, nbytes: int
    ) -> Optional[FaultKind]:
        """Consulted once per channel send."""
        verdict = self.plan.channel_verdict(channel.name, kind, nbytes)
        if verdict is not None:
            self._record(
                verdict,
                site=f"channel:{channel.name}",
                message_kind=kind,
                bytes=nbytes,
            )
        return verdict

    def checkpoint_tear(self, agent: Any, items: int) -> Optional[int]:
        """Consulted once per checkpoint write; returns the tear offset."""
        offset = self.plan.checkpoint_tear(agent.partition.label, items)
        if offset is not None:
            self._record(
                FaultKind.CHECKPOINT_TEAR,
                site=f"checkpoint:{agent.partition.label}",
                pid=agent.process.pid,
                items=items,
                offset=offset,
            )
        return offset

    def restart_crash(self, agent: Any) -> bool:
        """Consulted once per restart attempt (after the replacement
        spawned); True kills the replacement immediately."""
        hit = self.plan.restart_crash(agent.partition.label)
        if hit:
            self._record(
                FaultKind.RESTART_CRASH,
                site=f"restart:{agent.partition.label}",
                pid=agent.process.pid,
            )
        return hit

    def node_failure(self, candidates: Any) -> Optional[int]:
        """Consulted by the cluster between request dispatches; returns
        the index of the node that dies now, or None."""
        victim = self.plan.node_failure(list(candidates))
        if victim is not None:
            self._record(
                FaultKind.NODE_FAILURE,
                site=f"node:{victim}",
                node=victim,
                candidates=len(list(candidates)),
            )
        return victim

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _record(self, kind: FaultKind, site: str, **detail: Any) -> InjectedFault:
        at_ns = self.kernel.clock.now_ns if self.kernel is not None else 0
        fault = InjectedFault(
            fault_id=next(self._ids),
            kind=kind,
            site=site,
            at_ns=at_ns,
            detail=detail,
        )
        self.injected.append(fault)
        if self.kernel is not None:
            tracer = self.kernel.tracer
            if tracer.enabled:
                tracer.instant(
                    "fault", category="fault",
                    pid=int(detail.get("pid", 0)),
                    fault_id=fault.fault_id, kind=kind.value, site=site,
                )
        return fault

    def by_kind(self) -> Dict[str, int]:
        """Injected-fault counts keyed by kind value (sorted, for reports)."""
        counts: Dict[str, int] = {}
        for fault in self.injected:
            counts[fault.kind.value] = counts.get(fault.kind.value, 0) + 1
        return dict(sorted(counts.items()))
