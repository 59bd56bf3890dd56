"""Static↔trace parity: the soundness witness behind ``--against-trace``.

The static analysis claims to over-approximate runtime behavior: every
API the runtime dispatches, every syscall an agent executes, and every
partition hop must be *predicted reachable*.  This module replays a
recorded Chrome trace (``repro trace --out``) against a
:class:`StaticUniverse` — the set of APIs, per-agent syscall budgets,
and partition pairs static analysis deems reachable — and reports a
``trace-parity`` finding for anything the runtime touched outside it.

A universe comes from two sources, merged freely:

* :func:`universe_from_reports` — file-level analysis (hand-written
  pipelines whose call sites are literal);
* :func:`universe_from_app` — a declarative app schedule (catalog apps
  construct their sites at runtime, invisible to file analysis),
  including the engine's implicit ``VideoCapture``/``CascadeClassifier``
  sites.

Partition-pair semantics are deliberately coarse: static analysis
proves which partitions are *reachable together*; any ordered hop
between two co-reachable partitions is within prediction (loops revisit
earlier phases), while a hop touching a partition the analysis never
placed work in is a parity violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set

from repro.frameworks.syscall_pools import INIT_ONLY_SYSCALLS
from repro.obs.export import trace_runtime_touches
from repro.staticcheck.inference import FunctionReport
from repro.staticcheck.privileges import (
    AgentPrivilege,
    collect_privileges,
    privileges_for_app,
    resolved_schedule,
)
from repro.staticcheck.report import Finding, Severity

#: Rule id parity violations are reported under.
PARITY_RULE = "trace-parity"


@dataclass
class StaticUniverse:
    """Everything static analysis predicts a run may touch."""

    #: ``framework.api`` names (matches the rpc span's ``api`` attr).
    apis: Set[str] = field(default_factory=set)
    #: Agent label → syscalls its filter may ever need (minimal ∪ init).
    agent_syscalls: Dict[str, Set[str]] = field(default_factory=dict)
    #: Agent labels with statically placed work (pair co-reachability).
    agents: Set[str] = field(default_factory=set)

    def absorb_privileges(
        self, privileges: Dict[str, AgentPrivilege]
    ) -> None:
        for label, privilege in privileges.items():
            budget = self.agent_syscalls.setdefault(label, set())
            budget.update(privilege.minimal_allowed())
            budget.update(privilege.minimal_init_only())
            budget.update(INIT_ONLY_SYSCALLS)
            self.agents.add(label)

    def merge(self, other: "StaticUniverse") -> "StaticUniverse":
        self.apis |= other.apis
        for label, budget in other.agent_syscalls.items():
            self.agent_syscalls.setdefault(label, set()).update(budget)
        self.agents |= other.agents
        return self


def universe_from_reports(
    reports: Dict[str, FunctionReport],
) -> StaticUniverse:
    """The universe one analyzed file's partition plans reach."""
    universe = StaticUniverse()
    for report in reports.values():
        for step in report.steps:
            universe.apis.add(f"{step.event.framework}.{step.event.api}")
    universe.absorb_privileges(collect_privileges(reports))
    return universe


def universe_from_app(app) -> StaticUniverse:
    """The universe a declarative app schedule reaches."""
    universe = StaticUniverse()
    for site in resolved_schedule(app):
        universe.apis.add(f"{site.framework}.{site.api}")
    universe.absorb_privileges(privileges_for_app(app))
    return universe


def universe_from_paths(paths: Iterable[str]) -> StaticUniverse:
    """The merged universe of every ``.py`` file under ``paths``."""
    from repro.staticcheck.callgraph import build_module
    from repro.staticcheck.checker import iter_python_files
    from repro.staticcheck.inference import PartitionInferencer

    merged = StaticUniverse()
    for path in iter_python_files(list(paths)):
        summary = build_module(path)
        if summary.parse_error is not None:
            continue
        reports = PartitionInferencer(summary).infer()
        merged.merge(universe_from_reports(reports))
    return merged


def merge_universes(universes: Iterable[StaticUniverse]) -> StaticUniverse:
    """Union several universes (e.g. every file of a project)."""
    merged = StaticUniverse()
    for universe in universes:
        merged.merge(universe)
    return merged


def check_trace_parity(
    universe: StaticUniverse, payload: Any, trace_path: str
) -> List[Finding]:
    """Findings for everything the trace touched outside the universe."""
    touches = trace_runtime_touches(payload)
    findings: List[Finding] = []

    def violation(message: str) -> None:
        findings.append(Finding(
            rule=PARITY_RULE,
            severity=Severity.ERROR,
            path=trace_path,
            line=0,
            col=0,
            message=message,
        ))

    for api in sorted(touches.apis):
        if api not in universe.apis:
            violation(
                f"runtime dispatched API '{api}' that static analysis "
                "deemed unreachable"
            )
    for agent in sorted(touches.syscalls_by_agent):
        budget = universe.agent_syscalls.get(agent)
        if budget is None:
            violation(
                f"runtime ran work in the '{agent}' agent, where static "
                "analysis placed none"
            )
            continue
        for name in sorted(touches.syscalls_by_agent[agent] - budget):
            violation(
                f"'{agent}' agent executed syscall '{name}' outside its "
                "statically inferred minimal budget"
            )
    for source, target in sorted(touches.edges):
        if source not in universe.agents or target not in universe.agents:
            missing = source if source not in universe.agents else target
            violation(
                f"runtime crossed partition edge {source} -> {target}, "
                f"but static analysis never placed work in '{missing}'"
            )
    return findings
