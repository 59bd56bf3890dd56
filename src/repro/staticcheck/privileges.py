"""Least-privilege syscall inference per agent partition.

The runtime widens every full-type agent's seccomp allowlist to the
Table 7 pool (`core/policy.filter_spec_for_partition`).  That is sound
but rarely *minimal*: a pipeline whose loading agent only ever calls
``imread`` does not need the other ~40 loading-pool syscalls.  This
module computes, from statically resolved call sites, the minimal
allowlist each agent actually requires — and everything downstream of
that one computation:

* :func:`pool_excess` — the single membership check shared by the
  ``syscall-pool`` rule and the minimal-set inference (one resolution
  path, so a site can never yield both a pool violation and a duplicate
  over-privilege finding);
* :func:`collect_privileges` — per-agent-label privilege accumulation
  over a module's :class:`~repro.staticcheck.inference.FunctionReport`
  plans (``over-privileged-pool`` findings);
* :func:`minimal_filter_spec` / :func:`render_minimal_pools` — the
  tightened :class:`~repro.sim.filters.FilterSpec` per agent behind
  ``repro check --emit-minimal-pools``;
* :func:`privileges_for_app` — the same inference over a declarative
  app schedule (catalog apps build their ``CallSite`` lists at runtime,
  so file-level analysis cannot see them), including the engine's
  implicit sites (``VideoCapture`` for camera sources,
  ``CascadeClassifier`` for detector stages).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.apitypes import APIType
from repro.core.hybrid import categorize_call_site
from repro.core.policy import DESIGNATED_FDS
from repro.errors import ReproError
from repro.frameworks.syscall_pools import INIT_ONLY_SYSCALLS, pool_for
from repro.sim.filters import FilterSpec
from repro.staticcheck.callgraph import CallEvent
from repro.staticcheck.inference import ApiVerdict, FunctionReport, _Machine

#: Neutral sites run in the current state's agent (processing default).
_DEFAULT_AGENT = APIType.PROCESSING


@dataclass
class AgentPrivilege:
    """The minimal privilege set one agent partition actually needs."""

    label: str
    api_type: APIType
    apis: Set[str] = field(default_factory=set)
    syscalls: Set[str] = field(default_factory=set)
    init_syscalls: Set[str] = field(default_factory=set)
    sites: int = 0
    #: First (line, col) that placed work in this agent — the anchor
    #: over-privilege findings attach to (0, 0 for schedule-derived).
    anchor: Tuple[int, int] = (0, 0)

    def minimal_allowed(self) -> FrozenSet[str]:
        """The steady-state allowlist: union of declared syscalls."""
        return frozenset(self.syscalls)

    def minimal_init_only(self) -> FrozenSet[str]:
        """Init-phase grace set (always includes mprotect/connect)."""
        return frozenset(
            (self.init_syscalls | INIT_ONLY_SYSCALLS) - self.syscalls
        )

    def pool_surplus(self) -> List[str]:
        """Pool syscalls no resolved API of this agent ever declares."""
        pool = pool_for(self.api_type)
        if pool is None:
            return []
        return sorted(
            pool - self.syscalls - self.init_syscalls - INIT_ONLY_SYSCALLS
        )


def pool_excess(
    verdict: ApiVerdict, effective_type: APIType
) -> Tuple[List[str], List[str]]:
    """Declared syscalls of one site outside its agent's Table 7 pool.

    Returns ``(extra, extra_init)`` — the shared membership check behind
    both the ``syscall-pool`` rule and the minimal-set inference.
    """
    pool = pool_for(effective_type)
    if pool is None:
        return [], []
    extra = sorted(set(verdict.syscalls) - pool)
    extra_init = sorted(
        set(verdict.init_syscalls) - pool - INIT_ONLY_SYSCALLS
    )
    return extra, extra_init


def collect_privileges(
    reports: Dict[str, FunctionReport],
) -> Dict[str, AgentPrivilege]:
    """Accumulate per-agent privileges over a module's inferred plans."""
    privileges: Dict[str, AgentPrivilege] = {}
    for report in reports.values():
        for step in report.steps:
            label = step.agent
            privilege = privileges.get(label)
            if privilege is None:
                privilege = AgentPrivilege(
                    label=label,
                    api_type=step.effective_type,
                    anchor=(step.event.line, step.event.col),
                )
                privileges[label] = privilege
            privilege.apis.add(step.verdict.qualname)
            privilege.syscalls.update(step.verdict.syscalls)
            privilege.init_syscalls.update(step.verdict.init_syscalls)
            privilege.sites += 1
            anchor = (step.event.line, step.event.col)
            if anchor < privilege.anchor:
                privilege.anchor = anchor
    return privileges


def merge_privileges(
    maps: Iterable[Dict[str, AgentPrivilege]],
) -> Dict[str, AgentPrivilege]:
    """Union privilege maps from several files/apps into one."""
    merged: Dict[str, AgentPrivilege] = {}
    for mapping in maps:
        for label, privilege in mapping.items():
            existing = merged.get(label)
            if existing is None:
                merged[label] = AgentPrivilege(
                    label=privilege.label,
                    api_type=privilege.api_type,
                    apis=set(privilege.apis),
                    syscalls=set(privilege.syscalls),
                    init_syscalls=set(privilege.init_syscalls),
                    sites=privilege.sites,
                    anchor=privilege.anchor,
                )
            else:
                existing.apis |= privilege.apis
                existing.syscalls |= privilege.syscalls
                existing.init_syscalls |= privilege.init_syscalls
                existing.sites += privilege.sites
    return merged


def minimal_filter_spec(
    privilege: AgentPrivilege,
    path_prefixes: Optional[Tuple[str, ...]] = None,
) -> FilterSpec:
    """The tightened filter ``--emit-minimal-pools`` prints/installs."""
    pool = pool_for(privilege.api_type) or frozenset()
    fds = DESIGNATED_FDS.get(privilege.api_type, frozenset())
    return FilterSpec(
        allowed=privilege.minimal_allowed(),
        init_only=privilege.minimal_init_only(),
        allowed_fds=fds if fds else None,
        allowed_path_prefixes=path_prefixes,
        description=(
            f"minimal filter for {privilege.label} "
            f"({len(privilege.minimal_allowed())} of {len(pool)} "
            "pool syscalls)"
        ),
    )


def render_minimal_pools(privileges: Dict[str, AgentPrivilege]) -> str:
    """Canonical JSON for ``--emit-minimal-pools`` (stable key order)."""
    import json

    payload = {
        "version": 1,
        "pools": {
            label: minimal_filter_spec(privilege).to_dict()
            for label, privilege in sorted(privileges.items())
        },
    }
    return json.dumps(payload, indent=2, sort_keys=False)


# ----------------------------------------------------------------------
# Schedule-level inference (catalog apps are invisible to file analysis)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedSite:
    """One schedule call site resolved to an API and an agent label."""

    framework: str
    api: str
    qualname: str
    api_type: APIType
    agent: str
    syscalls: Tuple[str, ...]
    init_syscalls: Tuple[str, ...]


def _resolve_api(
    framework: str, api: str, declared: Optional[APIType]
) -> Optional[ApiVerdict]:
    """One schedule site's verdict via the hybrid registry, falling back
    to its declared type."""
    try:
        return ApiVerdict.of_entry(categorize_call_site(framework, api))
    except ReproError:
        if declared is not None:
            return ApiVerdict.declared(framework, api, declared)
        return None


def _site(
    framework: str, api: str, verdict: ApiVerdict, agent: str
) -> ResolvedSite:
    """One schedule site, placed in ``agent``."""
    return ResolvedSite(
        framework=framework,
        api=api,
        qualname=verdict.qualname,
        api_type=verdict.api_type,
        agent=agent,
        syscalls=tuple(verdict.syscalls),
        init_syscalls=tuple(verdict.init_syscalls),
    )


def resolved_schedule(app) -> List[ResolvedSite]:
    """Replay the state machine over an app schedule, implicit sites
    included, producing the agent each site executes in.

    The engine lazily issues ``VideoCapture`` before the first camera
    read and ``CascadeClassifier`` before a detector stage with no
    loaded model — both appear in runtime traces, so the static universe
    must contain them.
    """
    from repro.apps.base import ArgSpec

    machine = _Machine()
    resolved: List[ResolvedSite] = []
    seen_capture = False
    seen_classifier = False

    def visit(framework: str, api: str,
              declared: Optional[APIType]) -> None:
        verdict = _resolve_api(framework, api, declared)
        if verdict is None:
            return
        step = machine.place(CallEvent(framework, api, 0, 0), verdict)
        resolved.append(_site(framework, api, verdict, step.agent))

    for site in app.schedule:
        if site.argspec is ArgSpec.SOURCE_CAMERA and not seen_capture:
            seen_capture = True
            visit(site.framework, "VideoCapture", APIType.LOADING)
        if site.argspec is ArgSpec.DETECT and not seen_classifier:
            # A model may have been produced by an earlier loading site;
            # the engine's fallback constructor is still reachable on
            # the first item, so include it (sound over-approximation).
            seen_classifier = True
            visit("opencv", "CascadeClassifier", APIType.LOADING)
        visit(site.framework, site.api, site.api_type)
    return resolved


def privileges_for_app(
    app, extra_apis: Iterable[Tuple[str, str]] = ()
) -> Dict[str, AgentPrivilege]:
    """Per-agent minimal privileges from a declarative app schedule.

    ``extra_apis`` names additional ``(framework, api)`` pairs deployed
    alongside the schedule (e.g. a CVE-carrying API in the attack
    harness) so their declared syscalls stay inside the minimal pool.
    """
    privileges: Dict[str, AgentPrivilege] = {}

    def absorb(site: ResolvedSite) -> None:
        privilege = privileges.get(site.agent)
        if privilege is None:
            concrete = next(
                (t for t in APIType if t.value == site.agent),
                _DEFAULT_AGENT,
            )
            privilege = AgentPrivilege(label=site.agent, api_type=concrete)
            privileges[site.agent] = privilege
        privilege.apis.add(site.qualname)
        privilege.syscalls.update(site.syscalls)
        privilege.init_syscalls.update(site.init_syscalls)
        privilege.sites += 1

    for site in resolved_schedule(app):
        absorb(site)
    for framework, api in extra_apis:
        verdict = _resolve_api(framework, api, None)
        if verdict is None:
            continue
        effective = (
            verdict.api_type if verdict.api_type.is_concrete
            else _DEFAULT_AGENT
        )
        absorb(_site(framework, api, verdict, effective.value))
    return privileges

