"""The partition-policy rule classes of the static verifier.

Each rule reads the per-function :class:`~repro.staticcheck.inference.FunctionReport`
plans (and the raw module summary) and yields findings.  Severity
philosophy: a rule is an **error** when the runtime would punish the
code at execution time — frozen-state writes die by SIGSEGV, denied
syscalls kill the agent, cross-tenant replays raise
``TenantIsolationError`` — and a **warning** when the code runs but
undermines the partitioning (redundant host copies, dead specs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.apitypes import APIType
from repro.frameworks.syscall_pools import pool_for
from repro.staticcheck.callgraph import LocalSpec, ModuleSummary, ValueKind
from repro.staticcheck.dataflow import DataflowReport
from repro.staticcheck.inference import FunctionReport
from repro.staticcheck.privileges import AgentPrivilege, pool_excess
from repro.staticcheck.report import Finding, Severity


@dataclass
class RuleContext:
    """Everything one file's rules get to look at."""

    path: str
    summary: ModuleSummary
    #: Per-function partition plans (the same walk as ``dataflow``).
    reports: Dict[str, FunctionReport]
    #: The interprocedural flow pass's hits.
    dataflow: DataflowReport
    unused_specs: List[LocalSpec] = field(default_factory=list)
    #: Per-agent minimal privilege sets inferred from the plans.
    privileges: Dict[str, AgentPrivilege] = field(default_factory=dict)
    #: Opt-in gate for the advisory over-privileged-pool findings.
    strict_pools: bool = False


class Rule:
    """One verifier rule: an id, a severity, and a check over a file."""

    id: str = "abstract"
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, context: RuleContext) -> Iterator[Finding]:
        """Yield findings for one analyzed file."""
        raise NotImplementedError

    def finding(
        self,
        context: RuleContext,
        line: int,
        col: int,
        message: str,
        function: Optional[str] = None,
    ) -> Finding:
        """Construct a finding attributed to this rule."""
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=context.path,
            line=line,
            col=col,
            message=message,
            function=function,
        )


class FrozenWriteRule(Rule):
    """Host writes to tags frozen by an earlier phase transition.

    The runtime makes annotated host buffers read-only when the
    framework leaves the state they were defined in; a later
    ``host_write`` dies by SIGSEGV.  The sanctioned update path is
    ``host_alloc`` (a fresh buffer in the current state).
    """

    id = "frozen-write"
    severity = Severity.ERROR
    description = "write to a host variable frozen by a phase transition"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            for hit in report.frozen_writes:
                yield self.finding(
                    context, hit.line, hit.col,
                    f"host_write to '{hit.tag}' would fault: the buffer "
                    f"was defined during {hit.alloc_state.value} and is "
                    f"read-only once the framework moved on (write "
                    f"happens in {hit.write_state.value}); re-allocate "
                    "with host_alloc instead",
                    function=qualname,
                )


class PhaseOrderRule(Rule):
    """Storing before the trace's first loading call (Fig. 3 inversion).

    Only fires when the same trace *does* load later — a store-only
    helper that persists data handed in by its caller is legitimate.
    """

    id = "phase-order"
    severity = Severity.ERROR
    description = "storing call executes before the pipeline has loaded"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            concrete = [
                step for step in report.steps
                if not step.verdict.neutral
                and step.verdict.api_type.is_concrete
            ]
            load_positions = [
                position for position, step in enumerate(concrete)
                if step.verdict.api_type is APIType.LOADING
            ]
            if not load_positions:
                continue
            first_load = load_positions[0]
            for position, step in enumerate(concrete):
                if (
                    step.verdict.api_type is APIType.STORING
                    and position < first_load
                ):
                    later = concrete[first_load]
                    yield self.finding(
                        context, step.event.line, step.event.col,
                        f"{step.verdict.qualname} stores before the "
                        f"pipeline loads anything ("
                        f"{later.verdict.qualname} loads later at line "
                        f"{later.event.line}) — store-before-load "
                        "inverts the framework phase order",
                        function=qualname,
                    )


class SyscallPoolRule(Rule):
    """API syscall profile exceeds its predicted agent's allowlist.

    The agent running this site installs ``pool_for(agent_type)`` as its
    seccomp filter; a declared syscall outside that pool (or an
    init-only syscall outside pool + init allowance) means the agent is
    killed the first time the API runs.
    """

    id = "syscall-pool"
    severity = Severity.ERROR
    description = "declared syscalls outside the inferred agent's pool"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        seen: set = set()
        for qualname, report in context.reports.items():
            for step in report.steps:
                # One resolution path with the minimal-set inference:
                # the same membership check feeds over-privilege diffs.
                extra, extra_init = pool_excess(
                    step.verdict, step.effective_type
                )
                key = (step.event.line, step.event.col,
                       tuple(extra), tuple(extra_init))
                if (not extra and not extra_init) or key in seen:
                    continue
                seen.add(key)
                parts = []
                if extra:
                    parts.append(f"syscalls {', '.join(extra)}")
                if extra_init:
                    parts.append(
                        f"init-only syscalls {', '.join(extra_init)}"
                    )
                yield self.finding(
                    context, step.event.line, step.event.col,
                    f"{step.verdict.qualname} declares "
                    f"{' and '.join(parts)} outside the "
                    f"'{step.agent}' agent's seccomp pool — the agent "
                    "would be killed on first use",
                    function=qualname,
                )


class WrongPartitionDerefRule(Rule):
    """A materialized copy is passed back into an agent partition.

    ``materialize`` dereferences an ObjectRef into the host partition;
    feeding the copy back to a framework call re-ships the full payload
    to the agent.  Passing the ObjectRef instead keeps the transfer lazy
    and in-partition.
    """

    id = "wrong-partition-deref"
    severity = Severity.WARNING
    description = "materialized value flows back into an agent call"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            for step in report.steps:
                if not step.event.materialized_args:
                    continue
                names = ", ".join(step.event.materialized_args)
                yield self.finding(
                    context, step.event.line, step.event.col,
                    f"materialized value ({names}) passed into "
                    f"{step.verdict.qualname}, which runs in the "
                    f"'{step.agent}' agent — pass the ObjectRef and let "
                    "the runtime dereference in-partition",
                    function=qualname,
                )


#: Pseudo-frameworks the dead-api rule ignores: ``gateway.call("obs",
#: ...)`` sites are tracing annotations dispatched to the span tracer
#: (repro.core.gateway.OBS_FRAMEWORK), never to the API registry, so
#: they legitimately resolve to no known API.
OBS_FRAMEWORKS = frozenset({"obs"})


class DeadApiRule(Rule):
    """Call sites naming no known API, and in-file specs never called."""

    id = "dead-api"
    severity = Severity.WARNING
    description = "call site resolves to no known API, or spec is unused"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            for failure in report.failures:
                if failure.kind != "dead":
                    continue
                if failure.event.framework in OBS_FRAMEWORKS:
                    continue
                yield self.finding(
                    context, failure.event.line, failure.event.col,
                    failure.message,
                    function=qualname,
                )
        for spec in context.unused_specs:
            yield self.finding(
                context, spec.line, 0,
                f"in-file APISpec {spec.qualname} is registered but "
                "never called from this module",
            )


class UncategorizableRule(Rule):
    """Call sites the hybrid analysis cannot assign to any partition."""

    id = "uncategorizable"
    severity = Severity.ERROR
    description = "hybrid analysis cannot type this call site"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            for failure in report.failures:
                if failure.kind != "uncategorizable":
                    continue
                yield self.finding(
                    context, failure.event.line, failure.event.col,
                    failure.message,
                    function=qualname,
                )


class TenantRefLeakRule(Rule):
    """An ObjectRef escapes a tenant-scoped handler into shared state.

    The serve layer namespaces refs per tenant and raises
    ``TenantIsolationError`` on replay, but a ref parked in a module
    global or ``self`` attribute survives the request and leaks one
    tenant's handle into another tenant's scope.
    """

    id = "tenant-ref-leak"
    severity = Severity.ERROR
    description = "tenant handler stores an ObjectRef into shared state"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for qualname, report in context.reports.items():
            if not report.trace.tenant_scoped:
                continue
            for store in report.shared_stores:
                if store.value_kind is not ValueKind.HANDLE:
                    continue
                yield self.finding(
                    context, store.line, store.col,
                    f"ObjectRef stored into shared state "
                    f"'{store.target}' from tenant-scoped handler — "
                    "another tenant's request can observe or replay it",
                    function=qualname,
                )


class CrossPartitionLeakRule(Rule):
    """A value produced in one partition crosses into another's API.

    The flow pass tracks partition provenance through assignments,
    containers, helper calls, and derivations; a *materialized* value
    (host copy of agent data) handed to an API that executes in a
    different agent moves one partition's data into another without an
    LDC transfer — exactly the cross-compartment leakage partitioning is
    supposed to prevent.
    """

    id = "cross-partition-leak"
    severity = Severity.ERROR
    description = "agent-produced value crosses into another partition"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        # Direct materialized args are already the per-site
        # wrong-partition-deref rule's evidence; the flow rule owns the
        # indirect paths that rule cannot see (aliases, containers,
        # helper returns, derivations).
        direct: set = set()
        for report in context.reports.values():
            for step in report.steps:
                for name in step.event.materialized_args:
                    direct.add((step.event.line, step.event.col, name))
        for hit in context.dataflow.leaks:
            if (hit.line, hit.col, hit.value) in direct:
                continue
            produced = ", ".join(hit.produced_in)
            yield self.finding(
                context, hit.line, hit.col,
                f"value '{hit.value}' produced in the '{produced}' "
                f"partition is passed into {hit.api}, which runs in the "
                f"'{hit.consumed_in}' agent — keep it as an ObjectRef so "
                "the LDC transfer stays in-partition",
                function=hit.function,
            )


class TenantTaintEscapeRule(Rule):
    """Tenant-derived data reaching a shared or host sink.

    The tenant-ref-leak rule covers parked ObjectRefs; this covers the
    *data*: a value materialized (or derived from one) inside a
    tenant-scoped flow that lands in module/self/global state or a host
    buffer outlives the request and is visible to every other tenant.
    """

    id = "tenant-taint-escape"
    severity = Severity.ERROR
    description = "tenant-derived data reaches a shared or host sink"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for hit in context.dataflow.escapes:
            if hit.sink == "host":
                yield self.finding(
                    context, hit.line, hit.col,
                    f"tenant-derived data written into {hit.target} — "
                    "host buffers outlive the request and are readable "
                    "from every tenant's flow",
                    function=hit.function,
                )
            else:
                yield self.finding(
                    context, hit.line, hit.col,
                    f"tenant-derived data stored into shared state "
                    f"'{hit.target}' — it outlives the request and "
                    "leaks across tenant scopes",
                    function=hit.function,
                )


class FrozenAliasWriteRule(Rule):
    """A host_write through a string alias of a frozen tag.

    The per-site frozen-write rule only sees literal (or module
    constant) tag arguments; a tag reaching the write through a local
    variable dodges it while still faulting at runtime.  The flow pass
    resolves local string aliases and replays the same freeze machine.
    """

    id = "frozen-alias-write"
    severity = Severity.ERROR
    description = "aliased host_write targets a frozen tag"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        for hit in context.dataflow.alias_writes:
            yield self.finding(
                context, hit.line, hit.col,
                f"host_write through alias '{hit.alias}' targets tag "
                f"'{hit.tag}', frozen since the framework left "
                f"{hit.alloc_state.value} (write happens in "
                f"{hit.write_state.value}) — the per-site check cannot "
                "see this alias; re-allocate with host_alloc",
                function=hit.function,
            )


class OverPrivilegedPoolRule(Rule):
    """A configured pool grants syscalls no resolved API requires.

    Advisory and opt-in (``--strict-pools``): the Table 7 pools are the
    paper's sound default, but a pipeline using a fraction of a pool
    carries attack surface it never needs.  The finding anchors at the
    first site placed in the agent; ``--emit-minimal-pools`` prints the
    tightened spec.
    """

    id = "over-privileged-pool"
    severity = Severity.WARNING
    description = "agent pool grants syscalls no resolved API declares"

    def check(self, context: RuleContext) -> Iterator[Finding]:
        if not context.strict_pools:
            return
        for label in sorted(context.privileges):
            privilege = context.privileges[label]
            if privilege.sites == 0:
                continue
            surplus = privilege.pool_surplus()
            if not surplus:
                continue
            pool = pool_for(privilege.api_type) or frozenset()
            preview = ", ".join(surplus[:4])
            if len(surplus) > 4:
                preview += ", ..."
            line, col = privilege.anchor
            yield self.finding(
                context, line, col,
                f"the '{label}' agent's pool grants {len(surplus)} of "
                f"{len(pool)} syscalls that no resolved API declares "
                f"({preview}) — tighten with --emit-minimal-pools",
            )


#: Registry of every verifier rule, in reporting order.
ALL_RULES: Tuple[Rule, ...] = (
    FrozenWriteRule(),
    PhaseOrderRule(),
    SyscallPoolRule(),
    WrongPartitionDerefRule(),
    DeadApiRule(),
    UncategorizableRule(),
    TenantRefLeakRule(),
    CrossPartitionLeakRule(),
    TenantTaintEscapeRule(),
    FrozenAliasWriteRule(),
    OverPrivilegedPoolRule(),
)


def rule_ids() -> Tuple[str, ...]:
    """The stable ids accepted by ``# repro: ignore[...]``."""
    return tuple(rule.id for rule in ALL_RULES)
