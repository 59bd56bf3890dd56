"""Partition-plan inference over a module's extracted call graph.

For every function the :mod:`~repro.staticcheck.callgraph` builder
summarized, the inferencer resolves each framework call site to an
:class:`~repro.core.apitypes.APIType` — through the same hybrid
categorizer the runtime's offline phase uses — and replays the predicted
framework state machine over the call sequence.  The result is, per
function, the *partition plan the runtime would enforce*: which agent
each site executes in, where the state transitions fall, and which
annotated host variables are frozen at each point.  The rule classes in
:mod:`~repro.staticcheck.rules` read these reports; nothing here decides
severity or formats findings.

Resolution order for a site ``framework.api``:

1. the global framework registry via
   :func:`repro.core.hybrid.categorize_call_site` (static-then-dynamic
   hybrid verdict, cached per API);
2. an ``APISpec(...)`` literal declared in the analyzed module
   (``method == "declared"``) — host programs register custom
   frameworks at runtime, so the registry cannot know them at lint time;
3. the ``CallSite(..., api_type=...)`` literal for declarative sites;
4. otherwise a :class:`ResolutionFailure` (dead or uncategorizable).

Frameworks the module registers with *computed* spec names are skipped
entirely — the builder cannot enumerate their APIs, and guessing would
produce false dead-API findings (``examples/custom_framework.py``
registers two specs from a loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.apitypes import APIType, FrameworkState, api_type_of_state
from repro.core.hybrid import categorize_call_site
from repro.core.statemachine import next_state
from repro.errors import ReproError, UncategorizableAPI
from repro.staticcheck.callgraph import (
    MAX_INLINE_DEPTH,
    CallEvent,
    FunctionTrace,
    HostOpEvent,
    InlineCallEvent,
    LocalSpec,
    ModuleSummary,
    SharedStoreEvent,
    TraceEvent,
)

#: Agents only exist for the four concrete types; neutral calls run in
#: the agent of the current state, defaulting to processing — mirrors
#: ``FreePartGateway._route``.
_DEFAULT_AGENT = APIType.PROCESSING


@dataclass(frozen=True)
class ApiVerdict:
    """The resolved identity of one ``framework.api`` pair."""

    qualname: str
    api_type: APIType
    neutral: bool
    method: str  # "static" | "dynamic" | "declared"
    syscalls: Tuple[str, ...]
    init_syscalls: Tuple[str, ...]


@dataclass(frozen=True)
class ResolutionFailure:
    """A call site the hybrid categorizer could not type."""

    event: CallEvent
    kind: str  # "uncategorizable" | "dead"
    message: str


@dataclass(frozen=True)
class ResolvedCall:
    """One call site placed in the predicted state-machine trace."""

    event: CallEvent
    verdict: ApiVerdict
    state_before: FrameworkState
    state_after: FrameworkState

    @property
    def effective_type(self) -> APIType:
        """The type of the agent this site executes in."""
        if self.verdict.neutral or not self.verdict.api_type.is_concrete:
            return (
                api_type_of_state(self.state_before) or _DEFAULT_AGENT
            )
        return self.verdict.api_type

    @property
    def agent(self) -> str:
        """Predicted agent partition label (``APIType.value``)."""
        return self.effective_type.value


@dataclass(frozen=True)
class FrozenWriteHit:
    """A host write to a tag already frozen by a phase transition."""

    event: HostOpEvent
    tag: str
    alloc_state: FrameworkState
    write_state: FrameworkState


@dataclass
class FunctionReport:
    """The inferred partition plan of one function's trace."""

    trace: FunctionTrace
    steps: List[ResolvedCall] = field(default_factory=list)
    failures: List[ResolutionFailure] = field(default_factory=list)
    frozen_writes: List[FrozenWriteHit] = field(default_factory=list)
    shared_stores: List[SharedStoreEvent] = field(default_factory=list)

    @property
    def final_state(self) -> FrameworkState:
        """The framework state after the last resolved call."""
        if self.steps:
            return self.steps[-1].state_after
        return FrameworkState.INITIALIZATION

    def agents_used(self) -> Set[str]:
        """Every agent partition this function's plan touches."""
        return {step.agent for step in self.steps}


class PartitionInferencer:
    """Resolve and replay every function trace of one module summary."""

    #: Inline-splice depth bound (recursion / helper chains).
    MAX_DEPTH = MAX_INLINE_DEPTH

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self._verdicts: Dict[
            Tuple[str, str],
            Union[ApiVerdict, Tuple[str, str], None],
        ] = {}
        #: bare name → qualname for inline-splice lookup.
        self._by_name: Dict[str, str] = {}
        for qualname in summary.functions:
            bare = qualname.rsplit(".", 1)[-1]
            self._by_name.setdefault(bare, qualname)
        self._called_keys: Set[Tuple[str, str]] = set()

    # -- public API ----------------------------------------------------

    def infer(self) -> Dict[str, FunctionReport]:
        """Produce a :class:`FunctionReport` per summarized function."""
        reports: Dict[str, FunctionReport] = {}
        for qualname, trace in self.summary.functions.items():
            reports[qualname] = self._infer_function(trace)
        return reports

    def resolve_event(
        self, event: CallEvent
    ) -> Union[ApiVerdict, ResolutionFailure, None]:
        """Public resolution entry point for the dataflow pass.

        Both passes must agree on what a call site *is* — same registry,
        same in-file specs, same declared fallbacks — so the taint
        analysis resolves through the inferencer instead of duplicating
        the lookup order.
        """
        return self._resolve(event)

    def unused_specs(self) -> List[LocalSpec]:
        """In-file API specs never referenced by any call site.

        Only meaningful for modules that *have* call sites — a library
        module that declares specs for other modules to call is not a
        dead-API finding.  Call after :meth:`infer`.
        """
        if not self._called_keys:
            return []
        return [
            spec
            for key, spec in sorted(self.summary.local_specs.items())
            if key not in self._called_keys
        ]

    # -- resolution ----------------------------------------------------

    def _resolve(
        self, event: CallEvent
    ) -> Union[ApiVerdict, ResolutionFailure, None]:
        """Type one call site; ``None`` means "skip, cannot be checked"."""
        key = (event.framework, event.api)
        self._called_keys.add(key)
        cached = self._verdicts.get(key, "miss")
        if cached != "miss":
            if isinstance(cached, ApiVerdict):
                return self._with_declared_fallback(event, cached)
            fallback = self._with_declared_fallback(event, None)
            if fallback is not None or cached is None:
                return fallback
            kind, message = cached
            return ResolutionFailure(event=event, kind=kind, message=message)

        outcome: Union[ApiVerdict, Tuple[str, str], None]
        try:
            entry = categorize_call_site(event.framework, event.api)
            outcome = ApiVerdict(
                qualname=entry.qualname,
                api_type=entry.api_type,
                neutral=entry.neutral,
                method=entry.method,
                syscalls=entry.syscalls,
                init_syscalls=entry.init_syscalls,
            )
        except UncategorizableAPI as exc:
            outcome = ("uncategorizable", str(exc))
        except ReproError as exc:
            outcome = self._resolve_locally(event, key, str(exc))
        self._verdicts[key] = outcome

        if isinstance(outcome, ApiVerdict):
            return self._with_declared_fallback(event, outcome)
        if outcome is None:
            return self._with_declared_fallback(event, None)
        kind, message = outcome
        fallback = self._with_declared_fallback(event, None)
        if fallback is not None:
            return fallback
        return ResolutionFailure(event=event, kind=kind, message=message)

    def _resolve_locally(
        self, event: CallEvent, key: Tuple[str, str], registry_error: str
    ) -> Union[ApiVerdict, Tuple[str, str], None]:
        """Fall back to in-file specs when the registry has no entry."""
        local = self.summary.local_specs.get(key)
        if local is not None:
            if local.api_type is None and not local.neutral:
                return (
                    "uncategorizable",
                    f"{local.qualname}: in-file spec declares no literal "
                    "APIType ground truth and is not neutral",
                )
            return ApiVerdict(
                qualname=local.qualname,
                api_type=local.api_type or APIType.NEUTRAL,
                neutral=local.neutral,
                method="declared",
                syscalls=local.syscalls,
                init_syscalls=local.init_syscalls,
            )
        if event.framework in self.summary.dynamic_spec_frameworks:
            # The module registers this framework with computed spec
            # names; its API surface is unknowable statically.
            return None
        if event.framework in self.summary.local_frameworks:
            return (
                "dead",
                f"{event.framework}.{event.api}: framework is registered "
                "in this module but declares no such API",
            )
        return (
            "dead",
            f"{event.framework}.{event.api}: dead call site "
            f"({registry_error})",
        )

    @staticmethod
    def _with_declared_fallback(
        event: CallEvent, verdict: Optional[ApiVerdict]
    ) -> Optional[ApiVerdict]:
        """Prefer a real verdict; fall back to a CallSite's declared type."""
        if verdict is not None:
            return verdict
        if event.declared_only and event.declared_type is not None:
            return ApiVerdict(
                qualname=f"{event.framework}.{event.api}",
                api_type=event.declared_type,
                neutral=not event.declared_type.is_concrete,
                method="declared",
                syscalls=(),
                init_syscalls=(),
            )
        return None

    # -- trace flattening ----------------------------------------------

    def _flatten(
        self, trace: FunctionTrace, depth: int, active: Set[str]
    ) -> List[TraceEvent]:
        """Trace events with module-local gateway calls spliced inline."""
        events: List[TraceEvent] = []
        for event in trace.events:
            if isinstance(event, InlineCallEvent):
                qualname = self._by_name.get(event.callee)
                if (
                    qualname is None
                    or qualname in active
                    or depth >= self.MAX_DEPTH
                ):
                    continue
                callee = self.summary.functions.get(qualname)
                if callee is None:
                    continue
                active.add(qualname)
                events.extend(self._flatten(callee, depth + 1, active))
                active.discard(qualname)
            else:
                events.append(event)
        return events

    # -- replay --------------------------------------------------------

    def _infer_function(self, trace: FunctionTrace) -> FunctionReport:
        report = FunctionReport(trace=trace)
        state = FrameworkState.INITIALIZATION
        tag_state: Dict[str, FrameworkState] = {}
        frozen: Set[str] = set()

        for event in self._flatten(trace, 0, {trace.qualname}):
            if isinstance(event, CallEvent):
                resolved = self._resolve(event)
                if resolved is None:
                    continue
                if isinstance(resolved, ResolutionFailure):
                    report.failures.append(resolved)
                    continue
                new_state = next_state(
                    state, resolved.api_type, resolved.neutral
                )
                after = new_state if new_state is not None else state
                if new_state is not None:
                    # Leaving `state` freezes every annotated tag whose
                    # buffer was defined during it (Fig. 3 / the
                    # runtime's ``_protect_state(previous)``).
                    for tag, alloc_state in tag_state.items():
                        if (
                            alloc_state is state
                            and tag in self.summary.annotated_tags
                        ):
                            frozen.add(tag)
                report.steps.append(ResolvedCall(
                    event=event,
                    verdict=resolved,
                    state_before=state,
                    state_after=after,
                ))
                state = after
            elif isinstance(event, HostOpEvent):
                if event.op == "alloc":
                    # host_alloc binds the tag to a *fresh* writable
                    # buffer in the current state (re-allocation is the
                    # sanctioned way to update data across phases).
                    tag_state[event.tag] = state
                    frozen.discard(event.tag)
                elif event.op == "write":
                    if event.tag in frozen:
                        report.frozen_writes.append(FrozenWriteHit(
                            event=event,
                            tag=event.tag,
                            alloc_state=tag_state.get(
                                event.tag, FrameworkState.INITIALIZATION
                            ),
                            write_state=state,
                        ))
                    tag_state.setdefault(event.tag, state)
            elif isinstance(event, SharedStoreEvent):
                report.shared_stores.append(event)
        return report
