"""Site resolution and the partition plan of each function.

:class:`PartitionInferencer` resolves each framework call site to an
:class:`~repro.core.apitypes.APIType` — through the same hybrid
categorizer the runtime's offline phase uses.  :class:`_Machine` is the
one replay of the predicted framework state machine: the flow walk
(:class:`~repro.staticcheck.callgraph.FunctionWalker`) advances it at
every resolved site and host operation, and it records, per function,
the *partition plan the runtime would enforce*: which agent each site
executes in, where the state transitions fall, and which annotated host
variables are frozen at each point.  The rule classes in
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
from typing import AbstractSet, Dict, List, Optional, Set, Tuple, Union

from repro.core.apitypes import APIType, FrameworkState, api_type_of_state
from repro.core.hybrid import categorize_call_site
from repro.core.statemachine import next_state
from repro.errors import ReproError, UncategorizableAPI
from repro.staticcheck.callgraph import (
    CallEvent,
    FunctionTrace,
    LocalSpec,
    ModuleSummary,
    SharedStoreEvent,
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

    @classmethod
    def of_entry(cls, entry) -> "ApiVerdict":
        """The verdict of a hybrid-categorizer catalog entry."""
        return cls(
            qualname=entry.qualname,
            api_type=entry.api_type,
            neutral=entry.neutral,
            method=entry.method,
            syscalls=entry.syscalls,
            init_syscalls=entry.init_syscalls,
        )

    @classmethod
    def declared(
        cls, framework: str, api: str, api_type: APIType
    ) -> "ApiVerdict":
        """A site's declared type, for an API the registry cannot type."""
        return cls(
            qualname=f"{framework}.{api}",
            api_type=api_type,
            neutral=not api_type.is_concrete,
            method="declared",
            syscalls=(),
            init_syscalls=(),
        )


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

    line: int
    col: int
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

    def agents_used(self) -> Set[str]:
        """Every agent partition this function's plan touches."""
        return {step.agent for step in self.steps}


#: Machine snapshot: (state, tag → definition state, frozen tags).
_MachineSnap = Tuple[FrameworkState, Dict[str, FrameworkState], Set[str]]


class _Machine:
    """The one replay of the framework state machine (Fig. 3).

    It holds the framework state and the state each host tag's buffer
    was defined in, and records the partition plan of the function
    whose walk owns it.  Inline frames share their caller's machine, so
    a helper's sites land in the caller's plan at the call's position.
    With no plan (a loop body's second walk, a declarative schedule) it
    records nothing.
    """

    def __init__(
        self,
        plan: Optional[FunctionReport] = None,
        annotated: AbstractSet[str] = frozenset(),
    ) -> None:
        self.plan = plan
        self.annotated = annotated
        self.state = FrameworkState.INITIALIZATION
        self.tag_state: Dict[str, FrameworkState] = {}
        self.frozen: Set[str] = set()

    def snapshot(self) -> _MachineSnap:
        return (self.state, dict(self.tag_state), set(self.frozen))

    def restore(self, snap: _MachineSnap) -> None:
        self.state = snap[0]
        self.tag_state = dict(snap[1])
        self.frozen = set(snap[2])

    def place(
        self,
        event: CallEvent,
        verdict: Union[ApiVerdict, ResolutionFailure, None],
    ) -> Optional[ResolvedCall]:
        """Place one resolved site; None when it cannot be typed.

        A typed site takes its transition and becomes a step; leaving a
        state freezes every annotated tag whose buffer was defined
        during it (the runtime's ``_protect_state(previous)``).  A
        failure is recorded as one; ``None`` (an API the module's
        computed specs hide) is skipped.
        """
        if not isinstance(verdict, ApiVerdict):
            if verdict is not None and self.plan is not None:
                self.plan.failures.append(verdict)
            return None
        before = self.state
        after = next_state(before, verdict.api_type, verdict.neutral)
        if after is not None:
            for tag, alloc_state in self.tag_state.items():
                if alloc_state is before and tag in self.annotated:
                    self.frozen.add(tag)
            self.state = after
        step = ResolvedCall(
            event=event,
            verdict=verdict,
            state_before=before,
            state_after=self.state,
        )
        if self.plan is not None:
            self.plan.steps.append(step)
        return step

    def alloc(self, tag: str) -> None:
        """``host_alloc`` binds the tag to a *fresh* writable buffer in
        the current state (re-allocation is the sanctioned way to update
        data across phases)."""
        self.tag_state[tag] = self.state
        self.frozen.discard(tag)

    def write(
        self, tag: str, line: int, col: int, literal: bool
    ) -> Optional[FrozenWriteHit]:
        """``host_write``: the hit when the tag's buffer is frozen.

        A hit on a tag named by a literal goes into the plan (the
        ``frozen-write`` rule); an aliased one is the flow pass's.
        """
        hit = None
        if tag in self.frozen:
            hit = FrozenWriteHit(
                line=line,
                col=col,
                tag=tag,
                alloc_state=self.tag_state[tag],
                write_state=self.state,
            )
            if literal and self.plan is not None:
                self.plan.frozen_writes.append(hit)
        self.tag_state.setdefault(tag, self.state)
        return hit

    def store(self, event: SharedStoreEvent) -> None:
        """Record a value parked in state that outlives the call."""
        if self.plan is not None:
            self.plan.shared_stores.append(event)


class PartitionInferencer:
    """Resolve the call sites of one module summary."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self._verdicts: Dict[
            Tuple[str, str],
            Union[ApiVerdict, Tuple[str, str], None],
        ] = {}
        self._called_keys: Set[Tuple[str, str]] = set()

    # -- public API ----------------------------------------------------

    def infer(self) -> Dict[str, FunctionReport]:
        """A :class:`FunctionReport` per summarized function, each
        recorded by one flow walk of that function."""
        from repro.staticcheck.dataflow import DataflowAnalysis

        return DataflowAnalysis(self.summary, self).run().plans

    def unused_specs(self) -> List[LocalSpec]:
        """In-file API specs never referenced by any call site.

        Only meaningful for modules that *have* call sites — a library
        module that declares specs for other modules to call is not a
        dead-API finding.  Call after :meth:`infer` (or a
        :class:`~repro.staticcheck.dataflow.DataflowAnalysis` run with
        this inferencer).
        """
        if not self._called_keys:
            return []
        return [
            spec
            for key, spec in sorted(self.summary.local_specs.items())
            if key not in self._called_keys
        ]

    def resolve_event(
        self, event: CallEvent
    ) -> Union[ApiVerdict, ResolutionFailure, None]:
        """Type one call site; ``None`` means "skip, cannot be checked".

        Every site the flow walk meets resolves here — same registry,
        same in-file specs, same declared fallbacks.
        """
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
            outcome = ApiVerdict.of_entry(entry)
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

    # -- resolution ----------------------------------------------------

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
            return ApiVerdict.declared(
                event.framework, event.api, event.declared_type
            )
        return None
