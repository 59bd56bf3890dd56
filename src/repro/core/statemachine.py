"""Framework state tracking and temporal permission enforcement (Fig. 3).

The runtime infers the framework's current state from the type of the
last framework API invoked.  On every state *transition*, all data
objects defined during the previous state — in the host program process
and in every agent process — are made read-only with ``mprotect``.

This module is pure mechanism; the runtime drives it once per hooked API
call.  It is part of the trusted runtime support, so the ``mprotect``
calls it issues are not subject to the agents' seccomp filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.apitypes import STATE_OF_TYPE, APIType, FrameworkState
from repro.obs.tracer import NULL_TRACER
from repro.sim.memory import Permission
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class Transition:
    """One framework state change."""

    previous: FrameworkState
    current: FrameworkState
    protected_buffers: int
    at_ns: int


# ----------------------------------------------------------------------
# Pure transition semantics (shared by the runtime and the static
# verifier, which replays call traces without processes or enforcement)
# ----------------------------------------------------------------------


def next_state(
    state: FrameworkState, api_type: APIType, neutral: bool = False
) -> Optional[FrameworkState]:
    """The state one API call moves the framework into, or None.

    Returns ``None`` when the call does not transition: neutral APIs run
    in the current state, and calls of the current state's own type stay
    put.  This is the single source of truth for the Fig. 3 semantics;
    :meth:`TemporalStateMachine.observe_call` and the static verifier's
    :func:`simulate_transitions` both consult it.
    """
    if neutral:
        return None
    new_state = STATE_OF_TYPE.get(api_type)  # None for NEUTRAL
    return None if new_state is state else new_state


@dataclass(frozen=True)
class SimulatedStep:
    """One step of a replayed call trace (no enforcement performed)."""

    index: int
    api_type: APIType
    neutral: bool
    state_before: FrameworkState
    state_after: FrameworkState


def simulate_transitions(
    calls: Sequence[Tuple[APIType, bool]],
    initial: FrameworkState = FrameworkState.INITIALIZATION,
) -> List[SimulatedStep]:
    """Replay ``(api_type, neutral)`` observations through the state machine.

    A pure function over the Fig. 3 semantics: no processes are touched
    and no permissions change.  The static policy verifier uses this to
    predict the state trace of a host program's call sites ahead of any
    deployment; tests use it to cross-check the enforcing machine.
    """
    steps: List[SimulatedStep] = []
    state = initial
    for index, (api_type, neutral) in enumerate(calls):
        new_state = next_state(state, api_type, neutral)
        after = new_state if new_state is not None else state
        steps.append(SimulatedStep(
            index=index,
            api_type=api_type,
            neutral=neutral,
            state_before=state,
            state_after=after,
        ))
        state = after
    return steps


class TemporalStateMachine:
    """Tracks the five framework states and enforces Fig. 3 permissions."""

    def __init__(
        self,
        processes: Callable[[], Iterable[SimProcess]],
        enforce: bool = True,
        annotated_tags: Iterable[str] = (),
        tracer=None,
    ) -> None:
        self._processes = processes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.enforce = enforce
        #: Host-program data structures the user annotated for protection
        #: (Section 4.4.3: custom structures need a memory-layout
        #: annotation; framework objects in agent processes are covered
        #: by the built-in definitions and always protected).
        self.annotated_tags = frozenset(annotated_tags)
        self.transitions: List[Transition] = []
        self.protected_total = 0
        self._enter(FrameworkState.INITIALIZATION)

    def _enter(self, state: FrameworkState) -> None:
        self.state = state
        #: The state's origin label, kept beside it: every request
        #: carries it, so it is read once per call.
        self.state_label = state.value

    def observe_call(self, api_type: APIType, neutral: bool = False) -> Optional[Transition]:
        """Update the state for one framework API invocation.

        Neutral APIs run in the current state and never transition.
        Returns the transition performed, if any.
        """
        new_state = next_state(self.state, api_type, neutral)
        if new_state is None:
            return None
        previous = self.state
        self._enter(new_state)
        tracer = self.tracer
        clock_ns = 0
        protected = 0
        first = next(iter(self._processes()), None)
        if first is not None:
            # The freeze span covers the mprotect storm the transition
            # triggers; the transition itself is an instant marker.
            tracer.instant("state_transition", category="state",
                           pid=first.pid, previous=previous.value,
                           current=new_state.value)
            with tracer.span("freeze", category="state", pid=first.pid,
                             state=previous.value) as span:
                if self.enforce:
                    protected = self._protect_state(previous)
                span.annotate(protected_buffers=protected)
            clock_ns = first.clock.now_ns
        transition = Transition(
            previous=previous,
            current=new_state,
            protected_buffers=protected,
            at_ns=clock_ns,
        )
        self.transitions.append(transition)
        return transition

    def _protect_state(self, state: FrameworkState) -> int:
        """Make every buffer defined during ``state`` read-only.

        Visits only the buffers no freeze has reached yet, not every
        buffer ever defined in ``state``.
        """
        protected = 0
        label = state.value
        for process in self._processes():
            if not process.alive:
                continue
            host_process = process.role == "host"
            for buffer in process.memory.unfrozen_in_state(label):
                if host_process and buffer.tag not in self.annotated_tags:
                    continue  # unannotated host variables stay writable
                if process.memory.is_writable(buffer.buffer_id):
                    process.memory.protect_buffer(
                        buffer.buffer_id, Permission.READ
                    )
                    protected += 1
        self.protected_total += protected
        return protected

    def reset(self) -> None:
        self._enter(FrameworkState.INITIALIZATION)
        self.transitions.clear()
        self.protected_total = 0

    def transition_count(self) -> int:
        return len(self.transitions)

    def states_visited(self) -> Tuple[FrameworkState, ...]:
        visited: List[FrameworkState] = [FrameworkState.INITIALIZATION]
        for transition in self.transitions:
            if transition.current not in visited:
                visited.append(transition.current)
        return tuple(visited)
