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

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

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
    put.  This is the single source of truth for the Fig. 3 semantics:
    :meth:`TemporalStateMachine.observe_call` consults it, and so does
    the static verifier's flow walk.
    """
    if neutral:
        return None
    new_state = STATE_OF_TYPE.get(api_type)  # None for NEUTRAL
    return None if new_state is state else new_state


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
        """Make every buffer defined during ``state`` read-only, when
        enforcing, and unmap the released ones either way.

        Visits only the buffers no freeze has taken yet, not every
        buffer ever defined in ``state``, and takes each out of the index
        whether it protects it or not, so a later release unmaps it at
        once.  A buffer whose object was released while it waited here
        is protected like the rest, then unmapped.
        """
        protected = 0
        label = state.value
        for process in self._processes():
            if not process.alive:
                continue
            memory = process.memory
            # Unannotated host variables stay writable, and indexed.
            tags = self.annotated_tags if process.role == "host" else None
            for buffer in memory.take_unfrozen(label, tags):
                if self.enforce and memory.is_writable(buffer.buffer_id):
                    memory.protect_buffer(buffer.buffer_id, Permission.READ)
                    protected += 1
                if buffer.released:
                    memory.free(buffer.buffer_id)
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
