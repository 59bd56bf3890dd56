"""Model-based tests of the two serving controllers.

``CircuitBreakerMachine`` drives one :class:`CircuitBreaker` with
random programs of virtual-clock ticks, requests and settlements, used
the way the server uses it (one dispatch at a time), and checks it
against a reference model: every ``allow()`` verdict, the cooldown on
the virtual clock (doubling on each failed probe, capped at 8x), and
that each half-open probe is granted once and returned once — by a
success, a failure or ``release_probe``.

``BrownoutMachine`` feeds one :class:`BrownoutController` a random
request stream and checks the floor against a reference cell model: it
stays within ``[min_floor, classes]``, gold is never shed, each
transition moves one class, and trips and recoveries follow the
``trip_cells`` and ``recover_cells`` streaks of the model's cells.
"""

from typing import List, Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.obs.slo import FAST_WINDOW, RequestEvent
from repro.serve.autoscale import (
    BrownoutConfig,
    BrownoutController,
    control_slo,
)
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.sim.clock import VirtualClock

COOLDOWN_NS = 1_000
#: Ticks cross the cooldown, and its doublings, in a few steps.
TICKS = st.integers(min_value=0, max_value=3 * COOLDOWN_NS)


class CircuitBreakerMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = VirtualClock()
        self.breaker: Optional[CircuitBreaker] = None
        # The reference model.
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at_ns = 0
        self.cooldown_ns = COOLDOWN_NS
        self.probe_out = False
        self.probes_granted = 0
        self.probes_returned = 0
        #: The one dispatch in flight: None, "pass" (closed) or "probe".
        self.grant: Optional[str] = None

    @initialize(threshold=st.integers(1, 4))
    def build(self, threshold):
        self.threshold = threshold
        self.breaker = CircuitBreaker(
            "p", self.clock, failure_threshold=threshold,
            cooldown_ns=COOLDOWN_NS,
        )

    # -- the reference model -------------------------------------------

    def _model_allow(self) -> bool:
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock.now_ns - self.opened_at_ns < self.cooldown_ns:
                return False
            self.state = BreakerState.HALF_OPEN
        if self.probe_out:
            return False
        self.probe_out = True
        return True

    def _model_open(self) -> None:
        self.state = BreakerState.OPEN
        self.opened_at_ns = self.clock.now_ns
        self.probe_out = False

    def _settle(self) -> None:
        if self.grant == "probe":
            self.probes_returned += 1
        self.grant = None

    # -- rules ---------------------------------------------------------

    @rule(ns=TICKS)
    def tick(self, ns):
        self.clock.advance(ns)

    @precondition(lambda self: self.grant is None)
    @rule()
    def request(self):
        expected = self._model_allow()
        assert self.breaker.allow() == expected
        if expected:
            probe = self.state is BreakerState.HALF_OPEN
            self.grant = "probe" if probe else "pass"
            self.probes_granted += probe

    @precondition(lambda self: self.grant == "probe")
    @rule()
    def second_request_while_probing(self):
        # The one probe slot is taken: nobody else gets through.
        assert self._model_allow() is False
        assert self.breaker.allow() is False

    @precondition(lambda self: self.grant is not None)
    @rule()
    def succeed(self):
        self.breaker.record_success()
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.probe_out = False
        self.cooldown_ns = COOLDOWN_NS
        self._settle()

    @precondition(lambda self: self.grant is not None)
    @rule()
    def fail(self):
        self.breaker.record_failure()
        self.failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._model_open()
            self.cooldown_ns = min(2 * self.cooldown_ns, 8 * COOLDOWN_NS)
        elif self.failures >= self.threshold:
            self.cooldown_ns = COOLDOWN_NS
            self._model_open()
        self._settle()

    @precondition(lambda self: self.grant is not None)
    @rule()
    def release(self):
        # Shed by another partition's breaker before dispatching.
        self.breaker.release_probe()
        self.probe_out = False
        self._settle()

    # -- invariants ----------------------------------------------------

    @invariant()
    def matches_the_model(self):
        if self.breaker is None:
            return
        assert self.breaker.state is self.state
        assert self.breaker.consecutive_failures == self.failures
        assert self.breaker.current_cooldown_ns == self.cooldown_ns
        assert COOLDOWN_NS <= self.cooldown_ns <= 8 * COOLDOWN_NS

    @invariant()
    def each_probe_is_granted_and_returned_once(self):
        if self.breaker is None:
            return
        assert self.breaker.probes == self.probes_granted
        in_flight = int(self.grant == "probe")
        assert self.probes_granted == self.probes_returned + in_flight
        assert self.probe_out == bool(in_flight)


CircuitBreakerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestCircuitBreakerModel = CircuitBreakerMachine.TestCase


CELL_NS = FAST_WINDOW.window_ns
BUDGET_NS = 2_000_000
SPEC = control_slo(BUDGET_NS)
THRESHOLD = FAST_WINDOW.burn_threshold(SPEC.period_ns)


class BrownoutMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.controller: Optional[BrownoutController] = None
        self.now_ns = 0
        # The reference cell model.
        self.cell: Optional[int] = None
        self.requests = 0
        self.errors = 0
        self.burn_streak = 0
        self.calm_streak = 0
        self.floor = 0
        self.transitions: List[int] = []

    @initialize(
        classes=st.integers(1, 4), data=st.data(),
        trip=st.integers(1, 3), recover=st.integers(1, 4),
    )
    def build(self, classes, data, trip, recover):
        self.config = BrownoutConfig(
            classes=classes,
            min_floor=data.draw(st.integers(1, classes)),
            trip_cells=trip,
            recover_cells=recover,
        )
        self.controller = BrownoutController(config=self.config, spec=SPEC)
        self.floor = classes

    # -- the reference model -------------------------------------------

    def _close_cell(self) -> None:
        burning = bool(self.errors) and (
            (self.errors / self.requests) / SPEC.error_budget >= THRESHOLD
        )
        config = self.config
        if burning:
            self.calm_streak = 0
            self.burn_streak += 1
            if (self.burn_streak >= config.trip_cells
                    and self.floor > config.min_floor):
                self.floor -= 1
                self.transitions.append(-1)
        else:
            self.burn_streak = 0
            self.calm_streak += 1
            if (self.calm_streak >= config.recover_cells
                    and self.floor < config.classes):
                self.floor += 1
                self.transitions.append(+1)
                self.calm_streak = 0

    # -- rules ---------------------------------------------------------

    @rule(
        advance=st.integers(0, 3 * CELL_NS),
        ok=st.booleans(),
        slow=st.booleans(),
    )
    def finish_a_request(self, advance, ok, slow):
        self.now_ns += advance
        event = RequestEvent(
            at_ns=self.now_ns,
            latency_ns=2 * BUDGET_NS if slow else BUDGET_NS // 2,
            ok=ok,
        )
        cell = self.now_ns // CELL_NS
        if self.cell is not None and cell > self.cell:
            self._close_cell()
            self.requests = self.errors = 0
        self.cell = cell
        self.requests += 1
        self.errors += not SPEC.is_good(event)
        self.controller.observe(event)

    @rule(priority=st.integers(0, 5))
    def admit(self, priority):
        assert self.controller.sheds(priority) == (priority >= self.floor)

    # -- invariants ----------------------------------------------------

    @invariant()
    def floor_follows_the_cell_model(self):
        if self.controller is None:
            return
        assert self.controller.floor == self.floor
        assert (self.config.min_floor <= self.controller.floor
                <= self.config.classes)

    @invariant()
    def gold_is_never_shed(self):
        if self.controller is not None:
            assert not self.controller.sheds(0)

    @invariant()
    def each_transition_moves_one_class(self):
        if self.controller is None:
            return
        events = self.controller.events
        assert [event.floor_after - event.floor_before
                for event in events] == self.transitions
        for earlier, later in zip(events, events[1:]):
            assert later.floor_before == earlier.floor_after


BrownoutMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestBrownoutModel = BrownoutMachine.TestCase
