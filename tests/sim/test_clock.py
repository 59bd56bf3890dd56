"""Virtual clock and cost model."""

import pytest

from repro.sim.clock import CostModel, NS_PER_SEC, VirtualClock


def test_clock_starts_at_zero():
    assert VirtualClock().now_ns == 0


def test_advance_moves_time_forward():
    clock = VirtualClock()
    clock.advance(1_000)
    clock.advance(500)
    assert clock.now_ns == 1_500


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        VirtualClock().advance(-1)


def test_now_conversions():
    clock = VirtualClock()
    clock.advance(NS_PER_SEC)
    assert clock.now_seconds == pytest.approx(1.0)
    assert clock.now_ms == pytest.approx(1_000.0)


def test_determinism_two_clocks_same_charges():
    a, b = VirtualClock(), VirtualClock()
    for ns in (3, 1_000, 77, 123_456):
        a.advance(ns)
        b.advance(ns)
    assert a.now_ns == b.now_ns


def test_copy_cost_scales_linearly():
    model = CostModel()
    assert model.copy_cost(0) == 0
    assert model.copy_cost(4_000) == 4 * model.copy_cost(1_000)


def test_serialize_cost_cheaper_than_copy():
    model = CostModel()
    nbytes = 1 << 20
    assert model.serialize_cost(nbytes) < model.copy_cost(nbytes)
