"""IPC channels: framing, capacity, accounting."""

import numpy as np
import pytest

from repro.errors import ChannelClosed, ChannelFull
from repro.sim.clock import VirtualClock
from repro.sim.ipc import Channel, ChannelPair, IpcAccounting


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def accounting():
    return IpcAccounting()


@pytest.fixture
def channel(clock, accounting):
    return Channel("test", clock, accounting, capacity_bytes=1024)


def test_send_receive_roundtrip(channel):
    channel.send(1, "request", {"op": "x"})
    message = channel.receive()
    assert message.sender_pid == 1
    assert message.kind == "request"
    assert message.payload == {"op": "x"}


def test_messages_ordered_fifo(channel):
    channel.send(1, "m", "first")
    channel.send(1, "m", "second")
    assert channel.receive().payload == "first"
    assert channel.receive().payload == "second"


def test_sequence_numbers_monotonic(channel):
    a = channel.send(1, "m", 1)
    b = channel.send(1, "m", 2)
    assert b.seq == a.seq + 1


def test_capacity_enforced(clock, accounting):
    channel = Channel("tiny", clock, accounting, capacity_bytes=100)
    channel.send(1, "m", np.zeros(8))  # 64 bytes
    with pytest.raises(ChannelFull):
        channel.send(1, "m", np.zeros(8))


def test_oversize_message_raises_immediately(clock, accounting):
    """A message bigger than the whole ring buffer can never fit: the
    channel must flag it as permanent so backpressure loops don't retry
    forever waiting for a drain that cannot help."""
    channel = Channel("tiny", clock, accounting, capacity_bytes=100)
    with pytest.raises(ChannelFull) as excinfo:
        channel.send(1, "m", np.zeros(64))  # 512 bytes > 100 capacity
    assert excinfo.value.permanent
    # The channel is untouched: nothing was enqueued or accounted.
    assert channel.pending == 0
    assert channel._queued_bytes == 0
    assert accounting.messages == 0


def test_transient_fullness_is_not_permanent(clock, accounting):
    channel = Channel("tiny", clock, accounting, capacity_bytes=100)
    channel.send(1, "m", np.zeros(8))  # 64 bytes
    with pytest.raises(ChannelFull) as excinfo:
        channel.send(1, "m", np.zeros(8))  # fits alone, not alongside
    assert not excinfo.value.permanent
    channel.receive()
    channel.send(1, "m", np.zeros(8))  # drain resolved it


def test_receive_frees_capacity(clock, accounting):
    channel = Channel("tiny", clock, accounting, capacity_bytes=100)
    channel.send(1, "m", np.zeros(8))
    channel.receive()
    channel.send(1, "m", np.zeros(8))  # fits again


def test_send_charges_clock(channel, clock):
    before = clock.now_ns
    channel.send(1, "m", np.zeros(64))
    assert clock.now_ns > before


def test_bigger_payload_costs_more(clock, accounting):
    a = Channel("a", clock, accounting)
    a.send(1, "m", np.zeros(8))
    small = clock.now_ns
    a.send(1, "m", np.zeros(8192))
    assert clock.now_ns - small > small


def test_receive_empty_raises(channel):
    with pytest.raises(ChannelClosed):
        channel.receive()


def test_closed_channel_rejects_send_and_receive(channel):
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(1, "m", 1)
    with pytest.raises(ChannelClosed):
        channel.receive()


def test_accounting_counts_messages_and_bytes(channel, accounting):
    channel.send(1, "m", np.zeros(16))  # 128 bytes
    channel.send(1, "m", np.zeros(16))
    assert accounting.messages == 2
    assert accounting.message_bytes == 256


class TestIpcAccounting:
    def test_copy_counters(self, accounting):
        accounting.record_copy(100, lazy=True)
        accounting.record_copy(50, lazy=False)
        assert accounting.lazy_copies == 1
        assert accounting.nonlazy_copies == 1
        assert accounting.total_copy_bytes == 150
        assert accounting.lazy_fraction == pytest.approx(0.5)

    def test_lazy_fraction_empty_is_zero(self, accounting):
        assert accounting.lazy_fraction == 0.0

    def test_snapshot_and_delta(self, accounting):
        accounting.record_message(10)
        snap = accounting.snapshot()
        accounting.record_message(20)
        accounting.record_copy(5, lazy=True)
        delta = accounting.delta_since(snap)
        assert delta.messages == 1
        assert delta.message_bytes == 20
        assert delta.lazy_copies == 1

    def test_snapshot_is_independent(self, accounting):
        snap = accounting.snapshot()
        accounting.record_message(1)
        assert snap.messages == 0


def test_channel_pair_directions(clock, accounting):
    pair = ChannelPair("p", clock, accounting)
    pair.request.send(1, "request", "go")
    pair.response.send(2, "response", "done")
    assert pair.request.receive().payload == "go"
    assert pair.response.receive().payload == "done"
    pair.close()
    assert pair.request.closed and pair.response.closed


class TestLaneReconciliation:
    """The reconcile API: AccountingError names every off-by lane."""

    def test_lanes_exposes_every_counter(self, accounting):
        accounting.record_message(10)
        accounting.record_copy(5, lazy=True)
        lanes = accounting.lanes()
        assert lanes["messages"] == 1
        assert lanes["message_bytes"] == 10
        assert lanes["lazy_copies"] == 1
        assert lanes["lazy_copy_bytes"] == 5
        assert set(lanes) >= {
            "messages", "message_bytes", "framed_messages",
            "lazy_copies", "lazy_copy_bytes",
            "nonlazy_copies", "nonlazy_copy_bytes",
            "zero_copy_transfers", "zero_copy_bytes",
            "cow_downgrades", "cow_bytes",
        }

    def test_reconcile_passes_on_match(self, accounting):
        accounting.record_message(10)
        accounting.reconcile(messages=1, message_bytes=10)

    def test_reconcile_names_the_off_lane(self, accounting):
        from repro.errors import AccountingError

        accounting.record_message(10)
        with pytest.raises(AccountingError) as excinfo:
            accounting.reconcile(messages=1, message_bytes=14)
        message = str(excinfo.value)
        assert "message_bytes" in message
        assert "-4" in message
        assert "recorded 10" in message
        assert "expected 14" in message

    def test_reconcile_reports_every_off_lane(self, accounting):
        from repro.errors import AccountingError

        accounting.record_message(10)
        with pytest.raises(AccountingError) as excinfo:
            accounting.reconcile(messages=3, message_bytes=14)
        message = str(excinfo.value)
        assert "messages" in message and "message_bytes" in message

    def test_reconcile_derived_totals(self, accounting):
        accounting.record_copy(5, lazy=True)
        accounting.record_copy(7, lazy=False)
        accounting.reconcile(total_copies=2, total_copy_bytes=12)

    def test_reconcile_rejects_unknown_lane(self, accounting):
        with pytest.raises(ValueError):
            accounting.reconcile(not_a_lane=0)

    def test_accounting_error_is_simulation_error(self):
        from repro.errors import AccountingError, SimulationError

        assert issubclass(AccountingError, SimulationError)
