"""The fault injector: recording, obs emission, channel-level effects."""

import pytest

from repro.errors import ChannelFull
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.faults.plan import FaultKind, NoFaultPlan
from repro.sim.kernel import SimKernel


class ScriptedChannelPlan(NoFaultPlan):
    """Returns a queued list of channel verdicts, then declines."""

    def __init__(self, *verdicts):
        self.queue = list(verdicts)

    def channel_verdict(self, channel_name, kind, nbytes):
        return self.queue.pop(0) if self.queue else None


def armed_kernel(plan, trace=True):
    kernel = SimKernel()
    if trace:
        kernel.enable_tracing()
    injector = kernel.inject_faults(FaultInjector(plan))
    return kernel, injector


def test_null_injector_is_disabled_and_declines():
    assert NULL_INJECTOR.enabled is False
    assert NULL_INJECTOR.rpc_crash_point(None, None) is None
    assert NULL_INJECTOR.channel_action(None, "request", 8) is None
    assert NULL_INJECTOR.checkpoint_tear(None, 4) is None
    assert NULL_INJECTOR.restart_crash(None) is False


def test_kernel_defaults_to_null_injector():
    assert SimKernel().faults is NULL_INJECTOR


def test_drop_charges_but_never_enqueues():
    kernel, injector = armed_kernel(ScriptedChannelPlan(FaultKind.IPC_DROP))
    pair = kernel.channel_pair("t")
    before = kernel.clock.now_ns
    pair.request.send(1, "request", b"x" * 64)
    assert pair.request.pending == 0  # lost in flight
    assert kernel.clock.now_ns > before  # the sender still paid
    assert [f.kind for f in injector.injected] == [FaultKind.IPC_DROP]


def test_duplicate_enqueues_twice():
    kernel, _ = armed_kernel(ScriptedChannelPlan(FaultKind.IPC_DUPLICATE))
    pair = kernel.channel_pair("t")
    pair.request.send(1, "request", b"x" * 64)
    assert pair.request.pending == 2
    first = pair.request.receive()
    second = pair.request.receive()
    assert first.payload == second.payload


def test_reorder_swaps_the_last_two():
    kernel, _ = armed_kernel(
        ScriptedChannelPlan(None, FaultKind.IPC_REORDER)
    )
    pair = kernel.channel_pair("t")
    pair.request.send(1, "request", b"first")
    pair.request.send(1, "request", b"second")
    assert pair.request.receive().payload == b"second"
    assert pair.request.receive().payload == b"first"


def test_stall_raises_transient_channel_full():
    kernel, injector = armed_kernel(
        ScriptedChannelPlan(FaultKind.CHANNEL_STALL)
    )
    pair = kernel.channel_pair("t")
    with pytest.raises(ChannelFull) as excinfo:
        pair.request.send(1, "request", b"x" * 64)
    assert excinfo.value.permanent is False
    assert pair.request.pending == 0
    # The retry (no verdict left) goes through.
    pair.request.send(1, "request", b"x" * 64)
    assert pair.request.pending == 1


def test_every_fault_recorded_with_sequential_ids_and_obs_instants():
    kernel, injector = armed_kernel(ScriptedChannelPlan(
        FaultKind.IPC_DROP, FaultKind.IPC_DUPLICATE,
    ))
    pair = kernel.channel_pair("t")
    pair.request.send(1, "request", b"a" * 8)
    pair.request.send(1, "request", b"b" * 8)
    assert [f.fault_id for f in injector.injected] == [1, 2]
    assert all(f.site == "channel:t:req" or f.site.startswith("channel:")
               for f in injector.injected)
    observed = [
        span.attrs["fault_id"]
        for span in kernel.tracer.closed_spans()
        if span.category == "fault"
    ]
    assert sorted(observed) == [1, 2]


def test_record_detail_carries_message_kind_and_bytes():
    kernel, injector = armed_kernel(ScriptedChannelPlan(FaultKind.IPC_DROP))
    pair = kernel.channel_pair("t")
    pair.request.send(1, "batch-request", b"x" * 32)
    (fault,) = injector.injected
    assert fault.detail["message_kind"] == "batch-request"
    assert fault.detail["bytes"] > 0
    assert fault.kind is FaultKind.IPC_DROP


def test_disarming_restores_null_behavior():
    kernel, injector = armed_kernel(ScriptedChannelPlan(FaultKind.IPC_DROP))
    kernel.inject_faults(NULL_INJECTOR)
    pair = kernel.channel_pair("t")
    pair.request.send(1, "request", b"x" * 8)
    assert pair.request.pending == 1
    assert injector.injected == []
