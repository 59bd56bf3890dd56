"""ChannelFull handling at the gateway (satellite): backoff vs fail-fast.

Transient fullness (an injected stall, or a momentarily full ring
buffer) is retried with exponential backoff charged to the virtual
clock.  Permanent fullness — a message larger than the ring buffer
itself — raises immediately: no amount of waiting can deliver it.
"""

import numpy as np
import pytest

from repro.core.runtime import SEND_BACKOFF_RETRIES, FreePart
from repro.errors import ChannelFull
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, NoFaultPlan
from repro.frameworks.registry import get_framework


class StallRequests(NoFaultPlan):
    """Stall the first ``count`` request sends (infinite if None)."""

    def __init__(self, count=None):
        self.count = count

    def channel_verdict(self, channel_name, kind, nbytes):
        if kind != "request":
            return None
        if self.count is None:
            return FaultKind.CHANNEL_STALL
        if self.count > 0:
            self.count -= 1
            return FaultKind.CHANNEL_STALL
        return None


@pytest.fixture
def deployed():
    freepart = FreePart()
    gateway = freepart.deploy(used_apis=list(get_framework("opencv")))
    return freepart.kernel, gateway


def load(kernel, gateway):
    kernel.fs.write_file("/i.png", np.ones((8, 8)))
    return gateway.call("opencv", "imread", "/i.png")


def test_transient_stall_retried_with_backoff(deployed):
    kernel, gateway = deployed
    kernel.inject_faults(FaultInjector(StallRequests(count=2)))
    before = kernel.clock.now_ns
    handle = load(kernel, gateway)
    assert handle is not None  # the call ultimately succeeded
    assert gateway.send_backoff_retries == 2
    assert kernel.clock.now_ns > before  # the backoff waits were charged


def test_backoff_waits_grow_exponentially(deployed):
    kernel, gateway = deployed
    kernel.enable_tracing()
    kernel.inject_faults(FaultInjector(StallRequests(count=3)))
    load(kernel, gateway)
    waits = [
        span.attrs["backoff_ns"]
        for span in kernel.tracer.closed_spans()
        if span.name == "send_backoff"
    ]
    assert len(waits) == 3
    assert waits[1] == 2 * waits[0]
    assert waits[2] == 2 * waits[1]


def test_permanent_stall_gives_up_after_the_retry_budget(deployed):
    kernel, gateway = deployed
    kernel.inject_faults(FaultInjector(StallRequests(count=None)))
    with pytest.raises(ChannelFull):
        load(kernel, gateway)
    assert gateway.send_backoff_retries == SEND_BACKOFF_RETRIES


def test_oversized_message_raises_immediately(deployed):
    """A payload bigger than the ring buffer can never be delivered:
    the send fails permanent on the first attempt, with zero backoff."""
    kernel, gateway = deployed
    kernel.fs.write_file("/i.png", np.ones((8, 8)))
    for agent in gateway.agents.values():
        agent.channel.request.capacity_bytes = 8  # below any request
    with pytest.raises(ChannelFull) as excinfo:
        gateway.call("opencv", "imread", "/i.png")
    assert excinfo.value.permanent is True
    assert gateway.send_backoff_retries == 0
