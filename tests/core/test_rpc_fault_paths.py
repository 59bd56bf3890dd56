"""The fault paths of the RPC round trip that test_rpc_dedup leaves open.

Each test scripts channel faults against one stateful call and pins what
the at-least-once round trip must keep doing: every delivery reaches the
agent and a re-delivery hits the reply cache, the last reply wins, and
a lost request or reply is retransmitted at most MAX_RPC_RETRANSMITS
times.  The virtual clock, the retransmit count and the dedup count are
pinned exactly, so a rewrite of the round trip that changes any charge
or its order fails here.
"""

import numpy as np
import pytest

from repro.core.runtime import MAX_RPC_RETRANSMITS, FreePart, FreePartConfig
from repro.errors import RpcError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, NoFaultPlan
from repro.frameworks.base import Tensor
from repro.frameworks.registry import get_framework

STEP_KEY = "tf.estimator.DNNClassifier.train/global_step"


class Scripted(NoFaultPlan):
    """Per message kind, the verdicts of its sends in order; a kind
    whose script ran out (or was never given) is delivered.  A verdict
    given as ``repeat`` applies to every send of that kind."""

    def __init__(self, repeat=None, crash_first_execution=False, **scripts):
        self.scripts = {kind: list(v) for kind, v in scripts.items()}
        self.repeat = repeat or {}
        self.crash_first_execution = crash_first_execution

    def channel_verdict(self, channel_name, kind, nbytes):
        if kind in self.repeat:
            return self.repeat[kind]
        script = self.scripts.get(kind)
        return script.pop(0) if script else None

    def rpc_crash_point(self, qualname, seq):
        if self.crash_first_execution:
            self.crash_first_execution = False
            return FaultKind.CRASH_BEFORE_EXECUTE
        return None


def deploy(plan, **config):
    freepart = FreePart(config=FreePartConfig(**config))
    gateway = freepart.deploy(used_apis=list(get_framework("tensorflow")))
    freepart.kernel.inject_faults(FaultInjector(plan))
    return freepart.kernel, gateway, gateway.agents[1]


def train_step(gateway):
    return gateway.call(
        "tensorflow", "estimator_DNNClassifier_train", Tensor(np.ones((4, 4)))
    )


def test_duplicated_reply_runs_the_body_once_and_the_last_reply_wins():
    kernel, gateway, agent = deploy(
        Scripted(response=[FaultKind.IPC_DUPLICATE])
    )
    assert train_step(gateway)["global_step"] == 1
    assert agent.stats.requests == 1
    assert agent.stats.deduped_requests == 0
    assert gateway.retransmits == 0
    # Both copies of the reply were consumed: nothing stale is left for
    # the next exchange to mistake for its own answer.
    assert agent.channel.response.pending == 0
    assert kernel.clock.now_ns == 13_211_275
    assert train_step(gateway)["global_step"] == 2


def test_reordered_duplicate_request_applies_once():
    # The duplicated request executes twice (once from the cache), the
    # reply is lost, and the retransmission draws a reorder verdict that
    # finds nothing queued ahead of it: leftovers never survive a retry.
    kernel, gateway, agent = deploy(Scripted(
        request=[FaultKind.IPC_DUPLICATE, FaultKind.IPC_REORDER],
        response=[FaultKind.IPC_DROP],
    ))
    assert train_step(gateway)["global_step"] == 1
    assert agent.process.framework_state[STEP_KEY] == 1
    assert agent.stats.requests == 1
    assert agent.stats.deduped_requests == 2
    assert agent.sequence.exactly_once
    assert gateway.retransmits == 1
    assert agent.channel.request.pending == 0
    assert kernel.clock.now_ns == 13_221_695


def test_lost_requests_give_up_after_the_retransmit_budget():
    kernel, gateway, agent = deploy(
        Scripted(repeat={"request": FaultKind.IPC_DROP})
    )
    with pytest.raises(RpcError, match="request to agent .* lost 5 times"):
        train_step(gateway)
    assert gateway.retransmits == MAX_RPC_RETRANSMITS + 1
    assert agent.stats.requests == 0  # the body never ran
    assert agent.stats.deduped_requests == 0
    assert kernel.clock.now_ns == 10_026_060


def test_lost_replies_give_up_with_the_body_run_once():
    kernel, gateway, agent = deploy(
        Scripted(repeat={"response": FaultKind.IPC_DROP})
    )
    with pytest.raises(RpcError, match="reply from agent .* lost 5 times"):
        train_step(gateway)
    assert gateway.retransmits == MAX_RPC_RETRANSMITS + 1
    # Every retransmission was answered from the reply cache.
    assert agent.stats.requests == 1
    assert agent.stats.deduped_requests == MAX_RPC_RETRANSMITS
    assert agent.process.framework_state[STEP_KEY] == 1
    assert kernel.clock.now_ns == 13_252_955


def test_duplicate_left_by_a_crash_is_discarded_before_the_retry():
    # The first delivery crashes the agent while its duplicate is still
    # in flight; the retried request must not find that stale copy.
    kernel, gateway, agent = deploy(
        Scripted(request=[FaultKind.IPC_DUPLICATE],
                 crash_first_execution=True),
        rpc_retries=1,
    )
    assert train_step(gateway)["global_step"] == 1
    assert agent.stats.restarts == 1
    assert agent.stats.requests == 1
    assert agent.stats.deduped_requests == 0
    assert gateway.retransmits == 0
    assert agent.channel.request.pending == 0
    assert kernel.clock.now_ns == 16_716_487
