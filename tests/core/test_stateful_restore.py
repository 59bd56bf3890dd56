"""Stateful-API checkpoint/restore across agent restarts (Appendix A.2.4)."""

import numpy as np
import pytest

from repro.core.agent import CHECKPOINT_INTERVAL
from repro.core.runtime import FreePart
from repro.frameworks.base import Tensor
from repro.frameworks.registry import get_framework


@pytest.fixture
def deployed():
    freepart = FreePart()
    gateway = freepart.deploy(used_apis=list(get_framework("tensorflow")))
    return freepart.kernel, gateway


def train_step(gateway):
    batch = Tensor(np.ones((4, 4)))
    return gateway.call("tensorflow", "estimator_DNNClassifier_train", batch)


def processing_agent(gateway):
    return gateway.agents[1]


def test_global_step_advances_in_agent_state(deployed):
    kernel, gateway = deployed
    results = [train_step(gateway) for _ in range(3)]
    assert [r["global_step"] for r in results] == [1, 2, 3]
    agent = processing_agent(gateway)
    key = "tf.estimator.DNNClassifier.train/global_step"
    assert agent.process.framework_state[key] == 3


def test_crash_without_checkpoint_loses_progress(deployed):
    kernel, gateway = deployed
    for _ in range(3):
        train_step(gateway)
    agent = processing_agent(gateway)
    agent.process.crash("exploited")
    agent.restart()
    # Fewer than CHECKPOINT_INTERVAL stateful calls: nothing was saved.
    assert train_step(gateway)["global_step"] == 1


def test_checkpoint_restores_training_progress(deployed):
    kernel, gateway = deployed
    for _ in range(CHECKPOINT_INTERVAL):
        train_step(gateway)
    agent = processing_agent(gateway)
    assert agent.stats.checkpoints == 1

    # A few more steps *after* the checkpoint, then a crash.
    for _ in range(3):
        train_step(gateway)
    agent.process.crash("exploited")
    agent.restart()
    assert agent.stats.restored_from_checkpoint == 1

    # Training resumes from the checkpointed step, not from zero: the
    # three post-checkpoint steps are re-executed (at-least-once).
    resumed = train_step(gateway)["global_step"]
    assert resumed == CHECKPOINT_INTERVAL + 1


def test_checkpoint_payload_is_a_snapshot(deployed):
    kernel, gateway = deployed
    for _ in range(CHECKPOINT_INTERVAL):
        train_step(gateway)
    agent = processing_agent(gateway)
    snapshot = dict(agent._latest_valid_checkpoint().state)
    train_step(gateway)  # post-checkpoint progress must not leak in
    assert agent._latest_valid_checkpoint().state == snapshot


def test_stateless_apis_do_not_checkpoint(deployed):
    kernel, gateway = deployed
    for _ in range(CHECKPOINT_INTERVAL + 2):
        gateway.call("tensorflow", "relu", Tensor(np.ones(4)))
    agent = processing_agent(gateway)
    assert agent.stats.checkpoints == 0
    assert agent.stats.stateful_calls == 0
