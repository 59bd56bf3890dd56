"""A forged agent reply: a ref the replying agent does not own.

An agent registers its results in its own store, so every reply's ref
names the agent's live process.  A compromised agent that replies with
another process's ref would hand that object to the host program; the
runtime treats such a reply as it treats a seccomp kill: the agent
crashes (and restarts), the event is recorded and the call fails.
"""

import numpy as np
import pytest

from repro.core.apitypes import APIType
from repro.core.rpc import RemoteHandle
from repro.core.runtime import FreePart
from repro.errors import ForgedReply, FrameworkCrash
from repro.frameworks.base import Mat
from repro.frameworks.registry import get_api


def forge_blur(monkeypatch, ref):
    """Patch ``GaussianBlur`` to reply with ``ref``, as an exploit in the
    processing agent could."""
    monkeypatch.setattr(
        get_api("opencv", "GaussianBlur"), "impl",
        lambda ctx, *args, **kwargs: ref,
    )


@pytest.mark.parametrize("owner", ["host", "loading-agent"])
def test_a_reply_naming_another_process_fails_the_call(monkeypatch, owner):
    gateway = FreePart().deploy()
    kernel = gateway.kernel
    kernel.fs.write_file("/in.png", np.arange(64.0).reshape(8, 8))
    loaded = gateway.call("opencv", "imread", "/in.png")
    if owner == "host":
        # A host object the host passed to an agent: its ref names the
        # host, and resolves through the host store.
        secret = Mat(np.full((4, 4), 7.0))
        ref = gateway.host_store.register(secret, state_label="processing")
    else:
        ref = loaded.ref
    processing = gateway.agents[
        gateway.plan.partition_for_type(APIType.PROCESSING).index
    ]
    forge_blur(monkeypatch, ref)
    with pytest.raises(FrameworkCrash) as crash:
        gateway.call("opencv", "GaussianBlur", loaded)
    assert isinstance(crash.value.cause, ForgedReply)
    event = gateway.events[-1]
    assert (event.kind, event.qualname) == ("ForgedReply", "cv2.GaussianBlur")
    assert event.agent == processing.partition.label
    assert processing.stats.crashes == 1
    assert processing.stats.restarts == 1
    assert processing.alive
    monkeypatch.undo()
    # The restarted agent serves honest replies again.
    honest = gateway.call("opencv", "GaussianBlur", loaded)
    assert isinstance(honest, RemoteHandle)
    gateway.shutdown()


def test_a_ref_of_the_agents_dead_generation_is_forged(monkeypatch):
    gateway = FreePart().deploy()
    gateway.kernel.fs.write_file("/in.png", np.arange(64.0).reshape(8, 8))
    loaded = gateway.call("opencv", "imread", "/in.png")
    blurred = gateway.call("opencv", "GaussianBlur", loaded)
    processing = gateway.agents[
        gateway.plan.partition_for_type(APIType.PROCESSING).index
    ]
    processing.process.crash("test")
    processing.restart()
    forge_blur(monkeypatch, blurred.ref)  # a ref of the old generation
    with pytest.raises(FrameworkCrash, match="does not own"):
        gateway.call("opencv", "GaussianBlur", loaded)
    gateway.shutdown()
