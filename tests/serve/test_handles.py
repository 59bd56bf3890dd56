"""Handles in serving: a response's handles keep their objects alive.

Serving releases nothing while its responses hold their handles: a
handle one request returned still resolves in that tenant's next
request.  A duplicated batch delivery answers each item from the reply
cache, which holds responses only, so a chained item reads the earlier
item's result from its buffer.
"""

import pytest

from repro.core.gateway import ApiCall
from repro.core.rpc import RemoteHandle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, NoFaultPlan
from repro.serve import PREV, PipelineServer


class DuplicateSecondBatch(NoFaultPlan):
    """Duplicate the second batch request (the first goes to the
    loader); deliver everything else."""

    def __init__(self):
        self.batches = 0

    def channel_verdict(self, channel_name, kind, nbytes):
        if kind != "batch-request":
            return None
        self.batches += 1
        return FaultKind.IPC_DUPLICATE if self.batches == 2 else None


def chained(path, out):
    return [
        ApiCall("opencv", "imread", (path,)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
        ApiCall("opencv", "threshold", (PREV,)),
        ApiCall("opencv", "blur", (PREV,)),
        ApiCall("opencv", "imwrite", (out, PREV)),
    ]


def deduped(server):
    return sum(
        member.agent.stats.deduped_requests
        for pool in server.pools.pools.values() for member in pool.members
    )


def test_a_duplicated_batch_still_resolves_its_chain(seed_inputs):
    outputs = []
    for faulted in (False, True):
        server = PipelineServer(pool_size=1)
        paths = seed_inputs(server, tenants=1, requests=1)
        if faulted:
            server.kernel.inject_faults(FaultInjector(DuplicateSecondBatch()))
        server.submit("tenant-0", chained(paths[(0, 0)], "/out.png"))
        (response,) = server.drain()
        assert response.ok, response.error
        # The three chained processing items were each re-delivered and
        # answered from the reply cache.
        assert deduped(server) == (3 if faulted else 0)
        outputs.append(server.kernel.fs.read_file("/out.png"))
        server.shutdown()
    assert (outputs[0] == outputs[1]).all()


@pytest.mark.parametrize("batching, pool_size", [
    pytest.param(True, 1, id="True"),
    pytest.param(False, 1, id="False"),
    pytest.param(True, 2, id="True-pool2"),
    pytest.param(False, 2, id="False-pool2"),
])
def test_a_responses_handle_resolves_in_the_next_request(
        seed_inputs, batching, pool_size):
    # With two members per pool, later requests lease the other member
    # too: the handle resolves wherever its owner is.
    server = PipelineServer(pool_size=pool_size, batching=batching)
    paths = seed_inputs(server, tenants=1, requests=1)
    server.submit("tenant-a", [
        ApiCall("opencv", "imread", (paths[(0, 0)],)),
        ApiCall("opencv", "GaussianBlur", (PREV,)),
    ])
    (first,) = server.drain()
    assert first.ok, first.error
    kept = first.values[-1]
    assert isinstance(kept, RemoteHandle)
    for request in range(3):
        server.submit("tenant-a", [
            ApiCall("opencv", "threshold", (kept,)),
            ApiCall("opencv", "imwrite", (f"/out/{request}.png", PREV)),
        ])
        (response,) = server.drain()
        assert response.ok, response.error
        assert server.kernel.fs.exists(f"/out/{request}.png")
    server.shutdown()
