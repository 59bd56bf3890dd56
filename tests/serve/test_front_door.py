"""One front door: a server and a cluster are driven the same way.

``PipelineServer`` offers the view a ``ClusterServer`` has (``nodes()``,
``home(tenant)``, ``step()``), so one open-loop driver serves both.  A
request that times out in the queue still answers the client with one
failed event, and an answer that lands after its deadline is a timeout,
not a success.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.serve import ClusterServer
from repro.serve import run_open_loop_cluster
from repro.serve.bench import standard_pipeline
from repro.serve.loadgen import (
    ArrivalSchedule,
    generate_schedule,
    profile_by_name,
    run_open_loop,
)
from repro.serve.server import PipelineServer
from repro.sim.kernel import SimKernel

MS = 1_000_000


def _front(nodes):
    if nodes == 1:
        return PipelineServer(
            kernel=SimKernel(), pool_size=2, queue_capacity=512
        )
    return ClusterServer(nodes=nodes, pool_size=2, queue_capacity=512)


def _burst(seed):
    """87 arrivals at seed 1: a 6x storm over a 2-lane pool."""
    return generate_schedule(
        profile_by_name("burst", base_rps=600, duration_ns=60 * MS),
        seed=seed, tenants=20,
    )


def _submit(server, tenant, index, **kwargs):
    path = f"/data/{tenant}/in-{index}.png"
    server.kernel.fs.write_file(path, np.zeros((8, 8)))
    return server.submit(
        tenant, standard_pipeline(path, f"/out/{tenant}/out-{index}.png"),
        **kwargs,
    )


def test_the_cluster_driver_is_the_one_driver():
    assert run_open_loop_cluster is run_open_loop


def test_a_server_is_its_own_front_door():
    server = _front(1)
    assert server.nodes() == [server]
    assert server.home("tenant-0") is server
    server.shutdown()


def test_a_cluster_homes_a_tenant_on_its_routed_node():
    front = _front(2)
    assert front.nodes() == [front.servers[0], front.servers[1]]
    for tenant in ("tenant-0", "tenant-1", "tenant-2"):
        assert front.home(tenant) is front.servers[front.route(tenant)]
    front.shutdown()


def test_step_dispatches_at_most_one_request():
    server = _front(1)
    for index in range(3):
        _submit(server, "tenant-0", index)
    for pending in (2, 1, 0):
        [response] = server.step()
        assert response.ok
        assert server.queue.pending == pending
    assert server.step() == []
    server.shutdown()


def test_a_queue_timeout_answers_with_one_failed_event():
    server = _front(1)
    request = _submit(
        server, "tenant-0", 0, deadline_ns=server.kernel.clock.now_ns + 1_000
    )
    server.kernel.clock.advance(5_000)
    [response] = server.step()
    assert response.timed_out and not response.ok
    [event] = server.events
    assert not event.ok
    assert event.at_ns == server.kernel.clock.now_ns
    assert event.latency_ns == event.at_ns - request.enqueued_at_ns
    assert server.tenants["tenant-0"].requests_failed == 1
    server.shutdown()


def test_a_two_node_deadline_run_hears_back_on_every_arrival():
    schedule = _burst(seed=1)
    assert len(schedule.arrivals) == 87
    front = _front(2)
    result = run_open_loop(front, schedule, deadline_ns=1 * MS)
    assert len(result.client_events) == result.offered == 87
    front.shutdown()


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    deadline_ns=st.integers(MS // 2, 3 * MS),
    nodes=st.sampled_from([1, 2]),
)
def test_no_ok_answer_lands_after_its_deadline(seed, deadline_ns, nodes):
    full = _burst(seed)
    schedule = ArrivalSchedule(
        profile=full.profile, seed=seed, arrivals=full.arrivals[:60]
    )
    front = _front(nodes)
    result = run_open_loop(front, schedule, deadline_ns=deadline_ns)
    assert len(result.client_events) == result.offered
    for server in front.nodes():
        for response in server.responses:
            assert not response.ok or response.latency_ns <= deadline_ns
    for event in result.client_events:
        assert not event.ok or event.latency_ns <= deadline_ns
    front.shutdown()
