"""Admission control: bounded queue, fair share, virtual deadlines."""

import pytest

from repro.errors import AdmissionRejected
from repro.serve.admission import AdmissionQueue
from repro.sim.clock import VirtualClock


class FakeRequest:
    def __init__(self, tenant_id, deadline_ns=None):
        self.tenant_id = tenant_id
        self.deadline_ns = deadline_ns
        self.enqueued_at_ns = None
        self.timed_out = False


@pytest.fixture
def clock():
    return VirtualClock()


def test_submit_stamps_enqueue_time(clock):
    queue = AdmissionQueue(clock)
    clock.advance(123)
    request = FakeRequest("a")
    queue.submit(request)
    assert request.enqueued_at_ns == 123


def test_capacity_bound_rejects(clock):
    queue = AdmissionQueue(clock, capacity=2)
    queue.submit(FakeRequest("a"))
    queue.submit(FakeRequest("b"))
    with pytest.raises(AdmissionRejected):
        queue.submit(FakeRequest("c"))
    assert queue.stats.rejected_capacity == 1


def test_per_tenant_budget_rejects_only_the_hog(clock):
    queue = AdmissionQueue(clock, capacity=10, per_tenant_limit=2)
    queue.submit(FakeRequest("hog"))
    queue.submit(FakeRequest("hog"))
    with pytest.raises(AdmissionRejected):
        queue.submit(FakeRequest("hog"))
    queue.submit(FakeRequest("quiet"))  # other tenants unaffected
    assert queue.stats.rejected_tenant_budget == 1
    assert queue.pending == 3


def test_fair_share_round_robin(clock):
    queue = AdmissionQueue(clock, capacity=10)
    # Tenant "noisy" floods before "quiet" submits one request.
    for _ in range(3):
        queue.submit(FakeRequest("noisy"))
    queue.submit(FakeRequest("quiet"))
    order = [queue.next_request().tenant_id for _ in range(4)]
    # quiet is served second, not fourth: round-robin, not global FIFO.
    assert order == ["noisy", "quiet", "noisy", "noisy"]


def test_within_tenant_fifo(clock):
    queue = AdmissionQueue(clock, capacity=10)
    first = FakeRequest("a")
    second = FakeRequest("a")
    queue.submit(first)
    queue.submit(second)
    assert queue.next_request() is first
    assert queue.next_request() is second


def test_deadline_expiry_marks_timed_out(clock):
    queue = AdmissionQueue(clock, capacity=10)
    expired = FakeRequest("a", deadline_ns=100)
    fresh = FakeRequest("b", deadline_ns=10_000)
    queue.submit(expired)
    queue.submit(fresh)
    clock.advance(500)  # past tenant a's deadline, not b's
    popped = queue.next_request()
    assert popped is expired and popped.timed_out
    popped = queue.next_request()
    assert popped is fresh and not popped.timed_out
    assert queue.stats.timed_out == 1
    assert queue.stats.dispatched == 1


def test_empty_queue_returns_none(clock):
    queue = AdmissionQueue(clock)
    assert queue.next_request() is None


def test_pending_accounting(clock):
    queue = AdmissionQueue(clock, capacity=10)
    queue.submit(FakeRequest("a"))
    queue.submit(FakeRequest("b"))
    assert queue.pending == 2
    assert len(queue._queues["a"]) == 1
    queue.next_request()
    assert queue.pending == 1
