"""RPC model: refs, handles, sequence tracking, object stores."""

import numpy as np
import pytest

from repro.core.rpc import (
    ObjectRef,
    ObjectStore,
    REF_WIRE_BYTES,
    REPLY_CACHE_SIZE,
    RemoteHandle,
    SequenceTracker,
    request_nbytes,
    response_nbytes,
)
from repro.errors import StaleObjectRef
from repro.frameworks.base import Mat
from repro.sim.kernel import SimKernel


@pytest.fixture
def kernel():
    return SimKernel()


@pytest.fixture
def process(kernel):
    return kernel.spawn("agent", charge=False)


def test_ref_wire_size_is_constant():
    ref = ObjectRef(1, 0, 2, payload_bytes=10_000_000)
    assert ref.nbytes == REF_WIRE_BYTES


def test_handle_exposes_payload_bytes():
    handle = RemoteHandle(ObjectRef(1, 0, 2, payload_bytes=512))
    assert "512B" in repr(handle)
    assert handle.nbytes == REF_WIRE_BYTES
    assert "512B" in repr(handle)


def test_request_nbytes_counts_payloads():
    small = request_nbytes((ObjectRef(1, 0, 1, 1 << 20),), ())
    big = request_nbytes((np.zeros(1 << 17),), ())
    assert small < big


def test_response_nbytes():
    assert response_nbytes(np.zeros(128)) > response_nbytes(None)


class TestSequenceTracker:
    def test_monotonic_sequence(self):
        tracker = SequenceTracker()
        assert tracker.next_seq() == 1
        assert tracker.next_seq() == 2

    def test_exactly_once_holds_without_retries(self):
        tracker = SequenceTracker()
        for _ in range(3):
            tracker.record_execution(tracker.next_seq())
        assert set(tracker.executed.values()) == {1}
        assert tracker.retries == 0

    def test_retry_counted_as_at_least_once(self):
        tracker = SequenceTracker()
        seq = tracker.next_seq()
        tracker.record_execution(seq)
        tracker.record_execution(seq)  # re-executed after restart
        assert tracker.retries == 1
        assert tracker.executed[seq] == 2

    def test_counts_only_the_last_reply_cache_window(self):
        tracker = SequenceTracker()
        for _ in range(3 * REPLY_CACHE_SIZE):
            seq = tracker.next_seq()
            tracker.record_execution(seq)
            if seq % 5 == 0:
                tracker.record_execution(seq)  # a retry in flight
        assert sorted(tracker.executed) == list(
            range(2 * REPLY_CACHE_SIZE + 1, 3 * REPLY_CACHE_SIZE + 1))
        assert tracker.retries == 3 * REPLY_CACHE_SIZE // 5


class TestObjectStore:
    def test_register_and_fetch(self, process):
        store = ObjectStore(process)
        payload = Mat(np.ones((2, 2)))
        ref = store.register(payload, state_label="data_loading", tag="img")
        assert ref.owner_pid == process.pid
        assert ref.kind == "mat"
        assert store.fetch(ref) is payload

    def test_register_records_origin_state(self, process):
        store = ObjectStore(process)
        ref = store.register(Mat(np.ones(1)), state_label="data_loading")
        buffer = process.memory.get_buffer(ref.buffer_id)
        assert buffer.origin_state == "data_loading"

    def test_fetch_wrong_pid_is_stale(self, kernel, process):
        other = kernel.spawn("other", charge=False)
        store = ObjectStore(process)
        ref = store.register(Mat(np.ones(1)), state_label="s")
        with pytest.raises(StaleObjectRef):
            ObjectStore(other).fetch(ref)

    def test_fetch_after_generation_bump_is_stale(self, process):
        store = ObjectStore(process)
        ref = store.register(Mat(np.ones(1)), state_label="s")
        process.generation += 1  # as a restart would do
        with pytest.raises(StaleObjectRef):
            store.fetch(ref)
