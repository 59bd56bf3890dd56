"""Zero-copy transfers: shared segments, COW downgrades, size memoization."""

import numpy as np
import pytest

from repro.errors import SegmentationFault
from repro.sim.kernel import ZERO_COPY_MIN_BYTES, SimKernel
from repro.sim.memory import Permission, payload_nbytes


def big_payload():
    """A payload comfortably above the remap threshold."""
    array = np.zeros(ZERO_COPY_MIN_BYTES // 8 * 2, dtype=np.float64)
    assert array.nbytes >= ZERO_COPY_MIN_BYTES
    return array


def two_processes():
    kernel = SimKernel()
    source = kernel.spawn("src")
    destination = kernel.spawn("dst")
    return kernel, source, destination


class TestZeroCopyTransfer:
    def test_large_payload_remaps_instead_of_copying(self):
        kernel, src, dst = two_processes()
        payload = big_payload()
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        assert buffer.segment is not None
        assert buffer.segment.mappings == 1
        assert buffer.payload is payload  # no byte copy happened
        assert kernel.ipc.zero_copy_transfers == 1
        assert kernel.ipc.zero_copy_bytes == payload.nbytes
        assert kernel.ipc.lazy_copies == 0
        assert kernel.ipc.nonlazy_copies == 0

    def test_small_payload_falls_back_to_copy(self):
        kernel, src, dst = two_processes()
        payload = np.zeros(8, dtype=np.float64)  # far below the threshold
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        assert buffer.segment is None
        assert kernel.ipc.zero_copy_transfers == 0
        assert kernel.ipc.nonlazy_copies == 1

    def test_remap_is_cheaper_than_the_copy_it_replaces(self):
        payload = big_payload()

        def elapsed(zero_copy):
            kernel, src, dst = two_processes()
            start = kernel.clock.now_ns
            kernel.transfer(src, dst, payload, zero_copy=zero_copy)
            return kernel.clock.now_ns - start

        cost = SimKernel().clock.cost_model
        saved = elapsed(False) - elapsed(True)
        expected = cost.copy_cost(payload.nbytes) - cost.remap_cost(
            (payload.nbytes + 4095) // 4096
        )
        assert saved == expected > 0

    def test_zero_copy_bytes_count_as_data_transferred(self):
        kernel, src, dst = two_processes()
        payload = big_payload()
        kernel.transfer(src, dst, payload, zero_copy=True)
        assert kernel.data_transferred_bytes == (
            kernel.ipc.message_bytes + payload.nbytes
        )
        assert kernel.ipc.total_copy_bytes == payload.nbytes

    def test_free_detaches_the_segment(self):
        kernel, src, dst = two_processes()
        buffer = kernel.transfer(src, dst, big_payload(), zero_copy=True)
        segment = buffer.segment
        dst.memory.free(buffer.buffer_id)
        assert segment.mappings == 0
        assert buffer.segment is None


class TestCowDowngrade:
    def test_first_write_pays_the_deferred_copy(self):
        kernel, src, dst = two_processes()
        payload = big_payload()
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        segment = buffer.segment
        before = kernel.clock.now_ns
        dst.memory.store(buffer.buffer_id, np.ones_like(payload))
        cost = kernel.clock.cost_model.copy_cost(payload.nbytes)
        assert kernel.clock.now_ns - before == cost
        assert buffer.segment is None
        assert segment.mappings == 0
        assert dst.memory.cow_downgrades == 1
        assert dst.memory.cow_bytes == payload.nbytes
        assert kernel.ipc.cow_downgrades == 1
        assert kernel.ipc.cow_bytes == payload.nbytes

    def test_second_write_is_private_and_free_of_cow(self):
        kernel, src, dst = two_processes()
        payload = big_payload()
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        dst.memory.store(buffer.buffer_id, np.ones_like(payload))
        before = kernel.clock.now_ns
        dst.memory.store(buffer.buffer_id, np.zeros_like(payload))
        assert kernel.clock.now_ns == before  # no second downgrade charge
        assert kernel.ipc.cow_downgrades == 1

    def test_frozen_write_faults_before_any_cow_happens(self):
        """Temporal freezing wins: the permission check runs first, so a
        write to a frozen shared mapping SIGSEGVs without detaching the
        segment or charging the deferred copy."""
        kernel, src, dst = two_processes()
        payload = big_payload()
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        dst.memory.protect_buffer(buffer.buffer_id, Permission.ro())
        before = kernel.clock.now_ns
        with pytest.raises(SegmentationFault):
            dst.memory.store(buffer.buffer_id, np.ones_like(payload))
        assert kernel.clock.now_ns == before
        assert buffer.segment is not None
        assert buffer.segment.mappings == 1
        assert dst.memory.cow_downgrades == 0
        assert kernel.ipc.cow_downgrades == 0
        assert dst.memory.write_denials == 1
        assert dst.memory.frozen_write_granted == 0

    def test_raw_write_takes_the_same_cow_path(self):
        kernel, src, dst = two_processes()
        payload = big_payload()
        buffer = kernel.transfer(src, dst, payload, zero_copy=True)
        dst.memory.raw_write(buffer.address, 8, value=np.ones_like(payload))
        assert buffer.segment is None
        assert kernel.ipc.cow_downgrades == 1


class TestFrozenSizeMemoization:
    """Sizes of payloads that ride RPC messages.  The size memo for
    frozen payloads is gone (a message caches its own size), so these
    pin the plain sizes it used to return."""

    def test_frozen_size_matches_unfrozen(self):
        payload = {"a": np.ones((4, 4)), "b": [1, 2, "three"]}
        # dict 16 + ("a" 1 + array 128) + ("b" 1 + list 16 + 8 + 8 + 5)
        assert payload_nbytes(payload) == 183

    def test_uncacheable_payloads_still_size_correctly(self):
        payload = [np.ones(8), b"xyz"]
        assert payload_nbytes(payload) == 16 + np.ones(8).nbytes + 3
