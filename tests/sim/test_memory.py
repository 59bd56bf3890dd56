"""Simulated MMU: allocation, permissions, mprotect, faults."""

import numpy as np
import pytest

from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock
from repro.sim.memory import (
    AddressSpace,
    MemoryLayout,
    PAGE_SIZE,
    Permission,
    page_of,
    pages_spanned,
    payload_nbytes,
)
from tests.sim.test_freeze_index_model import permission_of, unfrozen_in_state


@pytest.fixture
def space():
    return AddressSpace(pid=1, clock=VirtualClock())


def test_alloc_returns_page_aligned_buffer(space):
    buffer = space.alloc(100, tag="x")
    assert buffer.address % PAGE_SIZE == 0
    assert buffer.nbytes == 100


def test_allocations_do_not_overlap(space):
    buffers = [space.alloc(3 * PAGE_SIZE) for _ in range(10)]
    ranges = sorted((b.address, b.end) for b in buffers)
    for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
        assert end_a <= start_b


def test_guard_page_between_allocations(space):
    a = space.alloc(10)
    b = space.alloc(10)
    # the page right after a's last page is unmapped
    gap_addr = (page_of(a.end - 1) + 1) * PAGE_SIZE
    assert gap_addr < b.address
    assert permission_of(space, gap_addr) == Permission.NONE


def test_store_and_load_roundtrip(space):
    buffer = space.alloc_object({"k": 1}, tag="cfg")
    assert space.load(buffer.buffer_id) == {"k": 1}
    space.store(buffer.buffer_id, {"k": 2})
    assert space.load(buffer.buffer_id) == {"k": 2}


def test_store_grows_mapping_for_larger_payload(space):
    buffer = space.alloc_object(np.zeros(4), tag="arr")
    big = np.zeros(PAGE_SIZE)  # 8 pages of float64
    space.store(buffer.buffer_id, big)
    assert buffer.nbytes == big.nbytes
    space.check(buffer.address, buffer.nbytes, Permission.WRITE)


def test_store_growth_never_unfreezes_a_neighbour(space):
    a = space.alloc(8)
    b = space.alloc(8)
    space.protect_buffer(b.buffer_id, Permission.ro())
    space.store(a.buffer_id, bytes(3 * PAGE_SIZE))
    assert not space.is_writable(b.buffer_id)
    with pytest.raises(SegmentationFault):
        space.store(b.buffer_id, b"x")
    # a moved to a fresh range; its old page is unmapped
    assert a.end <= b.address or b.end <= a.address
    space.check(a.address, a.nbytes, Permission.WRITE)


def test_store_growth_never_overlaps_a_later_alloc(space):
    a = space.alloc(8)
    space.store(a.buffer_id, bytes(3 * PAGE_SIZE))
    b = space.alloc(8)
    assert a.end <= b.address
    space.protect_buffer(b.buffer_id, Permission.ro())
    assert space.is_writable(a.buffer_id)
    space.store(a.buffer_id, bytes(3 * PAGE_SIZE))
    assert not space.is_writable(b.buffer_id)


def test_mprotect_read_only_blocks_store(space):
    buffer = space.alloc_object([1, 2, 3], tag="data")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    with pytest.raises(SegmentationFault):
        space.store(buffer.buffer_id, [9])
    assert space.load(buffer.buffer_id) == [1, 2, 3]


def test_mprotect_restores_write(space):
    buffer = space.alloc_object([1], tag="data")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    space.protect_buffer(buffer.buffer_id, Permission.rw())
    space.store(buffer.buffer_id, [2])
    assert space.load(buffer.buffer_id) == [2]


def test_mprotect_unmapped_page_faults(space):
    with pytest.raises(SegmentationFault):
        space.mprotect(0xDEAD_0000, 10, Permission.ro())


def test_fault_names_the_first_offending_page_and_its_grant(space):
    buffer = space.alloc(4 * PAGE_SIZE)
    space.mprotect(buffer.address + 2 * PAGE_SIZE, 2 * PAGE_SIZE,
                   Permission.ro())
    with pytest.raises(SegmentationFault) as fault:
        space.check(buffer.address, buffer.nbytes, Permission.WRITE)
    assert fault.value.address == buffer.address + 2 * PAGE_SIZE
    assert fault.value.access == "write"
    assert fault.value.reason == "page grants <Permission.READ: 1>"
    assert space.write_denials == 1
    # One byte past the end reaches the unmapped guard page; a denied
    # read is not a write denial.
    with pytest.raises(SegmentationFault) as fault:
        space.check(buffer.address, buffer.nbytes + 1, Permission.READ)
    assert fault.value.address == buffer.address + 4 * PAGE_SIZE
    assert fault.value.access == "read"
    assert fault.value.reason == "page grants <Permission.NONE: 0>"
    assert space.write_denials == 1


def test_mprotect_onto_an_unmapped_page_changes_nothing(space):
    buffer = space.alloc(2 * PAGE_SIZE)
    with pytest.raises(SegmentationFault) as fault:
        space.mprotect(buffer.address, 3 * PAGE_SIZE, Permission.ro())
    assert fault.value.address == buffer.address + 2 * PAGE_SIZE
    assert fault.value.access == "mprotect"
    assert space.is_writable(buffer.buffer_id)
    assert space.mprotect_calls == 0
    # A page mapped with no permission is still mapped.
    space.mprotect(buffer.address, PAGE_SIZE, Permission.NONE)
    assert permission_of(space, buffer.address) == Permission.NONE
    space.mprotect(buffer.address, PAGE_SIZE, Permission.rw())
    assert space.is_writable(buffer.buffer_id)


def test_mprotect_charges_clock(space):
    buffer = space.alloc(10)
    before = space.clock.now_ns
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    assert space.clock.now_ns > before
    assert space.mprotect_calls == 1


def test_raw_write_hits_containing_buffer(space):
    buffer = space.alloc_object("original", tag="var")
    corrupted = space.raw_write(buffer.address + 1, 4, value="evil")
    assert corrupted.buffer_id == buffer.buffer_id
    assert space.load(buffer.buffer_id) == "evil"


def test_raw_write_to_unmapped_address_faults(space):
    with pytest.raises(SegmentationFault):
        space.raw_write(0xBAD_0000, 8, value="x")


def test_raw_write_to_read_only_faults(space):
    buffer = space.alloc_object("secret", tag="var")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    with pytest.raises(SegmentationFault):
        space.raw_write(buffer.address, 8, value="evil")
    assert space.load(buffer.buffer_id) == "secret"


def test_raw_read(space):
    buffer = space.alloc_object(42, tag="var")
    assert space.raw_read(buffer.address, 8) == 42


def test_free_unmaps(space):
    buffer = space.alloc_object([1], tag="tmp")
    space.free(buffer.buffer_id)
    with pytest.raises(SegmentationFault):
        space.load(buffer.buffer_id)
    assert permission_of(space, buffer.address) == Permission.NONE


def test_find_buffer_returns_most_recent(space):
    space.alloc_object(1, tag="dup")
    latest = space.alloc_object(2, tag="dup")
    assert space.find_buffer("dup").buffer_id == latest.buffer_id


def test_find_buffer_missing_returns_none(space):
    assert space.find_buffer("ghost") is None


def test_buffers_in_state(space):
    space.alloc(8, origin_state="initialization")
    space.alloc(8, origin_state="data_loading")
    space.alloc(8, origin_state="data_loading")
    assert len(space.buffers_in_state("data_loading")) == 2
    assert len(space.buffers_in_state("storing")) == 0


def test_is_writable_reflects_protection(space):
    buffer = space.alloc(8)
    assert space.is_writable(buffer.buffer_id)
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    assert not space.is_writable(buffer.buffer_id)


def test_is_writable_probe_is_not_a_denied_write(space):
    buffer = space.alloc(8)
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    assert not space.is_writable(buffer.buffer_id)
    assert space.write_denials == 0
    with pytest.raises(SegmentationFault):
        space.store(buffer.buffer_id, b"x")
    assert space.write_denials == 1


def test_is_writable_of_a_freed_buffer_is_false(space):
    buffer = space.alloc(8)
    space.free(buffer.buffer_id)
    assert not space.is_writable(buffer.buffer_id)


def test_unfrozen_in_state_tracks_protection(space):
    a = space.alloc(8, origin_state="data_loading")
    b = space.alloc(8, origin_state="data_loading")
    c = space.alloc(8, origin_state="data_loading")
    space.alloc(8, origin_state="storing")

    def unfrozen():
        return [x.buffer_id for x in unfrozen_in_state(space, "data_loading")]

    assert unfrozen() == [a.buffer_id, b.buffer_id, c.buffer_id]
    space.protect_buffer(a.buffer_id, Permission.ro())
    space.free(c.buffer_id)
    assert unfrozen() == [b.buffer_id]
    space.protect_buffer(a.buffer_id, Permission.rw())
    assert unfrozen() == [a.buffer_id, b.buffer_id]  # allocation order
    assert unfrozen_in_state(space, "visualizing") == []


def test_pages_spanned_boundaries():
    assert list(pages_spanned(0, PAGE_SIZE)) == [0]
    assert list(pages_spanned(0, PAGE_SIZE + 1)) == [0, 1]
    assert list(pages_spanned(PAGE_SIZE - 1, 2)) == [0, 1]
    assert list(pages_spanned(100, 0)) == []


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros((4, 4))) == 128

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_string_utf8(self):
        assert payload_nbytes("héllo") == len("héllo".encode("utf-8"))

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8
        assert payload_nbytes(True) == 8

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_containers_recurse(self):
        flat = payload_nbytes([1.0, 2.0])
        assert flat == 16 + 16
        nested = payload_nbytes({"a": [1.0]})
        assert nested > payload_nbytes([1.0])

    def test_object_with_nbytes_attr(self):
        class Sized:
            nbytes = 77

        assert payload_nbytes(Sized()) == 77


class TestMemoryLayout:
    def test_valid(self):
        MemoryLayout(name="t", tag="template", nbytes=64).validate()

    def test_requires_name(self):
        from repro.errors import AnnotationError

        with pytest.raises(AnnotationError):
            MemoryLayout(name="", tag="t", nbytes=1).validate()

    def test_requires_positive_size(self):
        from repro.errors import AnnotationError

        with pytest.raises(AnnotationError):
            MemoryLayout(name="x", tag="t", nbytes=0).validate()
