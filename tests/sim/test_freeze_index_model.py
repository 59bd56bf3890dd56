"""Model-based test of the freeze scan over one simulated address space.

Random programs of allocations, zero-copy mappings of shared segments,
frees, protection changes, resizing stores and state freezes run against
one :class:`AddressSpace`.  Page permissions are checked against a
reference model kept per buffer, and every freeze must protect exactly
what a full rescan would: the buffers of the state whose pages all grant
WRITE, in allocation order.  A store through a shared mapping pays the
copy-on-write downgrade once, and only after the permission check.
"""

import itertools
from typing import Dict, List

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.apitypes import FrameworkState
from repro.core.statemachine import TemporalStateMachine
from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock
from repro.sim.memory import PAGE_SIZE, Permission, SharedSegment
from repro.sim.process import SimProcess

STATES = list(FrameworkState)
PERMISSIONS = [Permission.ro(), Permission.rw(), Permission.NONE,
               Permission.WRITE]
#: Up to a few pages; 0 asks for the 1-byte minimum.
SIZES = st.integers(min_value=0, max_value=3 * PAGE_SIZE + 17)


def _npages(nbytes: int) -> int:
    return (max(nbytes, 1) + PAGE_SIZE - 1) // PAGE_SIZE


class FreezeScanMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.process = SimProcess(1, "agent", VirtualClock(), role="agent")
        self.space = self.process.memory
        self.freezer = TemporalStateMachine(lambda: [self.process])
        #: The reference model: each live buffer's page permissions,
        #: relative to its start.
        self.pages: Dict[int, List[Permission]] = {}
        #: Live buffers still mapping a shared segment (no COW yet).
        self.shared: Dict[int, SharedSegment] = {}
        #: Every segment ever mapped, mapped or not.
        self.segments: List[SharedSegment] = []
        self._segment_ids = itertools.count(1)

    def _pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.pages)))

    def _store(self, buffer_id: int, nbytes: int) -> None:
        """Grow or shrink a buffer; a frozen page refuses the store."""
        model = self.pages[buffer_id]
        space = self.space
        segment = self.shared.get(buffer_id)
        mappings = segment.mappings if segment is not None else 0
        denials = space.write_denials
        cow = (space.cow_downgrades, space.cow_bytes)
        old_nbytes = space.get_buffer(buffer_id).nbytes
        if not all(p & Permission.WRITE for p in model):
            with pytest.raises(SegmentationFault):
                space.store(buffer_id, bytes(nbytes))
            # The check faults before any copy-on-write work.
            assert space.write_denials == denials + 1
            assert (space.cow_downgrades, space.cow_bytes) == cow
            if segment is not None:
                assert segment.mappings == mappings
                assert space.get_buffer(buffer_id).segment is segment
            return
        space.store(buffer_id, bytes(nbytes))
        assert space.write_denials == denials
        if segment is None:
            assert (space.cow_downgrades, space.cow_bytes) == cow
        else:
            # The first write through a shared mapping copies it, once.
            assert space.cow_downgrades == cow[0] + 1
            assert space.cow_bytes == cow[1] + old_nbytes
            assert segment.mappings == mappings - 1
            assert space.get_buffer(buffer_id).segment is None
            del self.shared[buffer_id]
        npages = _npages(nbytes)
        if npages > len(model):  # moved to a fresh read-write range
            self.pages[buffer_id] = [Permission.rw()] * npages
        else:
            del model[npages:]

    # -- rules ---------------------------------------------------------

    @rule(state=st.sampled_from(STATES), nbytes=SIZES)
    def alloc(self, state, nbytes):
        buffer = self.space.alloc(nbytes, origin_state=state.value)
        self.pages[buffer.buffer_id] = [Permission.rw()] * _npages(nbytes)

    @rule(data=st.data(), state=st.sampled_from(STATES), nbytes=SIZES)
    def map_shared(self, data, state, nbytes):
        """Map a new segment, or one already mapped here once more."""
        if self.segments and data.draw(st.booleans()):
            segment = data.draw(st.sampled_from(self.segments))
        else:
            segment = SharedSegment(next(self._segment_ids), max(nbytes, 1),
                                    payload=bytes(nbytes))
            self.segments.append(segment)
        mappings = segment.mappings
        buffer = self.space.map_shared(segment, origin_state=state.value)
        assert segment.mappings == mappings + 1
        assert buffer.segment is segment
        assert buffer.payload is segment.payload
        self.pages[buffer.buffer_id] = [Permission.rw()] * _npages(
            segment.nbytes)
        self.shared[buffer.buffer_id] = segment

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def free(self, data):
        buffer_id = self._pick(data)
        segment = self.shared.pop(buffer_id, None)
        mappings = segment.mappings if segment is not None else 0
        self.space.free(buffer_id)
        del self.pages[buffer_id]
        if segment is not None:
            assert segment.mappings == mappings - 1

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), writable=st.booleans())
    def protect_buffer(self, data, writable):
        buffer_id = self._pick(data)
        permission = Permission.rw() if writable else Permission.ro()
        self.space.protect_buffer(buffer_id, permission)
        self.pages[buffer_id] = [permission] * len(self.pages[buffer_id])

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), first=st.integers(0, 3), count=st.integers(1, 6),
          permission=st.sampled_from(PERMISSIONS))
    def raw_mprotect(self, data, first, count, permission):
        """mprotect pages from inside one buffer onward; a range that
        reaches the unmapped page past the buffer's end (its guard page,
        before the next buffer) faults and changes nothing."""
        buffer_id = self._pick(data)
        model = self.pages[buffer_id]
        first %= len(model)
        address = self.space.get_buffer(buffer_id).address + first * PAGE_SIZE
        if first + count > len(model):
            with pytest.raises(SegmentationFault):
                self.space.mprotect(address, count * PAGE_SIZE, permission)
            return
        self.space.mprotect(address, count * PAGE_SIZE, permission)
        model[first:first + count] = [permission] * count

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), nbytes=SIZES)
    def store(self, data, nbytes):
        self._store(self._pick(data), nbytes)

    @precondition(lambda self: self.shared)
    @rule(data=st.data(), nbytes=SIZES)
    def store_shared(self, data, nbytes):
        self._store(data.draw(st.sampled_from(sorted(self.shared))), nbytes)

    @rule(state=st.sampled_from(STATES))
    def freeze(self, state):
        space = self.space
        expected = [b.buffer_id for b in space.buffers_in_state(state.value)
                    if space.is_writable(b.buffer_id)]
        protected: List[int] = []
        original = space.protect_buffer

        def recording(buffer_id, permission):
            protected.append(buffer_id)
            original(buffer_id, permission)

        space.protect_buffer = recording
        denials = space.write_denials
        try:
            count = self.freezer._protect_state(state)
        finally:
            del space.protect_buffer
        assert protected == expected
        assert count == len(expected)
        assert space.write_denials == denials
        for buffer_id in protected:
            self.pages[buffer_id] = [Permission.ro()] * len(self.pages[buffer_id])

    # -- invariants ----------------------------------------------------

    @invariant()
    def pages_match_the_model(self):
        for buffer_id, model in self.pages.items():
            buffer = self.space.get_buffer(buffer_id)
            assert _npages(buffer.nbytes) == len(model)
            actual = [self.space.permission_of(buffer.address + i * PAGE_SIZE)
                      for i in range(len(model))]
            assert actual == model
            past_end = buffer.address + len(model) * PAGE_SIZE
            assert self.space.permission_of(past_end) == Permission.NONE
            assert self.space.is_writable(buffer_id) == all(
                p & Permission.WRITE for p in model)

    @invariant()
    def segments_count_their_mappings(self):
        for segment in self.segments:
            mapped = [b for b, s in self.shared.items() if s is segment]
            assert segment.mappings == len(mapped)
            for buffer_id in mapped:
                assert self.space.get_buffer(buffer_id).segment is segment

    @invariant()
    def buffers_never_share_pages(self):
        spans = sorted(
            (self.space.get_buffer(b).address, len(p) * PAGE_SIZE)
            for b, p in self.pages.items()
        )
        for (start, size), (next_start, _) in zip(spans, spans[1:]):
            assert start + size < next_start  # a guard page in between

    @invariant()
    def index_covers_every_writable_buffer_in_order(self):
        for state in STATES:
            indexed = [b.buffer_id
                       for b in self.space.unfrozen_in_state(state.value)]
            assert indexed == sorted(indexed)
            assert set(indexed) <= set(self.pages)
            writable = {b.buffer_id
                        for b in self.space.buffers_in_state(state.value)
                        if self.space.is_writable(b.buffer_id)}
            assert writable <= set(indexed)


FreezeScanMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestFreezeScanModel = FreezeScanMachine.TestCase
