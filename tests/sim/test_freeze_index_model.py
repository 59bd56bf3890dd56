"""Model-based test of the freeze scan over one simulated address space.

Random programs of allocations, zero-copy mappings of shared segments,
frees, releases, protection changes, resizing stores and state freezes
run against one :class:`AddressSpace`.  Page permissions and the freeze
index are checked against a reference model kept per buffer.  Each run
draws whether the freezes enforce.  A freeze takes every indexed buffer
of its state out of the index, and when enforcing it must protect
exactly what a full rescan would: the buffers of the state whose pages
all grant WRITE, in allocation order, released ones included.  A store
through a shared mapping pays the copy-on-write downgrade once, and only
after the permission check.

A release drops the buffer's payload.  A buffer the index still holds
keeps its pages until its state's next freeze has probed (and maybe
protected) it, and is unmapped right after; any other buffer, one a
freeze has already taken included, is unmapped at once.  No ``free`` or
``store`` is drawn on a released buffer: nothing holds its object any
more.
"""

import itertools
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
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
        #: Each mapped buffer's origin state.
        self.origin: Dict[int, str] = {}
        #: The buffers the freeze index must hold: mapped ones that no
        #: freeze has taken and no read-only protection has reached
        #: since they last gained WRITE.
        self.indexed: Set[int] = set()
        #: Mapped buffers a freeze took that have not regained WRITE.
        self.taken: Set[int] = set()
        #: Whether the freezes enforce; drawn once per run.
        self.enforce = True
        #: Released buffers that still keep their pages.
        self.released: Set[int] = set()
        #: Unmapped buffers: id -> (first page address, page count).
        self.unmapped: Dict[int, Tuple[int, int]] = {}

    def _pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.pages)))

    def _pick_live(self, data) -> int:
        return data.draw(st.sampled_from(sorted(set(self.pages)
                                                - self.released)))

    def _has_live(self) -> bool:
        return len(self.pages) > len(self.released)

    def _map(self, buffer, npages: int, state) -> None:
        self.pages[buffer.buffer_id] = [Permission.rw()] * npages
        self.origin[buffer.buffer_id] = state.value
        self.indexed.add(buffer.buffer_id)

    def _forget(self, buffer_id: int) -> None:
        """The model's side of an unmap."""
        address = self.space.get_buffer(buffer_id).address
        self.unmapped[buffer_id] = (address, len(self.pages.pop(buffer_id)))
        self.indexed.discard(buffer_id)
        self.taken.discard(buffer_id)
        self.released.discard(buffer_id)

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

    @initialize(enforce=st.booleans())
    def choose_enforcement(self, enforce):
        self.enforce = self.freezer.enforce = enforce

    @rule(state=st.sampled_from(STATES), nbytes=SIZES)
    def alloc(self, state, nbytes):
        buffer = self.space.alloc(nbytes, origin_state=state.value)
        self._map(buffer, _npages(nbytes), state)

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
        self._map(buffer, _npages(segment.nbytes), state)
        self.shared[buffer.buffer_id] = segment

    @precondition(lambda self: self._has_live())
    @rule(data=st.data())
    def free(self, data):
        buffer_id = self._pick_live(data)
        segment = self.shared.pop(buffer_id, None)
        mappings = segment.mappings if segment is not None else 0
        self._forget(buffer_id)
        self.space.free(buffer_id)
        if segment is not None:
            assert segment.mappings == mappings - 1

    @precondition(lambda self: self._has_live())
    @rule(data=st.data())
    def release(self, data):
        buffer_id = self._pick_live(data)
        space = self.space
        buffer = space.get_buffer(buffer_id)
        segment = self.shared.pop(buffer_id, None)
        mappings = segment.mappings if segment is not None else 0
        clock_ns = self.process.clock.now_ns
        mprotects = space.mprotect_calls
        if buffer_id in self.indexed:
            self.released.add(buffer_id)  # keeps its pages for the freeze
        else:
            self._forget(buffer_id)
        space.release_buffer(buffer_id)
        assert buffer.released and buffer.payload is None
        assert buffer.segment is None
        assert buffer.freed == (buffer_id in self.unmapped)
        if segment is not None:
            assert segment.mappings == mappings - 1
        # A release costs no virtual time and no mprotect.
        assert self.process.clock.now_ns == clock_ns
        assert space.mprotect_calls == mprotects

    @precondition(lambda self: self.pages)
    @rule(data=st.data(), writable=st.booleans())
    def protect_buffer(self, data, writable):
        buffer_id = self._pick(data)
        permission = Permission.rw() if writable else Permission.ro()
        self.space.protect_buffer(buffer_id, permission)
        self.pages[buffer_id] = [permission] * len(self.pages[buffer_id])
        if writable:
            self.indexed.add(buffer_id)
            self.taken.discard(buffer_id)
        else:
            self.indexed.discard(buffer_id)

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
        if permission & Permission.WRITE:
            self.indexed.add(buffer_id)  # back in the index
            self.taken.discard(buffer_id)

    @precondition(lambda self: self._has_live())
    @rule(data=st.data(), nbytes=SIZES)
    def store(self, data, nbytes):
        self._store(self._pick_live(data), nbytes)

    @precondition(lambda self: self.shared)
    @rule(data=st.data(), nbytes=SIZES)
    def store_shared(self, data, nbytes):
        self._store(data.draw(st.sampled_from(sorted(self.shared))), nbytes)

    @rule(state=st.sampled_from(STATES))
    def freeze(self, state):
        space = self.space
        expected = [b.buffer_id for b in space.buffers_in_state(state.value)
                    if self.enforce and space.is_writable(b.buffer_id)]
        # The scan takes this state's indexed buffers, protected or not.
        taken = {b for b in self.indexed if self.origin[b] == state.value}
        doomed = {b: space.get_buffer(b)
                  for b in sorted(self.released & taken)}
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
        self.indexed -= taken
        self.taken |= taken - set(doomed)
        # ...and the released ones it took are unmapped right after.
        for buffer_id, buffer in doomed.items():
            assert buffer.freed
            self.unmapped[buffer_id] = (buffer.address,
                                        len(self.pages.pop(buffer_id)))
            self.indexed.discard(buffer_id)
            self.released.discard(buffer_id)

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
    def index_matches_the_model(self):
        for state in STATES:
            indexed = [b.buffer_id
                       for b in self.space.unfrozen_in_state(state.value)]
            assert indexed == sorted(b for b in self.indexed
                                     if self.origin[b] == state.value)

    @invariant()
    def released_buffers_keep_their_pages_not_their_payload(self):
        for buffer_id in self.pages:
            buffer = self.space.get_buffer(buffer_id)
            assert not buffer.freed
            assert buffer.released == (buffer_id in self.released)
            if buffer.released:
                assert buffer.payload is None and buffer.segment is None

    @invariant()
    def unmapped_buffers_stay_unmapped(self):
        for buffer_id, (address, npages) in self.unmapped.items():
            with pytest.raises(SegmentationFault):
                self.space.get_buffer(buffer_id)
            assert not self.space.is_writable(buffer_id)
            for page in range(npages):
                assert (self.space.permission_of(address + page * PAGE_SIZE)
                        == Permission.NONE)

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
            # Only a freeze that does not enforce leaves one writable.
            assert writable <= set(indexed) | (
                set() if self.enforce else self.taken)


FreezeScanMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestFreezeScanModel = FreezeScanMachine.TestCase
