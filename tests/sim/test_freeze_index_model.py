"""Model-based test of the freeze scan over one simulated address space.

Random programs of allocations, frees, protection changes, resizing
stores and state freezes run against one :class:`AddressSpace`.  Page
permissions are checked against a reference model kept per buffer, and
every freeze must protect exactly what a full rescan would: the buffers
of the state whose pages all grant WRITE, in allocation order.
"""

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
from repro.sim.memory import PAGE_SIZE, Permission
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

    def _pick(self, data) -> int:
        return data.draw(st.sampled_from(sorted(self.pages)))

    # -- rules ---------------------------------------------------------

    @rule(state=st.sampled_from(STATES), nbytes=SIZES)
    def alloc(self, state, nbytes):
        buffer = self.space.alloc(nbytes, origin_state=state.value)
        self.pages[buffer.buffer_id] = [Permission.rw()] * _npages(nbytes)

    @precondition(lambda self: self.pages)
    @rule(data=st.data())
    def free(self, data):
        buffer_id = self._pick(data)
        self.space.free(buffer_id)
        del self.pages[buffer_id]

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
        """Grow or shrink a buffer; a frozen page refuses the store."""
        buffer_id = self._pick(data)
        model = self.pages[buffer_id]
        denials = self.space.write_denials
        if not all(p & Permission.WRITE for p in model):
            with pytest.raises(SegmentationFault):
                self.space.store(buffer_id, bytes(nbytes))
            assert self.space.write_denials == denials + 1
            return
        self.space.store(buffer_id, bytes(nbytes))
        npages = _npages(nbytes)
        if npages > len(model):  # moved to a fresh read-write range
            self.pages[buffer_id] = [Permission.rw()] * npages
        else:
            del model[npages:]
        assert self.space.write_denials == denials

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
