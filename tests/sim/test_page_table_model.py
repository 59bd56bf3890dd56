"""Model-based test of the page table that stores permissions as runs.

Random programs of ``set`` (any bits, ``NONE`` included) and ``clear``
run against one :class:`PageTable` and against a per-page dict, the
representation the runs replaced.  The ranges fall inside one run,
cover exactly one run, cross several runs and the gaps between them,
or sit at the top of the heap.  After every step each page, and the
first lacking and first unmapped page of every range from each page to
past the top, must match the dict; a rule also queries random short
ranges.
"""

from typing import Dict, Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sim.memory import PageTable

#: Every combination of READ, WRITE and EXEC, NONE included.
BITS = st.integers(min_value=0, max_value=7)
#: ``None`` clears the range instead of setting it.
WRITES = st.one_of(st.none(), BITS)
#: Pages start here; ranges may begin just below it.
BASE = 8


class PageTableMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.table = PageTable()
        #: The reference model: mapped page -> bits.
        self.oracle: Dict[int, int] = {}

    # -- helpers -------------------------------------------------------

    def _top(self) -> int:
        return max(self.oracle, default=BASE - 1) + 1

    def _write(self, start: int, stop: int, bits: Optional[int]) -> None:
        pages = range(start, stop)
        if bits is None:
            self.table.clear(pages)
            for page in pages:
                self.oracle.pop(page, None)
        else:
            self.table.set(pages, bits)
            for page in pages:
                self.oracle[page] = bits

    def _lacking(self, pages: range, needed: int):
        for page in pages:
            granted = self.oracle.get(page, 0)
            if needed & ~granted:
                return page, granted
        return None

    def _unmapped(self, pages: range) -> Optional[int]:
        return next((p for p in pages if p not in self.oracle), None)

    # -- rules ---------------------------------------------------------

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), bits=WRITES)
    def inside_one_run(self, data, bits):
        start, stop, _ = data.draw(st.sampled_from(self.table.runs()))
        first = data.draw(st.integers(start, stop - 1))
        last = data.draw(st.integers(first + 1, stop))
        self._write(first, last, bits)

    @precondition(lambda self: self.oracle)
    @rule(data=st.data(), bits=WRITES)
    def exactly_one_run(self, data, bits):
        start, stop, _ = data.draw(st.sampled_from(self.table.runs()))
        self._write(start, stop, bits)

    @rule(start=st.integers(BASE - 2, BASE + 40),
          length=st.integers(1, 24), bits=WRITES)
    def across_runs_and_gaps(self, start, length, bits):
        self._write(start, start + length, bits)

    @rule(gap=st.integers(0, 2), length=st.integers(1, 6), bits=BITS)
    def at_the_top(self, gap, length, bits):
        start = self._top() + gap
        self._write(start, start + length, bits)

    @rule(start=st.integers(BASE - 2, BASE + 48), length=st.integers(0, 12))
    def query_a_range(self, start, length):
        pages = range(start, start + length)
        for needed in range(8):
            assert (self.table.first_lacking(pages, needed)
                    == self._lacking(pages, needed))
        assert self.table.first_unmapped(pages) == self._unmapped(pages)

    # -- invariants ----------------------------------------------------

    @invariant()
    def runs_are_sorted_disjoint_and_non_empty(self):
        runs = self.table.runs()
        for start, stop, _ in runs:
            assert start < stop
        for (_, stop, _), (next_start, _, _) in zip(runs, runs[1:]):
            assert stop <= next_start
        assert sum(stop - start for start, stop, _ in runs) == len(self.oracle)

    @invariant()
    def every_page_matches_the_oracle(self):
        end = self._top() + 2
        for page in range(BASE - 2, end):
            assert self.table.get(page) == self.oracle.get(page, 0)
        for first in range(BASE - 2, end):
            pages = range(first, end)
            for needed in range(1, 8):
                assert (self.table.first_lacking(pages, needed)
                        == self._lacking(pages, needed))
            assert self.table.first_unmapped(pages) == self._unmapped(pages)


PageTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestPageTableModel = PageTableMachine.TestCase
