"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.apitypes import APIType
from repro.core.dataflow import (
    Flow,
    Storage,
    categorize_flows,
    reduce_file_copies,
)
from repro.errors import SegmentationFault
from repro.sim.clock import VirtualClock
from repro.sim.filters import SyscallFilter
from repro.sim.ipc import IpcAccounting
from repro.sim.memory import AddressSpace, PAGE_SIZE, Permission, pages_spanned
from repro.sim.syscalls import SYSCALL_TABLE

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

storages = st.sampled_from(list(Storage))
labels = st.sampled_from(["", "a", "b", "cache"])


@st.composite
def flows(draw):
    source = draw(storages)
    dest = draw(st.one_of(st.none(), storages))
    return Flow(source=source, dest=dest, label=draw(labels))


syscall_names = st.sampled_from(sorted(SYSCALL_TABLE))


# ----------------------------------------------------------------------
# Memory invariants
# ----------------------------------------------------------------------


@given(sizes=st.lists(st.integers(min_value=0, max_value=3 * PAGE_SIZE),
                      min_size=1, max_size=12))
def test_allocations_never_overlap(sizes):
    space = AddressSpace(pid=1)
    buffers = [space.alloc(size) for size in sizes]
    spans = sorted((b.address, b.end) for b in buffers)
    for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
        assert end_a <= start_b


@given(size=st.integers(min_value=1, max_value=4 * PAGE_SIZE))
def test_every_allocated_byte_has_rw_permission(size):
    space = AddressSpace(pid=1)
    buffer = space.alloc(size)
    space.check(buffer.address, buffer.nbytes, Permission.rw())


@given(size=st.integers(min_value=1, max_value=2 * PAGE_SIZE),
       offset=st.integers(min_value=0, max_value=2 * PAGE_SIZE - 1))
def test_readonly_buffer_rejects_write_at_any_offset(size, offset):
    space = AddressSpace(pid=1)
    buffer = space.alloc(size, payload="x")
    space.protect_buffer(buffer.buffer_id, Permission.ro())
    offset = offset % size
    with pytest.raises(SegmentationFault):
        space.raw_write(buffer.address + offset, 1, value="evil")
    assert space.load(buffer.buffer_id) == "x"


@given(address=st.integers(min_value=0, max_value=1 << 30),
       size=st.integers(min_value=0, max_value=1 << 16))
def test_pages_spanned_covers_range_exactly(address, size):
    pages = list(pages_spanned(address, size))
    if size == 0:
        assert pages == []
        return
    assert pages[0] * PAGE_SIZE <= address
    assert (pages[-1] + 1) * PAGE_SIZE >= address + size
    assert pages == sorted(set(pages))


# ----------------------------------------------------------------------
# Flow categorization invariants
# ----------------------------------------------------------------------


@given(flow_list=st.lists(flows(), max_size=8))
def test_categorization_total_on_nonempty(flow_list):
    category = categorize_flows(flow_list)
    if reduce_file_copies(flow_list):
        assert category is None or isinstance(category, APIType)
    else:
        assert category is None


@given(flow_list=st.lists(flows(), min_size=1, max_size=8))
def test_gui_flows_always_win(flow_list):
    gui_flow = Flow(source=Storage.MEM, dest=Storage.GUI)
    assert categorize_flows(flow_list + [gui_flow]) is APIType.VISUALIZING


@given(flow_list=st.lists(flows(), max_size=8))
def test_reduction_idempotent(flow_list):
    once = reduce_file_copies(flow_list)
    twice = reduce_file_copies(once)
    assert once == twice


@given(flow_list=st.lists(flows(), max_size=8))
def test_reduction_never_grows(flow_list):
    assert len(reduce_file_copies(flow_list)) <= len(flow_list)


@given(flow_list=st.lists(flows(), max_size=8))
def test_categorization_insensitive_to_duplicates(flow_list):
    doubled = [f for flow in flow_list for f in (flow, flow)]
    assert categorize_flows(flow_list) == categorize_flows(doubled)


# ----------------------------------------------------------------------
# Filter invariants
# ----------------------------------------------------------------------


@given(allowed=st.lists(syscall_names, max_size=10),
       probe=syscall_names)
def test_filter_decision_matches_membership(allowed, probe):
    built = SyscallFilter(allowed=allowed)
    built.end_init_phase()
    assert built.would_allow(probe).allowed == (probe in set(allowed))


@given(allowed=st.lists(syscall_names, max_size=6),
       init_only=st.lists(syscall_names, max_size=4),
       probe=syscall_names)
def test_end_init_phase_only_tightens(allowed, init_only, probe):
    before = SyscallFilter(allowed=allowed, init_only=init_only)
    after = SyscallFilter(allowed=allowed, init_only=init_only)
    after.end_init_phase()
    if after.would_allow(probe).allowed:
        assert before.would_allow(probe).allowed


# ----------------------------------------------------------------------
# Accounting / clock invariants
# ----------------------------------------------------------------------


@given(charges=st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
def test_clock_is_sum_of_charges(charges):
    clock = VirtualClock()
    for ns in charges:
        clock.advance(ns)
    assert clock.now_ns == sum(charges)


@given(events=st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**6), st.booleans()),
    max_size=40,
))
def test_ipc_accounting_conserves_totals(events):
    accounting = IpcAccounting()
    for nbytes, lazy in events:
        accounting.record_copy(nbytes, lazy=lazy)
    assert accounting.total_copies == len(events)
    assert accounting.total_copy_bytes == sum(n for n, _ in events)
    if events:
        assert 0.0 <= accounting.lazy_fraction <= 1.0


@given(
    first=st.lists(st.integers(min_value=0, max_value=10**5), max_size=10),
    second=st.lists(st.integers(min_value=0, max_value=10**5), max_size=10),
)
def test_delta_since_is_exactly_the_second_half(first, second):
    accounting = IpcAccounting()
    for nbytes in first:
        accounting.record_message(nbytes)
    snapshot = accounting.snapshot()
    for nbytes in second:
        accounting.record_message(nbytes)
    delta = accounting.delta_since(snapshot)
    assert delta.messages == len(second)
    assert delta.message_bytes == sum(second)


# ----------------------------------------------------------------------
# Partitioner invariants
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=20)
@given(k=st.integers(min_value=4, max_value=25), seed=st.integers(0, 100))
def test_split_plans_partition_processing_exactly(k, seed):
    import random

    from repro.core.hybrid import HybridAnalyzer
    from repro.core.partitioner import split_processing_plan
    from repro.frameworks.registry import get_framework

    categorization = _categorization()
    plan = split_processing_plan(categorization, k, rng=random.Random(seed))
    assert len(plan.partitions) == k
    members = [q for p in plan.partitions for q in p.qualnames]
    assert len(members) == len(set(members))  # no API in two partitions


_CAT = None


def _categorization():
    global _CAT
    if _CAT is None:
        from repro.core.hybrid import HybridAnalyzer
        from repro.frameworks.registry import get_framework

        _CAT = HybridAnalyzer().categorize_framework(get_framework("opencv"))
    return _CAT
