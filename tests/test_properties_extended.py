"""More property-based tests: schedules, partition transforms, RPC."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.app_partitioning import MAIN_PARTITION, partition_source
from repro.analysis.study_usage import follows_pipeline
from repro.apps.base import AppSpec, TypeCounts
from repro.apps.catalog import build_schedule
from repro.core.apitypes import APIType
from repro.core.rpc import ObjectStore, SequenceTracker
from repro.frameworks.base import Mat
from repro.sim.kernel import SimKernel

# ----------------------------------------------------------------------
# Schedule builder: any feasible Table 6 row yields an exact schedule
# ----------------------------------------------------------------------


@st.composite
def feasible_counts(draw):
    def cell(max_unique, pool):
        unique = draw(st.integers(min_value=0, max_value=max_unique))
        if unique == 0:
            return TypeCounts(0, 0)
        total = draw(st.integers(min_value=unique, max_value=unique * 4))
        return TypeCounts(unique, total)

    return AppSpec(
        sample_id=999,
        name="prop-app",
        main_framework="opencv",
        language="Python",
        sloc=100,
        size_bytes=1,
        description="property-generated",
        loading=cell(6, None),
        processing=cell(40, None),
        visualizing=cell(6, None),
        storing=cell(3, None),
    )


@settings(deadline=None, max_examples=30)
@given(spec=feasible_counts())
def test_schedule_builder_hits_requested_counts(spec):
    schedule = build_schedule(spec)
    by_type = {}
    for site in schedule:
        key = (site.framework, site.api)
        by_type.setdefault(site.api_type, {}).setdefault(key, 0)
        by_type[site.api_type][key] += 1
    for api_type, counts in (
        (APIType.LOADING, spec.loading),
        (APIType.PROCESSING, spec.processing),
        (APIType.VISUALIZING, spec.visualizing),
        (APIType.STORING, spec.storing),
    ):
        sites = by_type.get(api_type, {})
        assert len(sites) == counts.unique
        assert sum(sites.values()) == counts.total


@settings(deadline=None, max_examples=30)
@given(spec=feasible_counts())
def test_schedule_has_at_most_one_loop_loader(spec):
    schedule = build_schedule(spec)
    loop_loaders = [
        s for s in schedule
        if s.api_type is APIType.LOADING and s.loop
    ]
    assert len(loop_loaders) <= 1


# ----------------------------------------------------------------------
# App partitioning: generated partitions always parse, IPC is balanced
# ----------------------------------------------------------------------

_CALLEES = ["load", "proc", "show", "save"]


@st.composite
def toy_programs(draw):
    lines = ["def program(x):"]
    body = draw(st.lists(
        st.sampled_from(_CALLEES + ["x = x + 1"]), min_size=1, max_size=6,
    ))
    in_loop = draw(st.booleans())
    indent = "    "
    if in_loop:
        lines.append("    for i in range(3):")
        indent = "        "
    for entry in body:
        if entry in _CALLEES:
            lines.append(f"{indent}{entry}(x)")
        else:
            lines.append(f"{indent}{entry}")
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=40)
@given(
    source=toy_programs(),
    moved=st.sets(st.sampled_from(_CALLEES), max_size=3),
)
def test_partitioned_sources_always_parse(source, moved):
    assignments = {name: f"part_{name}" for name in moved}
    result = partition_source(source, assignments)
    for generated in result.partitions.values():
        ast.parse(generated)
    # IPC stubs come in matched main/partition halves.
    assert result.ipc_sites % 6 == 0


@settings(deadline=None, max_examples=40)
@given(source=toy_programs(), moved=st.sets(st.sampled_from(_CALLEES), max_size=3))
def test_moved_calls_leave_the_main_partition(source, moved):
    assignments = {name: f"part_{name}" for name in moved}
    result = partition_source(source, assignments)
    main = result.source_of(MAIN_PARTITION)
    for name in moved:
        if f"{name}(x)" in source:
            assert f"{name}(x)" not in main
            assert f"{name}(x)" in result.source_of(f"part_{name}")


# ----------------------------------------------------------------------
# Pipeline checker properties
# ----------------------------------------------------------------------

_STAGES = ["loading", "processing", "visualizing", "storing"]


@given(st.lists(st.sampled_from(_STAGES), max_size=8))
def test_pipeline_checker_accepts_after_inserting_loading(stages):
    # Interleaving extra "loading" stages never invalidates a valid run.
    if follows_pipeline(stages):
        widened = []
        for stage in stages:
            widened.extend(["loading", stage])
        assert follows_pipeline(widened)


@given(st.lists(st.sampled_from(_STAGES), min_size=1, max_size=8))
def test_pipeline_checker_prefix_closed(stages):
    # Every prefix of a valid pipeline is a valid pipeline.
    if follows_pipeline(stages):
        for cut in range(1, len(stages)):
            assert follows_pipeline(stages[:cut])


# ----------------------------------------------------------------------
# RPC invariants
# ----------------------------------------------------------------------


@given(st.lists(st.booleans(), max_size=30))
def test_sequence_tracker_retry_accounting(retries):
    tracker = SequenceTracker()
    expected_retries = 0
    for retry in retries:
        seq = tracker.next_seq()
        tracker.record_execution(seq)
        if retry:
            tracker.record_execution(seq)
            expected_retries += 1
    assert tracker.retries == expected_retries
    assert (set(tracker.executed.values()) <= {1}) == (expected_retries == 0)


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=16))
def test_object_store_refs_are_distinct_and_fetchable(sizes):
    kernel = SimKernel()
    process = kernel.spawn("p", charge=False)
    store = ObjectStore(process)
    refs = [
        store.register(Mat(np.zeros(size)), state_label="data_loading")
        for size in sizes
    ]
    assert len({r.buffer_id for r in refs}) == len(refs)
    for ref, size in zip(refs, sizes):
        assert store.fetch(ref).data.shape == (size,)
        assert ref.payload_bytes == size * 8
