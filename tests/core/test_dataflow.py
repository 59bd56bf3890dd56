"""Fig. 8 flow formalism and the Fig. 9 categorization rules."""

import pytest

from repro.core.apitypes import APIType
from repro.core.dataflow import (
    Flow,
    FlowTrace,
    Storage,
    categorize_flows,
    process_flow,
    read,
    reduce_file_copies,
    write,
)

LOAD = write(Storage.MEM, Storage.FILE)
STORE = write(Storage.FILE, Storage.MEM)
VISUALIZE = write(Storage.GUI, Storage.MEM)


class TestConstructors:
    def test_read_has_no_dest(self):
        flow = read(Storage.GUI)
        assert flow.dest is None and flow.source is Storage.GUI

    def test_write_str_rendering(self):
        assert str(write(Storage.MEM, Storage.FILE)) == "W(mem, R(file))"
        assert str(read(Storage.GUI)) == "R(gui)"
        assert "[x]" in str(write(Storage.MEM, Storage.FILE, label="x"))

    def test_shorthand(self):
        assert process_flow() == write(Storage.MEM, Storage.MEM)
        assert process_flow(label="x").label == "x"


class TestCategorization:
    def test_loading_from_file(self):
        assert categorize_flows([LOAD]) is APIType.LOADING

    def test_loading_from_device(self):
        assert categorize_flows([write(Storage.MEM, Storage.DEV)]) is APIType.LOADING

    def test_pure_processing(self):
        assert categorize_flows([process_flow(), process_flow()]) is APIType.PROCESSING

    def test_storing(self):
        assert categorize_flows([STORE]) is APIType.STORING
        assert categorize_flows([write(Storage.DEV, Storage.MEM)]) is APIType.STORING

    def test_visualizing_patterns(self):
        assert categorize_flows([VISUALIZE]) is APIType.VISUALIZING
        assert categorize_flows([read(Storage.GUI)]) is APIType.VISUALIZING
        assert categorize_flows(
            [write(Storage.MEM, Storage.GUI)]
        ) is APIType.VISUALIZING

    def test_gui_takes_precedence_over_memory_flows(self):
        assert categorize_flows(
            [process_flow(), VISUALIZE]
        ) is APIType.VISUALIZING

    def test_loading_takes_precedence_over_processing(self):
        assert categorize_flows(
            [process_flow(), LOAD]
        ) is APIType.LOADING

    def test_loading_beats_storing_when_both(self):
        # An API that reads input AND stores output (rare) is a loader
        # under the paper's rule order.
        assert categorize_flows([LOAD, STORE]) is APIType.LOADING

    def test_empty_is_uncategorizable(self):
        assert categorize_flows([]) is None


class TestFileCopyReduction:
    def test_copy_via_temp_becomes_processing(self):
        flows = [
            write(Storage.MEM, Storage.DEV, label="network"),
            write(Storage.FILE, Storage.MEM, label="cache"),
            write(Storage.MEM, Storage.FILE, label="cache"),
        ]
        reduced = reduce_file_copies(flows)
        assert all(
            f.dest is not Storage.FILE and f.source is not Storage.FILE
            for f in reduced
        )
        assert categorize_flows(flows) is APIType.LOADING

    def test_unlabelled_file_flows_not_reduced(self):
        flows = [STORE, LOAD]
        assert reduce_file_copies(flows) == flows

    def test_mismatched_labels_not_reduced(self):
        flows = [
            write(Storage.FILE, Storage.MEM, label="a"),
            write(Storage.MEM, Storage.FILE, label="b"),
        ]
        reduced = reduce_file_copies(flows)
        assert flows[0] in reduced and flows[1] in reduced

    def test_read_before_write_not_reduced(self):
        flows = [
            write(Storage.MEM, Storage.FILE, label="x"),
            write(Storage.FILE, Storage.MEM, label="x"),
        ]
        # read-back happens BEFORE the store here: no temporal pairing
        reduced = reduce_file_copies(flows)
        assert len(reduced) == 2
        assert reduced[0] == flows[0]

    def test_multiple_pairs_reduced_independently(self):
        flows = [
            write(Storage.FILE, Storage.MEM, label="a"),
            write(Storage.FILE, Storage.MEM, label="b"),
            write(Storage.MEM, Storage.FILE, label="a"),
            write(Storage.MEM, Storage.FILE, label="b"),
        ]
        reduced = reduce_file_copies(flows)
        assert len(reduced) == 2
        assert all(f.dest is Storage.MEM and f.source is Storage.MEM for f in reduced)


class TestFlowTrace:
    def test_record_and_categorize(self):
        trace = FlowTrace()
        trace.record(LOAD)
        trace.extend([process_flow()])
        assert trace.categorize() is APIType.LOADING

    def test_distinct_preserves_order(self):
        trace = FlowTrace()
        trace.record(process_flow(label="x"))
        trace.record(process_flow(label="x"))
        trace.record(LOAD)
        distinct = trace.distinct()
        assert len(distinct) == 2
        assert distinct[0].label == "x"
