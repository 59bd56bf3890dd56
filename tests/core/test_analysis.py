"""Static, dynamic, and hybrid API categorization (Section 4.2)."""

import functools

import pytest

from repro.core.apitypes import APIType
from repro.core.dataflow import Storage, write
from repro.core.dynamic_analysis import DynamicAnalyzer, coverage_report
from repro.core.hybrid import HybridAnalyzer
from repro.core.static_analysis import (
    SYMBOLIC_LABEL,
    StaticAnalyzer,
    summarize,
)
from repro.errors import AnalysisError, UncategorizableAPI
from repro.frameworks.base import APISpec, Framework
from repro.frameworks.registry import get_api, get_framework


def make_api(impl, **overrides):
    defaults = dict(
        name="op", framework="t", qualname="t.op",
        ground_truth=APIType.PROCESSING, syscalls=("brk",),
    )
    defaults.update(overrides)
    return Framework("t").add(APISpec(**defaults), impl)


# -- implementations the static walk reads ------------------------------

def _load(ctx, path):
    return ctx.guard(ctx.read_file(path))


def _process(ctx, value):
    ctx.mem_compute(nbytes=8)
    return value


def _show(ctx, image):
    ctx.gui_show("window", image)


def _stage(ctx, payload):
    return ctx.stage_via_tempfile(payload, label="cache")


def _silent(ctx):
    return None


def _load_through_a_function(ctx, path):
    return _load(ctx, path)


_LOADERS = {"csv": _load}


def _load_through_a_table(ctx, path):
    return _LOADERS["csv"](ctx, path)


def _read_unknown_member(ctx):
    return ctx.state_label


class TestImplementationWalk:
    def test_a_helper_gives_its_flows_and_syscalls(self):
        result = summarize(_load)
        assert result.complete
        assert result.flows == (write(Storage.MEM, Storage.FILE),)
        assert result.syscalls == (
            "openat", "fstat", "lseek", "read", "brk", "close",
        )

    def test_ctx_handed_to_a_table_entry_is_opaque(self):
        result = summarize(_load_through_a_table)
        assert not result.complete
        assert result.category is None

    def test_a_gui_helper_gives_a_gui_flow(self):
        result = summarize(_show)
        assert result.flows == (
            write(Storage.GUI, Storage.MEM, label=SYMBOLIC_LABEL),
        )
        assert result.category is APIType.VISUALIZING

    def test_a_body_that_moves_no_data_still_assigns(self):
        result = summarize(_silent)
        assert result.complete and result.flows == ()
        assert result.category is APIType.PROCESSING

    def test_a_module_function_handed_ctx_is_followed(self):
        assert summarize(_load_through_a_function) == summarize(_load)

    def test_the_temp_file_round_trip_reduces_to_processing(self):
        result = summarize(_stage)
        assert [f.label for f in result.flows] == [SYMBOLIC_LABEL] * 2
        assert result.category is APIType.PROCESSING

    def test_an_unknown_ctx_member_is_opaque(self):
        assert not summarize(_read_unknown_member).complete

    def test_a_callable_that_is_not_a_function_is_opaque(self):
        assert not summarize(functools.partial(_load)).complete

    def test_a_lambda_is_walked_unless_its_line_holds_another(self):
        alone = lambda ctx: ctx.write_file("/out", 0)
        assert summarize(alone).category is APIType.STORING
        first, _ = (lambda ctx: ctx.read_file("/a")), (lambda ctx: None)
        assert not summarize(first).complete

    def test_an_implementation_that_writes_a_file_is_storing(self):
        """The spec says processing; the implementation decides."""
        def impl(ctx, path, value):
            ctx.write_file(path, value)

        api = make_api(impl, syscalls=("openat", "write", "close", "brk"))
        entry = HybridAnalyzer().categorize_api(api)
        assert (entry.api_type, entry.method) == (APIType.STORING, "static")
        assert not entry.matches_ground_truth


class TestStaticAnalyzer:
    def test_categorizes_visible_loading(self):
        result = StaticAnalyzer().analyze(
            make_api(_load, ground_truth=APIType.LOADING)
        )
        assert result.complete
        assert result.category is APIType.LOADING

    def test_categorizes_processing(self):
        result = StaticAnalyzer().analyze(make_api(_process))
        assert result.category is APIType.PROCESSING

    def test_categorizes_visualizing(self):
        result = StaticAnalyzer().analyze(
            make_api(_show, ground_truth=APIType.VISUALIZING)
        )
        assert result.category is APIType.VISUALIZING

    def test_opaque_spec_needs_dynamic(self):
        result = StaticAnalyzer().analyze(make_api(_load_through_a_table))
        assert not result.complete
        assert result.category is None


class TestAllowlistCheck:
    def test_a_walked_syscall_missing_from_the_allowlist_is_an_error(self):
        def impl(ctx):
            ctx.syscall("socket")

        with pytest.raises(AnalysisError, match="t.op .*: socket"):
            HybridAnalyzer().categorize_api(make_api(impl))

    def test_a_traced_syscall_missing_from_the_allowlist_is_an_error(self):
        def connect(ctx):
            ctx.syscall("socket")
            ctx.mem_compute()

        hooks = [connect]

        def impl(ctx):
            hooks[0](ctx)

        api = make_api(impl, example_args=lambda ctx: ((), {}))
        with pytest.raises(AnalysisError, match="socket"):
            HybridAnalyzer().categorize_api(api)


class TestDynamicAnalyzer:
    def test_traces_real_api(self):
        result = DynamicAnalyzer().analyze(get_api("opencv", "imread"))
        assert result.covered
        assert result.category is APIType.LOADING
        assert "openat" in result.syscalls
        assert result.error is None

    def test_uncovered_api_reported(self):
        result = DynamicAnalyzer().analyze(get_api("opencv", "grabCut"))
        assert not result.covered
        assert result.category is None

    def test_opaque_pandas_api_resolved_dynamically(self):
        result = DynamicAnalyzer().analyze(get_api("pandas", "read_csv"))
        assert result.category is APIType.LOADING

    def test_get_file_reduced_to_loading(self):
        result = DynamicAnalyzer().analyze(get_api("tensorflow", "utils_get_file"))
        assert result.category is APIType.LOADING

    def test_runs_in_scratch_kernel(self):
        # Tracing never touches the caller's kernel state.
        analyzer = DynamicAnalyzer()
        result = analyzer.analyze(get_api("opencv", "imwrite"))
        assert result.covered


class TestHybridAnalyzer:
    def test_static_preferred_when_conclusive(self):
        entry = HybridAnalyzer().categorize_api(get_api("opencv", "imread"))
        assert entry.method == "static"
        assert entry.api_type is APIType.LOADING

    def test_dynamic_used_for_opaque(self):
        entry = HybridAnalyzer().categorize_api(get_api("json", "load"))
        assert entry.method == "dynamic"
        assert entry.api_type is APIType.LOADING

    def test_uncategorizable_raises(self):
        api = make_api(_load_through_a_table)  # no example_args
        with pytest.raises(UncategorizableAPI):
            HybridAnalyzer().categorize_api(api)

    @pytest.mark.parametrize("framework_name", [
        "opencv", "pytorch", "tensorflow", "caffe",
        "pandas", "json", "matplotlib", "numpy", "pillow", "gtk",
    ])
    def test_full_framework_accuracy(self, framework_name):
        """Section 5: all partitioned APIs were correctly categorized."""
        framework = get_framework(framework_name)
        categorization = HybridAnalyzer().categorize_framework(framework)
        assert categorization.accuracy() == 1.0

    def test_counts_by_type(self):
        categorization = HybridAnalyzer().categorize_framework(
            get_framework("pillow")
        )
        counts = categorization.counts_by_type()
        assert counts[APIType.LOADING] == 1
        assert counts[APIType.VISUALIZING] == 1

    def test_neutral_flag_carried(self):
        categorization = HybridAnalyzer().categorize_framework(
            get_framework("opencv")
        )
        assert any(e.neutral for e in categorization.entries.values())
        entry = categorization.get("cv2.cvtColor")
        assert entry.neutral

    def test_missing_entry_raises(self):
        from repro.core.hybrid import Categorization

        with pytest.raises(UncategorizableAPI):
            Categorization().get("nope.nothing")


class TestCoverage:
    def test_coverage_report_fields(self):
        report = coverage_report(get_framework("opencv"))
        assert 0.7 < report.api_coverage < 1.0
        assert report.code_coverage > report.api_coverage * 0.9
        assert report.framework == "opencv"

    def test_fully_covered_framework(self):
        report = coverage_report(get_framework("json"))
        assert report.api_coverage == 1.0
