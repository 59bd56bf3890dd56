"""Bench harness utilities: runner, table rendering, JSON export."""

import json

import pytest

from repro.apps.base import Workload
from repro.apps.suite import make_app
from repro.bench.runner import (
    OverheadRow,
    average_overhead,
    overhead_for_sample,
    overhead_sweep,
    run_under,
)
from repro.bench.tables import render_bars, render_series, render_table

WORKLOAD = Workload(items=1, image_size=16)


class TestRunner:
    def test_run_under_native(self):
        report = run_under(make_app(4), "none", WORKLOAD)
        assert not report.failed
        assert report.processes == 1

    def test_run_under_baseline(self):
        report = run_under(make_app(4), "lib_entire", WORKLOAD)
        assert report.processes == 2

    def test_overhead_for_sample_positive(self):
        row = overhead_for_sample(4, workload=WORKLOAD)
        assert row.app_name == "lbpcascade_anime"
        assert row.overhead_percent > 0
        assert row.normalized_runtime > 1.0

    def test_overhead_sweep_and_average(self):
        rows = overhead_sweep((4, 6), workload=WORKLOAD)
        assert [r.sample_id for r in rows] == [4, 6]
        assert average_overhead(rows) == pytest.approx(
            sum(r.overhead_percent for r in rows) / 2
        )

    def test_average_of_empty(self):
        assert average_overhead([]) == 0.0

    def test_overhead_row_zero_baseline(self):
        row = OverheadRow(1, "x", 0.0, 1.0)
        assert row.overhead_percent == 0.0
        assert row.normalized_runtime == 1.0


class TestJsonExport:
    def test_report_to_dict_round_trips_json(self):
        report = run_under(make_app(4), "freepart", WORKLOAD)
        payload = report.to_dict()
        decoded = json.loads(json.dumps(payload))
        assert decoded["app_name"] == "lbpcascade_anime"
        assert decoded["processes"] == 5
        assert "result" not in decoded


class TestTables:
    def test_render_table_alignment_and_note(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], ["xx", 3]],
                            note="hello")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "2.50" in text
        assert "note: hello" in text

    def test_render_series(self):
        text = render_series("S", [1, 2], ["a", "b"], x_label="k", y_label="v")
        assert "k" in text and "v" in text
        assert text.count("\n") == 5

    def test_render_bars_scaling(self):
        text = render_bars("B", {"big": 100, "small": 1, "zero": 0}, width=10)
        big_line = next(l for l in text.splitlines() if l.startswith("big"))
        small_line = next(l for l in text.splitlines() if l.startswith("small"))
        zero_line = next(l for l in text.splitlines() if l.startswith("zero"))
        assert big_line.count("#") == 10
        assert small_line.count("#") == 1
        assert zero_line.count("#") == 0

    def test_render_bars_empty(self):
        assert render_bars("B", {}) == "B"
