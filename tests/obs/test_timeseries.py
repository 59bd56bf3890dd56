"""Dimensional time-series: fixed-grid sketches, windows, registries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.timeseries import (
    DEFAULT_WINDOW_NS,
    QUANTILE_GRID,
    FixedGridSketch,
    TimeSeries,
    TimeSeriesRegistry,
    series_key,
)
from repro.serve.metrics import percentile


class FakeClock:
    def __init__(self, now_ns=0):
        self.now_ns = now_ns


def test_quantile_grid_is_fixed_and_strictly_increasing():
    assert QUANTILE_GRID[0] == 1_000
    assert all(a < b for a, b in zip(QUANTILE_GRID, QUANTILE_GRID[1:]))
    # Rebuilding the module grid must give the same bounds (the grid is
    # data-independent, which is what makes sketches mergeable).
    assert FixedGridSketch.grid is QUANTILE_GRID


def test_empty_sketch_snapshot_is_all_zero():
    sketch = FixedGridSketch()
    assert sketch.quantile(0.99) == 0
    assert sketch.snapshot() == {
        "count": 0, "total": 0, "min": 0, "max": 0,
        "p50": 0, "p99": 0, "p999": 0,
    }


def test_sketch_quantile_is_grid_upper_bound_clamped_to_max():
    sketch = FixedGridSketch()
    for value in (900, 1_100, 2_000):
        sketch.observe(value)
    # ceil-rank: p50 of 3 observations is the 2nd (1_100), whose grid
    # upper bound is 1_250.
    assert sketch.quantile(0.5) == 1_250
    # The top quantile clamps to the exact tracked max, never the grid
    # bound above it.
    assert sketch.quantile(0.999) == 2_000
    assert sketch.snapshot()["min"] == 900
    assert sketch.snapshot()["max"] == 2_000


def test_sketch_overflow_degrades_to_exact_max():
    sketch = FixedGridSketch()
    huge = QUANTILE_GRID[-1] * 10
    sketch.observe(huge)
    assert sketch.quantile(0.5) == huge
    assert sketch.snapshot()["p999"] == huge


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                min_size=1, max_size=60))
def test_sketch_quantile_brackets_true_quantile(values):
    sketch = FixedGridSketch()
    for value in values:
        sketch.observe(value)
    ordered = sorted(values)
    for fraction in (0.5, 0.99, 0.999):
        true_value = percentile(ordered, fraction)
        got = sketch.quantile(fraction)
        # Never below the true ceil-rank observation, never above the
        # maximum, and at most one grid ratio (25%) above the truth.
        assert true_value <= got <= max(ordered)
        assert got <= max(true_value * 5 // 4 + 1, true_value + 1, 1_000)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 9), max_size=30),
       st.lists(st.integers(min_value=0, max_value=10 ** 9), max_size=30))
def test_sketch_merge_equals_union(left, right):
    merged = FixedGridSketch()
    union = FixedGridSketch()
    other = FixedGridSketch()
    for value in left:
        merged.observe(value)
        union.observe(value)
    for value in right:
        other.observe(value)
        union.observe(value)
    merged.merge(other)
    assert merged.snapshot() == union.snapshot()


def test_series_key_sorts_labels():
    assert series_key("lat", {}) == "lat"
    assert series_key("lat", {"tenant": "t0", "node": "n1"}) == \
        "lat{node=n1,tenant=t0}"
    assert series_key("lat", {"node": "n1", "tenant": "t0"}) == \
        series_key("lat", {"tenant": "t0", "node": "n1"})


def test_series_windows_bucket_by_virtual_time():
    series = TimeSeries("lat", {"tenant": "t0"}, window_ns=1_000)
    series.observe(0, 5)
    series.observe(999, 7)
    series.observe(1_000, 9)
    snapshot = series.snapshot()
    assert [w["start_ns"] for w in snapshot["windows"]] == [0, 1_000]
    assert snapshot["windows"][0]["count"] == 2
    assert snapshot["windows"][1]["count"] == 1
    assert snapshot["overall"]["count"] == 3
    assert snapshot["labels"] == {"tenant": "t0"}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.integers(min_value=0, max_value=10 ** 13)),
                max_size=40))
def test_series_observe_updates_like_two_sketch_observes(points):
    """``TimeSeries.observe`` updates its window and overall sketches in
    place; ``FixedGridSketch.observe`` is the reference."""
    series = TimeSeries("lat", {}, window_ns=1_000)
    windows, overall = {}, FixedGridSketch()
    for t_ns, value in points:
        series.observe(t_ns, value)
        windows.setdefault(t_ns // 1_000, FixedGridSketch()).observe(value)
        overall.observe(value)
    assert series.overall.snapshot() == overall.snapshot()
    assert series.windows.keys() == windows.keys()
    for index, sketch in series.windows.items():
        assert sketch.snapshot() == windows[index].snapshot()
        assert sketch.counts == windows[index].counts


def test_series_merge_rejects_window_width_mismatch():
    narrow = TimeSeries("lat", {}, window_ns=1_000)
    wide = TimeSeries("lat", {}, window_ns=2_000)
    with pytest.raises(ValueError):
        narrow.merge(wide)


def test_registry_observe_defaults_to_clock():
    clock = FakeClock(now_ns=3 * DEFAULT_WINDOW_NS)
    registry = TimeSeriesRegistry(clock)
    registry.observe("depth", None, 4)
    snapshot = registry.snapshot()
    assert snapshot["depth"]["windows"][0]["start_ns"] == \
        3 * DEFAULT_WINDOW_NS


def test_registry_without_clock_requires_explicit_time():
    registry = TimeSeriesRegistry(clock=None)
    with pytest.raises(ValueError):
        registry.observe("depth", None, 4)
    registry.observe("depth", None, 4, t_ns=0)
    assert registry.points == 1


def test_registry_merged_is_order_independent():
    a = TimeSeriesRegistry(clock=None)
    b = TimeSeriesRegistry(clock=None)
    a.observe("lat", {"node": "n0"}, 10, t_ns=0)
    a.observe("lat", {"node": "n0"}, 30, t_ns=DEFAULT_WINDOW_NS)
    b.observe("lat", {"node": "n1"}, 20, t_ns=0)
    b.observe("lat", {"node": "n0"}, 40, t_ns=0)
    ab = TimeSeriesRegistry.merged([a, b]).snapshot()
    ba = TimeSeriesRegistry.merged([b, a]).snapshot()
    assert ab == ba
    assert ab["lat{node=n0}"]["overall"]["count"] == 3
    assert ab["lat{node=n1}"]["overall"]["count"] == 1


def test_kernel_owns_a_clocked_series_registry():
    from repro.sim.kernel import SimKernel

    kernel = SimKernel()
    kernel.clock.advance(DEFAULT_WINDOW_NS)
    kernel.series.observe("depth", {"tenant": "t0"}, 1)
    snapshot = kernel.series.snapshot()
    assert snapshot["depth{tenant=t0}"]["windows"][0]["start_ns"] == \
        DEFAULT_WINDOW_NS
