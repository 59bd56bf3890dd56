"""Regression: ceil-rank percentile (the round-based index under-read p99)."""

import math

import pytest

from repro.obs.timeseries import ceil_rank
from repro.serve.metrics import ServingTimeline, percentile


def test_percentile_ceil_rank_on_ten_element_sample():
    values = list(range(1, 11))  # 1..10, already sorted
    assert percentile(values, 0.50) == 5
    # The old round(f * (n-1)) picked index 9*0.99 -> 9 only after
    # rounding 8.91; worse, p90 picked 8.1 -> 8 (value 9).  Ceil-rank
    # pins the definition: smallest value covering the fraction.
    assert percentile(values, 0.90) == 9
    assert percentile(values, 0.99) == 10
    assert percentile(values, 1.00) == 10


def test_percentile_edge_cases():
    assert percentile([], 0.99) == 0
    assert percentile([7], 0.50) == 7
    assert percentile([1, 2], 0.0) == 1
    assert percentile([1, 2], 0.5) == 1
    assert percentile([1, 2], 0.51) == 2


def test_timeline_p99_reports_the_maximum_of_small_samples():
    timeline = ServingTimeline(lanes=1)
    for index in range(10):
        timeline.observe(
            request_id=index, tenant_id="t",
            arrival_ns=0, service_ns=(index + 1) * 1_000_000,
        )
    summary = timeline.summary()
    assert summary["p99_latency_ms"] == max(
        t.latency_ns for t in timeline.timings
    ) / 1e6
    assert summary["p99_latency_ms"] >= summary["p50_latency_ms"] > 0


def test_ceil_rank_ignores_float_noise_above_an_exact_rank():
    assert 0.07 * 100 > 7  # 7.000000000000001
    assert ceil_rank(100, 0.07) == 7
    assert math.ceil(0.07 * 100) == 8


def test_ceil_rank_matches_float_ceiling_at_reported_quantiles():
    # The quantiles every report and bench reads: the scaled-integer rank
    # equals the float ceiling for every sample size they see.
    for fraction in (0.25, 0.50, 0.75, 0.90, 0.99, 0.999, 1.0):
        for n in range(1, 20_001):
            assert ceil_rank(n, fraction) == max(1, math.ceil(fraction * n))
