"""Partition plans: the 4-way default and the Fig. 4 random splits."""

import random

import pytest

from repro.core.apitypes import APIType
from repro.core.hybrid import HybridAnalyzer
from repro.core.partitioner import (
    apis_split_across,
    four_way_plan,
    granularity_stats,
    split_processing_plan,
)
from repro.errors import ReproError
from repro.frameworks.registry import get_framework


@pytest.fixture(scope="module")
def categorization():
    return HybridAnalyzer().categorize_framework(get_framework("opencv"))


def test_four_way_plan_has_four_partitions(categorization):
    plan = four_way_plan(categorization)
    assert len(plan.partitions) == 4
    types = [p.api_type for p in plan.partitions]
    assert types == [
        APIType.LOADING, APIType.PROCESSING,
        APIType.VISUALIZING, APIType.STORING,
    ]


def test_four_way_assignment_matches_types(categorization):
    plan = four_way_plan(categorization)
    for entry in categorization.entries.values():
        if entry.neutral:
            assert plan.partition_of(entry.qualname) is None
            continue
        partition = plan.partition_of(entry.qualname)
        assert partition is not None
        assert partition.api_type is entry.api_type


def test_neutral_apis_unpinned(categorization):
    plan = four_way_plan(categorization)
    assert plan.partition_of("cv2.cvtColor") is None


def test_partition_for_type(categorization):
    plan = four_way_plan(categorization)
    assert plan.partition_for_type(APIType.STORING).api_type is APIType.STORING


def test_split_plan_k4_equals_default_sizes(categorization):
    default = four_way_plan(categorization)
    split = split_processing_plan(categorization, 4)
    assert sorted(split.sizes()) == sorted(default.sizes())


@pytest.mark.parametrize("k", [5, 8, 15, 25])
def test_split_plan_partition_count(categorization, k):
    plan = split_processing_plan(categorization, k, rng=random.Random(1))
    assert len(plan.partitions) == k
    # processing slices are non-empty
    processing = [p for p in plan.partitions if p.api_type is APIType.PROCESSING]
    assert len(processing) == k - 3
    assert all(len(p) >= 1 for p in processing)


def test_split_plan_covers_all_processing(categorization):
    plan = split_processing_plan(categorization, 10, rng=random.Random(2))
    processing_members = set()
    for partition in plan.partitions:
        if partition.api_type is APIType.PROCESSING:
            processing_members.update(partition.qualnames)
    expected = {e.qualname for e in categorization.of_type(APIType.PROCESSING)}
    assert processing_members == expected


def test_split_plan_deterministic_per_seed(categorization):
    a = split_processing_plan(categorization, 7, rng=random.Random(42))
    b = split_processing_plan(categorization, 7, rng=random.Random(42))
    assert a.assignment == b.assignment
    c = split_processing_plan(categorization, 7, rng=random.Random(43))
    assert a.assignment != c.assignment


def test_split_plan_rejects_too_few(categorization):
    with pytest.raises(ReproError):
        split_processing_plan(categorization, 3)


def test_split_plan_rejects_too_many(categorization):
    too_many = len(categorization.of_type(APIType.PROCESSING)) + 4
    with pytest.raises(ReproError):
        split_processing_plan(categorization, too_many)


def test_apis_split_across(categorization):
    plan = four_way_plan(categorization)
    assert apis_split_across(plan, "cv2.imread", "cv2.GaussianBlur")
    assert not apis_split_across(plan, "cv2.erode", "cv2.GaussianBlur")


def test_granularity_stats(categorization):
    plan = four_way_plan(categorization)
    stats = granularity_stats(plan)
    assert stats["processes"] == 5  # 4 agents + host
    assert stats["max"] >= 75      # the processing partition dominates
    assert stats["min"] >= 1
    assert stats["stddev"] > 0
