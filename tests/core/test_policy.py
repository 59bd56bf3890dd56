"""Syscall-restriction policy (Section 4.4.1)."""

import pytest

from repro.core.apitypes import APIType
from repro.core.hybrid import HybridAnalyzer
from repro.core.partitioner import four_way_plan
from repro.core.policy import (
    ATTACK_SYSCALLS,
    DESIGNATED_FDS,
    filter_spec_for_partition,
    policy_report,
    required_syscalls,
)
from repro.core.runtime import FreePartConfig, build_filter_specs
from repro.frameworks.registry import get_framework
from repro.frameworks.syscall_pools import pool_for
from repro.sim.devices import CAMERA_FD, GUI_SOCKET_FD, NETWORK_FD


@pytest.fixture(scope="module")
def categorization():
    return HybridAnalyzer().categorize_framework(get_framework("opencv"))


@pytest.fixture(scope="module")
def plan(categorization):
    return four_way_plan(categorization)


def test_required_syscalls_union(categorization):
    entries = [categorization.get("cv2.imread"),
               categorization.get("cv2.VideoCapture_read")]
    union = required_syscalls(entries)
    # Fig. 12-b: union of the two APIs' requirements.
    for name in ("openat", "read", "close", "ioctl", "select"):
        assert name in union


def test_filter_spec_widened_to_pool(plan, categorization):
    loading = plan.partition_for_type(APIType.LOADING)
    spec = filter_spec_for_partition(loading, categorization)
    assert spec.allowed == pool_for(APIType.LOADING)


def test_filter_spec_unwidened_is_tight(plan, categorization):
    loading = plan.partition_for_type(APIType.LOADING)
    spec = filter_spec_for_partition(loading, categorization, widen_to_pool=False)
    assert spec.allowed < pool_for(APIType.LOADING)
    assert "openat" in spec.allowed


def test_init_only_includes_mprotect_and_connect(plan, categorization):
    processing = plan.partition_for_type(APIType.PROCESSING)
    spec = filter_spec_for_partition(processing, categorization)
    assert "mprotect" in spec.init_only
    # connect is pool-allowed for loading/visualizing, init-only elsewhere
    assert "connect" in spec.init_only


def test_designated_fds(plan, categorization):
    assert DESIGNATED_FDS[APIType.LOADING] == {CAMERA_FD, NETWORK_FD}
    assert DESIGNATED_FDS[APIType.VISUALIZING] == {GUI_SOCKET_FD}
    loading = filter_spec_for_partition(
        plan.partition_for_type(APIType.LOADING), categorization
    )
    assert loading.allowed_fds == {CAMERA_FD, NETWORK_FD}
    processing = filter_spec_for_partition(
        plan.partition_for_type(APIType.PROCESSING), categorization
    )
    assert processing.allowed_fds is None


def test_build_filter_specs_covers_all_partitions(plan, categorization):
    specs = build_filter_specs(plan, categorization, FreePartConfig())
    assert set(specs) == {p.index for p in plan.partitions}


def test_built_filters_deny_attack_syscalls(plan, categorization):
    """The core of Section 5.3: loading/processing agents cannot
    mprotect (post-init), fork, or send data out."""
    for api_type in (APIType.LOADING, APIType.PROCESSING):
        spec = filter_spec_for_partition(
            plan.partition_for_type(api_type), categorization
        )
        built = spec.build()
        built.end_init_phase()
        for group in ATTACK_SYSCALLS.values():
            for name in group:
                assert not built.would_allow(name).allowed or (
                    api_type is APIType.LOADING and name == "connect"
                ), (api_type, name)


def test_policy_report_matches_table7():
    report = policy_report()
    assert report.per_type_counts[APIType.LOADING] == 43
    assert report.per_type_counts[APIType.PROCESSING] == 22
    assert report.per_type_counts[APIType.VISUALIZING] == 56
    assert report.per_type_counts[APIType.STORING] == 27
    rows = report.format_rows()
    assert len(rows) == 4
    assert rows[0].startswith("Loading (43)")
