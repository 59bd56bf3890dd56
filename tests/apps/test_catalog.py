"""The schedule builder and repertoires (apps.catalog)."""

import pytest

from repro.apps.base import AppSpec, ArgSpec, TypeCounts
from repro.apps.catalog import (
    REPERTOIRES,
    build_schedule,
    repertoire,
)
from repro.core.apitypes import APIType
from repro.frameworks.registry import get_api


def make_spec(**overrides):
    defaults = dict(
        sample_id=500, name="test-app", main_framework="opencv",
        language="Python", sloc=10, size_bytes=1, description="t",
        loading=TypeCounts(1, 1), processing=TypeCounts(3, 5),
        visualizing=TypeCounts(0, 0), storing=TypeCounts(1, 1),
    )
    defaults.update(overrides)
    return AppSpec(**defaults)


def test_every_repertoire_entry_resolves_to_a_registered_api():
    for framework_name, table in REPERTOIRES.items():
        for api_type, entries in table.items():
            for fw, name, argspec in entries:
                api = get_api(fw, name)
                assert isinstance(argspec, ArgSpec)
                # repertoire entries respect the API's own type, except
                # type-neutral utilities which may appear under processing
                assert (
                    api.spec.ground_truth is api_type or api.spec.neutral
                ), (fw, name)


def test_every_repertoire_entry_is_covered_by_dynamic_analysis():
    # Table 11 footnote: evaluated programs only use covered APIs, so the
    # schedule builder must never pick an uncovered one.
    for framework_name, table in REPERTOIRES.items():
        for entries in table.values():
            for fw, name, _ in entries:
                assert get_api(fw, name).spec.has_test_case, (fw, name)


def test_repertoire_merges_frameworks_in_order():
    merged = repertoire(("caffe", "opencv"), APIType.LOADING)
    names = [(fw, name) for fw, name, _ in merged]
    assert names[0][0] == "caffe"
    assert any(fw == "opencv" for fw, _ in names)
    assert len(names) == len(set(names))  # no duplicates


def test_build_schedule_exact_counts():
    spec = make_spec()
    schedule = build_schedule(spec)
    processing = [s for s in schedule if s.api_type is APIType.PROCESSING]
    assert len({(s.framework, s.api) for s in processing}) == 3
    assert len(processing) == 5


def test_build_schedule_infeasible_unique_raises():
    spec = make_spec(visualizing=TypeCounts(50, 50))  # no 50 vis APIs
    with pytest.raises(ValueError):
        build_schedule(spec)


def test_build_schedule_zero_type_skipped():
    spec = make_spec(visualizing=TypeCounts(0, 0))
    schedule = build_schedule(spec)
    assert not [s for s in schedule if s.api_type is APIType.VISUALIZING]


def test_mandatory_cve_apis_lead_the_selection():
    # Sample 20 must include tf.tile (CVE-2021-41198) even though its
    # loading/processing quotas are small.
    from repro.apps.suite import get_spec

    schedule = build_schedule(get_spec(20))
    assert ("tensorflow", "tile") in {(s.framework, s.api) for s in schedule}


def test_single_loop_loader_rule():
    spec = make_spec(loading=TypeCounts(3, 6))
    schedule = build_schedule(spec)
    loaders = [s for s in schedule if s.api_type is APIType.LOADING]
    assert len(loaders) == 6
    assert sum(1 for s in loaders if s.loop) == 1
    assert loaders[0].loop  # the first site feeds the main loop


def test_totals_distributed_round_robin():
    spec = make_spec(processing=TypeCounts(2, 7))
    schedule = build_schedule(spec)
    counts = {}
    for site in schedule:
        if site.api_type is APIType.PROCESSING:
            counts[site.api] = counts.get(site.api, 0) + 1
    assert sorted(counts.values()) == [3, 4]


def test_suite_schedules_are_pinned():
    # The 23 Table 6 apps' schedules, digested site by site in order
    # (recorded before build_schedule's dedupe moved to a set).
    import hashlib

    from repro.apps.suite import SAMPLE_IDS, get_spec

    digest = hashlib.sha256()
    for sample_id in SAMPLE_IDS:
        for site in build_schedule(get_spec(sample_id)):
            digest.update(
                f"{sample_id}|{site.framework}|{site.api}|"
                f"{site.argspec.value}|{site.api_type.value}|"
                f"{site.loop}|{site.repeat}\n".encode()
            )
    assert len(SAMPLE_IDS) == 23
    assert digest.hexdigest() == (
        "012c969a6df22c5330be12b84b06b11383327e5e728e089c83428dbe2221f721"
    )
