"""Least-privilege inference: minimal pools, emission, CVE acceptance."""

import json
import os

import pytest

from repro.apps.base import Workload
from repro.apps.suite import make_app
from repro.attacks.cves import ALL_CVES
from repro.attacks.scenarios import run_attack
from repro.core.apitypes import APIType
from repro.core.runtime import FreePartConfig
from repro.frameworks.syscall_pools import INIT_ONLY_SYSCALLS, pool_for
from repro.sim.filters import FilterSpec
from repro.staticcheck.callgraph import build_module
from repro.staticcheck.checker import run_check
from repro.staticcheck.inference import PartitionInferencer
from repro.staticcheck.privileges import (
    collect_privileges,
    merge_privileges,
    minimal_filter_spec,
    pool_excess,
    privileges_for_app,
    render_minimal_pools,
    resolved_schedule,
)

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "staticcheck"
)


def privileges_of(name):
    summary = build_module(os.path.join(FIXTURES, name))
    return collect_privileges(PartitionInferencer(summary).infer())


def minimal_filter_specs(privileges):
    """One tightened spec per agent label."""
    return {
        label: minimal_filter_spec(privilege)
        for label, privilege in sorted(privileges.items())
    }


# -- inference over file analysis ---------------------------------------

def test_minimal_allowlist_is_union_of_declared_syscalls():
    privileges = privileges_of("over_privileged_pool_violation.py")
    loading = privileges["data_loading"]
    assert loading.minimal_allowed() <= pool_for(APIType.LOADING)
    assert "openat" in loading.minimal_allowed()
    assert loading.sites == 1
    assert loading.anchor > (0, 0)


def test_minimal_init_only_always_grants_the_init_grace_set():
    privileges = privileges_of("over_privileged_pool_violation.py")
    for privilege in privileges.values():
        assert INIT_ONLY_SYSCALLS <= (
            privilege.minimal_allowed() | privilege.minimal_init_only()
        )


def test_pool_surplus_plus_minimal_covers_the_pool():
    privileges = privileges_of("over_privileged_pool_violation.py")
    loading = privileges["data_loading"]
    pool = pool_for(APIType.LOADING)
    covered = (
        loading.minimal_allowed()
        | loading.minimal_init_only()
        | set(loading.pool_surplus())
        | INIT_ONLY_SYSCALLS
    )
    assert pool <= covered


def test_pool_excess_matches_syscall_pool_rule():
    """One resolution path: the rule's extras come from pool_excess."""
    summary = build_module(
        os.path.join(FIXTURES, "syscall_pool_violation.py")
    )
    reports = PartitionInferencer(summary).infer()
    offending = [
        step
        for report in reports.values()
        for step in report.steps
        if pool_excess(step.verdict, step.effective_type)[0]
    ]
    assert len(offending) == 1
    extra, _ = pool_excess(
        offending[0].verdict, offending[0].effective_type
    )
    assert extra == ["sendto", "socket"]
    result = run_check(
        [os.path.join(FIXTURES, "syscall_pool_violation.py")]
    )
    pool_findings = [
        f for f in result.findings if f.rule == "syscall-pool"
    ]
    assert len(pool_findings) == 1
    assert "sendto" in pool_findings[0].message


def test_run_check_merges_privileges_across_files():
    result = run_check([FIXTURES])
    assert "data_loading" in result.privileges
    merged = merge_privileges([result.privileges])
    assert (
        merged["data_loading"].syscalls
        == result.privileges["data_loading"].syscalls
    )


# -- emission ------------------------------------------------------------

def test_render_minimal_pools_round_trips_as_filter_specs():
    privileges = privileges_of("over_privileged_pool_violation.py")
    payload = json.loads(render_minimal_pools(privileges))
    assert payload["version"] == 1
    specs = {
        label: FilterSpec.from_dict(entry)
        for label, entry in payload["pools"].items()
    }
    direct = minimal_filter_specs(privileges)
    for label, spec in direct.items():
        assert specs[label].allowed == spec.allowed
        assert specs[label].init_only == spec.init_only
        assert specs[label].allowed_fds == spec.allowed_fds


def test_render_minimal_pools_is_deterministic():
    privileges = privileges_of("over_privileged_pool_violation.py")
    assert render_minimal_pools(privileges) == render_minimal_pools(
        privileges_of("over_privileged_pool_violation.py")
    )


# -- schedule-level inference (catalog apps) ----------------------------

def test_resolved_schedule_includes_implicit_engine_sites():
    from repro.apps.drone import DroneApp

    sites = [
        (site.framework, site.api)
        for site in resolved_schedule(DroneApp())
    ]
    assert ("opencv", "CascadeClassifier") in sites


def test_app_privileges_cover_every_schedule_site():
    app = make_app(8)
    privileges = privileges_for_app(app)
    for site in resolved_schedule(app):
        budget = (
            privileges[site.agent].minimal_allowed()
            | privileges[site.agent].minimal_init_only()
        )
        assert set(site.syscalls) <= budget, site.qualname


def test_extra_apis_widen_the_minimal_pool():
    app = make_app(8)
    record = next(r for r in ALL_CVES if 8 in r.samples)
    bare = privileges_for_app(app)
    widened = privileges_for_app(
        app, extra_apis=[(record.framework, record.api_name)]
    )
    bare_total = {
        s for p in bare.values() for s in p.minimal_allowed()
    }
    widened_total = {
        s for p in widened.values() for s in p.minimal_allowed()
    }
    assert bare_total <= widened_total


# -- acceptance: minimal pools still stop the attack suite --------------

@pytest.mark.parametrize(
    "cve_id", [record.cve_id for record in ALL_CVES]
)
def test_cve_prevented_under_minimal_pools(cve_id):
    """Install --emit-minimal-pools output as the runtime's filters and
    replay the exploit: tighter-than-pool filters must not regress the
    paper's prevention results (and legit app calls must still run)."""
    record = next(r for r in ALL_CVES if r.cve_id == cve_id)
    sample_id = record.samples[0] if record.samples else 8
    app = make_app(sample_id)
    overrides = minimal_filter_specs(privileges_for_app(
        app, extra_apis=[(record.framework, record.api_name)]
    ))
    config = FreePartConfig(
        annotations=tuple(app.annotations),
        filter_overrides=overrides,
    )
    result = run_attack(
        cve_id,
        technique="freepart",
        app=app,
        config=config,
        workload=Workload(items=2, image_size=16),
    )
    assert result.delivered, cve_id
    assert result.prevented, cve_id
