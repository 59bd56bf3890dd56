"""The interprocedural flow pass: taint rules, fixtures, machinery."""

import os

import pytest

from repro.staticcheck import check_file
from repro.staticcheck.callgraph import CallGraphBuilder
from repro.staticcheck.checker import check_file as check_file_opts
from repro.staticcheck.dataflow import BOTTOM, DataflowAnalysis, Taint
from repro.staticcheck.inference import PartitionInferencer
from repro.staticcheck.report import Severity

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "staticcheck"
)


def fixture(name):
    return os.path.join(FIXTURES, name)


def analyze(source, path="flow.py", param_taints=None):
    summary = CallGraphBuilder(path, source).build()
    assert summary.parse_error is None
    return DataflowAnalysis(
        summary, PartitionInferencer(summary), param_taints
    ).run()


# -- the three flow rule families over paired fixtures ------------------

@pytest.mark.parametrize("name, rule", [
    ("cross_partition_leak_violation.py", "cross-partition-leak"),
    ("cross_partition_leak_helper_violation.py", "cross-partition-leak"),
    ("tenant_taint_escape_violation.py", "tenant-taint-escape"),
    ("tenant_taint_hostsink_violation.py", "tenant-taint-escape"),
    ("frozen_alias_write_violation.py", "frozen-alias-write"),
])
def test_flow_violation_fixture_is_flagged(name, rule):
    result = check_file(fixture(name))
    rules = {f.rule for f in result.findings}
    assert rules == {rule}
    assert all(f.severity is Severity.ERROR for f in result.findings)
    assert result.exit_code == 1


@pytest.mark.parametrize("name", [
    "cross_partition_leak_ok.py",
    "cross_partition_leak_helper_ok.py",
    "tenant_taint_escape_ok.py",
    "tenant_taint_hostsink_ok.py",
    "frozen_alias_write_ok.py",
])
def test_flow_clean_twin_is_clean(name):
    assert check_file(fixture(name)).findings == []


def test_over_privileged_pool_is_opt_in():
    violating = fixture("over_privileged_pool_violation.py")
    assert check_file_opts(violating).findings == []
    strict = check_file_opts(violating, strict_pools=True)
    rules = {f.rule for f in strict.findings}
    assert rules == {"over-privileged-pool"}
    # Advisory: warnings never fail the run.
    assert strict.exit_code == 0
    assert "--emit-minimal-pools" in strict.findings[0].message


def test_over_privileged_pool_clean_when_pool_fully_used():
    clean = fixture("over_privileged_pool_ok.py")
    assert check_file_opts(clean, strict_pools=True).findings == []


# -- flow machinery details ---------------------------------------------

def test_leak_does_not_duplicate_wrong_partition_deref():
    """A *direct* materialized arg stays the per-site rule's finding."""
    result = check_file(fixture("wrong_partition_deref_violation.py"))
    rules = [f.rule for f in result.findings]
    assert rules == ["wrong-partition-deref"]


def test_taint_survives_branch_join():
    report = analyze(
        "def pipeline(gateway, want_blur):\n"
        "    image = gateway.call('opencv', 'imread', '/d/in.png')\n"
        "    if want_blur:\n"
        "        value = gateway.materialize(image)\n"
        "    else:\n"
        "        value = None\n"
        "    return gateway.call('opencv', 'Canny', value)\n"
    )
    assert len(report.leaks) == 1
    assert report.leaks[0].value == "value"
    assert report.stats.joins >= 1


def test_taint_flows_around_loop_back_edge():
    # `carry` only becomes materialized on the back edge: pass one of
    # the loop walk sees BOTTOM, pass two sees the materialized taint.
    report = analyze(
        "def pipeline(gateway, paths):\n"
        "    carry = None\n"
        "    for path in paths:\n"
        "        edges = gateway.call('opencv', 'Canny', carry)\n"
        "        image = gateway.call('opencv', 'imread', path)\n"
        "        carry = gateway.materialize(image)\n"
        "    return carry\n"
    )
    assert len(report.leaks) == 1
    assert report.leaks[0].value == "carry"


def test_tenant_sources_are_gateway_results_not_params():
    # Serving infrastructure handles tenant *identifiers* constantly;
    # only data produced by gateway calls inside the scope is tainted.
    report = analyze(
        "REGISTRY = {}\n"
        "\n"
        "def register(tenant_id, config):\n"
        "    REGISTRY[tenant_id] = config\n"
    )
    assert report.escapes == []


def test_returns_record_function_summaries():
    report = analyze(
        "def produce(gateway):\n"
        "    image = gateway.call('opencv', 'imread', '/d/in.png')\n"
        "    return gateway.materialize(image)\n"
    )
    returned = report.returns["produce"]
    assert returned.materialized
    assert "data_loading" in returned.agents


def test_param_taints_seed_the_environment():
    source = (
        "def consume(gateway, payload):\n"
        "    return gateway.call('opencv', 'Canny', payload)\n"
    )
    clean = analyze(source)
    assert clean.leaks == []
    seeded = analyze(source, param_taints={
        "consume": {"payload": Taint(
            agents=frozenset({"data_loading"}), materialized=True
        )},
    })
    assert len(seeded.leaks) == 1


def test_bottom_is_identity_for_join():
    taint = Taint(agents=frozenset({"data_loading"}), tenant=True)
    assert BOTTOM.join(taint) == taint
    assert taint.join(BOTTOM) == taint
    assert BOTTOM.is_bottom
    assert not taint.is_bottom
