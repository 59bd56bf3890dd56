"""Property tests: the taint lattice laws and monotone propagation."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.staticcheck.callgraph import CallGraphBuilder
from repro.staticcheck.dataflow import BOTTOM, DataflowAnalysis, Taint
from repro.staticcheck.inference import PartitionInferencer

AGENTS = ("data_loading", "data_processing", "visualizing", "storing")

taints = st.builds(
    Taint,
    agents=st.frozensets(st.sampled_from(AGENTS), max_size=4),
    tenant=st.booleans(),
    materialized=st.booleans(),
    payload=st.booleans(),
)


def leq(a: Taint, b: Taint) -> bool:
    """Lattice order: every component of ``a`` is below ``b``'s."""
    return (
        a.agents <= b.agents
        and a.tenant <= b.tenant
        and a.materialized <= b.materialized
        and a.payload <= b.payload
    )


# -- join is a semilattice ----------------------------------------------

@given(taints, taints)
def test_join_is_commutative(a, b):
    assert a.join(b) == b.join(a)


@given(taints, taints, taints)
def test_join_is_associative(a, b, c):
    assert a.join(b).join(c) == a.join(b.join(c))


@given(taints)
def test_join_is_idempotent(a):
    assert a.join(a) == a


@given(taints)
def test_bottom_is_identity(a):
    assert BOTTOM.join(a) == a
    assert a.join(BOTTOM) == a


@given(taints, taints)
def test_join_is_least_upper_bound(a, b):
    joined = a.join(b)
    assert leq(a, joined)
    assert leq(b, joined)


@given(taints, taints)
def test_leq_is_antisymmetric(a, b):
    if leq(a, b) and leq(b, a):
        assert a == b


@given(taints, taints, taints)
def test_leq_is_transitive(a, b, c):
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


# -- propagation is monotone over the lattice ---------------------------

PROGRAM = (
    "STATE = {}\n"
    "\n"
    "def helper(value):\n"
    "    return value\n"
    "\n"
    "def handle_request(gateway, tenant_id, payload):\n"
    "    staged = helper(payload)\n"
    "    batch = [staged]\n"
    "    edges = gateway.call('opencv', 'Canny', batch[0])\n"
    "    STATE[tenant_id] = staged\n"
    "    gateway.host_alloc('cache', staged)\n"
    "    return edges\n"
)


def run_with(payload_taint):
    summary = CallGraphBuilder("prop.py", PROGRAM).build()
    return DataflowAnalysis(
        summary,
        PartitionInferencer(summary),
        param_taints={"handle_request": {"payload": payload_taint}},
    ).run()


def hit_keys(report):
    keys = set()
    for hit in report.leaks:
        keys.add(("leak", hit.line, hit.col, hit.value))
    for hit in report.escapes:
        keys.add(("escape", hit.line, hit.col, hit.target, hit.sink))
    for hit in report.alias_writes:
        keys.add(("alias", hit.line, hit.col, hit.tag))
    return keys


@settings(max_examples=30, deadline=None)
@given(taints, taints)
def test_propagation_is_monotone(a, b):
    """More taint in ⇒ at least as much taint (and findings) out: for
    a ⊑ a⊔b, every return fact and every hit from `a` survives under
    `a⊔b`.  This is the termination/soundness core of the walker."""
    low, high = a, a.join(b)
    low_report, high_report = run_with(low), run_with(high)
    low_ret = low_report.returns["handle_request"]
    high_ret = high_report.returns["handle_request"]
    assert leq(low_ret, high_ret)
    assert hit_keys(low_report) <= hit_keys(high_report)


@settings(max_examples=20, deadline=None)
@given(taints)
def test_derived_taint_never_exceeds_source_plus_context(a):
    """Analysis output facts stay within the lattice generated by the
    inputs: returns are monotone in the seed and BOTTOM-seeded runs
    are a lower bound for every seed."""
    seeded = run_with(a).returns["handle_request"]
    baseline = run_with(BOTTOM).returns["handle_request"]
    assert leq(baseline, seeded)
