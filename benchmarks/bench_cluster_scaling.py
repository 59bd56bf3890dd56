"""Cluster scaling — sharded serving at 4 nodes vs 1, plus node failure.

Not a paper table: this bench measures the cluster subsystem.
Tenants shard by directory and sticky-route to their shard's node, so
four nodes serve four tenants' pipelines genuinely in parallel (per-node
virtual clocks; cluster makespan is the max, not the sum).  Acceptance
bars: >= 2.5x requests/sec at 4 nodes over 1, zero cross-node LDC
dereferences (sharded serving ships no object between nodes), and full
goodput (every admitted client request eventually answered ok) through
one scripted node failure.

All numbers derive from the virtual clocks, so the full result dict
renders to byte-identical JSON on every run and machine.
"""

import json

import pytest

from benchmarks.conftest import emit
from repro.bench.tables import render_table
from repro.cluster.bench import run_cluster_benchmark

NODES = 4
TENANTS = 8
REQUESTS = 2


@pytest.fixture(scope="module")
def result():
    return run_cluster_benchmark(
        nodes=NODES,
        tenants=TENANTS,
        requests_per_tenant=REQUESTS,
        pool_size=2,
        image_size=16,
        failure=True,
    )


def _config(result, name):
    for config in result["configs"]:
        if config["name"] == name:
            return config
    raise AssertionError(f"missing config {name!r}")


def test_cluster_scaling_table(benchmark, result):
    benchmark.pedantic(
        run_cluster_benchmark,
        kwargs=dict(nodes=2, tenants=2, requests_per_tenant=1,
                    pool_size=2, image_size=8, failure=False),
        rounds=1, iterations=1,
    )
    rows = [
        [c["name"], c["requests"], c["ok"], f"{c['goodput']:.3f}",
         f"{c['requests_per_second']:.1f}", c["node_failures"],
         c["shards_replaced"], c["cross_node_derefs"]]
        for c in result["configs"]
    ]
    emit(render_table(
        f"Cluster scaling — {TENANTS} tenants x {REQUESTS} requests",
        ["config", "requests", "ok", "goodput", "req/s",
         "failures", "re-placed", "x-node derefs"],
        rows,
        note=f"scaling {result['scaling']}x; "
             f"manifest {result['workload']['manifest_digest'][:16]}",
    ))


def test_scaling_beats_acceptance_bar(result):
    assert result["scaling"] >= 2.5


def test_every_request_served_at_both_widths(result):
    total = TENANTS * REQUESTS
    for name in ("1 node", f"{NODES} nodes"):
        config = _config(result, name)
        assert config["ok"] == total
        assert config["goodput"] == 1.0


def test_sharded_serving_ships_no_object_across_nodes(result):
    for config in result["configs"]:
        assert config["cross_node_derefs"] == 0


def test_goodput_retained_through_node_failure(result):
    chaos = _config(result, f"{NODES} nodes, 1 failure")
    assert chaos["node_failures"] == 1
    assert chaos["shards_replaced"] > 0
    assert result["failure_goodput"] == 1.0


def test_result_json_is_byte_identical_across_reruns(result):
    rerun = run_cluster_benchmark(
        nodes=NODES,
        tenants=TENANTS,
        requests_per_tenant=REQUESTS,
        pool_size=2,
        image_size=16,
        failure=True,
    )
    assert json.dumps(result, sort_keys=True) == \
        json.dumps(rerun, sort_keys=True)
