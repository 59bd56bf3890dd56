"""Byte-identical cluster artifacts: traces, manifests, bench JSON."""

import json

from repro.cluster.bench import (
    SingleNodeFailurePlan,
    load_sharded_requests,
    run_cluster_benchmark,
    run_cluster_config,
)
from repro.cluster.kernel import ClusterKernel
from repro.cluster.serve import ClusterServer
from repro.cluster.trace import render_cluster_trace
from repro.faults.plan import FaultPlan, FaultRates
from repro.obs.export import validate_chrome_trace


def _traced_run(fault_plan=None):
    cluster = ClusterKernel(nodes=3)
    cluster.enable_tracing()
    if fault_plan is not None:
        cluster.inject_faults(fault_plan)
    server = ClusterServer(cluster=cluster, pool_size=2, batching=True)
    manifest = load_sharded_requests(server, 4, 2, 8)
    server.drain()
    stats = server.stats()
    server.shutdown()
    return cluster, manifest, stats


def test_cluster_trace_and_manifest_byte_identical():
    first_cluster, first_manifest, _ = _traced_run()
    second_cluster, second_manifest, _ = _traced_run()
    assert render_cluster_trace(first_cluster) == \
        render_cluster_trace(second_cluster)
    assert first_manifest.json() == second_manifest.json()
    assert first_manifest.digest() == second_manifest.digest()


def test_cluster_trace_byte_identical_under_node_failure():
    first, _, first_stats = _traced_run(
        SingleNodeFailurePlan(victim=1, after=3)
    )
    second, _, second_stats = _traced_run(
        SingleNodeFailurePlan(victim=1, after=3)
    )
    assert first_stats["node_failures"] == 1
    assert render_cluster_trace(first) == render_cluster_trace(second)
    assert first_stats == second_stats


def test_cluster_trace_byte_identical_under_seeded_faults():
    def plan():
        return FaultPlan(seed=13, rates=FaultRates().scaled(0.05))

    first, _, first_stats = _traced_run(plan())
    second, _, second_stats = _traced_run(plan())
    assert render_cluster_trace(first) == render_cluster_trace(second)
    assert first_stats == second_stats


def test_merged_trace_validates_and_namespaces_nodes():
    cluster, _, _ = _traced_run()
    payload = json.loads(render_cluster_trace(cluster))
    assert validate_chrome_trace(payload) == []
    names = [
        event["args"]["name"] for event in payload["traceEvents"]
        if event["ph"] == "M"
    ]
    prefixes = {name.split(":", 1)[0] for name in names}
    assert {"node0", "node1", "node2"} <= prefixes


def test_bench_result_json_byte_identical():
    kwargs = dict(nodes=3, tenants=4, requests_per_tenant=2,
                  pool_size=2, image_size=8)
    first = json.dumps(run_cluster_benchmark(**kwargs), sort_keys=True)
    second = json.dumps(run_cluster_benchmark(**kwargs), sort_keys=True)
    assert first == second


def test_stats_identical_across_reruns_without_tracing():
    kwargs = dict(nodes=2, tenants=4, requests_per_tenant=2,
                  pool_size=2, image_size=8, partitioner="hash:4")
    _, first = run_cluster_config(**kwargs)
    _, second = run_cluster_config(**kwargs)
    assert first == second
