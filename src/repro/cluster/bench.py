"""Cluster scaling benchmark: sharded serving at N nodes vs one.

Runs the serving workload (the same 4-call pipeline the single-node
serve bench uses) three ways on identical data:

1. ``--nodes 1``: the whole dataset and every tenant on one node — the
   scaling baseline;
2. ``--nodes N``: dataset sharded by the chosen partitioner, tenants
   sticky-routed to their shard's node — the scaling headline;
3. ``--nodes N`` + one scripted node failure mid-drain — shard
   re-placement and request resubmission must keep goodput bounded.

Everything is a pure function of the arguments (virtual clocks, seeded
payloads, deterministic manifests), so the result dict renders to
byte-identical JSON across runs and machines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.plan import NoFaultPlan
from repro.serve.bench import standard_pipeline

from repro.cluster.kernel import ClusterKernel
from repro.cluster.serve import ClusterServer
from repro.cluster.sharding import ShardManifest, make_partitioner


class SingleNodeFailurePlan(NoFaultPlan):
    """Scripted chaos: kill one node at the Kth failure decision point."""

    def __init__(self, victim: int = 1, after: int = 3) -> None:
        self.victim = victim
        self.after = after
        self.consults = 0
        self.fired = False

    def node_failure(self, candidates) -> Optional[int]:
        self.consults += 1
        if (
            not self.fired
            and self.consults >= self.after
            and self.victim in candidates
        ):
            self.fired = True
            return self.victim
        return None


def load_sharded_requests(
    server: ClusterServer,
    tenants: int,
    items: int,
    image_size: int,
    partitioner: str = "directory",
) -> ShardManifest:
    """The sharded-cluster serving fixture: ``tenants x items`` pipelines.

    Draws every input from one seeded rng, shards the dataset across the
    nodes, pins each tenant to the node owning its first item, then
    submits — the same order on every run.  Returns the manifest.
    """
    rng = np.random.default_rng(0)
    paths: List[str] = []
    payloads: Dict[str, Any] = {}
    for tenant in range(tenants):
        for index in range(items):
            path = f"/data/tenant-{tenant}/in-{index}.png"
            paths.append(path)
            payloads[path] = rng.normal(size=(image_size, image_size))
    manifest = make_partitioner(
        partitioner, default_shards=tenants
    ).split(paths)
    server.load_dataset(manifest, payloads)
    for tenant in range(tenants):
        server.pin_tenant_to_item(
            f"tenant-{tenant}", f"/data/tenant-{tenant}/in-0.png"
        )
    for tenant in range(tenants):
        for index in range(items):
            server.submit(
                f"tenant-{tenant}",
                standard_pipeline(
                    f"/data/tenant-{tenant}/in-{index}.png",
                    f"/out/tenant-{tenant}/out-{index}.png",
                ),
            )
    return manifest


def run_cluster_config(
    nodes: int,
    tenants: int,
    requests_per_tenant: int,
    pool_size: int,
    image_size: int,
    partitioner: str,
    fault_plan: Optional[NoFaultPlan] = None,
) -> Tuple[ShardManifest, Dict[str, Any]]:
    """One full serving run at a node count; returns (manifest, stats)."""
    cluster = ClusterKernel(nodes=nodes)
    if fault_plan is not None:
        cluster.inject_faults(fault_plan)
    server = ClusterServer(
        cluster=cluster, pool_size=pool_size, batching=True
    )
    manifest = load_sharded_requests(
        server, tenants, requests_per_tenant, image_size, partitioner
    )
    responses = server.drain()
    stats = server.stats()
    stats["responses"] = len(responses)
    cluster.verify_accounting()
    server.shutdown()
    return manifest, stats


def _row(name: str, stats: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "name": name,
        "nodes": stats["nodes"],
        "living_nodes": stats["living_nodes"],
        "requests": stats["requests"],
        "ok": stats["ok"],
        "goodput": round(stats["goodput"], 6),
        "requests_per_second": round(stats["requests_per_second"], 2),
        "makespan_seconds": round(stats["makespan_seconds"], 6),
        "node_failures": stats["node_failures"],
        "resubmissions": stats["resubmissions"],
        "shards_replaced": stats["shards_replaced"],
        "cross_node_derefs": stats["inter_node"][
            "inter_node.cross_node_derefs"
        ],
    }


def run_cluster_benchmark(
    nodes: int = 4,
    tenants: int = 8,
    requests_per_tenant: int = 2,
    pool_size: int = 2,
    partitioner: str = "directory",
    image_size: int = 16,
    failure: bool = True,
) -> Dict[str, Any]:
    """The scaling sweep: 1 node, N nodes, N nodes + one node failure."""
    manifest, single = run_cluster_config(
        1, tenants, requests_per_tenant, pool_size, image_size, partitioner
    )
    _, multi = run_cluster_config(
        nodes, tenants, requests_per_tenant, pool_size, image_size,
        partitioner,
    )
    configs = [
        _row("1 node", single),
        _row(f"{nodes} nodes", multi),
    ]
    result: Dict[str, Any] = {
        "workload": {
            "tenants": tenants,
            "requests_per_tenant": requests_per_tenant,
            "total_requests": tenants * requests_per_tenant,
            "image_size": image_size,
            "pool_size": pool_size,
            "partitioner": manifest.partitioner,
            "shards": len(manifest.shards),
            "manifest_digest": manifest.digest(),
        },
        "configs": configs,
        "scaling": round(
            multi["requests_per_second"] / single["requests_per_second"], 2
        ) if single["requests_per_second"] else 0.0,
    }
    if failure and nodes > 1:
        _, chaos = run_cluster_config(
            nodes, tenants, requests_per_tenant, pool_size, image_size,
            partitioner,
            fault_plan=SingleNodeFailurePlan(victim=1, after=3),
        )
        configs.append(_row(f"{nodes} nodes, 1 failure", chaos))
        result["failure_goodput"] = round(chaos["goodput"], 6)
    return result
