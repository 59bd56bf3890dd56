"""Multi-node simulated cluster: sharding, serving, chaos.

``repro.cluster`` lifts the reproduction from one
:class:`~repro.sim.kernel.SimKernel` machine to a simulated cluster:

* :mod:`~repro.cluster.kernel` — N nodes with independent virtual
  clocks, costed inter-node links, and an ``inter_node`` accounting
  lane that reconciles exactly (AccountingError on drift);
* :mod:`~repro.cluster.sharding` — directory / object / hash / lambda
  dataset partitioners and the deterministic shard manifest;
* :mod:`~repro.cluster.serve` — sticky per-tenant routing across nodes
  plus node-failure recovery (shard re-placement, resubmission);
* :mod:`~repro.cluster.bench` — the scaling benchmark behind
  ``repro cluster-bench`` and ``BENCH_cluster.json``.

Everything is byte-identically deterministic from the virtual clocks.
"""

from repro.cluster.kernel import ClusterAccounting, ClusterKernel, ClusterNode
from repro.cluster.sharding import (
    DirectoryPartitioner,
    HashPartitioner,
    LambdaPartitioner,
    ObjectPartitioner,
    Partitioner,
    Shard,
    ShardManifest,
    make_partitioner,
    shard_dataset,
    stable_hash,
)
from repro.cluster.topology import ClusterTopology, InterNodeLink

__all__ = [
    "ClusterAccounting",
    "ClusterKernel",
    "ClusterNode",
    "ClusterTopology",
    "DirectoryPartitioner",
    "HashPartitioner",
    "InterNodeLink",
    "LambdaPartitioner",
    "ObjectPartitioner",
    "Partitioner",
    "Shard",
    "ShardManifest",
    "make_partitioner",
    "shard_dataset",
    "stable_hash",
]
