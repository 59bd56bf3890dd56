"""Cluster-wide observability: merged traces and the cross-node lane.

Every node traces independently against its own virtual clock; this
module merges the per-node views into cluster artifacts:

* :func:`cluster_chrome_trace` — one Chrome trace with a *row per node
  process* (pids are namespaced by node so node 0's pid 104 and node
  2's pid 104 stay distinct rows, track names get a ``nodeK:`` prefix);
* :func:`cluster_rollup` — the mechanism self-time table summed across
  nodes, which is where the ``inter_node`` lane (send + receive spans
  of cross-node transfers) shows up next to ipc/copy/compute.

Both are deterministic: merged events sort by ``(timestamp, node,
span id)`` and rows by ``(-self time, category)``, so byte-identical
inputs produce byte-identical exports.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.export import (
    NODE_PID_STRIDE,
    RollupRow,
    mechanism_rollup,
    merge_rollups,
    span_event,
    track_event,
)

from repro.cluster.kernel import ClusterKernel

__all__ = [
    "NODE_PID_STRIDE",
    "cluster_pid",
    "cluster_chrome_trace",
    "render_cluster_trace",
    "cluster_rollup",
]


def cluster_pid(node_index: int, pid: int) -> int:
    """The merged-trace pid of one node-local process."""
    return node_index * NODE_PID_STRIDE + pid


def cluster_chrome_trace(cluster: ClusterKernel) -> Dict[str, Any]:
    """Merge every node's spans into one Chrome trace payload."""
    events: List[Dict[str, Any]] = []
    records = []
    for node in cluster.nodes:
        tracer = node.kernel.tracer
        if not tracer.enabled:
            continue
        spans = tracer.closed_spans()
        for pid in sorted({span.pid for span in spans}):
            name = tracer.track_names.get(pid, f"pid {pid}")
            events.append(track_event(
                cluster_pid(node.index, pid), f"node{node.index}:{name}"
            ))
        records.extend((span, node.index) for span in spans)
    for span, node_index in sorted(
        records, key=lambda pair: (pair[0].start_ns, pair[1], pair[0].span_id)
    ):
        events.append(span_event(
            span, cluster_pid(node_index, span.pid), node=node_index
        ))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_cluster_trace(cluster: ClusterKernel) -> str:
    """Canonical JSON text of the merged trace (byte-stable)."""
    return json.dumps(
        cluster_chrome_trace(cluster), indent=2, sort_keys=True
    ) + "\n"


def cluster_rollup(cluster: ClusterKernel) -> List[RollupRow]:
    """Per-mechanism self time summed across nodes.

    Each node's rollup partitions that node's clock exactly; the merged
    table partitions the *sum* of node clocks (total machine-time, not
    wall time — nodes overlap).  An untraced node's whole clock is
    ``untraced``.  The ``inter_node`` category collects the
    send/receive halves of every cross-node transfer.
    """
    return merge_rollups(
        (
            mechanism_rollup(node.kernel.tracer, node.kernel.clock.now_ns)
            for node in cluster.nodes
        ),
        sum(node.kernel.clock.now_ns for node in cluster.nodes),
    )
