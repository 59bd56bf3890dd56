"""Merged multi-node trace and rollup validators, positive and negative."""

import pytest

from repro.obs.export import (
    NODE_PID_STRIDE,
    RollupRow,
    validate_merged_trace,
    validate_rollup_rows,
)


def _meta(pid, name="node0:host"):
    return {"name": "process_name", "ph": "M", "ts": 0,
            "pid": pid, "tid": pid, "args": {"name": name}}


def _event(pid, node, name="rpc_call", cat="rpc", ts=1.0):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": 1.0,
            "pid": pid, "tid": pid, "args": {"node": node}}


def _payload(events):
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def test_valid_merged_payload_passes():
    pid0 = 100
    pid1 = NODE_PID_STRIDE + 100
    payload = _payload([
        _meta(pid0, "node0:host"),
        _meta(pid1, "node1:host"),
        _event(pid0, 0, name="inter_node_send", cat="inter_node"),
        _event(pid1, 1, name="inter_node_recv", cat="inter_node", ts=2.0),
    ])
    assert validate_merged_trace(payload) == []


def test_duplicate_process_name_row_is_a_pid_collision():
    payload = _payload([
        _meta(100, "node0:host"),
        _meta(100, "node1:host"),
        _event(100, 0),
    ])
    problems = validate_merged_trace(payload)
    assert any("cross-node pid collision" in p for p in problems)


def test_event_without_node_arg_is_rejected():
    event = _event(100, 0)
    del event["args"]["node"]
    problems = validate_merged_trace(_payload([_meta(100), event]))
    assert any("args['node']" in p for p in problems)


def test_node_arg_must_match_pid_namespace():
    payload = _payload([
        _meta(NODE_PID_STRIDE + 100, "node1:host"),
        _event(NODE_PID_STRIDE + 100, 0, ts=1.0),
    ])
    problems = validate_merged_trace(payload)
    assert any("namespace" in p for p in problems)


def test_event_without_process_name_row_is_rejected():
    problems = validate_merged_trace(_payload([_event(100, 0)]))
    assert any("no process_name row" in p for p in problems)


def test_inter_node_send_without_recv_is_rejected():
    payload = _payload([
        _meta(100),
        _event(100, 0, name="inter_node_send", cat="inter_node"),
    ])
    problems = validate_merged_trace(payload)
    assert any("inter_node_recv" in p for p in problems)


def test_real_cluster_merged_trace_validates(tmp_path):
    from repro.cluster.bench import load_sharded_requests
    from repro.cluster.kernel import ClusterKernel
    from repro.cluster.serve import ClusterServer
    from repro.cluster.trace import cluster_chrome_trace, cluster_rollup
    from repro.core.runtime import FreePartConfig

    cluster = ClusterKernel(nodes=2)
    cluster.enable_tracing()
    server = ClusterServer(
        cluster=cluster, config=FreePartConfig(trace=True),
        pool_size=2, batching=True,
    )
    load_sharded_requests(server, 4, 1, 16)
    server.drain()
    server.shutdown()
    assert validate_merged_trace(cluster_chrome_trace(cluster)) == []
    assert validate_rollup_rows(cluster_rollup(cluster)) == []


def _row(category, spans=1, self_ns=10, percent=1.0):
    return RollupRow(category, spans, self_ns, percent)


def test_rollup_rows_validator_accepts_merged_table():
    rows = [_row("rpc"), _row("copy"), _row("untraced", spans=0)]
    assert validate_rollup_rows(rows) == []


def test_rollup_rows_validator_rejects_concatenation():
    rows = [_row("rpc"), _row("rpc"), _row("untraced", spans=0)]
    problems = validate_rollup_rows(rows)
    assert any("merge, not concatenate" in p for p in problems)


def test_rollup_rows_validator_requires_final_untraced():
    assert validate_rollup_rows([]) != []
    problems = validate_rollup_rows([_row("rpc")])
    assert any("untraced" in p for p in problems)


def test_rollup_rows_validator_rejects_negative_self_time():
    rows = [_row("rpc", self_ns=-5), _row("untraced", spans=0)]
    problems = validate_rollup_rows(rows)
    assert any("negative self time" in p for p in problems)
