"""Exports over a real traced run: Chrome schema, tree, mechanism rollup."""

import json

from repro.obs.export import (
    mechanism_rollup,
    render_rollup,
    render_tree,
    to_chrome_trace,
    validate_chrome_trace,
)


def test_traced_run_produces_expected_mechanism_spans(traced_drone):
    kernel, report = traced_drone
    assert not report.failed
    grouped = {}
    for span in kernel.tracer.closed_spans():
        grouped.setdefault(span.category, []).append(span)
    for category in ("rpc", "spawn", "compute", "ipc", "syscall",
                     "filter_check", "serialize", "mprotect", "state"):
        assert grouped.get(category), f"no {category} spans recorded"
    rpc_attrs = grouped["rpc"][0].attrs
    assert "api" in rpc_attrs
    assert "agent" in rpc_attrs  # annotated after routing


def test_chrome_export_is_schema_valid_and_json_able(traced_drone):
    kernel, _ = traced_drone
    payload = to_chrome_trace(kernel.tracer)
    assert validate_chrome_trace(payload) == []
    assert payload["displayTimeUnit"] == "ms"
    json.dumps(payload)


def test_chrome_export_has_one_named_row_per_process(traced_drone):
    kernel, _ = traced_drone
    payload = to_chrome_trace(kernel.tracer)
    meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
    span_pids = {
        e["pid"] for e in payload["traceEvents"] if e["ph"] != "M"
    }
    assert {e["pid"] for e in meta} == span_pids
    names = {e["args"]["name"] for e in meta}
    assert any(name.startswith("agent:") for name in names)


def test_validator_flags_broken_payloads():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
    bad_order = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 5.0, "pid": 1, "tid": 1, "dur": 1},
        {"name": "b", "ph": "X", "ts": 1.0, "pid": 1, "tid": 1, "dur": 1},
    ]}
    assert any("not sorted" in p for p in validate_chrome_trace(bad_order))
    no_dur = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1},
    ]}
    assert any("'dur'" in p for p in validate_chrome_trace(no_dur))


def test_rollup_partitions_end_to_end_virtual_time(traced_drone):
    kernel, _ = traced_drone
    total_ns = kernel.clock.now_ns
    rows = mechanism_rollup(kernel.tracer, total_ns)
    assert sum(r.self_ns for r in rows) == total_ns
    categories = {r.category for r in rows}
    assert "untraced" in categories
    assert all(r.self_ns >= 0 for r in rows)
    # Sorted by descending self time (untraced row appended last).
    body = rows[:-1]
    assert body == sorted(body, key=lambda r: (-r.self_ns, r.category))


def test_render_rollup_prints_total_equal_to_run_time(traced_drone):
    kernel, _ = traced_drone
    total_ns = kernel.clock.now_ns
    text = render_rollup(kernel.tracer, total_ns)
    assert f"end-to-end virtual time: {total_ns} ns" in text
    assert str(total_ns) in text.splitlines()[-3]  # the TOTAL row


def test_render_tree_indents_children(traced_drone):
    kernel, _ = traced_drone
    text = render_tree(kernel.tracer, max_spans=50)
    lines = text.splitlines()
    assert any(line.startswith("- rpc") for line in lines)
    assert any(line.startswith("  ") for line in lines)  # nested span
