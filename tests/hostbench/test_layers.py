"""Traced passes: wrappers come off again, and self times add up."""

import json

import pytest

from hostbench.layers import OP, TARGETS, resolve
from hostbench.workloads import SMALL, run_pass


def originals():
    found = {}
    for _, target, _ in TARGETS:
        owner, attr = resolve(target)
        found[target] = owner.__dict__[attr]
    return found


@pytest.mark.parametrize("name", ["cluster_failover", "oneshot_suite"])
def test_traced_pass_restores_methods_and_partitions_ops(name, tmp_path):
    before = originals()
    path = tmp_path / "trace.json"
    outcome = run_pass(name, 11, trace=True, spec=SMALL[name],
                       trace_path=str(path))
    assert originals() == before

    trace = outcome["trace"]
    roots = [span for span in trace.spans if span[0] == OP]
    assert len(roots) == outcome["host"]["ops"] == outcome["offered"]
    # span = [name, start, end, parent, op, child time, owner]
    self_by_op = list(trace.op_leaf_s)
    for name, start, end, _, op, child, _ in trace.spans:
        assert end - start - child >= -1e-9  # self time
        if op is not None:
            self_by_op[op] += end - start - child
    for op, root in enumerate(roots):
        assert root[4] == op
        assert self_by_op[op] == pytest.approx(root[2] - root[1],
                                               rel=1e-9, abs=1e-9)

    rows = {row["layer"]: row for row in outcome["layers"]}
    assert rows["frameworks.invoke"]["calls"] > 0
    assert all(row["self_ms"] <= row["total_ms"] + 1e-6
               for row in rows.values() if row["total_ms"] is not None)

    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(trace.spans)
    assert {event["ph"] for event in events} == {"X"}


def test_failing_pass_still_restores_methods(monkeypatch):
    from hostbench import workloads

    def broken(*args):
        raise RuntimeError("harness bug")

    before = originals()
    monkeypatch.setattr(workloads, "_serve_episode", broken)
    with pytest.raises(RuntimeError):
        run_pass("serve_diurnal", 1, trace=True, spec=SMALL["serve_diurnal"])
    assert originals() == before
