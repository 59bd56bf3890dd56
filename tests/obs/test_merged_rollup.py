"""A multi-node merged rollup, checked by a structural oracle."""

from typing import Dict, List

from repro.obs.export import RollupRow, mechanism_rollup, merge_rollups


def validate_rollup_rows(rows: List[RollupRow]) -> List[str]:
    """Structural check of a (merged) rollup table.

    Each category must appear exactly once (``inter_node`` included —
    a merge that appends per-node tables instead of summing them shows
    up as duplicates), ``untraced`` must be the single final row, and
    no mechanism row may be negative.
    """
    problems: List[str] = []
    seen: Dict[str, int] = {}
    for row in rows:
        seen[row.category] = seen.get(row.category, 0) + 1
    for category in sorted(seen):
        if seen[category] > 1:
            problems.append(
                f"category {category!r} appears {seen[category]} times "
                "(rows must merge, not concatenate)"
            )
    if not rows or rows[-1].category != "untraced":
        problems.append("the final row must be 'untraced'")
    for row in rows:
        if row.category != "untraced" and row.self_ns < 0:
            problems.append(
                f"category {row.category!r} has negative self time "
                f"({row.self_ns} ns)"
            )
    return problems


def test_real_cluster_merged_rollup_validates():
    from repro.cluster.bench import load_sharded_requests
    from repro.cluster.kernel import ClusterKernel
    from repro.cluster.serve import ClusterServer
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
    rows = merge_rollups(
        (
            mechanism_rollup(node.kernel.tracer, node.kernel.clock.now_ns)
            for node in cluster.nodes
        ),
        sum(node.kernel.clock.now_ns for node in cluster.nodes),
    )
    assert validate_rollup_rows(rows) == []


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
