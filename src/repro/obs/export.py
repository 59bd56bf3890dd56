"""Trace exports: Chrome trace-event JSON, text tree, mechanism rollup.

The Chrome export is the `trace event format`_ Perfetto reads — open
``trace.json`` at https://ui.perfetto.dev.  Each simulated process
becomes one "process" row (agents individually, tenant hosts as lanes in
serve mode); spans are complete ("X") events, state transitions and pool
leases are instants ("i").  Timestamps are virtual nanoseconds divided
by 1000 (the format's microsecond unit), which keeps sub-microsecond
spans (a 40 ns filter check) visible as fractional-µs durations.

The mechanism rollup answers "where did the virtual nanoseconds go": per
category it sums *self time* — a span's duration minus its children's —
so IPC, copies, mprotect, filter checks, compute, and the untraced
remainder partition the run's end-to-end virtual time exactly.

.. _trace event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.tracer import Span

__all__ = [
    "to_chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "mechanism_rollup",
    "merge_rollups",
    "render_rollup",
    "RollupRow",
    "RuntimeTouches",
    "trace_runtime_touches",
]

_ALLOWED_PHASES = frozenset({"X", "i", "M"})


def _sorted_args(span: Span) -> Dict[str, Any]:
    args: Dict[str, Any] = {key: span.attrs[key] for key in sorted(span.attrs)}
    if span.out_of_band:
        args["out_of_band"] = True
    return args


def track_event(pid: int, name: str) -> Dict[str, Any]:
    """The ``process_name`` metadata row that labels one trace row."""
    return {
        "name": "process_name",
        "ph": "M",
        "ts": 0,
        "pid": pid,
        "tid": pid,
        "args": {"name": name},
    }


def span_event(span: Span, pid: int) -> Dict[str, Any]:
    """One span as a complete ("X") or instant ("i") trace event."""
    event: Dict[str, Any] = {
        "name": span.name,
        "cat": span.category,
        "ph": "i" if span.kind == "instant" else "X",
        "ts": span.start_ns / 1000,
        "pid": pid,
        "tid": pid,
        "args": _sorted_args(span),
    }
    if span.kind == "instant":
        event["s"] = "t"  # thread-scoped instant
    else:
        event["dur"] = span.duration_ns / 1000
    return event


def to_chrome_trace(tracer: Any) -> Dict[str, Any]:
    """Render a tracer's spans as a Chrome trace-event JSON payload."""
    spans = tracer.closed_spans()
    events: List[Dict[str, Any]] = [
        track_event(pid, tracer.track_names.get(pid, f"pid {pid}"))
        for pid in sorted({span.pid for span in spans})
    ]
    # Chrome requires complete events sorted by timestamp; ties broken by
    # span id so re-runs serialize identically.
    for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
        events.append(span_event(span, span.pid))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check a payload against the Chrome trace-event schema.

    Returns a list of problems (empty = valid).  Used by the CI trace
    step and the export tests.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload must be an object with a 'traceEvents' list"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    last_ts: Optional[float] = None
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index}: missing required key {key!r}")
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            problems.append(f"event {index}: unknown phase {phase!r}")
        if phase == "X":
            if "dur" not in event:
                problems.append(f"event {index}: 'X' event without 'dur'")
            elif event["dur"] < 0:
                problems.append(f"event {index}: negative duration")
        if phase != "M":
            ts = event.get("ts")
            if isinstance(ts, (int, float)):
                if last_ts is not None and ts < last_ts:
                    problems.append(
                        f"event {index}: ts {ts} not sorted (prev {last_ts})"
                    )
                last_ts = ts
    return problems


def render_tree(tracer: Any, max_spans: int = 200) -> str:
    """Compact indented text rendering of the span forest."""
    lines: List[str] = []
    spans = tracer.closed_spans()
    for span in spans[:max_spans]:
        marker = "@" if span.kind == "instant" else "-"
        label = tracer.track_names.get(span.pid, f"pid {span.pid}")
        attrs = "".join(
            f" {key}={span.attrs[key]}" for key in sorted(span.attrs)
        )
        lines.append(
            f"{'  ' * span.depth}{marker} {span.name} [{span.category}] "
            f"{span.duration_ns}ns pid={span.pid}({label}){attrs}"
        )
    if len(spans) > max_spans:
        lines.append(f"... {len(spans) - max_spans} more spans")
    return "\n".join(lines)


@dataclass(frozen=True)
class RollupRow:
    """One mechanism's share of the run's virtual time."""

    category: str
    spans: int
    self_ns: int
    percent: float


def mechanism_rollup(tracer: Any, total_ns: int) -> List[RollupRow]:
    """Per-mechanism self-time table partitioning ``total_ns`` exactly.

    Self time = a span's duration minus its direct children's durations;
    the ``untraced`` row is whatever virtual time passed outside any
    span.  Out-of-band spans (retrospective queue waits) are excluded —
    their interval overlaps other spans' — so the rows always sum to
    ``total_ns``.
    """
    spans = [
        s for s in tracer.closed_spans()
        if not s.out_of_band and s.kind == "span"
    ]
    children_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent_id is not None:
            children_ns[span.parent_id] = (
                children_ns.get(span.parent_id, 0) + span.duration_ns
            )
    per_category: Dict[str, List[int]] = {}
    roots_ns = 0
    for span in spans:
        self_ns = span.duration_ns - children_ns.get(span.span_id, 0)
        per_category.setdefault(span.category, []).append(self_ns)
        if span.parent_id is None:
            roots_ns += span.duration_ns

    def row(category: str, count: int, self_ns: int) -> RollupRow:
        percent = 100.0 * self_ns / total_ns if total_ns else 0.0
        return RollupRow(category, count, self_ns, percent)

    rows = [
        row(category, len(values), sum(values))
        for category, values in per_category.items()
    ]
    rows.sort(key=lambda r: (-r.self_ns, r.category))
    rows.append(row("untraced", 0, total_ns - roots_ns))
    return rows


def merge_rollups(
    tables: Iterable[List[RollupRow]], total_ns: int
) -> List[RollupRow]:
    """Sum per-machine rollup tables into one.

    Each category's spans and self time add up across tables; percents
    are of ``total_ns`` (the sum of the machines' clocks — nodes
    overlap, so this is machine time, not wall time).  ``untraced``
    stays the single final row.
    """
    per_category: Dict[str, List[int]] = {}
    untraced_ns = 0
    for rows in tables:
        for row in rows:
            if row.category == "untraced":
                untraced_ns += row.self_ns
                continue
            bucket = per_category.setdefault(row.category, [0, 0])
            bucket[0] += row.spans
            bucket[1] += row.self_ns

    def row(category: str, spans: int, self_ns: int) -> RollupRow:
        percent = 100.0 * self_ns / total_ns if total_ns else 0.0
        return RollupRow(category, spans, self_ns, percent)

    merged = [
        row(category, spans, self_ns)
        for category, (spans, self_ns) in per_category.items()
    ]
    merged.sort(key=lambda r: (-r.self_ns, r.category))
    merged.append(row("untraced", 0, untraced_ns))
    return merged


def render_rollup(tracer: Any, total_ns: int) -> str:
    """The per-mechanism breakdown as a printable table."""
    from repro.bench.tables import render_table

    rows = mechanism_rollup(tracer, total_ns)
    table = [
        [r.category, r.spans, r.self_ns, f"{r.percent:.2f}%"] for r in rows
    ]
    table.append([
        "TOTAL", sum(r.spans for r in rows),
        sum(r.self_ns for r in rows), "100.00%",
    ])
    return render_table(
        "Where the virtual nanoseconds went",
        ["mechanism", "spans", "self ns", "% of total"],
        table,
        note=f"end-to-end virtual time: {total_ns} ns",
    )


@dataclass
class RuntimeTouches:
    """What a recorded run actually touched (parity-check evidence).

    Extracted from a Chrome trace payload: every API the host RPC'd,
    the agent label behind each agent pid, the syscalls each agent
    executed, and the ordered cross-partition edges (consecutive RPCs
    from one host pid landing in different agents).
    """

    apis: Set[str] = field(default_factory=set)
    agents_by_pid: Dict[int, str] = field(default_factory=dict)
    syscalls_by_agent: Dict[str, Set[str]] = field(default_factory=dict)
    edges: Set[Tuple[str, str]] = field(default_factory=set)


def trace_runtime_touches(payload: Any) -> RuntimeTouches:
    """Replay a Chrome trace payload into a :class:`RuntimeTouches`.

    Events arrive timestamp-ordered (``to_chrome_trace`` sorts them), so
    per-host-pid RPC sequences reconstruct the partition hops in order.
    Syscalls on pids with no rpc annotation (the host, infra processes)
    are skipped — only agent processes are under seccomp policy.
    """
    touches = RuntimeTouches()
    rpc_sequences: Dict[int, List[str]] = {}
    syscalls_by_pid: Dict[int, Set[str]] = {}
    events = payload.get("traceEvents", []) if isinstance(payload, dict) else []
    for event in events:
        if not isinstance(event, dict):
            continue
        category = event.get("cat")
        args = event.get("args") or {}
        if category == "rpc":
            api = args.get("api")
            if api:
                touches.apis.add(api)
            agent = args.get("agent")
            agent_pid = args.get("agent_pid")
            if agent and isinstance(agent_pid, int):
                touches.agents_by_pid[agent_pid] = agent
            if agent:
                rpc_sequences.setdefault(event.get("pid", 0), []).append(agent)
        elif category == "syscall":
            name = args.get("syscall")
            pid = event.get("pid")
            if name and isinstance(pid, int):
                syscalls_by_pid.setdefault(pid, set()).add(name)
    for pid, names in syscalls_by_pid.items():
        agent = touches.agents_by_pid.get(pid)
        if agent is None:
            continue
        touches.syscalls_by_agent.setdefault(agent, set()).update(names)
    for sequence in rpc_sequences.values():
        for previous, current in zip(sequence, sequence[1:]):
            if previous != current:
                touches.edges.add((previous, current))
    return touches
