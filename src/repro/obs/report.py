"""The unified run report: one deterministic JSON+markdown artifact.

``repro report`` renders everything the observability control plane
knows about one run into a single payload (schema
``freepart-report/v1``):

* **SLO verdicts** — every :class:`~repro.obs.slo.SLOSpec` evaluated
  over the run's request stream, with multi-window burn-rate timelines
  and every fired :class:`~repro.obs.slo.AlertEvent`;
* **critical path** — the longest-weighted walk per node with
  per-mechanism exclusive attribution, *verified* against the self-time
  rollup via :func:`~repro.obs.critical_path.reconcile_attribution`
  (building a report on a tracer whose accounting drifted raises, it
  does not render a wrong table);
* **rollup** — the verified per-mechanism rows, merged across nodes;
* **top-k slowest** — tenants and nodes ranked by worst latency;
* **time-series** — the dimensional series snapshot, augmented with a
  synthesized ``mechanism.self_ns`` series (mechanism + node labels)
  derived from the verified rollup rows.

Everything is a pure function of virtual-clock state, so
:func:`render_report_json` output is byte-identical across identical
-seed re-runs; :func:`render_report_markdown` is the human view of the
same payload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.critical_path import (
    extract_critical_path,
    reconcile_attribution,
)
from repro.obs.export import RollupRow, merge_rollups
from repro.obs.slo import DEFAULT_SLOS, RequestEvent, SLOSpec, evaluate_slos
from repro.obs.timeseries import TimeSeriesRegistry

__all__ = [
    "REPORT_SCHEMA",
    "build_report",
    "render_report_json",
    "render_report_markdown",
    "top_slowest",
]

REPORT_SCHEMA = "freepart-report/v1"

#: Critical-path steps retained per node in the artifact (the
#: by-category attribution always covers the full path).
MAX_REPORT_STEPS = 100

#: Rows in each "top-k slowest" ranking.
TOP_K = 5


def top_slowest(
    events: Sequence[RequestEvent], dimension: str, k: int = TOP_K
) -> List[Dict[str, Any]]:
    """The ``k`` slowest groups of one event dimension.

    ``dimension`` is a :class:`RequestEvent` attribute (``tenant`` or
    ``node``); groups rank by worst latency, then name.  Unlabeled
    events (empty attribute value) are skipped.
    """
    grouped: Dict[str, List[RequestEvent]] = {}
    for event in events:
        name = getattr(event, dimension)
        if name:
            grouped.setdefault(name, []).append(event)
    rows = []
    for name in sorted(grouped):
        members = grouped[name]
        latencies = [event.latency_ns for event in members]
        rows.append({
            dimension: name,
            "requests": len(members),
            "errors": sum(1 for event in members if not event.ok),
            "max_latency_ns": max(latencies),
            "mean_latency_ns": sum(latencies) // len(latencies),
        })
    rows.sort(key=lambda row: (-row["max_latency_ns"], row[dimension]))
    return rows[:k]


def build_report(
    target: str,
    mode: str,
    nodes: Sequence[Tuple[str, Any, int]] = (),
    events: Sequence[RequestEvent] = (),
    series: Optional[TimeSeriesRegistry] = None,
    slos: Sequence[SLOSpec] = DEFAULT_SLOS,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one run's report payload.

    ``nodes`` is the traced side of the run: ``(label, tracer,
    total_ns)`` triples, one per machine.  Each node's attribution is
    reconciled against its rollup before anything renders — an
    :class:`~repro.errors.AccountingError` here means the observability
    layer's books do not balance and the report must not exist.
    """
    ordered_events = sorted(events)
    slo_results = evaluate_slos(ordered_events, slos)
    alert_count = sum(len(result.alerts) for result in slo_results)

    verified: List[Tuple[str, List[RollupRow]]] = []
    node_sections: List[Dict[str, Any]] = []
    merged_by_category: Dict[str, int] = {}
    critical_total_ns = 0
    total_ns = 0
    for label, tracer, node_total_ns in nodes:
        total_ns += node_total_ns
        rows = reconcile_attribution(
            tracer, node_total_ns,
            context=f"critical_path attribution ({label})",
        )
        verified.append((label, rows))
        path = extract_critical_path(tracer)
        critical_total_ns += path.total_ns
        for category, exclusive in path.by_category.items():
            merged_by_category[category] = (
                merged_by_category.get(category, 0) + exclusive
            )
        node_sections.append({
            "label": label,
            "total_ns": path.total_ns,
            "by_category": {
                category: path.by_category[category]
                for category in sorted(path.by_category)
            },
            "steps": [
                step.to_dict() for step in path.steps[:MAX_REPORT_STEPS]
            ],
        })

    merged_series = TimeSeriesRegistry(clock=None)
    if series is not None:
        merged_series.merge(series)
    for label, rows in verified:
        for row in rows:
            if row.category == "untraced":
                continue
            merged_series.observe(
                "mechanism.self_ns",
                {"mechanism": row.category, "node": label},
                row.self_ns,
                t_ns=0,
            )

    return {
        "schema": REPORT_SCHEMA,
        "target": target,
        "mode": mode,
        "virtual_ns": total_ns,
        "slo": {
            "alert_count": alert_count,
            "all_met": all(result.met for result in slo_results),
            "requests": len(ordered_events),
            "results": [result.to_dict() for result in slo_results],
        },
        "critical_path": {
            "total_ns": critical_total_ns,
            "by_category": {
                category: merged_by_category[category]
                for category in sorted(merged_by_category)
            },
            "nodes": node_sections,
        },
        "rollup": [
            {
                "category": row.category,
                "spans": row.spans,
                "self_ns": row.self_ns,
                "percent": round(row.percent, 6),
            }
            for row in merge_rollups(
                (rows for _, rows in verified), total_ns
            )
        ],
        "top_slowest": {
            "tenants": top_slowest(ordered_events, "tenant"),
            "nodes": top_slowest(ordered_events, "node"),
        },
        "series": merged_series.snapshot(),
        "extra": extra if extra is not None else {},
    }


def render_report_json(report: Dict[str, Any]) -> str:
    """Canonical JSON text (sorted keys, trailing newline)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _md_table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def render_report_markdown(report: Dict[str, Any]) -> str:
    """The same payload as a deterministic markdown document."""
    lines: List[str] = [
        f"# Run report — {report['target']} ({report['mode']})",
        "",
        f"Schema `{report['schema']}`; "
        f"{report['virtual_ns']} virtual ns across "
        f"{len(report['critical_path']['nodes'])} traced node(s).",
        "",
        "## SLO verdicts",
        "",
    ]
    slo = report["slo"]
    lines.extend(_md_table(
        ["SLO", "kind", "objective", "achieved", "met", "alerts"],
        [
            [
                result["spec"]["name"],
                result["spec"]["kind"],
                result["spec"]["objective"],
                result["achieved"],
                "yes" if result["met"] else "NO",
                result["alert_count"],
            ]
            for result in slo["results"]
        ],
    ))
    lines.append("")
    lines.append(
        f"{slo['requests']} requests evaluated; "
        f"{slo['alert_count']} burn-rate alert(s)."
    )
    alerts = [
        alert
        for result in slo["results"]
        for alert in result["alerts"]
    ]
    if alerts:
        lines.extend(["", "### Burn-rate alerts", ""])
        lines.extend(_md_table(
            ["SLO", "window", "start ns", "burn", "threshold", "errors"],
            [
                [
                    alert["slo"], alert["window"], alert["start_ns"],
                    alert["burn_rate"], alert["threshold"],
                    f"{alert['errors']}/{alert['requests']}",
                ]
                for alert in alerts
            ],
        ))
    lines.extend(["", "## Critical path", ""])
    path = report["critical_path"]
    lines.append(
        f"Dominant-chain coverage: {path['total_ns']} ns "
        "attributed by mechanism:"
    )
    lines.append("")
    lines.extend(_md_table(
        ["mechanism", "exclusive ns"],
        [
            [category, path["by_category"][category]]
            for category in sorted(
                path["by_category"],
                key=lambda c: (-path["by_category"][c], c),
            )
        ],
    ))
    lines.extend(["", "## Mechanism rollup (verified)", ""])
    lines.extend(_md_table(
        ["mechanism", "spans", "self ns", "% of total"],
        [
            [row["category"], row["spans"], row["self_ns"],
             f"{row['percent']:.2f}%"]
            for row in report["rollup"]
        ],
    ))
    for dimension in ("tenants", "nodes"):
        rows = report["top_slowest"][dimension]
        if not rows:
            continue
        key = dimension[:-1]
        lines.extend(["", f"## Slowest {dimension}", ""])
        lines.extend(_md_table(
            [key, "requests", "errors", "max latency ns",
             "mean latency ns"],
            [
                [row[key], row["requests"], row["errors"],
                 row["max_latency_ns"], row["mean_latency_ns"]]
                for row in rows
            ],
        ))
    overload = report.get("extra", {}).get("overload")
    if overload and overload.get("nodes"):
        lines.extend(["", "## Overload & elasticity", ""])
        lines.extend(_md_table(
            ["node", "pool", "shed", "rejected", "timed out",
             "backoff retries", "degraded", "scale ups", "scale downs",
             "brownout floor"],
            [
                [
                    row["node"], row["pool_size"], row["shed"],
                    row["rejected"], row["timed_out"],
                    row["send_backoff_retries"],
                    row["degraded_responses"],
                    row.get("scale_ups", "-"),
                    row.get("scale_downs", "-"),
                    row.get("brownout_floor", "-"),
                ]
                for row in overload["nodes"]
            ],
        ))
        lines.append("")
        lines.append(
            "Sheds are brownout refusals (lowest priority first); "
            "backoff retries are transient ChannelFull sends absorbed "
            "by the gateway's exponential backoff."
        )
    return "\n".join(lines) + "\n"
