"""Critical-path extraction over span trees, reconciled with the rollup.

Answers "what dominates the end-to-end time" *structurally*: for each
root span the critical path walks the heaviest child at every level, and
each step's *exclusive* contribution is its duration minus the chosen
child's — so the steps of one root's path partition that root's duration
exactly, the same way rollup rows partition the run.

The per-mechanism attribution here is computed by an independent
traversal (depth-first subtree recursion over an explicit children map)
from the flat loop in :func:`repro.obs.export.mechanism_rollup`.
:func:`reconcile_attribution` compares the two row sets entry by entry
and raises :class:`~repro.errors.AccountingError` naming the off-by row
on any discrepancy — every run report runs this check, so a drifting
span filter or a double-counted child is a loud failure, not a silently
wrong table.

Only *accountable* spans participate — closed, ``kind == "span"``, not
``out_of_band`` — the exact filter the rollup uses.  Out-of-band spans
(retrospective queue waits) overlap other spans' intervals and instants
have no duration; both would break the partition-exactly invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import AccountingError
from repro.obs.export import RollupRow, mechanism_rollup
from repro.obs.tracer import Span

__all__ = [
    "CriticalPathStep",
    "CriticalPath",
    "accountable_spans",
    "extract_critical_path",
    "mechanism_attribution",
    "reconcile_attribution",
]


@dataclass(frozen=True)
class CriticalPathStep:
    """One span on the critical path.

    ``exclusive_ns`` is what this step alone contributes to the path:
    its duration minus the heaviest child's (the child the path descends
    into).  Summed over a root's steps it equals the root's duration.
    """

    span_id: int
    name: str
    category: str
    pid: int
    depth: int
    duration_ns: int
    exclusive_ns: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "category": self.category,
            "pid": self.pid,
            "depth": self.depth,
            "duration_ns": self.duration_ns,
            "exclusive_ns": self.exclusive_ns,
        }


@dataclass
class CriticalPath:
    """The longest-weighted walk through every root span, in time order."""

    steps: List[CriticalPathStep] = field(default_factory=list)
    total_ns: int = 0
    by_category: Dict[str, int] = field(default_factory=dict)


def accountable_spans(tracer: Any) -> List[Span]:
    """The spans that participate in time accounting.

    Closed real spans only — the same filter
    :func:`~repro.obs.export.mechanism_rollup` applies, so critical-path
    totals and rollup rows are views of one universe.
    """
    return [
        span for span in tracer.closed_spans()
        if not span.out_of_band and span.kind == "span"
    ]


def _children_map(spans: List[Span]) -> Dict[int, List[Span]]:
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    # Heaviest child first; span id breaks ties so re-runs pick the same
    # path for equal-duration siblings.
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: (-s.duration_ns, s.span_id))
    return children


def extract_critical_path(tracer: Any, max_steps: int = 10_000) -> CriticalPath:
    """Walk the heaviest child chain of every root span.

    Roots are visited in start order, so the path reads as a timeline of
    the run's dominant chain.  ``total_ns`` equals the summed root
    durations — the exact traced (non-``untraced``) share of the run.
    """
    spans = accountable_spans(tracer)
    children = _children_map(spans)
    roots = sorted(
        (span for span in spans if span.parent_id is None),
        key=lambda s: (s.start_ns, s.span_id),
    )
    path = CriticalPath()
    for root in roots:
        span = root
        while True:
            heaviest = children.get(span.span_id)
            child = heaviest[0] if heaviest else None
            exclusive = span.duration_ns - (child.duration_ns if child else 0)
            if len(path.steps) < max_steps:
                path.steps.append(CriticalPathStep(
                    span_id=span.span_id,
                    name=span.name,
                    category=span.category,
                    pid=span.pid,
                    depth=span.depth,
                    duration_ns=span.duration_ns,
                    exclusive_ns=exclusive,
                ))
            path.by_category[span.category] = (
                path.by_category.get(span.category, 0) + exclusive
            )
            if child is None:
                break
            span = child
        path.total_ns += root.duration_ns
    return path


def mechanism_attribution(tracer: Any) -> Dict[str, Tuple[int, int]]:
    """Per-category ``(span count, self ns)`` via subtree recursion.

    Deliberately a different computation from the rollup's flat
    child-sum pass: each root's subtree is walked depth-first and every
    node's self time is its duration minus its direct children's.  Both
    routes must land on identical numbers — that is what
    :func:`reconcile_attribution` enforces.
    """
    spans = accountable_spans(tracer)
    children = _children_map(spans)
    totals: Dict[str, List[int]] = {}

    def visit(span: Span) -> None:
        direct = children.get(span.span_id, [])
        self_ns = span.duration_ns - sum(c.duration_ns for c in direct)
        bucket = totals.setdefault(span.category, [0, 0])
        bucket[0] += 1
        bucket[1] += self_ns
        for child in direct:
            visit(child)

    for span in spans:
        if span.parent_id is None:
            visit(span)
    return {
        category: (count, self_ns)
        for category, (count, self_ns) in totals.items()
    }


def reconcile_attribution(
    tracer: Any, total_ns: int, context: str = "critical_path attribution"
) -> List[RollupRow]:
    """Cross-check subtree attribution against the self-time rollup.

    Every rollup row (``untraced`` included) must match the independent
    attribution to the nanosecond and span; any discrepancy raises
    :class:`AccountingError` whose mismatches name the off-by rows as
    ``(row, recorded, expected)`` triples.  Returns the verified rollup
    rows on success, so report builders reconcile and render in one call.
    """
    rows = mechanism_rollup(tracer, total_ns)
    attribution = mechanism_attribution(tracer)
    traced_ns = sum(
        self_ns for _, self_ns in attribution.values()
    )
    mismatches: List[Tuple[str, int, int]] = []
    seen = set()
    for row in rows:
        if row.category == "untraced":
            expected = total_ns - traced_ns
            if row.self_ns != expected:
                mismatches.append(("untraced", row.self_ns, expected))
            continue
        seen.add(row.category)
        count, self_ns = attribution.get(row.category, (0, 0))
        if row.self_ns != self_ns:
            mismatches.append((row.category, row.self_ns, self_ns))
        if row.spans != count:
            mismatches.append((f"{row.category}/spans", row.spans, count))
    for category in sorted(set(attribution) - seen):
        mismatches.append((category, 0, attribution[category][1]))
    if mismatches:
        raise AccountingError(context, mismatches)
    return rows
