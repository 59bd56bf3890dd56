"""Partition-aware placement: which node runs which agent partition.

A :class:`Placement` maps partition labels (``loading``, ``processing``,
...) to node indices.  The policy input is *affinity*: partitions a host
function uses together exchange object references, and a reference that
crosses a node boundary cannot be remapped zero-copy — it falls back to
a framed byte-copy over the wire.  :func:`affinity_groups` derives the
must-co-locate sets from ``staticcheck``'s inferred per-function plans
(:meth:`~repro.staticcheck.inference.FunctionReport.agents_used`), and
:func:`check_placement` rejects any placement that splits a group,
unless the caller explicitly opts into paying the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple,
)

from repro.core.partitioner import PartitionPlan
from repro.errors import PlacementError

if TYPE_CHECKING:
    from repro.staticcheck.privileges import AgentPrivilege


@dataclass(frozen=True)
class Placement:
    """An immutable partition-label -> node-index assignment."""

    assignments: Tuple[Tuple[str, int], ...]

    @classmethod
    def of(cls, mapping: Dict[str, int]) -> "Placement":
        return cls(tuple(sorted(mapping.items())))

    def node_for(self, label: str) -> int:
        for name, node in self.assignments:
            if name == label:
                return node
        raise PlacementError(f"partition {label!r} is not placed")

    def labels_on(self, node: int) -> List[str]:
        return [name for name, where in self.assignments if where == node]

    def nodes_used(self) -> List[int]:
        return sorted({node for _, node in self.assignments})

    def to_dict(self) -> Dict[str, int]:
        return dict(self.assignments)


def affinity_placement(plan: PartitionPlan, node: int = 0) -> Placement:
    """Co-locate every partition on one node (zero cross-node derefs)."""
    return Placement.of(
        {partition.label: node for partition in plan.partitions}
    )


def spread_placement(plan: PartitionPlan, node_count: int) -> Placement:
    """Round-robin partitions across nodes — deliberately ignores
    affinity, the worst case the placement tests measure against."""
    if node_count < 1:
        raise PlacementError(f"node count must be >= 1, got {node_count}")
    return Placement.of({
        partition.label: partition.index % node_count
        for partition in plan.partitions
    })


def affinity_groups(
    reports: Iterable,
) -> List[FrozenSet[str]]:
    """Must-co-locate partition sets from staticcheck function reports.

    Each function's :meth:`agents_used` set is one co-location
    constraint (its call chain passes references between exactly those
    agents); overlapping constraints merge transitively (union-find).
    Returns deterministically sorted frozensets.
    """
    parent: Dict[str, str] = {}

    def find(label: str) -> str:
        parent.setdefault(label, label)
        while parent[label] != label:
            parent[label] = parent[parent[label]]
            label = parent[label]
        return label

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            # Deterministic representative: the lexicographically least.
            low, high = sorted((root_a, root_b))
            parent[high] = low

    for report in reports:
        used = sorted(report.agents_used())
        for label in used[1:]:
            union(used[0], label)
        for label in used[:1]:
            find(label)

    groups: Dict[str, List[str]] = {}
    for label in parent:
        groups.setdefault(find(label), []).append(label)
    return sorted(
        (frozenset(members) for members in groups.values()),
        key=lambda group: sorted(group),
    )


def inferred_affinity_groups(paths: Sequence[str]) -> List[FrozenSet[str]]:
    """Affinity groups inferred from real host-program sources.

    Runs the staticcheck callgraph builder + partition inferencer over
    each file and merges every function's agent set — the bridge from
    "what the lint sees" to "what placement must respect".
    """
    from repro.staticcheck.callgraph import build_module
    from repro.staticcheck.inference import PartitionInferencer

    reports = []
    for path in paths:
        summary = build_module(path)
        reports.extend(PartitionInferencer(summary).infer().values())
    return affinity_groups(reports)


def placement_violations(
    placement: Placement, groups: Iterable[FrozenSet[str]]
) -> List[str]:
    """Human-readable description of every split affinity group."""
    violations = []
    for group in groups:
        placed = sorted(
            label for label in group
            if any(name == label for name, _ in placement.assignments)
        )
        if len(placed) < 2:
            continue
        nodes = sorted({placement.node_for(label) for label in placed})
        if len(nodes) > 1:
            violations.append(
                f"affinity group {{{', '.join(sorted(group))}}} is split "
                f"across nodes {nodes} — every LDC deref between them "
                "becomes a framed inter-node byte copy"
            )
    return violations


def check_placement(
    placement: Placement,
    groups: Iterable[FrozenSet[str]],
    allow_split: bool = False,
) -> None:
    """Raise :class:`~repro.errors.PlacementError` on split affinity
    groups (unless the caller opted into paying the wire)."""
    violations = placement_violations(placement, groups)
    if violations and not allow_split:
        raise PlacementError("; ".join(violations))


def exposure_by_node(
    placement: Placement, privileges: Dict[str, "AgentPrivilege"]
) -> Dict[int, int]:
    """Syscall attack surface per node: |union of co-located budgets|.

    Two partitions on one node share a kernel; a compromise of either
    agent can attempt every syscall any co-located filter allows, so the
    node's exposure is the size of the *union* of the minimal budgets
    (allowed + init-only) of everything placed there.
    """
    unions: Dict[int, set] = {}
    for label, node in placement.assignments:
        privilege = privileges.get(label)
        if privilege is None:
            continue
        budget = unions.setdefault(node, set())
        budget.update(privilege.minimal_allowed())
        budget.update(privilege.minimal_init_only())
    return {node: len(budget) for node, budget in sorted(unions.items())}


def privilege_placement(
    privileges: Dict[str, "AgentPrivilege"],
    node_count: int,
    groups: Iterable[FrozenSet[str]] = (),
) -> Placement:
    """Place partitions to minimize worst-node syscall exposure.

    Affinity groups stay whole (each is one placement unit; splitting a
    group pays the inter-node byte-copy wire, which dominates any
    security score).  Units are placed greedily in descending privilege
    weight, each onto the node whose budget union grows the least —
    heavy, overlapping privilege sets gravitate together while disjoint
    ones spread, bounding what one kernel compromise can reach.
    Deterministic: ties break on lowest node index, units of equal
    weight on label order.
    """
    if node_count < 1:
        raise PlacementError(f"node count must be >= 1, got {node_count}")

    def budget_of(label: str) -> FrozenSet[str]:
        privilege = privileges.get(label)
        if privilege is None:
            return frozenset()
        return privilege.minimal_allowed() | privilege.minimal_init_only()

    # Fold each label into its (merged) affinity unit.
    unit_of: Dict[str, FrozenSet[str]] = {}
    for group in affinity_groups(
        [_FakeReport(group) for group in groups]
    ) if groups else []:
        for label in group:
            unit_of[label] = group
    for label in privileges:
        unit_of.setdefault(label, frozenset({label}))

    units: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
    for unit in sorted(set(unit_of.values()), key=lambda u: sorted(u)):
        combined: set = set()
        for label in unit:
            combined |= budget_of(label)
        units.append((unit, frozenset(combined)))
    units.sort(key=lambda item: (-len(item[1]), sorted(item[0])))

    node_budgets: List[set] = [set() for _ in range(node_count)]
    assignment: Dict[str, int] = {}
    for unit, budget in units:
        best, best_score = 0, None
        for node in range(node_count):
            resulting = [len(existing) for existing in node_budgets]
            resulting[node] = len(node_budgets[node] | budget)
            # Minimize the worst node's exposure after this placement;
            # on ties, the smallest union growth, then the lowest index.
            score = (
                max(resulting),
                len(budget - node_budgets[node]),
                node,
            )
            if best_score is None or score < best_score:
                best, best_score = node, score
        node_budgets[best].update(budget)
        for label in sorted(unit):
            assignment[label] = best
    return Placement.of(assignment)


class _FakeReport:
    """Adapter: a raw label set quacking like a FunctionReport."""

    def __init__(self, labels: FrozenSet[str]) -> None:
        self._labels = set(labels)

    def agents_used(self) -> set:
        """The co-location constraint this pseudo-report carries."""
        return set(self._labels)
