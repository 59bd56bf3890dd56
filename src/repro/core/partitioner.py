"""Execution partitioning (Sections 3.2 and Fig. 4).

The default plan is the paper's four-way split — one agent process per
API type, plus the host program process.  For the partition-count
sensitivity study (Fig. 4) plans with k > 4 partitions are generated by
randomly splitting the data-processing agent, exactly as the paper does
("we create 7,750 different partitions (randomly created) for each
number of partitions from 5 to 25").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.apitypes import APIType, CONCRETE_TYPES
from repro.core.hybrid import Categorization
from repro.errors import ReproError


@dataclass(frozen=True)
class Partition:
    """One agent process worth of APIs."""

    index: int
    label: str
    api_type: APIType           # the dominant type (drives the syscall pool)
    qualnames: Tuple[str, ...]  # concrete APIs pinned to this partition

    def __len__(self) -> int:
        return len(self.qualnames)


@dataclass
class PartitionPlan:
    """A full assignment of categorized APIs to partitions."""

    partitions: Tuple[Partition, ...]
    assignment: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.assignment:
            self.assignment = {
                qualname: partition.index
                for partition in self.partitions
                for qualname in partition.qualnames
            }

    def partition_of(self, qualname: str) -> Optional[Partition]:
        index = self.assignment.get(qualname)
        if index is None:
            return None
        return self.partitions[index]

    def partition_for_type(self, api_type: APIType) -> Partition:
        """The canonical partition for a type (used for neutral routing)."""
        for partition in self.partitions:
            if partition.api_type is api_type:
                return partition
        raise ReproError(f"plan has no partition of type {api_type}")

    def sizes(self) -> List[int]:
        return [len(p) for p in self.partitions]


def four_way_plan(categorization: Categorization) -> PartitionPlan:
    """The paper's default plan: one partition per concrete API type.

    Neutral APIs are not pinned — the runtime routes them to the agent of
    the current framework state (Section 4.2, type-neutral APIs).
    """
    partitions = []
    for index, api_type in enumerate(CONCRETE_TYPES):
        members = tuple(
            sorted(e.qualname for e in categorization.of_type(api_type))
        )
        partitions.append(
            Partition(
                index=index,
                label=api_type.value,
                api_type=api_type,
                qualnames=members,
            )
        )
    return PartitionPlan(partitions=tuple(partitions))


def split_processing_plan(
    categorization: Categorization,
    k: int,
    rng: Optional[random.Random] = None,
) -> PartitionPlan:
    """A k-partition plan: the 3 non-processing agents plus ``k - 3``
    random slices of the data-processing APIs.

    ``k = 4`` reduces to the default plan (single processing slice).
    """
    if k < 4:
        raise ReproError(f"need at least 4 partitions, got {k}")
    rng = rng if rng is not None else random.Random(0)
    processing = sorted(e.qualname for e in categorization.of_type(APIType.PROCESSING))
    slices = k - 3
    if slices > max(len(processing), 1):
        raise ReproError(
            f"cannot split {len(processing)} processing APIs into {slices} partitions"
        )
    shuffled = list(processing)
    rng.shuffle(shuffled)
    # Random split points give non-uniform (but never empty) groups.
    groups: List[List[str]] = [[] for _ in range(slices)]
    for position, qualname in enumerate(shuffled[:slices]):
        groups[position].append(qualname)
    for qualname in shuffled[slices:]:
        groups[rng.randrange(slices)].append(qualname)

    partitions: List[Partition] = []
    index = 0
    for api_type in (APIType.LOADING,):
        partitions.append(Partition(
            index=index, label=api_type.value, api_type=api_type,
            qualnames=tuple(sorted(
                e.qualname for e in categorization.of_type(api_type)
            )),
        ))
        index += 1
    for slot, group in enumerate(groups):
        partitions.append(Partition(
            index=index,
            label=f"{APIType.PROCESSING.value}#{slot}",
            api_type=APIType.PROCESSING,
            qualnames=tuple(sorted(group)),
        ))
        index += 1
    for api_type in (APIType.VISUALIZING, APIType.STORING):
        partitions.append(Partition(
            index=index, label=api_type.value, api_type=api_type,
            qualnames=tuple(sorted(
                e.qualname for e in categorization.of_type(api_type)
            )),
        ))
        index += 1
    return PartitionPlan(partitions=tuple(partitions))


def sub_partition_plan(
    categorization: Categorization,
    subdivisions: Dict[APIType, Sequence[Sequence[str]]],
) -> PartitionPlan:
    """Manually sub-partition agents (Appendix A.6).

    ``subdivisions`` maps an API type to explicit groups of qualnames;
    each group becomes its own agent process (enabling tighter, per-group
    syscall filters), and any of the type's APIs not named fall into a
    remainder group.  Types not mentioned keep their single agent.

    Example — Fig. 12's two data-loading agents::

        sub_partition_plan(cat, {APIType.LOADING: [
            ["cv2.CascadeClassifier_load"],
            ["cv2.VideoCapture", "cv2.VideoCapture_read"],
        ]})
    """
    partitions: List[Partition] = []
    index = 0
    for api_type in CONCRETE_TYPES:
        members = sorted(e.qualname for e in categorization.of_type(api_type))
        groups = subdivisions.get(api_type)
        if not groups:
            partitions.append(Partition(
                index=index, label=api_type.value, api_type=api_type,
                qualnames=tuple(members),
            ))
            index += 1
            continue
        member_set = set(members)
        assigned: List[str] = []
        for slot, group in enumerate(groups):
            unknown = [q for q in group if q not in member_set]
            if unknown:
                raise ReproError(
                    f"sub-partition of {api_type.value} names APIs not of "
                    f"that type: {unknown}"
                )
            duplicated = [q for q in group if q in assigned]
            if duplicated:
                raise ReproError(
                    f"APIs assigned to two sub-partitions: {duplicated}"
                )
            assigned.extend(group)
            partitions.append(Partition(
                index=index, label=f"{api_type.value}#{slot}",
                api_type=api_type, qualnames=tuple(sorted(group)),
            ))
            index += 1
        remainder = tuple(sorted(member_set - set(assigned)))
        if remainder:
            partitions.append(Partition(
                index=index, label=f"{api_type.value}#rest",
                api_type=api_type, qualnames=remainder,
            ))
            index += 1
    return PartitionPlan(partitions=tuple(partitions))


def apis_split_across(
    plan: PartitionPlan, qualname_a: str, qualname_b: str
) -> bool:
    """True when two APIs land in different partitions under ``plan``."""
    return plan.assignment.get(qualname_a) != plan.assignment.get(qualname_b)


def granularity_stats(plan: PartitionPlan) -> Dict[str, float]:
    """Min/max/stddev of APIs per partition (Table 1's granularity columns)."""
    import math

    sizes = plan.sizes()
    if not sizes:
        return {"min": 0, "max": 0, "stddev": 0.0, "processes": 0}
    mean = sum(sizes) / len(sizes)
    variance = sum((s - mean) ** 2 for s in sizes) / len(sizes)
    return {
        "min": min(sizes),
        "max": max(sizes),
        "stddev": math.sqrt(variance),
        "processes": len(sizes) + 1,  # + the host program process
    }
