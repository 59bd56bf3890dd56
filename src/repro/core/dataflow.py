"""The data-flow formalism of Fig. 8 and the categorization rules of Fig. 9.

Operations are modeled as ``W(S_dst, R(S_src))`` over four storage
classes: ``MEM``, ``FILE``, ``DEV``, ``GUI``.  A bare ``R(GUI)`` (reading
GUI state without writing anywhere observable) also occurs and is
represented by a flow with no destination.

This module also implements the *memory-copy-via-files* reduction of
Section 4.2.1: a write to a temporary file that is later read back is
collapsed into a memory-to-memory flow, so download-then-load APIs such as
``tf.keras.utils.get_file()`` categorize as data loading instead of
storing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.apitypes import APIType


class Storage(enum.Enum):
    """Origins/destinations of data (Fig. 8)."""

    MEM = "mem"
    FILE = "file"
    DEV = "dev"
    GUI = "gui"


@dataclass(frozen=True)
class Flow:
    """One data-transfer operation.

    ``dest=None`` encodes a bare read (``R(GUI)``), which Fig. 9 counts as
    a visualizing pattern.  ``label`` identifies a *specific* storage
    instance (e.g. a particular temporary file) so the file-copy reduction
    can pair the write with the read-back.
    """

    source: Storage
    dest: Optional[Storage] = Storage.MEM
    label: str = ""
    nbytes: int = 0

    def __str__(self) -> str:
        suffix = f"[{self.label}]" if self.label else ""
        if self.dest is None:
            return f"R({self.source.value}{suffix})"
        return f"W({self.dest.value}, R({self.source.value}{suffix}))"


def read(source: Storage, label: str = "", nbytes: int = 0) -> Flow:
    """A bare read operation ``R(source)``."""
    return Flow(source=source, dest=None, label=label, nbytes=nbytes)


def write(dest: Storage, source: Storage, label: str = "", nbytes: int = 0) -> Flow:
    """A transfer operation ``W(dest, R(source))``."""
    return Flow(source=source, dest=dest, label=label, nbytes=nbytes)


def process_flow(label: str = "") -> Flow:
    """W(MEM, R(MEM)) — the data-processing pattern."""
    return write(Storage.MEM, Storage.MEM, label=label)


def reduce_file_copies(flows: Sequence[Flow]) -> List[Flow]:
    """Collapse copy-via-temporary-file patterns into MEM→MEM flows.

    A pair ``W(FILE[x], R(MEM))`` followed by ``W(MEM, R(FILE[x]))`` on a
    *labelled* file instance is a data hand-off through storage, not a
    storing + loading pair; both flows are replaced by a single
    ``W(MEM, R(MEM))``.  Unlabelled file flows (real input/output files)
    are never reduced.
    """
    flows = list(flows)
    reduced: List[Flow] = []
    consumed: Set[int] = set()
    for i, flow in enumerate(flows):
        if i in consumed:
            continue
        is_tmp_store = (
            flow.dest is Storage.FILE
            and flow.source is Storage.MEM
            and flow.label != ""
        )
        if is_tmp_store:
            for j in range(i + 1, len(flows)):
                later = flows[j]
                if (
                    j not in consumed
                    and later.dest is Storage.MEM
                    and later.source is Storage.FILE
                    and later.label == flow.label
                ):
                    consumed.add(j)
                    reduced.append(process_flow(label=flow.label))
                    break
            else:
                reduced.append(flow)
        else:
            reduced.append(flow)
    return reduced


def categorize_flows(flows: Sequence[Flow]) -> Optional[APIType]:
    """Apply the Fig. 9 rules to a (reduced) flow set.

    Rules, in the order the paper states them:

    1. any ``W(MEM, R(FILE|DEV))`` → data loading;
    2. only ``W(MEM, R(MEM))`` operations → data processing;
    3. any GUI-touching flow (``W(GUI, ·)``, ``W(·, R(GUI))``, ``R(GUI)``)
       → visualizing;
    4. any ``W(FILE|DEV, R(MEM))`` → storing.

    Visualizing is checked first because GUI access is the distinguishing
    feature even when memory flows are also present; then loading, then
    storing, then the pure-processing fallback.  Returns ``None`` for an
    empty flow set (uncategorizable without more evidence).
    """
    flows = reduce_file_copies(flows)
    if not flows:
        return None

    def touches_gui(flow: Flow) -> bool:
        return flow.dest is Storage.GUI or flow.source is Storage.GUI

    if any(touches_gui(f) for f in flows):
        return APIType.VISUALIZING
    if any(
        f.dest is Storage.MEM and f.source in (Storage.FILE, Storage.DEV)
        for f in flows
    ):
        return APIType.LOADING
    if any(
        f.dest in (Storage.FILE, Storage.DEV) and f.source is Storage.MEM
        for f in flows
    ):
        return APIType.STORING
    if all(
        f.dest is Storage.MEM and f.source is Storage.MEM for f in flows
    ):
        return APIType.PROCESSING
    return None


@dataclass
class FlowTrace:
    """An ordered, appendable collection of observed flows."""

    flows: List[Flow] = field(default_factory=list)

    def record(self, flow: Flow) -> None:
        self.flows.append(flow)

    def extend(self, flows: Iterable[Flow]) -> None:
        self.flows.extend(flows)

    def categorize(self) -> Optional[APIType]:
        return categorize_flows(self.flows)

    def distinct(self) -> Tuple[Flow, ...]:
        """Flows deduplicated by (source, dest, label), order-preserving."""
        seen = set()
        unique: List[Flow] = []
        for flow in self.flows:
            key = (flow.source, flow.dest, flow.label)
            if key not in seen:
                seen.add(key)
                unique.append(flow)
        return tuple(unique)
