"""System-call restriction policy (Section 4.4.1, Table 7, Fig. 12).

Builds the seccomp-like :class:`~repro.sim.filters.FilterSpec` for each
agent partition:

* **allowlist** = the union of the required syscalls of the partition's
  APIs, widened to the framework-wide per-type pool (Table 7) — exactly
  the paper's "union of required system calls for all framework APIs
  within an agent process";
* **init-only** syscalls (``mprotect`` for library loading, ``connect``
  for the GUI/network handshake) permitted only during the first
  execution phase;
* **fd restrictions** for device-capable calls: each agent may only apply
  ``ioctl``/``connect``/``select``/``fcntl`` to the devices its type
  legitimately talks to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.apitypes import APIType
from repro.core.hybrid import CategorizedAPI, Categorization
from repro.core.partitioner import Partition
from repro.frameworks.syscall_pools import INIT_ONLY_SYSCALLS, pool_for
from repro.sim.devices import CAMERA_FD, GUI_SOCKET_FD, NETWORK_FD
from repro.sim.filters import FilterSpec

#: Designated device fds per API type (the fd-argument restriction).
DESIGNATED_FDS: Dict[APIType, FrozenSet[int]] = {
    APIType.LOADING: frozenset({CAMERA_FD, NETWORK_FD}),
    APIType.PROCESSING: frozenset(),
    APIType.VISUALIZING: frozenset({GUI_SOCKET_FD}),
    APIType.STORING: frozenset(),
}


def required_syscalls(entries: Iterable[CategorizedAPI]) -> FrozenSet[str]:
    """Union of the per-API steady-state syscall profiles (Fig. 12-b)."""
    union: Set[str] = set()
    for entry in entries:
        union.update(entry.syscalls)
    return frozenset(union)


def init_syscalls(entries: Iterable[CategorizedAPI]) -> FrozenSet[str]:
    """Union of init-only syscalls (always includes mprotect/connect)."""
    union: Set[str] = set(INIT_ONLY_SYSCALLS)
    for entry in entries:
        union.update(entry.init_syscalls)
    return frozenset(union)


def filter_spec_for_partition(
    partition: Partition,
    categorization: Categorization,
    widen_to_pool: bool = True,
    path_prefixes: Optional[Tuple[str, ...]] = None,
) -> FilterSpec:
    """The allowlist filter one agent process gets installed with.

    ``path_prefixes`` optionally designates the filesystem regions this
    agent's file syscalls may touch (the generalized designated-files
    check of Section 4.4.1).
    """
    entries = [
        categorization.get(qualname)
        for qualname in partition.qualnames
        if qualname in categorization
    ]
    allowed: Set[str] = set(required_syscalls(entries))
    if widen_to_pool:
        allowed.update(pool_for(partition.api_type))
    init_only = set(init_syscalls(entries)) - allowed
    fds = DESIGNATED_FDS.get(partition.api_type, frozenset())
    return FilterSpec(
        allowed=frozenset(allowed),
        init_only=frozenset(init_only),
        allowed_fds=fds if fds else None,
        allowed_path_prefixes=path_prefixes,
        description=f"agent filter for {partition.label}",
    )


@dataclass(frozen=True)
class PolicyReport:
    """Summary of the syscall policy for reporting (Table 7)."""

    per_type_allowed: Dict[APIType, Tuple[str, ...]]
    per_type_counts: Dict[APIType, int]

    def format_rows(self) -> List[str]:
        rows = []
        labels = {
            APIType.LOADING: "Loading",
            APIType.PROCESSING: "Processing",
            APIType.VISUALIZING: "Visualizing",
            APIType.STORING: "Storing",
        }
        for api_type, label in labels.items():
            allowed = self.per_type_allowed[api_type]
            preview = ", ".join(allowed[:9])
            rows.append(f"{label} ({len(allowed)})  {preview}, ...")
        return rows


def policy_report() -> PolicyReport:
    """The Table 7 per-type allowlists (pool sizes 43/22/56/27)."""
    per_type_allowed = {
        api_type: tuple(sorted(pool_for(api_type)))
        for api_type in (
            APIType.LOADING, APIType.PROCESSING,
            APIType.VISUALIZING, APIType.STORING,
        )
    }
    per_type_counts = {t: len(v) for t, v in per_type_allowed.items()}
    return PolicyReport(per_type_allowed=per_type_allowed,
                        per_type_counts=per_type_counts)


#: Syscalls attack payloads characteristically need; used by tests to
#: assert the policy denies them where the paper says it does.
ATTACK_SYSCALLS = {
    "code_rewrite": ("mprotect",),
    "exfiltration": ("sendto", "sendmsg", "write"),
    "fork_bomb": ("fork", "clone", "execve"),
    "shared_memory_tamper": ("shm_open",),
}
