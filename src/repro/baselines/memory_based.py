"""Memory-based isolation (Wedge-style [11]): permissions, no processes.

A single process; a (sophisticated) data-dependency analysis marks the
annotated critical variables read-only once they are initialized.  Memory
corruption of those variables traps — but the APIs' execution is not
isolated at all, so a DoS payload still takes the whole application down
and compromised API code keeps every ambient privilege.
"""

from __future__ import annotations

from typing import Any

from repro.baselines.base import TechniqueInfo
from repro.core.gateway import NativeGateway
from repro.sim.memory import Buffer, Permission


class MemoryBasedIsolation(NativeGateway):
    """Single-process, read-only critical data."""

    info = TechniqueInfo(
        key="memory_based", label="Memory-based data isolation", figure="-"
    )

    #: Variables the dependency analysis proved are never legitimately
    #: written after initialization.
    PROTECTED_TAGS = frozenset({
        "template.QBlocks.orig", "template", "answers", "self.speed",
        "userprofile",
    })

    def host_alloc(self, tag: str, payload: Any) -> Buffer:
        buffer = super().host_alloc(tag, payload)
        if tag in self.PROTECTED_TAGS:
            self.host.memory.protect_buffer(buffer.buffer_id, Permission.ro())
        return buffer

    @property
    def process_count(self) -> int:
        return 1

    def total_crashes(self) -> int:
        return 1 if not self.host.alive else 0

    def total_restarts(self) -> int:
        return 0
