"""Library-based isolation of individual APIs (Fig. 2-d, sandboxed-api).

Every framework API runs in its own sandboxed process with a tight
per-API syscall filter.  Security is strong — but the entire data of the
API's arguments and results is transferred between processes on every
call (the paper measures 203 transfers / 355 MB for a single 1.7 MB
image), which is where the 42.7 GB / >100% overhead row of Table 9 comes
from.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import Partitioned, TechniqueInfo
from repro.frameworks.base import FrameworkAPI
from repro.frameworks.registry import get_api
from repro.sim.filters import SyscallFilter


class IndividualApiIsolation(Partitioned):
    """One sandbox process per framework API."""

    info = TechniqueInfo(
        key="lib_individual",
        label="Library-based isolation (individual APIs)",
        figure="2-d",
    )

    eager_data_copies = True

    def _partition_key(self, api: FrameworkAPI) -> Optional[str]:
        return api.spec.qualname

    def _worker_filter(self, key: str) -> Optional[SyscallFilter]:
        """Tight per-API allowlist (the sandbox knows the one API it runs)."""
        spec = self._spec_for(key)
        if spec is None:
            return None
        allowed = set(spec.syscalls) | set(spec.init_syscalls)
        allowed.add("exit_group")
        built = SyscallFilter(allowed=allowed)
        built.seal()
        return built

    def _spec_for(self, qualname: str):
        for record in self.stats.calls[::-1]:
            if record.qualname == qualname:
                return get_api(record.framework, record.name).spec
        return None

    def api_process_count(self) -> int:
        """How many sandbox processes exist (Table 10's 86/87 column)."""
        return len(self._workers)
