"""Simulated file system — the ``FILE`` storage class of Fig. 8.

A flat path → file map shared by every process of a simulated machine.
Framework APIs reach it through their execution context, which issues the
corresponding syscalls (``openat``/``read``/``write``/...) against the
calling process's filter first; the filesystem itself only stores
payloads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.errors import FileNotFoundInSim
from repro.sim.memory import payload_nbytes


@dataclass
class SimFile:
    """One file: a payload plus bookkeeping."""

    path: str
    payload: Any = None
    nbytes: int = 0
    version: int = 0  # bumped to 1 on the first write

    def update(self, payload: Any) -> None:
        self.payload = payload
        self.nbytes = payload_nbytes(payload)
        self.version += 1


class SimFileSystem:
    """A machine-wide simulated filesystem."""

    def __init__(self) -> None:
        self._files: Dict[str, SimFile] = {}
        self._tmp_counter = itertools.count()

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def write_file(self, path: str, payload: Any) -> SimFile:
        entry = self._files.get(path)
        if entry is None:
            entry = SimFile(path=path)
            self._files[path] = entry
        entry.update(payload)
        return entry

    def read_file(self, path: str) -> Any:
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundInSim(f"no such file: {path}")
        return entry.payload

    def stat(self, path: str) -> SimFile:
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundInSim(f"no such file: {path}")
        return entry

    def exists(self, path: str) -> bool:
        return path in self._files

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def tempfile(self, suffix: str = ".tmp") -> str:
        """Reserve a unique temporary path (used by copy-via-file APIs)."""
        return f"/tmp/sim-{next(self._tmp_counter)}{suffix}"
