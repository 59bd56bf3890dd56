"""Simulated file system — the ``FILE`` storage class of Fig. 8.

A flat path → file map shared by every process of a simulated machine.
Framework APIs reach it through their execution context, which issues the
corresponding syscalls (``openat``/``read``/``write``/...) against the
calling process's filter first; the filesystem itself only stores payloads
and records an access log that the dynamic analysis consumes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List

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


@dataclass(frozen=True)
class FileAccess:
    """One read or write recorded in the access log."""

    pid: int
    path: str
    mode: str  # "read" | "write" | "unlink"
    nbytes: int
    seq: int


class SimFileSystem:
    """A machine-wide simulated filesystem."""

    def __init__(self) -> None:
        self._files: Dict[str, SimFile] = {}
        self._log: List[FileAccess] = []
        self._seq = itertools.count()
        self._tmp_counter = itertools.count()

    # ------------------------------------------------------------------
    # File operations
    # ------------------------------------------------------------------

    def write_file(self, path: str, payload: Any, pid: int = 0) -> SimFile:
        entry = self._files.get(path)
        if entry is None:
            entry = SimFile(path=path)
            self._files[path] = entry
        entry.update(payload)
        self._log.append(
            FileAccess(pid=pid, path=path, mode="write", nbytes=entry.nbytes,
                       seq=next(self._seq))
        )
        return entry

    def read_file(self, path: str, pid: int = 0) -> Any:
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundInSim(f"no such file: {path}")
        self._log.append(
            FileAccess(pid=pid, path=path, mode="read", nbytes=entry.nbytes,
                       seq=next(self._seq))
        )
        return entry.payload

    def stat(self, path: str) -> SimFile:
        entry = self._files.get(path)
        if entry is None:
            raise FileNotFoundInSim(f"no such file: {path}")
        return entry

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str, pid: int = 0) -> None:
        entry = self._files.pop(path, None)
        if entry is None:
            raise FileNotFoundInSim(f"no such file: {path}")
        self._log.append(
            FileAccess(pid=pid, path=path, mode="unlink", nbytes=entry.nbytes,
                       seq=next(self._seq))
        )

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def files(self) -> Iterator[SimFile]:
        return iter(list(self._files.values()))

    def tempfile(self, suffix: str = ".tmp") -> str:
        """Reserve a unique temporary path (used by copy-via-file APIs)."""
        return f"/tmp/sim-{next(self._tmp_counter)}{suffix}"

    # ------------------------------------------------------------------
    # Access log (consumed by dynamic analysis)
    # ------------------------------------------------------------------

    @property
    def access_log(self) -> List[FileAccess]:
        return list(self._log)

    def accesses_for(self, path: str) -> List[FileAccess]:
        return [a for a in self._log if a.path == path]

    def clear_log(self) -> None:
        self._log.clear()

    @property
    def total_bytes(self) -> int:
        return sum(f.nbytes for f in self._files.values())

    def snapshot_paths(self) -> Dict[str, int]:
        """Path → version map, used by tests to assert what changed."""
        return {path: f.version for path, f in self._files.items()}
