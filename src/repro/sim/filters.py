"""seccomp-BPF-like per-process system-call filters.

Reproduces the three properties FreePart relies on (Section 4.4.1):

* an **allowlist** of syscall names — anything else kills the process;
* **NO_NEW_PRIVS sealing** — once installed, the filter cannot be loosened
  or replaced, so a compromised agent cannot re-enable ``mprotect``;
* **fd-argument checks** for device-capable syscalls (``ioctl``,
  ``connect``, ``select``, ``fcntl``): they may only operate on the file
  descriptors that were designated at install time;
* an **initialization grace phase** for syscalls that frameworks only need
  on their first execution (``mprotect`` to load libraries, ``connect`` to
  reach the GUI subsystem) — the paper "first executes all the framework
  APIs and then restricts them afterwards".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import FilterSealed, SyscallDenied
from repro.sim.syscalls import SYSCALL_TABLE, lookup


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of evaluating one syscall against a filter."""

    allowed: bool
    reason: str = ""


#: The one "allowed" decision every permitted syscall shares.
ALLOWED = FilterDecision(True)


class SyscallFilter:
    """An installable, sealable syscall allowlist for one process."""

    def __init__(
        self,
        allowed: Iterable[str] = (),
        init_only: Iterable[str] = (),
        allowed_fds: Optional[Iterable[int]] = None,
        allowed_path_prefixes: Optional[Iterable[str]] = None,
    ) -> None:
        self._allowed: Set[str] = set()
        self._init_only: Set[str] = set()
        self._allowed_fds: Optional[FrozenSet[int]] = (
            frozenset(allowed_fds) if allowed_fds is not None else None
        )
        self._allowed_path_prefixes: Optional[Tuple[str, ...]] = (
            tuple(allowed_path_prefixes)
            if allowed_path_prefixes is not None else None
        )
        self._sealed = False
        self._init_phase = True
        self.denials = 0
        for name in allowed:
            self.allow(name)
        for name in init_only:
            self.allow_during_init(name)

    # ------------------------------------------------------------------
    # Configuration (only before sealing)
    # ------------------------------------------------------------------

    def allow(self, name: str) -> None:
        """Add a syscall to the allowlist (validates the name)."""
        self._require_unsealed("allow")
        lookup(name)
        self._allowed.add(name)

    def allow_during_init(self, name: str) -> None:
        """Permit a syscall only while the initialization phase lasts."""
        self._require_unsealed("allow_during_init")
        lookup(name)
        self._init_only.add(name)

    def restrict_fds(self, fds: Iterable[int]) -> None:
        """Designate the only fds device-capable syscalls may touch."""
        self._require_unsealed("restrict_fds")
        self._allowed_fds = frozenset(fds)

    def restrict_paths(self, prefixes: Iterable[str]) -> None:
        """Designate the only path prefixes file syscalls may touch.

        This is the generalization of the paper's designated-files check:
        the runtime knows which parts of the (simulated) filesystem each
        agent type legitimately works with.
        """
        self._require_unsealed("restrict_paths")
        self._allowed_path_prefixes = tuple(prefixes)

    def seal(self) -> None:
        """Install the filter with NO_NEW_PRIVS: no further changes."""
        self._sealed = True

    def end_init_phase(self) -> None:
        """Close the initialization grace phase.

        Unlike configuration changes this *tightens* the filter, so it is
        permitted after sealing (the runtime support performs it once the
        first execution of every framework API has completed).
        """
        self._init_phase = False

    def _require_unsealed(self, operation: str) -> None:
        if self._sealed:
            raise FilterSealed(
                f"cannot {operation}: filter sealed with NO_NEW_PRIVS"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._sealed

    @property
    def in_init_phase(self) -> bool:
        return self._init_phase

    @property
    def allowed_names(self) -> FrozenSet[str]:
        return frozenset(self._allowed)

    @property
    def init_only_names(self) -> FrozenSet[str]:
        return frozenset(self._init_only)

    @property
    def allowed_fds(self) -> Optional[FrozenSet[int]]:
        return self._allowed_fds

    @property
    def allowed_path_prefixes(self) -> Optional[Tuple[str, ...]]:
        return self._allowed_path_prefixes

    def would_allow(
        self,
        name: str,
        fd: Optional[int] = None,
        path: Optional[str] = None,
    ) -> FilterDecision:
        """Evaluate a syscall without recording a denial."""
        entry = SYSCALL_TABLE.get(name) or lookup(name)  # lookup raises
        if name in self._allowed:
            permitted = True
        elif name in self._init_only and self._init_phase:
            permitted = True
        else:
            return FilterDecision(False, "not in allowlist")
        if permitted and entry.needs_fd_check and self._allowed_fds is not None:
            if fd is not None and fd not in self._allowed_fds:
                return FilterDecision(
                    False, f"fd {fd} not designated for {name}"
                )
        if (
            permitted
            and path is not None
            and self._allowed_path_prefixes is not None
            and entry.category == "file"
        ):
            if not any(path.startswith(p) for p in self._allowed_path_prefixes):
                return FilterDecision(
                    False, f"path {path!r} not designated for {name}"
                )
        return ALLOWED

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------

    def check(
        self,
        pid: int,
        name: str,
        fd: Optional[int] = None,
        path: Optional[str] = None,
    ) -> None:
        """Raise :class:`SyscallDenied` unless the call is permitted."""
        decision = self.would_allow(name, fd=fd, path=path)
        if not decision.allowed:
            self.denials += 1
            raise SyscallDenied(pid, name, decision.reason)


def permissive_filter() -> SyscallFilter:
    """A filter that allows every known syscall (host/unprotected runs)."""
    return SyscallFilter(allowed=SYSCALL_TABLE.keys())


@dataclass
class FilterSpec:
    """Declarative description of a filter, built by the policy layer."""

    allowed: FrozenSet[str] = frozenset()
    init_only: FrozenSet[str] = frozenset()
    allowed_fds: Optional[FrozenSet[int]] = None
    allowed_path_prefixes: Optional[Tuple[str, ...]] = None
    description: str = ""
    extras: dict = field(default_factory=dict)

    def build(self) -> SyscallFilter:
        return SyscallFilter(
            allowed=self.allowed,
            init_only=self.init_only,
            allowed_fds=self.allowed_fds,
            allowed_path_prefixes=self.allowed_path_prefixes,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (sorted; ``--emit-minimal-pools``)."""
        return {
            "allowed": sorted(self.allowed),
            "init_only": sorted(self.init_only),
            "allowed_fds": (
                sorted(self.allowed_fds)
                if self.allowed_fds is not None else None
            ),
            "allowed_path_prefixes": (
                list(self.allowed_path_prefixes)
                if self.allowed_path_prefixes is not None else None
            ),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FilterSpec":
        """Rebuild a spec emitted by :meth:`to_dict` (install path)."""
        fds = payload.get("allowed_fds")
        prefixes = payload.get("allowed_path_prefixes")
        return cls(
            allowed=frozenset(payload.get("allowed", ())),
            init_only=frozenset(payload.get("init_only", ())),
            allowed_fds=frozenset(fds) if fds is not None else None,
            allowed_path_prefixes=(
                tuple(prefixes) if prefixes is not None else None
            ),
            description=payload.get("description", ""),
        )
