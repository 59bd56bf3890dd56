"""seccomp-BPF-like per-process system-call filters.

Reproduces the four properties FreePart relies on (Section 4.4.1):

* an **allowlist** of syscall names — anything else kills the process;
* **NO_NEW_PRIVS** — a filter is fixed when it is built: it has no call
  that adds a name or drops an argument check, so a compromised agent
  cannot re-enable ``mprotect``; the only change it ever sees is the end
  of the init phase, which tightens it;
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
from functools import lru_cache
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.errors import SyscallDenied
from repro.sim.syscalls import FD_CHECKED_SYSCALLS, SYSCALL_TABLE, lookup

#: Every known syscall: the one allowlist all permissive filters share.
ALL_SYSCALLS: FrozenSet[str] = frozenset(SYSCALL_TABLE)

#: The syscalls a path-prefix restriction applies to.
FILE_SYSCALLS: FrozenSet[str] = frozenset(
    name for name, entry in SYSCALL_TABLE.items() if entry.category == "file"
)


@dataclass(frozen=True)
class FilterDecision:
    """Outcome of evaluating one syscall against a filter."""

    allowed: bool
    reason: str = ""


#: The one "allowed" decision every permitted syscall shares.
ALLOWED = FilterDecision(True)


class SyscallFilter:
    """An installed syscall allowlist for one process, fixed when built.

    ``unchecked_names`` is the compiled form of the filter for its current
    phase: the names that pass whatever their arguments.  A name outside
    it may still pass, but only :meth:`would_allow` can tell.
    """

    def __init__(
        self,
        allowed: Iterable[str] = (),
        init_only: Iterable[str] = (),
        allowed_fds: Optional[Iterable[int]] = None,
        allowed_path_prefixes: Optional[Iterable[str]] = None,
    ) -> None:
        # ``frozenset`` of a frozenset is that same object, so the filters
        # built from one spec (and every permissive filter) share their
        # name sets.
        allowed, init_only = frozenset(allowed), frozenset(init_only)
        unknown = (allowed | init_only) - ALL_SYSCALLS
        if unknown:
            lookup(min(unknown))  # raises UnknownSyscall
        self._allowed: FrozenSet[str] = allowed
        self._init_only: FrozenSet[str] = init_only
        self._allowed_fds: Optional[FrozenSet[int]] = (
            frozenset(allowed_fds) if allowed_fds is not None else None
        )
        self._allowed_path_prefixes: Optional[Tuple[str, ...]] = (
            tuple(allowed_path_prefixes)
            if allowed_path_prefixes is not None else None
        )
        self._init_phase = True
        self.denials = 0
        self.unchecked_names = self._compile()

    def _compile(self) -> FrozenSet[str]:
        return _unchecked_names(
            self._allowed,
            self._init_only if self._init_phase else frozenset(),
            self._allowed_fds is not None,
            self._allowed_path_prefixes is not None,
        )

    def end_init_phase(self) -> None:
        """Close the initialization grace phase.

        This only ever *tightens* the filter (the runtime support performs
        it once the first execution of every framework API has completed),
        and it is the one change a built filter allows.
        """
        self._init_phase = False
        self.unchecked_names = self._compile()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def in_init_phase(self) -> bool:
        return self._init_phase

    @property
    def allowed_names(self) -> FrozenSet[str]:
        return self._allowed

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


@lru_cache(maxsize=256)
def _unchecked_names(
    allowed: FrozenSet[str],
    init_only: FrozenSet[str],
    fd_checked: bool,
    path_checked: bool,
) -> FrozenSet[str]:
    """The names :meth:`SyscallFilter.would_allow` passes with no
    argument check, for one phase.

    Memoised on the name sets, so every filter of one spec, in one
    phase, holds the same set (for a permissive filter, the allowlist
    itself); the keys are the specs' own sets.
    """
    names = allowed | init_only if init_only else allowed
    if fd_checked:
        names = names - FD_CHECKED_SYSCALLS
    if path_checked:
        names = names - FILE_SYSCALLS
    return names


def permissive_filter() -> SyscallFilter:
    """A filter that allows every known syscall (host/unprotected runs)."""
    return SyscallFilter(allowed=ALL_SYSCALLS)


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
