"""Per-tenant isolation bookkeeping for the shared-agent serving layer.

Pooled agents hold objects minted for *many* tenants in one address
space, so the one-shot runtime's security argument — an ObjectRef only
dereferences in the process that minted it — is no longer enough: tenant
B could replay a ref that tenant A's request minted and read A's data
out of the shared agent.

The registry closes that hole.  Every ref a tenant's request produces is
recorded under that tenant's namespace; every ref a request *presents*
is checked against the namespace before it touches an agent.  A ref the
tenant does not own — another tenant's, a forged one, or one from a
pre-restart generation the registry has evicted — raises
:class:`TenantIsolationError` and the request is rejected, preserving
the paper's isolation guarantee under sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Tuple

from repro.core.rpc import ObjectRef, RemoteHandle
from repro.errors import TenantIsolationError
from repro.sim.process import SimProcess

#: The namespace key under which a ref is owned and checked: its
#: ``(owner_pid, owner_generation, buffer_id)``.
RefKey = Tuple[int, int, int]


@dataclass
class Tenant:
    """One tenant of the pipeline server."""

    tenant_id: str
    host: SimProcess
    requests_failed: int = 0
    isolation_violations: int = 0
    #: Requests shed by an open circuit breaker (counted in
    #: requests_failed too; no agent ever saw them).
    requests_degraded: int = 0


@dataclass
class TenantRegistry:
    """Machine-wide map from minted ObjectRefs to their owning tenant."""

    _owners: Dict[RefKey, str] = field(default_factory=dict)
    minted: int = 0
    checks: int = 0
    violations: int = 0

    def mint(self, tenant_id: str, ref: ObjectRef) -> ObjectRef:
        """Record a freshly minted ref under the tenant's namespace.

        A key another tenant holds is never handed over: minting it
        raises :class:`TenantIsolationError`.
        """
        key = (ref.owner_pid, ref.owner_generation, ref.buffer_id)
        owner = self._owners.setdefault(key, tenant_id)
        if owner != tenant_id:
            self.violations += 1
            raise TenantIsolationError(
                f"tenant {tenant_id!r} cannot mint a ref owned by tenant "
                f"{owner!r} (pid={ref.owner_pid}, gen={ref.owner_generation}, "
                f"buf={ref.buffer_id})"
            )
        self.minted += 1
        return ref

    def check(self, tenant_id: str, ref: ObjectRef) -> None:
        """Raise unless ``tenant_id`` owns the ref.

        Unknown refs fail too: a forged or stale (pre-restart) reference
        must not fall through to the agent's own store, whose error would
        leak whether the buffer id was ever live.
        """
        self.checks += 1
        owner = self._owners.get(
            (ref.owner_pid, ref.owner_generation, ref.buffer_id)
        )
        if owner != tenant_id:
            self.violations += 1
            if owner is None:
                raise TenantIsolationError(
                    f"tenant {tenant_id!r} presented an unknown ref "
                    f"(pid={ref.owner_pid}, gen={ref.owner_generation}, "
                    f"buf={ref.buffer_id}): forged or stale"
                )
            raise TenantIsolationError(
                f"tenant {tenant_id!r} presented a ref owned by tenant "
                f"{owner!r}: cross-tenant access denied"
            )

    def check_value(self, tenant_id: str, value: Any) -> None:
        """Recursively check every ref/handle inside an argument value."""
        if isinstance(value, RemoteHandle):
            self.check(tenant_id, value.ref)
        elif isinstance(value, ObjectRef):
            self.check(tenant_id, value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self.check_value(tenant_id, item)
        elif isinstance(value, dict):
            for item in value.values():
                self.check_value(tenant_id, item)

    def forget(self, refs: Iterable[ObjectRef]) -> None:
        """Drop the keys of refs whose objects are being released: a
        ref kept past its last handle then fails :meth:`check` as
        unknown."""
        owners = self._owners
        for ref in refs:
            owners.pop(
                (ref.owner_pid, ref.owner_generation, ref.buffer_id), None
            )

    def evict_generation(self, pid: int, generation: int) -> int:
        """Drop every ref minted by a (pid, generation) address space.

        Called when a pooled agent restarts: the old generation's buffers
        are gone, so the refs must stop resolving for *everyone* —
        including their owner, who sees the crash as data loss, exactly
        like the one-shot runtime's post-restart StaleObjectRef."""
        doomed = [
            key for key in self._owners
            if key[0] == pid and key[1] == generation
        ]
        for key in doomed:
            del self._owners[key]
        return len(doomed)

    def stale_keys(self, processes) -> list:
        """Registered ref keys whose (pid, generation) no longer exists.

        After every restart's ``evict_generation`` this must be empty:
        a surviving stale key would let a tenant replay a reference into
        an address space rebuilt since — the chaos campaign's
        cross-tenant-survival invariant checks exactly this.
        """
        live = {
            (process.pid, process.generation) for process in processes
        }
        return sorted(
            key for key in self._owners if (key[0], key[1]) not in live
        )
