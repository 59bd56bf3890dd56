"""Per-tenant ObjectRef namespacing: foreign, forged, and stale refs."""

import pytest

from repro.core.rpc import ObjectRef, RemoteHandle
from repro.errors import TenantIsolationError
from repro.serve.tenancy import TenantRegistry


def _ref(pid=100, generation=0, buffer_id=1, payload=4096):
    return ObjectRef(
        owner_pid=pid, owner_generation=generation,
        buffer_id=buffer_id, payload_bytes=payload,
    )


@pytest.fixture
def registry():
    return TenantRegistry()


def test_owner_passes_check(registry):
    ref = registry.mint("alice", _ref())
    registry.check("alice", ref)  # no raise
    assert registry.violations == 0


def test_foreign_ref_raises(registry):
    ref = registry.mint("alice", _ref())
    with pytest.raises(TenantIsolationError, match="owned by tenant 'alice'"):
        registry.check("mallory", ref)
    assert registry.violations == 1


def test_forged_ref_raises(registry):
    with pytest.raises(TenantIsolationError, match="forged or stale"):
        registry.check("mallory", _ref(buffer_id=999))


def test_stale_ref_raises_after_eviction(registry):
    ref = registry.mint("alice", _ref(pid=100, generation=0))
    survivor = registry.mint("alice", _ref(pid=101, generation=0))
    evicted = registry.evict_generation(pid=100, generation=0)
    assert evicted == 1
    # The dead generation's ref is gone even for its rightful owner...
    with pytest.raises(TenantIsolationError, match="forged or stale"):
        registry.check("alice", ref)
    # ...while refs from other address spaces still resolve.
    registry.check("alice", survivor)


def test_check_value_recurses_into_containers(registry):
    owned = registry.mint("alice", _ref(buffer_id=1))
    foreign = registry.mint("bob", _ref(buffer_id=2))
    registry.check_value("alice", [RemoteHandle(owned), "text", 3])
    with pytest.raises(TenantIsolationError):
        registry.check_value("alice", {"data": (RemoteHandle(foreign),)})


def test_mint_records_each_key_under_its_tenant(registry):
    registry.mint("alice", _ref(buffer_id=1))
    registry.mint("alice", _ref(buffer_id=2))
    registry.mint("bob", _ref(buffer_id=3))
    assert sorted(registry._owners.values()) == ["alice", "alice", "bob"]


def test_mint_refuses_a_key_another_tenant_holds(registry):
    ref = registry.mint("alice", _ref())
    registry.mint("alice", ref)  # the owner may mint its own key again
    with pytest.raises(TenantIsolationError, match="owned by tenant 'alice'"):
        registry.mint("mallory", ref)
    registry.check("alice", ref)  # still alice's
    assert registry.violations == 1
