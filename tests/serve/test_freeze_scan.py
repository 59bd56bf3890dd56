"""Freeze-scan cost on a serving workload: it follows the mprotects a
transition makes, not the buffers pooled agents have piled up."""

import pytest

from repro.serve import PipelineServer
from repro.serve.bench import load_requests
from repro.sim.memory import AddressSpace


@pytest.mark.parametrize("items", [5, 20])
def test_freeze_probes_only_buffers_it_then_freezes(monkeypatch, items):
    probes = []
    probe = AddressSpace.is_writable

    def counting(self, buffer_id):
        probes.append(buffer_id)
        return probe(self, buffer_id)

    monkeypatch.setattr(AddressSpace, "is_writable", counting)
    server = PipelineServer(pool_size=2)
    load_requests(server, 2, items, 16)
    responses = server.drain()
    assert all(r.ok for r in responses), [r.error for r in responses]
    memories = [p.memory for p in server.kernel.processes()]
    assert len(probes) == sum(m.mprotect_calls for m in memories)
    assert sum(m.write_denials for m in memories) == 0
    server.shutdown()
