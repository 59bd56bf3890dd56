"""Freeze-scan cost on a serving workload: it follows the mprotects a
transition makes, not the buffers pooled agents have piled up.

Each freeze is one ``AddressSpace.freeze`` call per process, which
probes the buffers it takes from the state's index.  The client drops
every response once it has read it, so the served objects are released
and some of the buffers a freeze takes are unmapped right after their
protection.
"""

import pytest

from repro.serve import PipelineServer
from repro.serve.bench import load_requests
from repro.sim.memory import AddressSpace


@pytest.mark.parametrize("items", [5, 20])
def test_freeze_probes_only_buffers_it_then_freezes(monkeypatch, items):
    probed, protected, released, unmapped = [], [], [], []
    freeze = AddressSpace.freeze

    def recording(self, origin_state, tags=None, enforce=True):
        # What the call takes from the index is what it probes.
        taken = [
            buffer for buffer in self._unfrozen.get(origin_state, {}).values()
            if tags is None or buffer.tag in tags
        ]
        probed.extend((self.pid, b.buffer_id) for b in taken)
        released.extend((self.pid, b.buffer_id) for b in taken if b.released)
        result = freeze(self, origin_state, tags, enforce)
        protected.extend((self.pid, b.buffer_id) for b in result)
        unmapped.extend((self.pid, b.buffer_id) for b in taken if b.freed)
        return result

    monkeypatch.setattr(AddressSpace, "freeze", recording)
    server = PipelineServer(pool_size=2)
    load_requests(server, 2, items, 16)
    served = 0
    while True:
        responses = server.step()
        if not responses:
            break
        assert all(r.ok for r in responses), [r.error for r in responses]
        served += len(responses)
    assert served == 2 * items
    memories = [p.memory for p in server.kernel.processes()]
    # Every buffer a freeze probed, it protected: the index holds
    # nothing a freeze has already taken.
    assert probed == protected
    assert len(protected) == sum(m.mprotect_calls for m in memories)
    # It unmapped exactly the released ones, after protecting them.
    assert unmapped == released and released
    assert sum(m.write_denials for m in memories) == 0
    server.shutdown()
