"""RPC coalescing: plan which adjacent calls share one IPC round trip.

A pipeline request is a *sequence* of API calls, and consecutive calls
very often land in the same agent (the paper's Fig. 6 pipeline pattern:
a load, a run of processing calls, a store).  Each un-batched call pays
two ring-buffer messages (request + response) with a fixed per-message
latency; coalescing a run of same-agent calls into one
:class:`~repro.core.rpc.RpcBatchRequest` pays that fixed cost once per
*run* instead of once per call.

Chaining makes it stronger: a call whose argument is the previous call's
result (the :data:`PREV` sentinel) normally costs a reference round trip;
inside a batch it becomes a :class:`~repro.core.rpc.BatchChain`
placeholder the agent resolves locally — the intermediate never crosses
the IPC boundary at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.gateway import PREV, ApiCall

__all__ = ["PREV", "BatchGroup", "BatchingStats", "plan_batches"]


@dataclass(frozen=True)
class BatchGroup:
    """A run of adjacent calls that will share one IPC round trip."""

    partition_index: int
    start: int              # index of the first call in the pipeline
    calls: Tuple[ApiCall, ...]

    def __len__(self) -> int:
        return len(self.calls)


def plan_batches(
    calls: Sequence[ApiCall],
    partition_indices: Sequence[int],
    max_batch_calls: int = 16,
) -> List[BatchGroup]:
    """Split a routed pipeline into runs of adjacent same-agent calls.

    ``partition_indices[i]`` is the partition call ``i`` was routed to.
    Only *adjacent* calls coalesce — reordering across an agent boundary
    would break the temporal state machine's observation order.
    """
    if len(calls) != len(partition_indices):
        raise ValueError(
            f"{len(calls)} calls but {len(partition_indices)} routes"
        )
    groups: List[BatchGroup] = []
    run: List[ApiCall] = []
    run_start = 0
    run_partition = None
    for index, (call, partition) in enumerate(zip(calls, partition_indices)):
        boundary = (
            partition != run_partition or len(run) >= max_batch_calls
        )
        if run and boundary:
            groups.append(BatchGroup(run_partition, run_start, tuple(run)))
            run = []
        if not run:
            run_start = index
            run_partition = partition
        run.append(call)
    if run:
        groups.append(BatchGroup(run_partition, run_start, tuple(run)))
    return groups


@dataclass
class BatchingStats:
    """How much IPC the coalescer saved."""

    calls: int = 0
    batches: int = 0
    #: Request+response messages a per-call dispatch would have sent.
    messages_unbatched: int = 0
    #: Messages actually sent (2 per batch).
    messages_sent: int = 0
    #: PREV chains resolved inside an agent (zero-IPC intermediates).
    chains_local: int = 0
    #: Envelope bytes the fused batch framing (one offset table + reduced
    #: per-item headers) saved vs per-message envelopes.
    fused_bytes_saved: int = 0

    @property
    def messages_saved(self) -> int:
        return self.messages_unbatched - self.messages_sent

    def record_group(
        self, group_len: int, chains: int, fused_bytes_saved: int = 0
    ) -> None:
        self.calls += group_len
        self.batches += 1
        self.messages_unbatched += 2 * group_len
        self.messages_sent += 2
        self.chains_local += chains
        self.fused_bytes_saved += fused_bytes_saved
