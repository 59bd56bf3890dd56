"""RPC message model and object references (Sections 4.3, 4.3.2).

FreePart's API hooking is a remote procedure call with *exactly-once*
semantics for live agents; restarted agents downgrade to *at-least-once*
(Section 4.4.2).  The lazy-data-copy optimization replaces bulk payloads
with :class:`ObjectRef` values — (owning process, buffer id) pairs, the
paper's "origin" of an object's data — that agents dereference on first
use, copying directly from the owning process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StaleObjectRef
from repro.sim.memory import payload_nbytes
from repro.sim.process import ProcessState

#: Simulated wire size of a reference (pid + buffer id + metadata).
REF_WIRE_BYTES = 64


@dataclass(frozen=True)
class ObjectRef:
    """A reference to a data object living in another process."""

    owner_pid: int
    owner_generation: int
    buffer_id: int
    payload_bytes: int
    kind: str = "object"

    #: Wire size: a reference carries no data (LDC's whole point).
    nbytes = REF_WIRE_BYTES


class RemoteHandle:
    """The host program's opaque view of a remote data object.

    Host code passes handles onwards to other framework APIs; the runtime
    resolves them back to :class:`ObjectRef` values.  Dereferencing the
    data in the host requires an explicit ``gateway.materialize`` (which
    is what makes host-side dereferences rare and the lazy fraction high).

    A handle a gateway made reports its death: when the host drops the
    last reference to it, its ref joins that gateway's release list, and
    the gateway releases the object at its next call.  CPython finalizes
    a handle as soon as its last reference goes, so the order repeats
    from run to run.
    """

    __slots__ = ("ref", "_releases")

    nbytes = REF_WIRE_BYTES

    def __init__(
        self, ref: ObjectRef, releases: Optional[List[ObjectRef]] = None
    ) -> None:
        self.ref = ref
        #: The making gateway's release list.  The handle holds the
        #: list, not the gateway, so it never keeps a gateway alive.
        self._releases = releases

    def __del__(self) -> None:
        if self._releases is not None:
            self._releases.append(self.ref)

    # Handles never change, so a copy is the handle itself: a second
    # object would release the same ref a second time.
    def __copy__(self) -> "RemoteHandle":
        return self

    def __deepcopy__(self, memo: Dict[int, Any]) -> "RemoteHandle":
        return self

    @property
    def payload_bytes(self) -> int:
        return self.ref.payload_bytes

    def __repr__(self) -> str:
        return (
            f"RemoteHandle(pid={self.ref.owner_pid}, "
            f"buf={self.ref.buffer_id}, {self.ref.payload_bytes}B)"
        )


@dataclass(frozen=True)
class RpcRequest:
    """One API-execution request (Fig. 10's ``request()``)."""

    seq: int
    api_qualname: str
    args: Tuple[Any, ...]
    kwargs: Tuple[Tuple[str, Any], ...]
    state_label: str

    @property
    def nbytes(self) -> int:
        cached = getattr(self, "_nbytes", None)
        if cached is not None:
            return cached
        total = REQUEST_HEADER_BYTES  # seq + ids + state
        for value in self.args:
            total += payload_nbytes(value)
        for _, value in self.kwargs:
            total += payload_nbytes(value)
        # Requests are frozen, so the size never changes: cache it for
        # the retransmit/reply-cache paths that re-frame the same object.
        object.__setattr__(self, "_nbytes", total)
        return total


@dataclass(frozen=True)
class RpcResponse:
    """The result (or error) of one request (``agent_ret()``)."""

    seq: int
    value: Any = None
    error: Optional[str] = None

    @property
    def nbytes(self) -> int:
        cached = getattr(self, "_nbytes", None)
        if cached is not None:
            return cached
        total = RESPONSE_HEADER_BYTES + payload_nbytes(self.value)
        object.__setattr__(self, "_nbytes", total)
        return total


#: Wire size of the batch envelope (count + flags + checksum).
BATCH_HEADER_BYTES = 32
#: Per-item framing inside a batch (offset + length of each part).
#: Legacy per-message-envelope framing; kept for the savings arithmetic.
BATCH_ITEM_FRAME_BYTES = 16
#: Header bytes every RpcRequest carries (see RpcRequest.nbytes).
REQUEST_HEADER_BYTES = 96
#: Header bytes every RpcResponse carries (see RpcResponse.nbytes).
RESPONSE_HEADER_BYTES = 64
#: Fused framing: one offset-table entry per item (u32 offset + u32 len).
BATCH_OFFSET_ENTRY_BYTES = 8
#: Fused framing: the per-item header shrinks to seq + api id + state tag
#: because channel/session framing is hoisted into the batch envelope.
FUSED_ITEM_HEADER_BYTES = 24


@dataclass(frozen=True)
class BatchChain:
    """A placeholder argument: "the result of an earlier item in this batch".

    ``offset`` counts backwards (1 = the immediately preceding item).
    Chained intermediates are resolved *inside* the agent during batch
    execution, so they never cross the IPC boundary at all — the
    strongest form of the lazy-data-copy argument.
    """

    offset: int = 1

    #: Wire size of the placeholder (an index, not data).
    nbytes: int = 16


@dataclass(frozen=True)
class RpcBatchRequest:
    """Several adjacent same-agent requests framed as ONE IPC message.

    The serving layer coalesces consecutive calls a request makes to the
    same agent so the whole group pays one ring-buffer round trip instead
    of one per call.  Framing is *fused*: a 32-byte batch envelope with an
    offset table (8 bytes per item) locating each item, and a reduced
    24-byte per-item header — the full 96-byte request header would
    duplicate channel/session framing the envelope already carries.
    Payload bytes are unchanged, so byte accounting stays honest while
    both the *message count* (fixed per-message latency) and the per-item
    envelope overhead collapse.
    """

    requests: Tuple[RpcRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def nbytes(self) -> int:
        cached = getattr(self, "_nbytes", None)
        if cached is not None:
            return cached
        total = BATCH_HEADER_BYTES
        for request in self.requests:
            total += (
                BATCH_OFFSET_ENTRY_BYTES
                + FUSED_ITEM_HEADER_BYTES
                + (request.nbytes - REQUEST_HEADER_BYTES)
            )
        object.__setattr__(self, "_nbytes", total)
        return total

    @property
    def fused_savings(self) -> int:
        """Bytes saved vs the per-message-envelope framing of this batch
        (16-byte item frame + full 96-byte header per item)."""
        per_item = (
            BATCH_ITEM_FRAME_BYTES
            + REQUEST_HEADER_BYTES
            - BATCH_OFFSET_ENTRY_BYTES
            - FUSED_ITEM_HEADER_BYTES
        )
        return per_item * len(self.requests)


@dataclass(frozen=True)
class RpcBatchResponse:
    """The per-item results of a batch, framed as ONE IPC message."""

    responses: Tuple[RpcResponse, ...]

    def __len__(self) -> int:
        return len(self.responses)

    @property
    def nbytes(self) -> int:
        cached = getattr(self, "_nbytes", None)
        if cached is not None:
            return cached
        total = BATCH_HEADER_BYTES
        for response in self.responses:
            total += (
                BATCH_OFFSET_ENTRY_BYTES
                + FUSED_ITEM_HEADER_BYTES
                + (response.nbytes - RESPONSE_HEADER_BYTES)
            )
        object.__setattr__(self, "_nbytes", total)
        return total

    @property
    def fused_savings(self) -> int:
        """Bytes saved vs per-message-envelope framing of the responses."""
        per_item = (
            BATCH_ITEM_FRAME_BYTES
            + RESPONSE_HEADER_BYTES
            - BATCH_OFFSET_ENTRY_BYTES
            - FUSED_ITEM_HEADER_BYTES
        )
        return per_item * len(self.responses)


class SequenceTracker:
    """Enforces exactly-once execution per agent channel.

    Each request carries a sequence number; the tracker records every
    *execution* of a number, so a duplicated or retransmitted request
    that actually re-runs the API body shows up as a retry and breaks
    ``exactly_once``.  The agent's reply cache turns such deliveries
    into cache hits instead — recorded here as suppressed duplicates —
    which is what keeps stateful APIs from double-applying when a lost
    reply forces the sender to retransmit (the at-least-once protocol's
    dedup half).
    """

    def __init__(self) -> None:
        self._seq = itertools.count(1)
        self.executed: Dict[int, int] = {}
        self.retries = 0
        #: Deliveries answered from the reply cache without re-running
        #: the API body (duplicated messages, retried requests).
        self.duplicates_suppressed = 0

    def next_seq(self) -> int:
        return next(self._seq)

    def record_execution(self, seq: int) -> None:
        count = self.executed.get(seq, 0)
        if count >= 1:
            self.retries += 1
        self.executed[seq] = count + 1

    def record_duplicate(self, seq: int) -> None:
        """A delivery of ``seq`` was served from the reply cache."""
        self.duplicates_suppressed += 1

    def executions_of(self, seq: int) -> int:
        return self.executed.get(seq, 0)

    @property
    def exactly_once(self) -> bool:
        return all(count == 1 for count in self.executed.values())


class ObjectStore:
    """Per-process registry of live data objects exposed through refs."""

    def __init__(self, process) -> None:
        self.process = process

    def register(self, payload: Any, state_label: str, tag: str = "") -> ObjectRef:
        """Allocate the payload in the owning process and hand out a ref."""
        nbytes = payload_nbytes(payload)
        buffer = self.process.memory.alloc(
            nbytes, tag=tag or "rpc-object", payload=payload,
            origin_state=state_label,
        )
        return ObjectRef(
            owner_pid=self.process.pid,
            owner_generation=self.process.generation,
            buffer_id=buffer.buffer_id,
            payload_bytes=nbytes,
            kind=getattr(payload, "kind", type(payload).__name__),
        )

    def fetch(self, ref: ObjectRef) -> Any:
        """Read a locally owned object (no copy).

        Only a running owner serves its objects: an exited one released
        its memory, and a crashed one keeps it for inspection but never
        restores it.  An object released once the host held no handle to
        it is stale too.
        """
        if ref.owner_pid != self.process.pid:
            raise StaleObjectRef(
                f"ref owned by pid {ref.owner_pid}, store is pid {self.process.pid}"
            )
        if ref.owner_generation != self.process.generation:
            raise StaleObjectRef(
                f"ref generation {ref.owner_generation} predates restart "
                f"(current generation {self.process.generation})"
            )
        if self.process.state is not ProcessState.RUNNING:
            raise StaleObjectRef(
                f"ref owner pid {ref.owner_pid} has "
                f"{self.process.state.value}; its objects are gone"
            )
        payload = self.process.memory.load_live(ref.buffer_id)
        if payload is None:
            raise StaleObjectRef(
                f"buffer {ref.buffer_id} of pid {ref.owner_pid} was released "
                "once the host held no handle to it"
            )
        tracer = getattr(self.process, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.instant("ldc_deref", category="copy",
                           pid=self.process.pid, buffer_id=ref.buffer_id,
                           kind=ref.kind, bytes=ref.payload_bytes)
        return payload
