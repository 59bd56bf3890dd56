"""Simulated inter-process communication.

The paper implements IPC "using shared memory ... ring buffers and futex
for synchronization".  We model a channel as a bounded ring buffer of
messages with exact byte accounting; synchronization is cooperative (the
simulation is single-threaded), so a futex wait is simply an immediate
hand-off, but capacity limits and message framing behave like the real
thing.

The machine-wide :class:`IpcAccounting` collects the quantities the paper
reports: number of IPC calls, bytes moved between processes, and how many
copy operations the lazy-data-copy optimization turned into direct
agent-to-agent copies (Tables 9 and 12).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

from repro.errors import AccountingError, ChannelClosed, ChannelFull
from repro.faults.injector import NULL_INJECTOR
from repro.faults.plan import FaultKind
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import VirtualClock
from repro.sim.memory import payload_nbytes

DEFAULT_CHANNEL_CAPACITY = 64 * 1024 * 1024


def reconcile_lanes(context: str, recorded: Dict[str, int],
                    expected: Dict[str, int]) -> None:
    """Check recorded lane counters against independently derived values.

    Raises :class:`~repro.errors.AccountingError` naming every off-by
    lane with its delta (instead of a bare assert that names nothing).
    Lanes present only on one side count as a mismatch against zero.
    """
    mismatches = []
    for name in sorted(set(recorded) | set(expected)):
        got = int(recorded.get(name, 0))
        want = int(expected.get(name, 0))
        if got != want:
            mismatches.append((name, got, want))
    if mismatches:
        raise AccountingError(context, mismatches)


@dataclass(frozen=True)
class Message:
    """One framed message on a channel."""

    seq: int
    sender_pid: int
    kind: str
    payload: Any
    nbytes: int


@dataclass
class IpcAccounting:
    """Machine-wide IPC and data-copy counters."""

    messages: int = 0
    message_bytes: int = 0
    #: Messages sent with a prebuilt frame template (cached dispatch).
    framed_messages: int = 0
    lazy_copies: int = 0
    lazy_copy_bytes: int = 0
    nonlazy_copies: int = 0
    nonlazy_copy_bytes: int = 0
    #: Transfers that moved page mappings instead of bytes (zero-copy
    #: LDC) and the payload bytes they made visible without copying.
    zero_copy_transfers: int = 0
    zero_copy_bytes: int = 0
    #: Copy-on-write downgrades of shared-segment mappings: the byte
    #: copy a zero-copy transfer deferred, paid on first write.
    cow_downgrades: int = 0
    cow_bytes: int = 0

    @property
    def total_copies(self) -> int:
        """Cross-address-space data movements (copied or remapped)."""
        return self.lazy_copies + self.nonlazy_copies + self.zero_copy_transfers

    @property
    def total_copy_bytes(self) -> int:
        """Bytes made visible across address spaces.

        The zero-copy lane counts here — those bytes *moved* between
        processes even though no byte copy happened — so the total still
        reconciles exactly with end-to-end bytes transferred.
        """
        return (
            self.lazy_copy_bytes
            + self.nonlazy_copy_bytes
            + self.zero_copy_bytes
        )

    @property
    def lazy_fraction(self) -> float:
        """Fraction of movements on the lazy path (zero-copy included:
        a remapped transfer is a lazy dereference that got cheaper)."""
        total = self.total_copies
        if total == 0:
            return 0.0
        return (self.lazy_copies + self.zero_copy_transfers) / total

    def record_message(self, nbytes: int, framed: bool = False) -> None:
        self.messages += 1
        self.message_bytes += nbytes
        if framed:
            self.framed_messages += 1

    def record_copy(self, nbytes: int, lazy: bool) -> None:
        if lazy:
            self.lazy_copies += 1
            self.lazy_copy_bytes += nbytes
        else:
            self.nonlazy_copies += 1
            self.nonlazy_copy_bytes += nbytes

    def record_zero_copy(self, nbytes: int) -> None:
        self.zero_copy_transfers += 1
        self.zero_copy_bytes += nbytes

    def record_cow(self, nbytes: int) -> None:
        self.cow_downgrades += 1
        self.cow_bytes += nbytes

    def lanes(self) -> Dict[str, int]:
        """Every counter as a flat lane name -> value mapping."""
        return {
            "messages": self.messages,
            "message_bytes": self.message_bytes,
            "framed_messages": self.framed_messages,
            "lazy_copies": self.lazy_copies,
            "lazy_copy_bytes": self.lazy_copy_bytes,
            "nonlazy_copies": self.nonlazy_copies,
            "nonlazy_copy_bytes": self.nonlazy_copy_bytes,
            "zero_copy_transfers": self.zero_copy_transfers,
            "zero_copy_bytes": self.zero_copy_bytes,
            "cow_downgrades": self.cow_downgrades,
            "cow_bytes": self.cow_bytes,
        }

    def reconcile(self, context: str = "ipc accounting",
                  **expected: int) -> None:
        """Verify named lanes against expected values.

        ``accounting.reconcile(messages=12, lazy_copy_bytes=4096)``
        raises :class:`~repro.errors.AccountingError` naming every lane
        that disagrees; lanes not mentioned are not checked.  Derived
        totals (``total_copies``, ``total_copy_bytes``) may be named
        too.
        """
        lanes = self.lanes()
        lanes["total_copies"] = self.total_copies
        lanes["total_copy_bytes"] = self.total_copy_bytes
        unknown = sorted(set(expected) - set(lanes))
        if unknown:
            raise ValueError(f"unknown accounting lanes: {unknown}")
        reconcile_lanes(
            context,
            {name: lanes[name] for name in expected},
            expected,
        )

    def snapshot(self) -> "IpcAccounting":
        return IpcAccounting(
            messages=self.messages,
            message_bytes=self.message_bytes,
            framed_messages=self.framed_messages,
            lazy_copies=self.lazy_copies,
            lazy_copy_bytes=self.lazy_copy_bytes,
            nonlazy_copies=self.nonlazy_copies,
            nonlazy_copy_bytes=self.nonlazy_copy_bytes,
            zero_copy_transfers=self.zero_copy_transfers,
            zero_copy_bytes=self.zero_copy_bytes,
            cow_downgrades=self.cow_downgrades,
            cow_bytes=self.cow_bytes,
        )

    def delta_since(self, earlier: "IpcAccounting") -> "IpcAccounting":
        return IpcAccounting(
            messages=self.messages - earlier.messages,
            message_bytes=self.message_bytes - earlier.message_bytes,
            framed_messages=self.framed_messages - earlier.framed_messages,
            lazy_copies=self.lazy_copies - earlier.lazy_copies,
            lazy_copy_bytes=self.lazy_copy_bytes - earlier.lazy_copy_bytes,
            nonlazy_copies=self.nonlazy_copies - earlier.nonlazy_copies,
            nonlazy_copy_bytes=self.nonlazy_copy_bytes - earlier.nonlazy_copy_bytes,
            zero_copy_transfers=(
                self.zero_copy_transfers - earlier.zero_copy_transfers
            ),
            zero_copy_bytes=self.zero_copy_bytes - earlier.zero_copy_bytes,
            cow_downgrades=self.cow_downgrades - earlier.cow_downgrades,
            cow_bytes=self.cow_bytes - earlier.cow_bytes,
        )


class Channel:
    """A bounded shared-memory message channel between two processes."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        accounting: IpcAccounting,
        capacity_bytes: int = DEFAULT_CHANNEL_CAPACITY,
        tracer: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._clock = clock
        self._accounting = accounting
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NULL_INJECTOR
        self._queue: Deque[Message] = deque()
        self._queued_bytes = 0
        self._seq = itertools.count()
        self._closed = False
        self.sent_messages = 0
        self.sent_bytes = 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    def close(self) -> None:
        self._closed = True
        self._queue.clear()
        self._queued_bytes = 0

    def would_fit(self, nbytes: int) -> bool:
        """Whether a message of ``nbytes`` fits in the free space right now."""
        return self._queued_bytes + nbytes <= self.capacity_bytes

    def send(
        self, sender_pid: int, kind: str, payload: Any, framed: bool = False
    ) -> Message:
        """Frame and enqueue a message, charging virtual time.

        ``framed=True`` means the sender reused a prebuilt RPC frame
        template (cached gateway dispatch): header layout and framing
        metadata were precomputed, so the fixed per-message cost drops
        to ``ipc_framed_message_ns``.  Byte accounting is unchanged —
        the template saves framing *work*, not wire bytes.

        Raises :class:`ChannelFull` in two distinct situations that
        backpressure loops must tell apart: a message *larger than the
        ring buffer itself* can never fit no matter how much the receiver
        drains (``permanent=True``), whereas a message that merely finds
        the buffer momentarily full could be retried after a receive.
        """
        if self._closed:
            raise ChannelClosed(f"channel {self.name!r} is closed")
        nbytes = payload_nbytes(payload)
        if nbytes > self.capacity_bytes:
            raise ChannelFull(
                f"message of {nbytes} bytes exceeds channel {self.name!r} "
                f"capacity ({self.capacity_bytes} bytes); it can never be "
                "delivered — do not retry",
                permanent=True,
            )
        faults = self.faults
        verdict = (
            faults.channel_action(self, kind, nbytes)
            if faults.enabled else None
        )
        if verdict is FaultKind.CHANNEL_STALL:
            # Injected transient fullness: the sender's backoff loop is
            # expected to retry (the queue itself still has room).
            raise ChannelFull(
                f"channel {self.name!r} transiently full (injected stall)"
            )
        if self._queued_bytes + nbytes > self.capacity_bytes:
            raise ChannelFull(
                f"channel {self.name!r} over capacity: "
                f"{self._queued_bytes + nbytes} > {self.capacity_bytes}"
            )
        message = Message(
            seq=next(self._seq),
            sender_pid=sender_pid,
            kind=kind,
            payload=payload,
            nbytes=nbytes,
        )
        if verdict is not FaultKind.IPC_DROP:
            # A dropped message is charged and accounted like any other
            # send (the sender did the work) but never reaches the queue.
            self._queue.append(message)
            self._queued_bytes += nbytes
            if (
                verdict is FaultKind.IPC_DUPLICATE
                and self._queued_bytes + nbytes <= self.capacity_bytes
            ):
                duplicate = Message(
                    seq=next(self._seq),
                    sender_pid=sender_pid,
                    kind=kind,
                    payload=payload,
                    nbytes=nbytes,
                )
                self._queue.append(duplicate)
                self._queued_bytes += nbytes
            elif verdict is FaultKind.IPC_REORDER and len(self._queue) >= 2:
                last = self._queue.pop()
                previous = self._queue.pop()
                self._queue.append(last)
                self._queue.append(previous)
        self.sent_messages += 1
        self.sent_bytes += nbytes
        cost = self._clock.cost_model
        message_ns = cost.message_cost(framed)
        tracer = self.tracer
        # Hot (~35k calls/suite pass): a guard costs less than a no-op span.
        if tracer.enabled:
            # Split the single charge so the rollup separates message
            # framing (ipc) from payload serialization; the sum is
            # identical to the untraced advance.
            with tracer.span("ipc_send", category="ipc", pid=sender_pid,
                             channel=self.name, kind=kind, bytes=nbytes,
                             framed=framed):
                self._clock.advance(message_ns)
            with tracer.span("serialize", category="serialize",
                             pid=sender_pid, channel=self.name, kind=kind,
                             bytes=nbytes):
                self._clock.advance(cost.serialize_cost(nbytes))
        else:
            self._clock.advance(
                message_ns + cost.serialize_cost(nbytes)
            )
        self._accounting.record_message(nbytes, framed=framed)
        return message

    def receive(self) -> Message:
        """Dequeue the next message (futex hand-off is immediate)."""
        if self._closed:
            raise ChannelClosed(f"channel {self.name!r} is closed")
        if not self._queue:
            raise ChannelClosed(
                f"channel {self.name!r} has no pending message "
                "(cooperative receive would deadlock)"
            )
        message = self._queue.popleft()
        self._queued_bytes -= message.nbytes
        return message

    def drain(self) -> List[Message]:
        """Dequeue every pending message, oldest first (none when the
        channel is closed)."""
        messages = list(self._queue)
        self._queue.clear()
        self._queued_bytes = 0
        return messages

    def try_receive(self) -> Optional[Message]:
        if self._closed or not self._queue:
            return None
        return self.receive()


class ChannelPair:
    """A bidirectional link: request channel + response channel."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        accounting: IpcAccounting,
        capacity_bytes: int = DEFAULT_CHANNEL_CAPACITY,
        tracer: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        self.name = name
        self.request = Channel(
            f"{name}.req", clock, accounting, capacity_bytes, tracer=tracer,
            faults=faults,
        )
        self.response = Channel(
            f"{name}.rsp", clock, accounting, capacity_bytes, tracer=tracer,
            faults=faults,
        )

    def close(self) -> None:
        self.request.close()
        self.response.close()
