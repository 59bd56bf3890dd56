"""Admission control: a bounded request queue with per-tenant fair share.

Serving "heavy traffic" means refusing work you cannot finish.  The
controller enforces three policies, all deterministic against the
virtual clock:

* **bounded queue** — at most ``capacity`` requests pending machine-wide;
  overflow raises :class:`AdmissionRejected` (backpressure the client
  sees immediately, mirroring the ``ChannelFull`` semantics one layer
  down);
* **per-tenant budget** — no tenant may hold more than
  ``per_tenant_limit`` pending slots, so one chatty tenant cannot starve
  the queue;
* **fair-share dispatch** — requests are dequeued round-robin across
  tenants (each tenant's own requests stay FIFO), not globally FIFO, so
  the tail latency of a quiet tenant does not inherit a noisy
  neighbour's backlog.

Deadlines are virtual-clock absolute times; a request whose deadline
passed while it queued is *not* dispatched — it is returned as timed out,
charging the tenant nothing but the wait.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.errors import AdmissionRejected
from repro.sim.clock import VirtualClock


@dataclass
class AdmissionStats:
    admitted: int = 0
    rejected_capacity: int = 0
    rejected_tenant_budget: int = 0
    dispatched: int = 0
    timed_out: int = 0
    #: Requests pulled back out undispatched (node failure re-placement).
    evicted: int = 0
    #: Requests refused at the door by the brownout controller (they
    #: never held a queue slot; counted here because shedding is an
    #: admission decision).
    shed: int = 0


class AdmissionQueue:
    """Bounded, fair-share, deadline-aware request queue."""

    def __init__(
        self,
        clock: VirtualClock,
        capacity: int = 64,
        per_tenant_limit: Optional[int] = None,
        series=None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.capacity = capacity
        self.per_tenant_limit = per_tenant_limit
        #: Optional :class:`~repro.obs.timeseries.TimeSeriesRegistry`;
        #: when set, every admission records the post-admit queue depth.
        self.series = series
        self.stats = AdmissionStats()
        # tenant id -> that tenant's FIFO; OrderedDict preserves the
        # round-robin rotation order deterministically.
        self._queues: "OrderedDict[str, Deque]" = OrderedDict()
        self._pending = 0

    # ------------------------------------------------------------------
    # Enqueue (admission)
    # ------------------------------------------------------------------

    def submit(self, request) -> None:
        """Admit a request or raise :class:`AdmissionRejected`."""
        if self._pending >= self.capacity:
            self.stats.rejected_capacity += 1
            raise AdmissionRejected(
                f"queue at capacity ({self.capacity} pending); "
                f"tenant {request.tenant_id!r} must back off"
            )
        tenant_queue = self._queues.get(request.tenant_id)
        if tenant_queue is None:
            tenant_queue = deque()
            self._queues[request.tenant_id] = tenant_queue
        if (
            self.per_tenant_limit is not None
            and len(tenant_queue) >= self.per_tenant_limit
        ):
            self.stats.rejected_tenant_budget += 1
            raise AdmissionRejected(
                f"tenant {request.tenant_id!r} exceeded its fair-share "
                f"budget ({self.per_tenant_limit} pending)"
            )
        request.enqueued_at_ns = self.clock.now_ns
        tenant_queue.append(request)
        self._pending += 1
        self.stats.admitted += 1
        if self.series is not None:
            self.series.observe(
                "admission.queue_depth",
                {"tenant": request.tenant_id},
                self._pending,
                t_ns=self.clock.now_ns,
            )

    # ------------------------------------------------------------------
    # Dequeue (fair-share dispatch)
    # ------------------------------------------------------------------

    def next_request(self):
        """Pop the next request, rotating fairly across tenants.

        Expired requests (virtual deadline already passed) are popped
        and returned with ``timed_out`` set; the caller reports them
        without executing.  Returns None when the queue is empty.
        """
        while self._queues:
            tenant_id, tenant_queue = next(iter(self._queues.items()))
            # Rotate: this tenant goes to the back whether or not its
            # request dispatches, giving every tenant a turn.
            self._queues.move_to_end(tenant_id)
            request = tenant_queue.popleft()
            if not tenant_queue:
                del self._queues[tenant_id]
            self._pending -= 1
            if (
                request.deadline_ns is not None
                and self.clock.now_ns > request.deadline_ns
            ):
                request.timed_out = True
                self.stats.timed_out += 1
                return request
            self.stats.dispatched += 1
            return request
        return None

    # ------------------------------------------------------------------
    # Eviction (node-failure re-placement)
    # ------------------------------------------------------------------

    def evict_pending(self) -> List:
        """Pull every undispatched request back out, fair-share order.

        Used when this queue's machine goes down: the pending requests
        were admitted but never ran, so the cluster re-places them on
        surviving nodes.  Deadlines and ``enqueued_at_ns`` are left
        untouched — the wait already happened; the new queue re-stamps
        on re-submit.
        """
        evicted: List = []
        while self._queues:
            tenant_id, tenant_queue = next(iter(self._queues.items()))
            self._queues.move_to_end(tenant_id)
            evicted.append(tenant_queue.popleft())
            if not tenant_queue:
                del self._queues[tenant_id]
            self._pending -= 1
            self.stats.evicted += 1
        return evicted

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        return self._pending

    def pending_for(self, tenant_id: str) -> int:
        queue = self._queues.get(tenant_id)
        return len(queue) if queue is not None else 0
