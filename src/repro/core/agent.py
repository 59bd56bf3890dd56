"""Agent processes (Sections 4.3.1 and 4.4.2).

One :class:`AgentProcess` hosts all framework APIs of one partition.  It
owns a simulated process with a fixed seccomp filter, an object store
for lazy-data-copy references, an IPC channel pair to the host program,
and the restart machinery: when the process crashes (exploit, seccomp
kill, segfault) the kernel replaces it with a fresh process and the old
object store becomes stale — the paper intentionally does *not* restore a
crashed process's variables.

Stateful APIs (Appendix A.2.4) are checkpointed periodically so the
at-least-once re-execution after a restart can resume them.  Checkpoints
are written as sealed generations (state snapshot + checksum): a write
torn mid-way by a fault fails validation and restore falls back to the
previous intact generation.  A small reply cache gives duplicated or
retransmitted requests exactly-once *effect* while the process lives;
the cache dies with the process, which is what downgrades restarted
agents to at-least-once (Section 4.4.2).
"""

from __future__ import annotations

import hashlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.partitioner import Partition
from repro.core.rpc import (
    REPLY_CACHE_SIZE,
    BatchChain,
    ObjectRef,
    ObjectStore,
    RpcBatchRequest,
    RpcBatchResponse,
    RpcRequest,
    RpcResponse,
    SequenceTracker,
    batch_response,
    response_nbytes,
)
from repro.errors import AgentUnavailable, ProcessCrashed
from repro.faults.plan import FaultKind
from repro.frameworks.base import (
    DataObject,
    ExecutionContext,
    FrameworkAPI,
    StatefulKind,
)
from repro.sim.filters import FilterSpec
from repro.sim.ipc import ChannelPair
from repro.sim.kernel import SimKernel
from repro.sim.memory import Buffer
from repro.sim.process import ProcessState, SimProcess

#: How many stateful-API invocations pass between two checkpoints.
CHECKPOINT_INTERVAL = 16

#: How many checkpoint generations an agent retains for fallback.
CHECKPOINT_HISTORY = 3

#: First restart retries immediately; subsequent attempts in the same
#: repair (a restart storm) back off exponentially from this base.
RESTART_BACKOFF_BASE_NS = 100_000
RESTART_BACKOFF_CAP_NS = 10_000_000

RefResolver = Callable[[ObjectRef], Any]


def _resolve_chain(value: Any, index: int, raw_results: List[Any]) -> Any:
    """One argument of batch item ``index`` with every BatchChain in it
    replaced by the raw result of the item it names."""
    if isinstance(value, BatchChain):
        at = index - value.offset
        if at < 0 or at >= len(raw_results):
            raise ValueError(
                f"batch item {index} chains to item {at}, which "
                "has not executed"
            )
        return raw_results[at]
    if isinstance(value, (list, tuple)):
        resolved = [_resolve_chain(item, index, raw_results) for item in value]
        return type(value)(resolved) if isinstance(value, tuple) else resolved
    return value


def _fingerprint(value: Any) -> str:
    """A stable content digest for one framework-state value."""
    import numpy as np

    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(value.tobytes()).hexdigest()
        return f"ndarray:{value.shape}:{value.dtype}:{digest}"
    if isinstance(value, dict):
        inner = ",".join(
            f"{key}={_fingerprint(item)}"
            for key, item in sorted(value.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(_fingerprint(item) for item in value)
        return f"{type(value).__name__}[{inner}]"
    data = getattr(value, "data", None)
    if isinstance(data, np.ndarray):
        return f"{type(value).__name__}({_fingerprint(data)})"
    return f"{type(value).__name__}:{value!r}"


def checkpoint_checksum(state: Dict[str, Any]) -> str:
    """Content checksum sealing one checkpoint's state snapshot."""
    hasher = hashlib.sha256()
    for key in sorted(state):
        hasher.update(key.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(_fingerprint(state[key]).encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


@dataclass(frozen=True)
class CheckpointRecord:
    """One sealed checkpoint generation.

    ``checksum`` is computed over the *intended* snapshot before the
    write; a torn write stores a truncated ``state`` under the full
    checksum, so :meth:`validate` catches it and restore falls back.
    """

    generation: int
    items: int
    state: Dict[str, Any]
    checksum: str

    def validate(self) -> bool:
        """Whether the stored state matches the sealed checksum."""
        return (
            len(self.state) == self.items
            and checkpoint_checksum(self.state) == self.checksum
        )


@dataclass
class AgentStats:
    requests: int = 0
    restarts: int = 0
    crashes: int = 0
    stateful_calls: int = 0
    checkpoints: int = 0
    restored_from_checkpoint: int = 0
    #: Deliveries answered from the reply cache instead of re-executing.
    deduped_requests: int = 0
    #: Checkpoint writes that were torn by an injected fault.
    checkpoint_failures: int = 0
    #: Torn records detected (and skipped) while restoring.
    torn_checkpoints_detected: int = 0
    #: Virtual time spent backing off between restart attempts.
    restart_backoff_ns: int = 0


class AgentProcess:
    """One isolated agent process executing a partition's APIs."""

    def __init__(
        self,
        kernel: SimKernel,
        partition: Partition,
        filter_spec: Optional[FilterSpec] = None,
        restrict_syscalls: bool = True,
        max_restarts: Optional[int] = None,
        zero_copy: bool = False,
    ) -> None:
        self.kernel = kernel
        self.partition = partition
        self.filter_spec = filter_spec
        self.restrict_syscalls = restrict_syscalls
        self.max_restarts = max_restarts
        #: Dereference large ObjectRefs by remapping shared pages instead
        #: of copying bytes (zero-copy LDC); small payloads still copy.
        self.zero_copy = zero_copy
        self.stats = AgentStats()
        self.sequence = SequenceTracker()
        self._checkpoint: Dict[str, int] = {}
        #: Sealed checkpoint generations, oldest first; restore walks
        #: newest-to-oldest past torn records (Appendix A.2.4).
        self._checkpoints: List[CheckpointRecord] = []
        self._checkpoint_generations = itertools.count(1)
        #: Reply cache for duplicate suppression: seq -> response.  It
        #: holds no raw results, which would keep released objects alive.
        #: Dies with the process — a restarted agent re-executes retried
        #: requests from its checkpoint (at-least-once).
        self._reply_cache: "OrderedDict[int, RpcResponse]" = OrderedDict()
        #: Foreign objects already copied into this process, by the
        #: buffer holding the copy: the lazy copy happens once per
        #: object, later dereferences are local reads.
        self._resident: Dict[Tuple[int, int, int], Buffer] = {}
        self.process = self._spawn()
        self.store = ObjectStore(self.process)
        self.ctx = ExecutionContext(kernel, self.process)
        # Channel names carry the pid so per-thread agent sets (Section 6)
        # never share a ring buffer.
        self.channel: ChannelPair = kernel.channel_pair(
            f"agent-{partition.index}-{partition.label}-{self.process.pid}"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _build_filter(self):
        if not self.restrict_syscalls or self.filter_spec is None:
            return None
        return self.filter_spec.build()

    def _spawn(self) -> SimProcess:
        return self.kernel.spawn(
            name=f"agent:{self.partition.label}",
            syscall_filter=self._build_filter(),
            role="agent",
        )

    @property
    def alive(self) -> bool:
        return self.process.alive

    def restart(self) -> None:
        """Replace a crashed process; variables are *not* restored.

        Handles restart storms: if the replacement itself crashes (an
        injected restart fault), further attempts back off exponentially
        on the virtual clock.  Raises :class:`AgentUnavailable` once the
        restart budget is spent — the anti-crash-loop guard for
        availability-first setups.  Every attempt (including failed
        ones) counts against the budget.
        """
        import copy as _copy

        attempt = 0
        while True:
            if (
                self.max_restarts is not None
                and self.stats.restarts >= self.max_restarts
            ):
                raise AgentUnavailable(
                    f"agent {self.partition.label!r} exceeded its restart "
                    f"budget ({self.max_restarts})"
                )
            if attempt > 0:
                backoff_ns = min(
                    RESTART_BACKOFF_BASE_NS << (attempt - 1),
                    RESTART_BACKOFF_CAP_NS,
                )
                with self.kernel.tracer.span(
                    "restart_backoff", category="restart",
                    pid=self.process.pid, agent=self.partition.label,
                    attempt=attempt, backoff_ns=backoff_ns,
                ):
                    self.kernel.clock.advance(backoff_ns)
                self.stats.restart_backoff_ns += backoff_ns
            replacement = self.kernel.restart(
                self.process,
                filter_spec=(
                    self.filter_spec if self.restrict_syscalls else None
                ),
            )
            self.process = replacement
            self.stats.restarts += 1
            faults = self.kernel.faults
            if faults.enabled and faults.restart_crash(self):
                # The replacement died before becoming serviceable —
                # a restart storm.  Back off and try again.
                replacement.crash("injected fault: restart-crash")
                self.stats.crashes += 1
                attempt += 1
                continue
            break
        self.store = ObjectStore(replacement)
        self.ctx = ExecutionContext(self.kernel, replacement)
        self._resident.clear()  # the old address space is gone
        self._reply_cache.clear()  # cached replies died with the process
        record = self._latest_valid_checkpoint(count_torn=True)
        if self._checkpoint or record is not None:
            # Stateful APIs resume from the last *intact* periodic
            # checkpoint; any progress since then is re-executed
            # (at-least-once).
            if record is not None:
                replacement.framework_state.update(
                    _copy.deepcopy(record.state)
                )
            self.stats.restored_from_checkpoint += 1

    def _latest_valid_checkpoint(
        self, count_torn: bool = False
    ) -> Optional[CheckpointRecord]:
        """Newest checkpoint generation that passes validation."""
        for record in reversed(self._checkpoints):
            if record.validate():
                return record
            if count_torn:
                self.stats.torn_checkpoints_detected += 1
        return None

    def stop(self) -> None:
        """Stop the agent for good: close its channels, exit its process
        (which releases its memory) and drop the cached replies and
        resident copies that would keep results alive."""
        self.channel.close()
        if self.process.alive:
            self.process.exit()
        self._reply_cache.clear()
        self._resident.clear()

    def require_alive(self) -> None:
        """Raise AgentUnavailable if the process crashed."""
        if not self.process.alive:
            raise AgentUnavailable(
                f"agent {self.partition.label!r} (pid {self.process.pid}) crashed"
            )

    def end_init_phase(self) -> None:
        """Close the seccomp init grace phase."""
        self.process.filter.end_init_phase()

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------

    def execute(
        self,
        api: FrameworkAPI,
        request: RpcRequest,
        resolve_ref: RefResolver,
        ldc: bool,
    ) -> RpcResponse:
        """Run one API request inside this agent's process."""
        return self._execute_raw(api, request, resolve_ref, ldc)[0]

    def _execute_raw(
        self,
        api: FrameworkAPI,
        request: RpcRequest,
        resolve_ref: RefResolver,
        ldc: bool,
    ) -> Tuple[RpcResponse, Any]:
        """Run a request; also return the un-wrapped result for chaining."""
        if self.process.state is not ProcessState.RUNNING:
            self.require_alive()
        faults = self.kernel.faults
        crash_point = (
            faults.rpc_crash_point(self, request) if faults.enabled else None
        )
        if crash_point is FaultKind.CRASH_BEFORE_EXECUTE:
            self._injected_crash(crash_point, request)
        cached = self._reply_cache.get(request.seq)
        if cached is not None:
            # Duplicate delivery (duplicated message or retransmitted
            # request): answer from the cache so stateful APIs are not
            # applied twice — exactly-once *effect* for live agents.
            self.sequence.record_duplicate(request.seq)
            self.stats.deduped_requests += 1
            raw = cached.value
            if isinstance(raw, ObjectRef):
                # Duplicates arrive within one round trip, before the
                # host can drop the handle, so the object is still here.
                # Read the buffer itself: a fetch would trace a deref.
                raw = self.process.memory.get_buffer(raw.buffer_id).payload
            return cached, raw
        self.sequence.record_execution(request.seq)
        self.stats.requests += 1
        label = request.state_label
        materialize = self._materialize
        args = [
            materialize(value, resolve_ref, label) for value in request.args
        ]
        kwargs = {}
        for key, value in request.kwargs:
            kwargs[key] = materialize(value, resolve_ref, label)
        self.ctx.state_label = label
        result = self.ctx.invoke(api, *args, **kwargs)
        if api.spec.stateful is StatefulKind.DATA_STATE:
            self._track_statefulness(api)
        if crash_point is FaultKind.CRASH_AFTER_EXECUTE:
            # State applied, reply never produced: the retransmitted
            # request re-executes from the checkpoint after restart.
            self._injected_crash(crash_point, request)
        value = result
        if ldc and isinstance(result, DataObject):
            value = self.store.register(
                result, state_label=request.state_label, tag=api.spec.qualname
            )
        response = RpcResponse(
            seq=request.seq, value=value, nbytes=response_nbytes(value)
        )
        self._cache_reply(request.seq, response)
        if crash_point is FaultKind.CRASH_MID_REPLY:
            # Reply produced (and cached) but the process dies before it
            # reaches the ring buffer.
            self._injected_crash(crash_point, request)
        return response, result

    def _cache_reply(self, seq: int, response: RpcResponse) -> None:
        self._reply_cache[seq] = response
        while len(self._reply_cache) > REPLY_CACHE_SIZE:
            self._reply_cache.popitem(last=False)

    def _injected_crash(self, point: FaultKind, request: RpcRequest) -> None:
        self.process.crash(
            f"injected fault: {point.value} "
            f"({request.api_qualname} seq {request.seq})"
        )
        raise ProcessCrashed(
            f"agent {self.partition.label!r} (pid {self.process.pid}) "
            f"crashed by injected fault {point.value}"
        )

    def execute_batch(
        self,
        apis: "List[FrameworkAPI]",
        batch: RpcBatchRequest,
        resolve_ref: RefResolver,
        ldc: bool,
    ) -> RpcBatchResponse:
        """Run a coalesced group of requests in one dispatch.

        Items execute in order; a crash mid-batch propagates after the
        completed prefix has already mutated agent state, exactly like a
        partially processed ring buffer would.  ``apis`` pairs positionally
        with ``batch.requests``.  :class:`BatchChain` placeholder arguments
        are resolved against earlier items' raw results *inside* this
        process, so chained intermediates never touch the IPC path.
        """
        if len(apis) != len(batch.requests):
            raise ValueError(
                f"batch shape mismatch: {len(apis)} APIs for "
                f"{len(batch.requests)} requests"
            )
        raw_results: List[Any] = []
        responses: List[RpcResponse] = []
        for index, (api, request) in enumerate(zip(apis, batch.requests)):
            request = self._resolve_chains(request, index, raw_results)
            response, raw = self._execute_raw(api, request, resolve_ref, ldc)
            raw_results.append(raw)
            responses.append(response)
        return batch_response(responses)

    def _resolve_chains(
        self, request: RpcRequest, index: int, raw_results: List[Any]
    ) -> RpcRequest:
        """Substitute BatchChain placeholders with earlier raw results.

        The resolved request runs here and never crosses a channel, so
        it keeps the wire size of the request as sent.
        """
        values = request.args
        if request.kwargs:
            values += tuple([value for _, value in request.kwargs])
        for value in values:
            if isinstance(value, BatchChain):
                break
        else:
            return request
        return RpcRequest(
            seq=request.seq,
            api_qualname=request.api_qualname,
            args=tuple([
                _resolve_chain(v, index, raw_results) for v in request.args
            ]),
            kwargs=tuple([
                (k, _resolve_chain(v, index, raw_results))
                for k, v in request.kwargs
            ]),
            state_label=request.state_label,
            nbytes=request.nbytes,
        )

    def _materialize(
        self, value: Any, resolve_ref: RefResolver, state_label: str
    ) -> Any:
        """Dereference an ObjectRef argument (the lazy copy, Fig. 11)."""
        if isinstance(value, (list, tuple)):
            resolved = [
                self._materialize(item, resolve_ref, state_label)
                for item in value
            ]
            return type(value)(resolved) if isinstance(value, tuple) else resolved
        if not isinstance(value, ObjectRef):
            return value
        if (
            value.owner_pid == self.process.pid
            and value.owner_generation == self.process.generation
        ):
            # Already resident: the reference chain collapsed to zero copies.
            return self.store.fetch(value)
        key = (value.owner_pid, value.owner_generation, value.buffer_id)
        resident = self._resident.get(key)
        if resident is not None:
            # Copied on an earlier dereference; now a local read.
            return resident.payload
        payload = resolve_ref(value)
        source = self.kernel.process(value.owner_pid)
        self._resident[key] = self.kernel.transfer(
            source,
            self.process,
            payload,
            tag=f"ldc:{value.kind}",
            origin_state=state_label,
            lazy=True,
            count_message=False,
            zero_copy=self.zero_copy,
        )
        return payload

    def fetch_local(self, ref: ObjectRef) -> Any:
        """Read an object this agent owns (used by the runtime resolver)."""
        return self.store.fetch(ref)

    def _track_statefulness(self, api: FrameworkAPI) -> None:
        """Count one stateful-API call; checkpoint every
        CHECKPOINT_INTERVAL of them."""
        self.stats.stateful_calls += 1
        key = api.spec.qualname
        self._checkpoint[key] = self._checkpoint.get(key, 0) + 1
        if self.stats.stateful_calls % CHECKPOINT_INTERVAL == 0:
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Periodically persist stateful-API state (Appendix A.2.4).

        The snapshot is sealed with a content checksum *before* the
        write; an injected tear truncates the stored state but keeps the
        full-state checksum, so the record fails validation and restore
        falls back to the previous generation.
        """
        import copy as _copy

        cost = self.kernel.clock.cost_model
        state = _copy.deepcopy(self.process.framework_state)
        items = len(state)
        checksum = checkpoint_checksum(state)
        faults = self.kernel.faults
        tear_at = (
            faults.checkpoint_tear(self, items) if faults.enabled else None
        )
        if tear_at is not None:
            kept = sorted(state)[:tear_at]
            state = {key: state[key] for key in kept}
        record = CheckpointRecord(
            generation=next(self._checkpoint_generations),
            items=items,
            state=state,
            checksum=checksum,
        )
        self._checkpoints.append(record)
        del self._checkpoints[:-CHECKPOINT_HISTORY]
        state_bytes = 256 * max(len(self._checkpoint) + items, 1)
        charge_ns = int(cost.checkpoint_ns_per_byte * state_bytes)
        with self.kernel.tracer.span("checkpoint", category="checkpoint",
                                     pid=self.process.pid, bytes=state_bytes,
                                     agent=self.partition.label):
            self.kernel.clock.advance(charge_ns)
        self.stats.checkpoints += 1
        if tear_at is not None:
            self.stats.checkpoint_failures += 1
