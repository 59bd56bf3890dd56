"""The FreePart runtime (Fig. 5): offline analysis → online enforcement.

:class:`FreePart` is the façade a user points at their application: it
runs the hybrid analysis over the framework APIs the program uses, builds
the partition plan and per-agent syscall filters, spawns the host and
agent processes, and returns a :class:`FreePartGateway` through which the
(unmodified) application code runs hooked.

Online, every framework API call becomes an RPC to the agent of its type,
the framework state machine advances and enforces temporal read-only
permissions, and lazy data copy keeps object payloads out of the host
path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, NoReturn, Optional, Sequence, Tuple,
)

from repro.core.agent import AgentProcess
from repro.core.apitypes import APIType, api_type_of_state
from repro.core.gateway import OBS_FRAMEWORK, ApiGateway, CallRecord
from repro.core.hybrid import Categorization, HybridAnalyzer
from repro.core.partitioner import (
    Partition,
    PartitionPlan,
    four_way_plan,
    split_processing_plan,
    sub_partition_plan,
)
from repro.core.policy import filter_spec_for_partition
from repro.core.rpc import (
    ObjectRef,
    ObjectStore,
    RemoteHandle,
    RpcRequest,
    request_nbytes,
)
from repro.core.statemachine import TemporalStateMachine
from repro.errors import (
    AgentUnavailable,
    AnnotationError,
    ChannelFull,
    ForgedReply,
    FrameworkCrash,
    ProcessCrashed,
    RpcError,
    SegmentationFault,
    StaleObjectRef,
    SyscallDenied,
)
from repro.frameworks.base import DataObject, FrameworkAPI
from repro.frameworks.registry import iter_apis
from repro.sim.filters import FilterSpec
from repro.sim.kernel import SimKernel
from repro.sim.memory import Buffer, MemoryLayout
from repro.sim.process import ProcessState, SimProcess

#: Backoff schedule for transient :class:`ChannelFull` on a send: first
#: retry after SEND_BACKOFF_BASE_NS, doubling up to the cap, at most
#: SEND_BACKOFF_RETRIES retries before the last error propagates.
SEND_BACKOFF_BASE_NS = 2_000
SEND_BACKOFF_CAP_NS = 64_000
SEND_BACKOFF_RETRIES = 4

#: How many times a gateway retransmits a request whose message (or
#: whose reply) was lost in flight before giving up with RpcError.
MAX_RPC_RETRANSMITS = 4


@dataclass(frozen=True)
class FreePartConfig:
    """Tunables of the runtime (each maps to a paper mechanism).

    ``ldc``
        Lazy data copy (Section 4.3.2).  Disabling it reproduces the 9.7%
        ablation of Section 5.2.
    ``restart_agents``
        Agent restart on crash (Section 4.4.2).  Users prioritizing
        security over availability can opt out.
    ``enforce_permissions``
        Temporal read-only enforcement (Section 4.4.3 / Fig. 3).
    ``restrict_syscalls``
        Per-agent seccomp allowlists (Section 4.4.1).
    ``partition_count``
        4 = the paper's default; >4 randomly splits the processing agent
        (the Fig. 4 sweep).
    ``strict_annotations``
        Require a :class:`MemoryLayout` annotation for every custom host
        data structure (the paper requires users to define the layout of
        protected custom data).
    ``subpartitions``
        Manual finer-grained agent splits (Appendix A.6); mutually
        exclusive with ``partition_count > 4``.
    """

    ldc: bool = True
    #: Zero-copy LDC: dereference large payloads by remapping shared
    #: pages (with COW downgrade on first write) instead of copying
    #: bytes.  Disable to reproduce the byte-copy LDC numbers.
    zero_copy: bool = True
    restart_agents: bool = True
    enforce_permissions: bool = True
    restrict_syscalls: bool = True
    partition_count: int = 4
    partition_seed: int = 0
    strict_annotations: bool = False
    annotations: Tuple[MemoryLayout, ...] = ()
    #: Manual sub-partitioning (Appendix A.6): api_type -> groups of
    #: qualnames, each group its own agent.  Sub-partitioned agents get
    #: *tight* (un-widened) filters — the finer-grained restriction the
    #: appendix discusses.
    subpartitions: Optional[Dict[APIType, Sequence[Sequence[str]]]] = None
    #: Designated filesystem regions per API type (generalizing the
    #: paper's designated-files argument check): file syscalls outside
    #: the agent's prefixes are seccomp-killed.  None disables the check.
    path_policies: Optional[Dict[APIType, Tuple[str, ...]]] = None
    #: Upper bound on restarts per agent (None = unbounded).  A crash
    #: loop — e.g. a malicious input replayed at a restarted agent —
    #: eventually leaves the agent down instead of thrashing.
    max_restarts_per_agent: Optional[int] = None
    #: How many times a per-call dispatch retries the *same* request
    #: (same sequence number) after the agent crashed and was restarted.
    #: It acts on per-call dispatch only: one-shot gateways and servers
    #: built with ``batching=False``.  A batched served call never
    #: retries; ``PipelineServer(max_retries=...)`` retries the whole
    #: request instead.  The default 0 preserves crash-is-an-error
    #: semantics: one crash = one FrameworkCrash surfaced to the caller.
    rpc_retries: int = 0
    #: Span tracing (repro.obs).  The tracer only reads the virtual
    #: clock, so enabling it changes no reproduced number; disabled (the
    #: default) the no-op tracer costs hot paths a single flag check.
    trace: bool = False
    #: Per-partition seccomp filter overrides keyed by partition label
    #: (e.g. the tightened specs from ``repro check
    #: --emit-minimal-pools``).  A label present here replaces the
    #: policy-derived spec entirely; absent labels keep the default.
    filter_overrides: Optional[Dict[str, FilterSpec]] = None


@dataclass
class DispatchStats:
    """Per-gateway dispatch-cache counters.

    The cache keys on call site (framework, API name) and holds its
    :data:`Route`.  Nothing in a route depends on the framework state,
    so no transition invalidates an entry: the state enters routing
    afresh on every dispatch (see ``_route``).
    """

    hits: int = 0
    misses: int = 0
    #: Frame templates (re)built — once per agent, again after restart.
    frame_rebuilds: int = 0


@dataclass
class SecurityEvent:
    """One mitigated (or observed) security-relevant runtime event."""

    kind: str
    qualname: str
    agent: str
    detail: str
    at_ns: int


def build_filter_specs(
    plan: PartitionPlan,
    categorization: Categorization,
    config: FreePartConfig,
) -> Dict[int, Any]:
    """Per-partition seccomp filter specs (shared by gateways and pools)."""
    path_policies = config.path_policies or {}
    overrides = config.filter_overrides or {}
    return {
        partition.index: (
            overrides[partition.label]
            if partition.label in overrides
            else filter_spec_for_partition(
                partition,
                categorization,
                # Manually sub-partitioned agents (labelled "type#n") get
                # tight per-group filters (Appendix A.6); full-type agents
                # get the Table 7 pool.
                widen_to_pool="#" not in partition.label,
                path_prefixes=path_policies.get(partition.api_type),
            )
        )
        for partition in plan.partitions
    }


#: A call site's route: its API, its categorization entry and the
#: partition it runs in, None for a type-neutral API (it runs in the
#: agent of the current state).  Nothing in it depends on the state.
Route = Tuple[FrameworkAPI, Any, Optional[Partition]]


def resolve_route(
    api: FrameworkAPI, categorization: Categorization, plan: PartitionPlan
) -> Route:
    """An API's route under a categorization and a plan.

    Raises :class:`~repro.errors.UncategorizableAPI` for an API the
    analysis did not categorize.
    """
    qualname = api.spec.qualname
    entry = categorization.get(qualname)
    if entry.neutral:
        return api, entry, None
    partition = plan.partition_of(qualname)
    if partition is None:
        partition = plan.partition_for_type(entry.api_type)
    return api, entry, partition


def release_objects(
    refs: List[ObjectRef], agents: Iterable[AgentProcess]
) -> None:
    """Release the object behind each of ``refs``, in order, and empty
    the list.

    The owner, found by (pid, generation) among the running ``agents``,
    releases its buffer, and every other running agent drops its lazy
    copy.  A crashed or restarted owner has nothing left to release.  No
    release costs virtual time.
    """
    running = ProcessState.RUNNING
    owners: Dict[int, SimProcess] = {}
    copies = []
    for agent in agents:
        process = agent.process
        if process.state is running:
            owners[process.pid] = process
            resident = agent._resident
            if resident:
                copies.append((resident, process.memory))
    for ref in refs:  # a handle dying meanwhile joins this pass
        owner = owners.get(ref.owner_pid)
        if owner is not None and owner.generation == ref.owner_generation:
            owner.memory.release_buffer(ref.buffer_id)
        if copies:
            key = (ref.owner_pid, ref.owner_generation, ref.buffer_id)
            for resident, memory in copies:
                copy = resident.pop(key, None)
                if copy is not None:
                    memory.release_buffer(copy.buffer_id)
    refs.clear()


_PROCESS_OF = operator.attrgetter("process")


def _roster(
    host: SimProcess, agents: Dict[int, AgentProcess]
) -> Callable[[], List[SimProcess]]:
    """The state machine's process roster: the host, then each agent's
    live process (a restart replaces it).

    It closes over the host and the agent map, not the gateway, so the
    gateway and its machine form no reference cycle and are freed as
    soon as the last reference goes, without the cycle collector.
    """
    return lambda: [host, *map(_PROCESS_OF, agents.values())]


def build_agents(
    kernel: SimKernel,
    plan: PartitionPlan,
    categorization: Categorization,
    config: FreePartConfig,
    name_suffix: str = "",
) -> Dict[int, AgentProcess]:
    """Spawn one agent process per partition.

    The one-shot gateway calls this once; the serving layer calls it
    ``pool_size`` times per partition to stock its shared agent pools.
    """
    filter_specs = build_filter_specs(plan, categorization, config)
    agents = {
        partition.index: AgentProcess(
            kernel,
            partition,
            filter_spec=filter_specs.get(partition.index),
            restrict_syscalls=config.restrict_syscalls,
            max_restarts=config.max_restarts_per_agent,
            zero_copy=config.zero_copy,
        )
        for partition in plan.partitions
    }
    if name_suffix:
        for agent in agents.values():
            agent.process.name = f"{agent.process.name}:{name_suffix}"
    return agents


class FreePartGateway(ApiGateway):
    """The online runtime: hooked API dispatch with enforcement."""

    def __init__(
        self,
        kernel: SimKernel,
        host: SimProcess,
        plan: PartitionPlan,
        categorization: Categorization,
        config: FreePartConfig,
        agents: Optional[Dict[int, AgentProcess]] = None,
    ) -> None:
        super().__init__(kernel, host)
        self.plan = plan
        self.categorization = categorization
        self.config = config
        self.events: List[SecurityEvent] = []
        #: Requests retransmitted because the message or its reply was
        #: lost in flight (at-least-once recovery, deduped at the agent).
        self.retransmits = 0
        #: Sends retried after a transient ChannelFull.
        self.send_backoff_retries = 0
        #: Partition label of the most recent agent crash (breaker
        #: attribution in the serving layer).
        self.last_crash_partition: Optional[str] = None
        self.host_store = ObjectStore(host)
        self._host_refs: Dict[int, ObjectRef] = {}
        #: Refs of the handles this gateway made that the host dropped
        #: since the last call, in the order they died.
        self._released: List[ObjectRef] = []
        self.dispatch_stats = DispatchStats()
        #: Call-site dispatch cache: (framework, name) -> its route.  A
        #: serving gateway swaps in its server's shared memo.
        self._dispatch_cache: Dict[Tuple[str, str], Route] = {}
        #: Prebuilt RPC frame templates: partition index -> the process
        #: generation the template was built against.  A send is "framed"
        #: (cheaper fixed cost) only while the template matches the live
        #: process; restarts bump the generation and force a rebuild.
        self._frame_templates: Dict[int, int] = {}
        self._annotations = {a.tag: a for a in config.annotations}
        #: Agents may be injected (leased from a serving pool) instead of
        #: spawned per gateway; the gateway then shares, not owns, them.
        self.owns_agents = agents is None
        self.agents: Dict[int, AgentProcess] = (
            build_agents(kernel, plan, categorization, config)
            if agents is None
            else agents
        )
        self.machine = TemporalStateMachine(
            processes=_roster(host, self.agents),
            enforce=config.enforce_permissions,
            annotated_tags=[a.tag for a in config.annotations],
            tracer=kernel.tracer,
        )

    # ------------------------------------------------------------------
    # Process roster
    # ------------------------------------------------------------------

    @property
    def process_count(self) -> int:
        """Host program process + one agent per partition."""
        return 1 + len(self.agents)

    # ------------------------------------------------------------------
    # State-aware host allocation
    # ------------------------------------------------------------------

    @property
    def state_label(self) -> str:
        return self.machine.state_label

    def host_alloc(self, tag: str, payload: Any) -> Buffer:
        """Define a host variable; custom data may require an annotation."""
        if self.config.strict_annotations and not isinstance(payload, DataObject):
            if tag not in self._annotations:
                raise AnnotationError(
                    f"custom data structure {tag!r} needs a MemoryLayout "
                    "annotation for permission enforcement"
                )
        return super().host_alloc(tag, payload)

    # ------------------------------------------------------------------
    # Hooked API dispatch
    # ------------------------------------------------------------------

    def _route(self, framework: str, name: str):
        """Resolve an API, advance the state machine, pick its partition.

        Steady-state calls hit the per-call-site dispatch cache and skip
        re-resolution and re-categorization.  The cache holds only what
        no state changes (the :data:`Route`); the state is read on
        *every* dispatch, cached or not: a non-neutral API drives
        ``observe_call``, so temporal freezing (and the frozen-write
        SIGSEGV it arms) can never be bypassed by a hit, and a
        type-neutral API runs in the current state's agent.
        """
        key = (framework, name)
        route = self._dispatch_cache.get(key)
        if route is not None:
            self.dispatch_stats.hits += 1
        else:
            self.dispatch_stats.misses += 1
            route = self._dispatch_cache[key] = resolve_route(
                self._resolve_api(framework, name),
                self.categorization, self.plan,
            )
        api, entry, partition = route
        spec = api.spec

        if partition is None:
            # Type-neutral APIs run in the agent of the current state.
            effective_type = (
                api_type_of_state(self.machine.state) or APIType.PROCESSING
            )
            partition = self.plan.partition_for_type(effective_type)
        else:
            effective_type = entry.api_type
            self.machine.observe_call(entry.api_type)

        self.stats.record(CallRecord(
            framework=spec.framework, name=spec.name,
            qualname=spec.qualname, api_type=effective_type,
        ))
        return api, partition

    def _frame_ready(self, agent: AgentProcess) -> bool:
        """Whether a prebuilt frame template covers this agent right now.

        The first send to an agent pays full framing cost while the
        template is built; subsequent sends are "framed" (discounted
        fixed cost).  A restarted agent has a new process generation, so
        its template is rebuilt — the stale template can never frame a
        message for a process it was not built against.
        """
        index = agent.partition.index
        generation = agent.process.generation
        if self._frame_templates.get(index) == generation:
            return True
        self._frame_templates[index] = generation
        self.dispatch_stats.frame_rebuilds += 1
        return False

    def _ensure_agent(self, partition) -> AgentProcess:
        """The partition's agent, restarted first if it crashed."""
        agent = self.agents[partition.index]
        if agent.process.state is not ProcessState.RUNNING:
            if not self.config.restart_agents:
                raise AgentUnavailable(
                    f"agent {partition.label!r} crashed and restart is disabled"
                )
            agent.restart()  # raises AgentUnavailable past the restart cap
        return agent

    def call(self, framework: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Hooked dispatch: route the API to its agent with enforcement."""
        if framework == OBS_FRAMEWORK:
            return self._obs_annotation(name, args, kwargs)
        tracer = self.kernel.tracer
        # Hot (~18k calls/suite pass): a guard costs less than a no-op span.
        if not tracer.enabled:
            return self._dispatch_api(framework, name, args, kwargs)
        with tracer.span("rpc", category="rpc", pid=self.host.pid,
                         api=f"{framework}.{name}"):
            return self._dispatch_api(framework, name, args, kwargs)

    def _dispatch_api(
        self, framework: str, name: str, args: tuple, kwargs: dict
    ) -> Any:
        if self._released:
            self._release_dropped()
        api, partition = self._route(framework, name)
        spec = api.spec
        agent = self._ensure_agent(partition)
        tracer = self.kernel.tracer
        if tracer.enabled and tracer.current is not None:
            tracer.current.annotate(
                qualname=spec.qualname,
                api_type=spec.ground_truth.value,
                agent=partition.label,
                agent_pid=agent.process.pid,
            )

        request = self._build_request(
            agent, spec.qualname, args, kwargs, self.machine.state_label
        )

        def execute() -> Any:
            if not self.config.ldc:
                self._eager_copy_args(agent, request)
            return agent.execute(
                api, request, self._resolve_ref, ldc=self.config.ldc
            )

        crash_retries = 0
        while True:
            try:
                response = self._rpc_roundtrip(
                    agent, request, execute,
                    framed=self._frame_ready(agent),
                )
            except (ProcessCrashed, SyscallDenied, SegmentationFault) as exc:
                self._handle_agent_crash(agent, spec.qualname, exc)
                if crash_retries < self.config.rpc_retries and agent.alive:
                    # Retry the SAME request (same sequence number): the
                    # restarted agent re-executes from its checkpoint —
                    # the at-least-once downgrade of Section 4.4.2.
                    crash_retries += 1
                    continue
                raise FrameworkCrash(spec.qualname, exc) from exc
            break
        self._maybe_end_init(agent)
        return self._finish_value(agent, spec, response.value)

    # ------------------------------------------------------------------
    # Hardened request/response exchange
    # ------------------------------------------------------------------

    def _resend_with_backoff(
        self, exc: ChannelFull, channel, sender_pid: int, kind: str,
        payload: Any, framed: bool,
    ):
        """Retry a send that found ``channel`` full, backing off
        exponentially.

        Permanent :class:`ChannelFull` (a message bigger than the ring
        buffer itself) propagates immediately — no amount of waiting can
        deliver it.  Transient fullness is retried up to
        SEND_BACKOFF_RETRIES times; the final error propagates.
        """
        backoff_ns = SEND_BACKOFF_BASE_NS
        try:
            for attempt in range(1, SEND_BACKOFF_RETRIES + 1):
                if exc.permanent:
                    raise exc
                with self.kernel.tracer.span(
                    "send_backoff", category="ipc", pid=sender_pid,
                    channel=channel.name, attempt=attempt,
                    backoff_ns=backoff_ns,
                ):
                    self.kernel.clock.advance(backoff_ns)
                self.send_backoff_retries += 1
                backoff_ns = min(backoff_ns * 2, SEND_BACKOFF_CAP_NS)
                try:
                    return channel.send(
                        sender_pid, kind, payload, framed=framed
                    )
                except ChannelFull as retry_exc:
                    exc = retry_exc
            raise exc
        finally:
            # A caught failure's traceback holds this frame, so holding
            # the failure here past the return would make a cycle.
            exc = None

    def _rpc_roundtrip(
        self,
        agent: AgentProcess,
        payload: Any,
        execute,
        request_kind: str = "request",
        response_kind: str = "response",
        framed: bool = False,
    ) -> Any:
        """One at-least-once request/response exchange over the agent's
        ring buffers.

        A dropped request or reply is detected (draining the queue after
        the send finds nothing) and the request is retransmitted with
        the same payload — the agent's reply cache turns re-deliveries
        into duplicates instead of double-executions.  Every drained
        delivery is executed, duplicates included, exercising the dedup
        path; the last reply drained wins.  Gives up with
        :class:`RpcError` after MAX_RPC_RETRANSMITS retransmissions.
        A send that finds the channel full backs off and retries
        (:meth:`_resend_with_backoff`).
        """
        requests, replies = agent.channel.request, agent.channel.response
        host_pid = self.host.pid
        attempts = 0
        while True:
            if attempts:
                # A retransmission discards whatever the lost attempt
                # left queued.  A first attempt needs no drain: every
                # exchange empties both queues before it returns or
                # raises, and a restarted agent's ring buffers start
                # empty.
                requests.drain()
                replies.drain()
            try:
                requests.send(host_pid, request_kind, payload, framed=framed)
            except ChannelFull as exc:
                self._resend_with_backoff(
                    exc, requests, host_pid, request_kind, payload, framed,
                )
            deliveries = requests.drain()
            if not deliveries:
                # Request lost in flight: retransmit.
                attempts += 1
                self.retransmits += 1
                if attempts > MAX_RPC_RETRANSMITS:
                    raise RpcError(
                        f"request to agent {agent.partition.label!r} lost "
                        f"{attempts} times; giving up"
                    )
                continue
            for _ in deliveries:
                # Each delivery (duplicates included) reaches the agent;
                # the reply cache makes re-execution a cache hit.
                response = execute()
            agent_pid = agent.process.pid
            try:
                replies.send(agent_pid, response_kind, response, framed=framed)
            except ChannelFull as exc:
                self._resend_with_backoff(
                    exc, replies, agent_pid, response_kind, response, framed,
                )
            delivered = replies.drain()
            if not delivered:
                # Reply lost in flight: retransmit the request; the
                # agent answers from its reply cache without re-applying
                # stateful effects.
                attempts += 1
                self.retransmits += 1
                if attempts > MAX_RPC_RETRANSMITS:
                    raise RpcError(
                        f"reply from agent {agent.partition.label!r} lost "
                        f"{attempts} times; giving up"
                    )
                continue
            return delivered[-1].payload

    def _release_dropped(self) -> None:
        """Release the object behind every handle the host dropped, in
        the order the handles died (:func:`release_objects`)."""
        release_objects(self._released, self.agents.values())

    def _finish_value(self, agent: AgentProcess, spec, value: Any) -> Any:
        """Post-process one response value back into the host's view.

        A reply's ref must name the replying agent's live process, the
        only store an agent registers results in.  Any other ref is a
        forged reply: see :meth:`_reject_forged_reply`.
        """
        if isinstance(value, ObjectRef):
            process = agent.process
            if (value.owner_pid != process.pid
                    or value.owner_generation != process.generation):
                self._reject_forged_reply(
                    agent, spec.qualname, value, "it does not own"
                )
            return RemoteHandle(value, self._released)
        if not self.config.ldc and isinstance(value, DataObject):
            # Eager mode: the result is copied back into the host program.
            self.kernel.transfer(
                agent.process, self.host, value,
                tag=f"eager:{spec.name}",
                origin_state=self.machine.state_label,
                lazy=False, count_message=False,
            )
        return value

    def _reject_forged_reply(
        self, agent: AgentProcess, qualname: str, ref: ObjectRef, why: str
    ) -> NoReturn:
        """Handle a reply naming an object its agent may not hand over
        (``why`` says which) as a seccomp kill is handled: record the
        security event, crash the agent (restarting it per config) and
        fail the call."""
        exc = ForgedReply(
            f"agent {agent.partition.label!r} (pid {agent.process.pid}) "
            f"replied with a ref {why} (pid={ref.owner_pid}, "
            f"gen={ref.owner_generation}, buf={ref.buffer_id})"
        )
        self._handle_agent_crash(agent, qualname, exc)
        raise FrameworkCrash(qualname, exc) from exc

    def _build_request(
        self,
        agent: AgentProcess,
        qualname: str,
        args: tuple,
        kwargs: dict,
        state_label: str,
    ) -> RpcRequest:
        """One API call's request, stamped with the state it was routed in.

        With LDC, data arguments cross as references; without it they
        ride by value (and :meth:`_eager_copy_args` copies them).
        """
        if not self.config.ldc:
            pairs = tuple(kwargs.items())
        else:
            wrap = self._wrap_outbound
            args = tuple(map(wrap, args))
            pairs = (
                tuple([(key, wrap(value)) for key, value in kwargs.items()])
                if kwargs else ()
            )
        return RpcRequest(
            seq=agent.sequence.next_seq(),
            api_qualname=qualname,
            args=args,
            kwargs=pairs,
            state_label=state_label,
            nbytes=request_nbytes(args, pairs),
        )

    def _wrap_outbound(self, value: Any) -> Any:
        """Replace data objects with references (the LDC request path)."""
        if isinstance(value, (list, tuple)):
            wrapped = [self._wrap_outbound(item) for item in value]
            return type(value)(wrapped) if isinstance(value, tuple) else wrapped
        if isinstance(value, RemoteHandle):
            return value.ref
        if isinstance(value, DataObject):
            return self._host_ref(value)
        return value

    def _host_ref(self, value: DataObject) -> ObjectRef:
        """The ref a host data object crosses as, registered in the host
        store on its first crossing."""
        key = id(value)
        ref = self._host_refs.get(key)
        if ref is None:
            ref = self.host_store.register(
                value, state_label=self.machine.state_label, tag="host-object"
            )
            self._host_refs[key] = ref
        return ref

    def _eager_copy_args(
        self, agent: AgentProcess, request: RpcRequest
    ) -> None:
        """Non-LDC mode: physically copy a request's object arguments
        into the agent, defined in the state the call was routed in."""
        for value in request.args:
            if isinstance(value, DataObject):
                self.kernel.transfer(
                    self.host, agent.process, value,
                    tag="eager-arg",
                    origin_state=request.state_label,
                    lazy=False, count_message=False,
                )

    def _resolve_ref(self, ref: ObjectRef) -> Any:
        """Find a reference's payload in whichever process owns it."""
        if ref.owner_pid == self.host.pid:
            return self.host_store.fetch(ref)
        for agent in self.agents.values():
            if (
                agent.process.pid == ref.owner_pid
                and agent.process.generation == ref.owner_generation
            ):
                return agent.fetch_local(ref)
        raise StaleObjectRef(
            f"no live process owns ref (pid={ref.owner_pid}, "
            f"gen={ref.owner_generation}); its agent probably crashed"
        )

    def _handle_agent_crash(
        self, agent: AgentProcess, qualname: str, exc: Exception
    ) -> None:
        agent.process.crash(str(exc))
        agent.stats.crashes += 1
        self.last_crash_partition = agent.partition.label
        self.events.append(SecurityEvent(
            kind=type(exc).__name__,
            qualname=qualname,
            agent=agent.partition.label,
            detail=str(exc),
            at_ns=self.kernel.clock.now_ns,
        ))
        if self.config.restart_agents:
            try:
                agent.restart()
            except AgentUnavailable:
                # Restart budget exhausted: the agent stays down; the
                # caller still sees this crash as a FrameworkCrash, and
                # subsequent dispatches surface AgentUnavailable.
                pass

    def _maybe_end_init(self, agent: AgentProcess) -> None:
        if (
            self.config.restrict_syscalls
            and agent.stats.requests >= 1
            and agent.process.filter.in_init_phase
        ):
            agent.end_init_phase()

    # ------------------------------------------------------------------
    # Host dereference (rare; counted as a non-lazy copy)
    # ------------------------------------------------------------------

    def materialize(self, value: Any) -> Any:
        """Copy a remote result's data into the host (counted non-lazy)."""
        if isinstance(value, RemoteHandle):
            ref = value.ref
            payload = self._resolve_ref(ref)
            if ref.owner_pid != self.host.pid:
                owner = self.kernel.process(ref.owner_pid)
                self.kernel.transfer(
                    owner, self.host, payload,
                    tag=f"materialize:{ref.kind}",
                    origin_state=self.machine.state_label,
                    lazy=False,
                )
            if isinstance(payload, DataObject):
                return payload.data
            return payload
        if isinstance(value, DataObject):
            return value.data
        return value

    # ------------------------------------------------------------------
    # Multi-threading (Section 6)
    # ------------------------------------------------------------------

    def for_thread(self, name: str = "worker") -> "FreePartGateway":
        """A gateway for another host thread.

        The paper: "for multi-threading processes, each thread will have
        its own set of four agent processes, hence avoiding race
        conditions."  The returned gateway shares this one's host
        process, plan, and categorization but owns fresh agents and an
        independent framework state machine.
        """
        sibling = FreePartGateway(
            kernel=self.kernel,
            host=self.host,
            plan=self.plan,
            categorization=self.categorization,
            config=self.config,
        )
        for agent in sibling.agents.values():
            agent.process.name = f"{agent.process.name}:{name}"
        return sibling

    # ------------------------------------------------------------------
    # Teardown / reporting
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every agent: channels closed, processes exited, memory
        released.

        Gateways running over *leased* pool agents leave them alone — the
        pool owns their lifecycle and will reuse them for other tenants.
        """
        if not self.owns_agents:
            return
        for agent in self.agents.values():
            agent.stop()

    def total_restarts(self) -> int:
        """Agent restarts performed so far."""
        return sum(agent.stats.restarts for agent in self.agents.values())

    def total_crashes(self) -> int:
        """Agent crashes observed so far."""
        return sum(agent.stats.crashes for agent in self.agents.values())


@dataclass
class RunReport:
    """Everything a single application run produced (virtual metrics)."""

    app_name: str
    gateway: str
    virtual_seconds: float
    ipc_messages: int
    ipc_bytes: int
    lazy_copies: int
    lazy_copy_bytes: int
    nonlazy_copies: int
    nonlazy_copy_bytes: int
    api_calls: int
    transitions: int
    protected_buffers: int
    crashes: int
    restarts: int
    processes: int
    zero_copy_transfers: int = 0
    zero_copy_bytes: int = 0
    cow_downgrades: int = 0
    cow_bytes: int = 0
    framed_messages: int = 0
    failed: bool = False
    error: str = ""
    result: Any = None

    @property
    def data_transferred_bytes(self) -> int:
        return self.ipc_bytes + self.lazy_copy_bytes + self.zero_copy_bytes

    @property
    def lazy_fraction(self) -> float:
        lazy = self.lazy_copies + self.zero_copy_transfers
        total = lazy + self.nonlazy_copies
        return lazy / total if total else 0.0


class FreePart:
    """Offline + online driver (the top of Fig. 5)."""

    def __init__(
        self,
        kernel: Optional[SimKernel] = None,
        config: Optional[FreePartConfig] = None,
    ) -> None:
        self.kernel = kernel if kernel is not None else SimKernel()
        self.config = config if config is not None else FreePartConfig()
        if self.config.trace:
            self.kernel.enable_tracing()
        self._analyzer = HybridAnalyzer()
        self._categorization: Optional[Categorization] = None

    def analyze(
        self, apis: Optional[Sequence[FrameworkAPI]] = None
    ) -> Categorization:
        """Offline phase: hybrid categorization of the used APIs."""
        if apis is None:
            apis = iter_apis()
        self._categorization = self._analyzer.categorize(apis)
        return self._categorization

    def build_plan(self, categorization: Categorization) -> PartitionPlan:
        """Build the partition plan the config asks for."""
        if self.config.subpartitions:
            return sub_partition_plan(categorization, self.config.subpartitions)
        if self.config.partition_count <= 4:
            return four_way_plan(categorization)
        import random

        return split_processing_plan(
            categorization,
            self.config.partition_count,
            rng=random.Random(self.config.partition_seed),
        )

    def deploy(
        self,
        used_apis: Optional[Sequence[FrameworkAPI]] = None,
        host: Optional[SimProcess] = None,
        plan: Optional[PartitionPlan] = None,
    ) -> FreePartGateway:
        """Online phase: spawn host + agents and return the hooked gateway."""
        categorization = self._categorization
        if categorization is None or used_apis is not None:
            categorization = self.analyze(used_apis)
        if plan is None:
            plan = self.build_plan(categorization)
        if host is None:
            host = self.kernel.spawn("host-program", role="host", charge=False)
        return FreePartGateway(
            kernel=self.kernel,
            host=host,
            plan=plan,
            categorization=categorization,
            config=self.config,
        )
