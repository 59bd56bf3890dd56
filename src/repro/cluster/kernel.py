"""The simulated cluster: N machines joined by costed inter-node links.

A :class:`ClusterKernel` owns N independent :class:`~repro.sim.kernel.SimKernel`
nodes.  Each node keeps its *own* virtual clock — nodes genuinely run in
parallel, so the cluster-wide makespan is the maximum over node clocks,
not their sum; a shared clock would serialize the simulation and make
multi-node scaling definitionally impossible.

Inter-node data movement goes through :meth:`ClusterKernel.transfer`:
the sender's clock pays serialization plus the link's per-message cost,
the payload arrives at ``sender now + latency + bytes/bandwidth``, and
the receiver's clock advances to the arrival time if it is behind (the
receive itself is a cooperative hand-off, like the intra-node futex
model).  Every crossing lands in the cluster-wide ``inter_node``
accounting lane, which :meth:`verify_accounting` reconciles exactly
against the per-link counters and the per-node
:class:`~repro.sim.ipc.IpcAccounting` totals — any drift raises
:class:`~repro.errors.AccountingError` naming the off-by lane.
Sharded serving (:mod:`~repro.cluster.serve`) keeps each request on its
tenant's node, so it ships no object between nodes and leaves the lane
at zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ClusterError, NodeDown
from repro.faults.injector import FaultInjector
from repro.sim.ipc import reconcile_lanes
from repro.sim.kernel import SimKernel
from repro.sim.memory import payload_nbytes

from repro.cluster.topology import ClusterTopology


@dataclass
class ClusterAccounting:
    """Cluster-wide counters for the ``inter_node`` lane."""

    inter_node_messages: int = 0
    inter_node_bytes: int = 0
    #: Cross-node LDC dereferences: transfers made with ``deref=True``,
    #: where a reference crossed a node boundary and fell back from
    #: zero-copy remap to framed byte-copy.
    cross_node_derefs: int = 0
    cross_node_deref_bytes: int = 0
    #: Directed per-link counters: (src, dst) -> [messages, bytes].
    per_link: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)

    def record_message(self, src: int, dst: int, nbytes: int) -> None:
        self.inter_node_messages += 1
        self.inter_node_bytes += nbytes
        entry = self.per_link.setdefault((src, dst), [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def record_deref(self, nbytes: int) -> None:
        self.cross_node_derefs += 1
        self.cross_node_deref_bytes += nbytes

    def lanes(self) -> Dict[str, int]:
        return {
            "inter_node.messages": self.inter_node_messages,
            "inter_node.bytes": self.inter_node_bytes,
            "inter_node.cross_node_derefs": self.cross_node_derefs,
            "inter_node.cross_node_deref_bytes": self.cross_node_deref_bytes,
        }

    def summary(self) -> Dict[str, Any]:
        report = dict(self.lanes())
        report["inter_node.links"] = len(self.per_link)
        return report


class ClusterNode:
    """One machine in the cluster plus its liveness state."""

    def __init__(self, index: int, kernel: SimKernel) -> None:
        self.index = index
        self.kernel = kernel
        self.alive = True
        self.failed_at_ns = 0
        self.failure_reason = ""

    def fail(self, reason: str) -> None:
        self.alive = False
        self.failed_at_ns = self.kernel.clock.now_ns
        self.failure_reason = reason

    def require_alive(self) -> None:
        if not self.alive:
            raise NodeDown(self.index, self.failure_reason)


class ClusterKernel:
    """N simulated machines and the links between them."""

    def __init__(
        self,
        nodes: int = 2,
        topology: Optional[ClusterTopology] = None,
        cost_model: Optional[Any] = None,
    ) -> None:
        if nodes < 1:
            raise ClusterError(f"cluster needs >= 1 node, got {nodes}")
        if topology is None:
            topology = ClusterTopology(nodes=nodes)
        if topology.nodes != nodes:
            raise ClusterError(
                f"topology is for {topology.nodes} nodes, cluster has {nodes}"
            )
        self.topology = topology
        self.nodes: Tuple[ClusterNode, ...] = tuple(
            ClusterNode(index, SimKernel(cost_model=cost_model))
            for index in range(nodes)
        )
        self.accounting = ClusterAccounting()
        self.node_failures = 0
        #: Per-node fault injectors (armed by :meth:`inject_faults`);
        #: they share one plan and one fault-id counter so fault ids are
        #: unique cluster-wide.
        self.injectors: Dict[int, FaultInjector] = {}

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> ClusterNode:
        if not 0 <= index < len(self.nodes):
            raise ClusterError(
                f"no node {index} in a {len(self.nodes)}-node cluster"
            )
        return self.nodes[index]

    def living(self) -> List[ClusterNode]:
        return [node for node in self.nodes if node.alive]

    @property
    def makespan_ns(self) -> int:
        """Cluster wall time: nodes run in parallel, so the max clock."""
        return max(node.kernel.clock.now_ns for node in self.nodes)

    # ------------------------------------------------------------------
    # Observability / fault injection (fan out to every node)
    # ------------------------------------------------------------------

    def enable_tracing(self) -> None:
        """Install a span tracer on every node (per-node trace rows)."""
        for node in self.nodes:
            node.kernel.enable_tracing()

    def inject_faults(self, plan: Any) -> Dict[int, FaultInjector]:
        """Arm one shared fault plan across every node.

        The injectors share the plan's RNG *and* one fault-id counter,
        so the cluster-wide schedule stays a pure function of (seed,
        workload) and fault ids never collide across nodes — the chaos
        "observed" invariant matches ids 1:1 over all node tracers.
        """
        shared_ids = itertools.count(1)
        for node in self.nodes:
            injector = FaultInjector(plan, ids=shared_ids)
            node.kernel.inject_faults(injector)
            self.injectors[node.index] = injector
        return self.injectors

    # ------------------------------------------------------------------
    # Node failure
    # ------------------------------------------------------------------

    def fail_node(self, index: int, reason: str = "node-failure") -> None:
        """Take a node down: every process on it crashes, its clock
        stops, and future transfers to or from it raise NodeDown."""
        node = self.node(index)
        node.require_alive()
        tracer = node.kernel.tracer
        if tracer.enabled:
            tracer.instant(
                "node_failure", category="cluster",
                node=index, reason=reason,
            )
        for process in node.kernel.living():
            process.crash(reason)
        node.fail(reason)
        self.node_failures += 1

    def maybe_fail_node(self) -> Optional[int]:
        """Consult the armed fault plan for a node failure.

        One decision point per call (the serving loop consults between
        dispatches).  At most ``nodes - 1`` failures ever fire — the
        last living node is never taken down, so every campaign run
        retains a quorum of one.  Returns the failed node's index.
        """
        if not self.injectors:
            return None
        living = [node.index for node in self.nodes if node.alive]
        if len(living) <= 1:
            return None
        injector = self.injectors[living[0]]
        victim = injector.node_failure(living)
        if victim is None:
            return None
        self.fail_node(victim)
        return victim

    # ------------------------------------------------------------------
    # Inter-node data movement
    # ------------------------------------------------------------------

    def transfer(
        self,
        src: int,
        dst: int,
        payload: Any,
        kind: str = "data",
        tag: str = "",
        deref: bool = False,
    ) -> int:
        """Ship a payload across the wire from node ``src`` to ``dst``.

        The sender's clock pays serialization + the link's per-message
        cost; the payload arrives ``latency + transmit`` later, and the
        receiver's clock catches up to the arrival time if it is behind
        (it may already be past it — the message landed in its past and
        the receive is free, like any cooperative hand-off).

        ``deref=True`` marks a cross-node LDC dereference: zero-copy
        remap cannot cross address spaces on different machines, so the
        bytes go framed over the wire and into the deref lane.  Returns
        the payload size in bytes.
        """
        if src == dst:
            raise ClusterError(
                f"transfer within node {src} must use SimKernel.transfer"
            )
        source, destination = self.node(src), self.node(dst)
        source.require_alive()
        destination.require_alive()
        nbytes = payload_nbytes(payload)
        link = self.topology.link_between(src, dst)
        cost = source.kernel.clock.cost_model
        send_ns = link.per_message_ns + cost.serialize_cost(nbytes)
        with source.kernel.tracer.span(
            "inter_node_send", category="inter_node",
            node=src, peer=dst, kind=kind, bytes=nbytes, tag=tag,
            deref=deref,
        ):
            source.kernel.clock.advance(send_ns)
        arrival_ns = (
            source.kernel.clock.now_ns
            + link.latency_ns
            + link.transmit_ns(nbytes)
        )
        wait_ns = max(0, arrival_ns - destination.kernel.clock.now_ns)
        with destination.kernel.tracer.span(
            "inter_node_recv", category="inter_node",
            node=dst, peer=src, kind=kind, bytes=nbytes, tag=tag,
            deref=deref,
        ):
            destination.kernel.clock.advance(wait_ns)
        self.accounting.record_message(src, dst, nbytes)
        if deref:
            self.accounting.record_deref(nbytes)
        return nbytes

    # ------------------------------------------------------------------
    # Accounting / reporting
    # ------------------------------------------------------------------

    @property
    def data_transferred_bytes(self) -> int:
        """Every byte moved: per-node totals plus the inter-node lane."""
        return (
            sum(node.kernel.data_transferred_bytes for node in self.nodes)
            + self.accounting.inter_node_bytes
        )

    def verify_accounting(self) -> None:
        """Reconcile the inter_node lane against per-link counters and
        the cluster byte total against per-node lanes; raises
        :class:`~repro.errors.AccountingError` naming the off-by lane."""
        per_link_messages = sum(
            entry[0] for entry in self.accounting.per_link.values()
        )
        per_link_bytes = sum(
            entry[1] for entry in self.accounting.per_link.values()
        )
        node_bytes = 0
        for node in self.nodes:
            lanes = node.kernel.ipc.lanes()
            node_bytes += (
                lanes["message_bytes"]
                + lanes["lazy_copy_bytes"]
                + lanes["zero_copy_bytes"]
            )
        reconcile_lanes(
            "cluster accounting",
            recorded={
                "inter_node.messages": self.accounting.inter_node_messages,
                "inter_node.bytes": self.accounting.inter_node_bytes,
                "total.data_bytes": self.data_transferred_bytes,
            },
            expected={
                "inter_node.messages": per_link_messages,
                "inter_node.bytes": per_link_bytes,
                "total.data_bytes": node_bytes + per_link_bytes,
            },
        )
