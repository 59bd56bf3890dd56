"""Multi-node serving: sticky tenant routing and node-failure recovery.

A :class:`ClusterServer` runs one :class:`~repro.serve.server.PipelineServer`
per cluster node and load-balances tenants across them with *sticky*
routing: a tenant is pinned to one node (by its dataset shard when a
manifest is loaded, by stable hash otherwise), so every
:class:`~repro.serve.tenancy.TenantRegistry` reference it is ever minted
stays node-local — requests never dereference across the wire.

The drain loop interleaves nodes round-robin, one request per living
node per round, and consults the armed fault plan's node-failure hook
between dispatches.  When a node dies mid-drain its undispatched
requests are evicted from its admission queue, the shards it owned are
re-placed onto survivors (re-written from the durable dataset — the
simulated analogue of re-reading object storage), affected tenants are
re-routed, and the evicted requests are resubmitted — degraded-but-
bounded goodput, never silent loss.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.gateway import ApiCall
from repro.core.runtime import FreePartConfig
from repro.errors import ClusterError
from repro.serve.server import PipelineServer, ServeRequest, ServeResponse

from repro.cluster.kernel import ClusterKernel
from repro.cluster.sharding import ShardManifest, shard_dataset, stable_hash


class ClusterServer:
    """Per-node pipeline servers behind one sticky-routing front door."""

    def __init__(
        self,
        cluster: Optional[ClusterKernel] = None,
        nodes: int = 2,
        config: Optional[FreePartConfig] = None,
        pool_size: int = 2,
        batching: bool = True,
        queue_capacity: int = 64,
        per_tenant_limit: Optional[int] = None,
        max_retries: int = 1,
    ) -> None:
        self.cluster = (
            cluster if cluster is not None else ClusterKernel(nodes=nodes)
        )
        self.config = config if config is not None else FreePartConfig()
        self.servers: Dict[int, PipelineServer] = {
            node.index: PipelineServer(
                kernel=node.kernel,
                config=self.config,
                pool_size=pool_size,
                batching=batching,
                queue_capacity=queue_capacity,
                per_tenant_limit=per_tenant_limit,
                max_retries=max_retries,
            )
            for node in self.cluster.nodes
        }
        for index, server in self.servers.items():
            # Request events from every node carry a stable node label so
            # cluster-wide SLO evaluation can slice per node.
            server.node_label = f"node{index}"
        self.manifest: Optional[ShardManifest] = None
        self.shard_assignment: Dict[int, int] = {}
        self._durable: Dict[str, Any] = {}
        self._tenant_node: Dict[str, int] = {}
        self._tenant_shard: Dict[str, int] = {}
        self.submitted = 0
        self.resubmissions = 0
        self.shards_replaced = 0

    # ------------------------------------------------------------------
    # Dataset sharding
    # ------------------------------------------------------------------

    def load_dataset(
        self, manifest: ShardManifest, payloads: Dict[str, Any]
    ) -> Dict[int, int]:
        """Shard the dataset across nodes; keep a durable copy.

        The durable copy is what shard re-placement re-writes after a
        node failure — the cluster's object-storage analogue, outside
        any single machine's blast radius.
        """
        self.manifest = manifest
        self._durable = dict(payloads)
        self.shard_assignment = shard_dataset(self.cluster, manifest, payloads)
        return dict(self.shard_assignment)

    def pin_tenant_to_item(self, tenant_id: str, item: str) -> int:
        """Sticky-route a tenant to the node owning its dataset item."""
        if self.manifest is None:
            raise ClusterError("no shard manifest loaded")
        shard = self.manifest.shard_of(item)
        self._tenant_shard[tenant_id] = shard.index
        self._tenant_node.pop(tenant_id, None)
        return self.route(tenant_id)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, tenant_id: str) -> int:
        """The tenant's home node (sticky; re-placed when it died)."""
        node_index = self._tenant_node.get(tenant_id)
        if node_index is not None and self.cluster.nodes[node_index].alive:
            return node_index
        shard_index = self._tenant_shard.get(tenant_id)
        if shard_index is not None:
            node_index = self.shard_assignment[shard_index]
        else:
            living = [node.index for node in self.cluster.living()]
            if not living:
                raise ClusterError("every node in the cluster is down")
            node_index = living[stable_hash(tenant_id) % len(living)]
        self._tenant_node[tenant_id] = node_index
        return node_index

    def home(self, tenant_id: str) -> PipelineServer:
        """The server of the tenant's home node."""
        return self.servers[self.route(tenant_id)]

    def nodes(self) -> List[PipelineServer]:
        """Every node's server, in node order (dead nodes included)."""
        return [self.servers[index] for index in sorted(self.servers)]

    def advance_to(self, at_ns: int) -> None:
        """Idle every living node's clock forward; a dead one stopped."""
        for node in self.cluster.living():
            self.servers[node.index].advance_to(at_ns)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------

    def submit(
        self,
        tenant_id: str,
        calls: Sequence[ApiCall],
        deadline_ns: Optional[int] = None,
        priority: int = 0,
    ) -> ServeRequest:
        """Admit a request on the tenant's home node."""
        node_index = self.route(tenant_id)
        request = self.servers[node_index].submit(
            tenant_id, calls, deadline_ns, priority=priority
        )
        self.submitted += 1
        return request

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def step(self) -> List[ServeResponse]:
        """One round-robin pass: at most one dispatch per living node.

        Consults the node-failure fault hook after every dispatch, like
        :meth:`drain` always did; open-loop drivers call this between
        arrival admissions so traffic and failures interleave.  Returns
        the responses this pass produced (empty = every queue idle).
        """
        served: List[ServeResponse] = []
        for node in self.cluster.nodes:
            if not node.alive:
                continue
            response = self.servers[node.index].serve_one()
            if response is not None:
                served.append(response)
            victim = self.cluster.maybe_fail_node()
            if victim is not None:
                self._handle_node_failure(victim)
        return served

    def drain(self) -> List[ServeResponse]:
        """Serve everything queued, interleaving nodes round-robin.

        Consults the node-failure fault hook between dispatches; a
        failed node's pending work is re-placed and the loop continues
        until every surviving queue is empty.
        """
        served: List[ServeResponse] = []
        while True:
            pass_served = self.step()
            if not pass_served and not any(
                self.servers[node.index].queue.pending
                for node in self.cluster.nodes if node.alive
            ):
                break
            served.extend(pass_served)
        return served

    def _handle_node_failure(self, victim: int) -> None:
        """Re-place a dead node's shards and undispatched requests."""
        evicted = self.servers[victim].queue.evict_pending()
        living = [node.index for node in self.cluster.living()]
        if not living:
            raise ClusterError("every node in the cluster is down")
        if self.manifest is not None:
            for shard in self.manifest.shards:
                if self.shard_assignment.get(shard.index) != victim:
                    continue
                new_node = living[stable_hash(shard.key) % len(living)]
                self.shard_assignment[shard.index] = new_node
                node = self.cluster.node(new_node)
                for item in shard.items:
                    payload = self._durable.get(item)
                    if payload is not None:
                        node.kernel.fs.write_file(item, payload)
                self.shards_replaced += 1
        for tenant_id, node_index in list(self._tenant_node.items()):
            if node_index == victim:
                del self._tenant_node[tenant_id]
        for request in evicted:
            self.resubmissions += 1
            self.submit(
                request.tenant_id, request.calls, request.deadline_ns,
                priority=request.priority,
            )

    # ------------------------------------------------------------------
    # Reporting / teardown
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Cluster-wide rollup: node stats + parallel-makespan throughput."""
        per_node: Dict[int, Dict[str, Any]] = {}
        requests = 0
        makespan_seconds = 0.0
        for index, server in sorted(self.servers.items()):
            node_stats = server.stats()
            per_node[index] = node_stats
            requests += node_stats["requests"]
            makespan_seconds = max(
                makespan_seconds, node_stats["makespan_seconds"]
            )
        responses = [
            response for server in self.nodes()
            for response in server.responses
        ]
        ok = sum(1 for response in responses if response.ok)
        failed = len(responses) - ok
        # A resubmission is the same client request re-placed on a new
        # node, so goodput is measured against unique client requests:
        # 1.0 means every admitted request eventually got an ok answer.
        client_requests = self.submitted - self.resubmissions
        return {
            "nodes": self.cluster.node_count,
            "living_nodes": len(self.cluster.living()),
            "requests": requests,
            "submitted": self.submitted,
            "client_requests": client_requests,
            "ok": ok,
            "failed": failed,
            "goodput": (ok / client_requests) if client_requests else 0.0,
            "makespan_seconds": makespan_seconds,
            "requests_per_second": (
                requests / makespan_seconds if makespan_seconds > 0 else 0.0
            ),
            "makespan_ns": self.cluster.makespan_ns,
            "node_failures": self.cluster.node_failures,
            "resubmissions": self.resubmissions,
            "shards_replaced": self.shards_replaced,
            "inter_node": self.cluster.accounting.summary(),
            "per_node": per_node,
        }

    def shutdown(self) -> None:
        for index, server in sorted(self.servers.items()):
            if self.cluster.nodes[index].alive:
                server.shutdown()
