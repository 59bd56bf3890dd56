"""Placement-aware pipeline dispatch across cluster nodes.

A :class:`ClusterGateway` runs one offline analysis, then routes every
API call to the node its partition is placed on (one lazily deployed
:class:`~repro.core.runtime.FreePartGateway` per node).  PREV chains
that stay on one node remain ordinary LDC references — zero-copy remap
and all; a chain that crosses nodes cannot share pages between
machines, so the gateway *transparently falls back*: it resolves the
reference on the owning node, ships the bytes framed over the inter-node
link (the ``inter_node`` accounting lane, ``deref=True``), and re-enters
the destination node's LDC machinery as a local object.  Every such
crossing is counted — ``cross_node_derefs`` in the cluster accounting,
an ``inter_node`` span pair in the per-node traces — which is exactly
what the placement-affinity tests assert against.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.gateway import PREV, ApiCall
from repro.core.hybrid import HybridAnalyzer
from repro.core.partitioner import four_way_plan
from repro.core.rpc import RemoteHandle
from repro.core.runtime import FreePartConfig, FreePartGateway
from repro.errors import ClusterError
from repro.frameworks.registry import get_api, iter_apis

from repro.cluster.kernel import ClusterKernel
from repro.cluster.placement import Placement, affinity_placement


class ClusterGateway:
    """Routes one pipeline's calls across placed per-node runtimes."""

    def __init__(
        self,
        cluster: ClusterKernel,
        placement: Optional[Placement] = None,
        config: Optional[FreePartConfig] = None,
        used_apis: Optional[Sequence[Any]] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config if config is not None else FreePartConfig()
        # Offline phase once, shared by every node's runtime (the
        # categorization is kernel-independent and deterministic).
        self.categorization = HybridAnalyzer().categorize(
            used_apis if used_apis is not None else iter_apis()
        )
        self.plan = four_way_plan(self.categorization)
        self.placement = (
            placement if placement is not None
            else affinity_placement(self.plan)
        )
        for node_index in self.placement.nodes_used():
            cluster.node(node_index)  # bounds check up front
        self._gateways: Dict[int, FreePartGateway] = {}
        self.calls = 0

    # ------------------------------------------------------------------
    # Per-node runtimes
    # ------------------------------------------------------------------

    def gateway_on(self, node_index: int) -> FreePartGateway:
        """The (lazily deployed) runtime of one node."""
        gateway = self._gateways.get(node_index)
        if gateway is None:
            node = self.cluster.node(node_index)
            node.require_alive()
            host = node.kernel.spawn(
                f"cluster-host:{node_index}", role="host", charge=False
            )
            gateway = FreePartGateway(
                kernel=node.kernel,
                host=host,
                plan=self.plan,
                categorization=self.categorization,
                config=self.config,
            )
            self._gateways[node_index] = gateway
        return gateway

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def node_for_call(self, framework: str, name: str) -> int:
        """Which node a call executes on, per the placement."""
        qualname = get_api(framework, name).spec.qualname
        entry = self.categorization.get(qualname)
        partition = None
        if entry is not None and not entry.neutral:
            partition = self.plan.partition_of(qualname)
            if partition is None and entry.api_type.is_concrete:
                partition = self.plan.partition_for_type(entry.api_type)
        if partition is None:
            # Neutral/unknown APIs follow the processing partition, like
            # the single-node runtime's default agent.
            from repro.core.apitypes import APIType

            partition = self.plan.partition_for_type(APIType.PROCESSING)
        if partition is None:
            raise ClusterError(
                f"no partition routes {framework}.{name}"
            )
        return self.placement.node_for(partition.label)

    # ------------------------------------------------------------------
    # Pipeline execution
    # ------------------------------------------------------------------

    def run(self, calls: Sequence[ApiCall]) -> List[Any]:
        """Dispatch a pipeline, resolving PREV across node boundaries."""
        results: List[Any] = []
        prev_node: Optional[int] = None
        for index, call in enumerate(calls):
            node_index = self.node_for_call(call.framework, call.name)
            gateway = self.gateway_on(node_index)

            def resolve(value: Any) -> Any:
                if value is not PREV:
                    return value
                if index == 0:
                    raise ValueError("PREV used in the first call")
                previous = results[index - 1]
                if prev_node is None or prev_node == node_index:
                    return previous
                return self._ship(previous, prev_node, node_index)

            results.append(gateway.call(
                call.framework, call.name,
                *tuple(resolve(value) for value in call.args),
                **{key: resolve(value) for key, value in call.kwargs},
            ))
            self.calls += 1
            prev_node = node_index
        return results

    def _ship(self, value: Any, src: int, dst: int) -> Any:
        """Move a PREV result across nodes as framed bytes.

        A RemoteHandle is a cross-node LDC dereference: the owning
        node's runtime resolves it locally, the payload crosses the wire
        (zero-copy remap cannot span machines), and the destination
        re-registers it as a local object — deref counted.
        """
        deref = isinstance(value, RemoteHandle)
        if deref:
            payload = self._gateways[src]._resolve_ref(value.ref)
        else:
            payload = value
        self.cluster.transfer(
            src, dst, payload,
            kind="ldc-deref" if deref else "data",
            tag="prev-chain",
            deref=deref,
        )
        return payload

    def materialize(self, value: Any, node_index: int) -> Any:
        """Materialize a result on the node that produced it."""
        return self.gateway_on(node_index).materialize(value)

    def shutdown(self) -> None:
        for node_index, gateway in sorted(self._gateways.items()):
            if self.cluster.node(node_index).alive:
                gateway.shutdown()
