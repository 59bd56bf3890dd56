"""Cluster topology: how many nodes and what their links cost.

Inter-node links are deliberately *not* IPC channels: a message between
two nodes pays a fixed per-message cost (NIC + protocol framing), a
propagation latency, and a per-byte serialization/transmission cost —
all an order of magnitude above the intra-node shared-memory numbers in
:class:`~repro.sim.clock.CostModel`.  That gap is why serving keeps a
tenant's requests on one node: a local LDC dereference costs
nanoseconds, a cross-node one pays the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class InterNodeLink:
    """Cost model of one directed node-to-node link.

    Defaults model a datacenter network: ~50 µs one-way latency, ~10
    GB/s effective bandwidth, and a per-message cost well above the
    intra-node ``ipc_message_ns`` (the whole point of sticky placement).
    """

    latency_ns: int = 50_000
    bandwidth_ns_per_byte: float = 0.1
    per_message_ns: int = 12_000

    def transmit_ns(self, nbytes: int) -> int:
        """Time on the wire for a payload of ``nbytes``."""
        return int(nbytes * self.bandwidth_ns_per_byte)


@dataclass(frozen=True)
class ClusterTopology:
    """N nodes joined all-to-all by one default link (plus overrides).

    ``overrides`` maps a directed ``(src, dst)`` pair to a different
    link — e.g. to model one slow rack uplink — without changing the
    default everyone else uses.
    """

    nodes: int
    link: InterNodeLink = InterNodeLink()
    overrides: Dict[Tuple[int, int], InterNodeLink] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"topology needs >= 1 node, got {self.nodes}")
        for src, dst in self.overrides:
            for index in (src, dst):
                if not 0 <= index < self.nodes:
                    raise ValueError(
                        f"override ({src}, {dst}) names node {index}, "
                        f"but the topology has {self.nodes} nodes"
                    )

    def link_between(self, src: int, dst: int) -> InterNodeLink:
        """The link a ``src -> dst`` message travels."""
        return self.overrides.get((src, dst), self.link)
