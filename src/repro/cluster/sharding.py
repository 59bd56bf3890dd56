"""Dataset sharding: split a file list into shards ahead of the pipeline.

Modeled on grid-control's splitter family (``splitter_basic.py``):
:func:`split_by_directory` gives every containing directory its own
shard (the natural fit for per-tenant directory trees), and the
resulting :class:`ShardManifest` — the full, ordered shard table — is
the deterministic artifact everything downstream (placement, tenant
routing, re-placement after a node failure) derives from.

Manifests serialize to canonical JSON (sorted keys, stable ordering) so
``digest()`` is byte-stable across runs and machines; :func:`stable_hash`
is the process-independent hash tenant routing uses (Python's builtin
``hash`` is salted per process, which would break byte-identical reruns).
"""

from __future__ import annotations

import hashlib
import json
import posixpath
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple


def stable_hash(text: str) -> int:
    """A process-independent 64-bit hash (builtin ``hash`` is salted)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Shard:
    """One shard: an ordered group of dataset items under one key."""

    index: int
    key: str
    items: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "key": self.key,
            "items": list(self.items),
        }


@dataclass(frozen=True)
class ShardManifest:
    """The deterministic shard table a split produced."""

    partitioner: str
    shards: Tuple[Shard, ...]

    @property
    def item_count(self) -> int:
        return sum(len(shard.items) for shard in self.shards)

    def shard_of(self, item: str) -> Shard:
        """The shard holding ``item`` (ValueError when absent)."""
        for shard in self.shards:
            if item in shard.items:
                return shard
        raise ValueError(f"item {item!r} is in no shard of this manifest")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "partitioner": self.partitioner,
            "shards": [shard.to_dict() for shard in self.shards],
            "items": self.item_count,
        }

    def digest(self) -> str:
        """Byte-stable sha256 fingerprint of the whole manifest."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def split_by_directory(items: Sequence[str]) -> ShardManifest:
    """One shard per containing directory (grid-control's basic split,
    the per-tenant layout); shards are ordered by directory name."""
    groups: Dict[str, List[str]] = {}
    for item in items:
        groups.setdefault(posixpath.dirname(item) or "/", []).append(item)
    shards = tuple(
        Shard(index=index, key=key, items=tuple(groups[key]))
        for index, key in enumerate(sorted(groups))
    )
    return ShardManifest(partitioner="directory", shards=shards)


def shard_dataset(
    cluster: Any,
    manifest: ShardManifest,
    payloads: Dict[str, Any],
) -> Dict[int, int]:
    """Write every item's payload into its owning node's filesystem.

    Returns the shard-to-node assignment used (``shard index -> node``).
    Items in the manifest but absent from ``payloads`` are skipped —
    the manifest may describe a larger dataset than this run loads.
    """
    assignment: Dict[int, int] = {}
    for shard in manifest.shards:
        node_index = shard.index % cluster.node_count
        assignment[shard.index] = node_index
        node = cluster.node(node_index)
        for item in shard.items:
            if item in payloads:
                node.kernel.fs.write_file(item, payloads[item])
    return assignment
