"""Dataset sharding: split a file list into shards ahead of the pipeline.

Modeled on grid-control's splitter family (``splitter_basic.py`` /
``splitter_meta.py``): a *partitioner* assigns every dataset item a
shard key, and the resulting :class:`ShardManifest` — the full, ordered
shard table — is the deterministic artifact everything downstream
(placement, tenant routing, re-placement after a node failure) derives
from.  Four partitioners are provided:

* :class:`DirectoryPartitioner` — one shard per containing directory
  (the natural fit for per-tenant directory trees);
* :class:`ObjectPartitioner` — fixed-size groups of consecutive items
  (grid-control's "N files per job");
* :class:`HashPartitioner` — sha256-stable hash of the item path modulo
  a shard count (Python's builtin ``hash`` is salted per process, which
  would break byte-identical reruns);
* :class:`LambdaPartitioner` — a user-supplied key function, the
  custom-lambda splitter shape.

Manifests serialize to canonical JSON (sorted keys, stable ordering) so
``digest()`` is byte-stable across runs and machines.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple


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
    """The deterministic shard table one partitioner produced."""

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

    def node_of(self, item: str, node_count: int) -> int:
        """Round-robin shard-to-node assignment for ``item``."""
        if node_count < 1:
            raise ValueError(f"node count must be >= 1, got {node_count}")
        return self.shard_of(item).index % node_count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "partitioner": self.partitioner,
            "shards": [shard.to_dict() for shard in self.shards],
            "items": self.item_count,
        }

    def json(self) -> str:
        """Canonical JSON text (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """Byte-stable sha256 fingerprint of the whole manifest."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Partitioner:
    """Base partitioner: key items, group them, emit a manifest.

    Subclasses either implement :meth:`shard_key` (keyed grouping, keys
    sorted for determinism) or override :meth:`split` outright (the
    object partitioner groups by position, not key).
    """

    name = "partitioner"

    def shard_key(self, item: str) -> str:
        raise NotImplementedError

    def describe(self) -> str:
        """The manifest's ``partitioner`` string (part of the digest)."""
        return self.name

    def split(self, items: Sequence[str]) -> ShardManifest:
        groups: Dict[str, List[str]] = {}
        for item in items:
            groups.setdefault(self.shard_key(item), []).append(item)
        shards = tuple(
            Shard(index=index, key=key, items=tuple(groups[key]))
            for index, key in enumerate(sorted(groups))
        )
        return ShardManifest(partitioner=self.describe(), shards=shards)


class DirectoryPartitioner(Partitioner):
    """One shard per containing directory (grid-control's basic split)."""

    name = "directory"

    def shard_key(self, item: str) -> str:
        return posixpath.dirname(item) or "/"


class ObjectPartitioner(Partitioner):
    """Fixed-size groups of consecutive items ("N objects per shard")."""

    name = "object"

    def __init__(self, objects_per_shard: int = 1) -> None:
        if objects_per_shard < 1:
            raise ValueError(
                f"objects per shard must be >= 1, got {objects_per_shard}"
            )
        self.objects_per_shard = objects_per_shard

    def describe(self) -> str:
        return f"object:{self.objects_per_shard}"

    def split(self, items: Sequence[str]) -> ShardManifest:
        size = self.objects_per_shard
        shards = []
        for index, start in enumerate(range(0, len(items), size)):
            group = tuple(items[start:start + size])
            shards.append(Shard(
                index=index,
                key=f"objects[{start}:{start + len(group)}]",
                items=group,
            ))
        return ShardManifest(
            partitioner=self.describe(), shards=tuple(shards)
        )


class HashPartitioner(Partitioner):
    """Stable-hash bucketing into a fixed shard count.

    Buckets that receive no items are omitted from the manifest (a
    manifest only describes data that exists).
    """

    name = "hash"

    def __init__(self, shards: int = 8) -> None:
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards

    def describe(self) -> str:
        return f"hash:{self.shards}"

    def shard_key(self, item: str) -> str:
        return f"bucket-{stable_hash(item) % self.shards:04d}"


class LambdaPartitioner(Partitioner):
    """Custom key function (grid-control's user-lambda splitter shape).

    The label is part of the manifest digest, so callers should pick
    one that identifies the lambda's logic, not its memory address.
    """

    name = "lambda"

    def __init__(
        self, key_fn: Callable[[str], Any], label: str = "lambda"
    ) -> None:
        self.key_fn = key_fn
        self.label = label

    def describe(self) -> str:
        return self.label

    def shard_key(self, item: str) -> str:
        return str(self.key_fn(item))


def make_partitioner(
    spec: str, default_shards: int = 8
) -> Partitioner:
    """Parse a CLI partitioner spec: ``directory``, ``object[:N]``,
    ``hash[:K]``.  Raises ValueError on anything else (lambda
    partitioners are code, not strings)."""
    name, _, arg = spec.partition(":")
    if name == "directory":
        if arg:
            raise ValueError("directory partitioner takes no argument")
        return DirectoryPartitioner()
    if name == "object":
        return ObjectPartitioner(int(arg) if arg else 1)
    if name == "hash":
        return HashPartitioner(int(arg) if arg else default_shards)
    raise ValueError(
        f"unknown partitioner {spec!r} "
        "(expected directory, object[:N], or hash[:K])"
    )


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
