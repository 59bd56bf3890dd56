"""The per-directory dataset split and the deterministic shard manifest."""

import pytest

from repro.cluster import (
    ClusterKernel,
    ShardManifest,
    shard_dataset,
    split_by_directory,
    stable_hash,
)

PATHS = [
    "/data/tenant-0/in-0.png",
    "/data/tenant-0/in-1.png",
    "/data/tenant-1/in-0.png",
    "/data/tenant-2/in-0.png",
    "/data/tenant-2/in-1.png",
    "/data/tenant-2/in-2.png",
]


class TestDirectoryPartitioner:
    def test_one_shard_per_directory(self):
        manifest = split_by_directory(PATHS)
        assert manifest.partitioner == "directory"
        assert len(manifest.shards) == 3
        assert [shard.key for shard in manifest.shards] == [
            "/data/tenant-0", "/data/tenant-1", "/data/tenant-2",
        ]
        assert manifest.item_count == len(PATHS)

    def test_rootless_item_lands_in_root_shard(self):
        manifest = split_by_directory(["plain.png"])
        assert manifest.shards[0].key == "/"

    def test_shard_of_and_node_of(self):
        manifest = split_by_directory(PATHS)
        assert manifest.shard_of(PATHS[3]).key == "/data/tenant-2"
        node_of = shard_dataset(ClusterKernel(nodes=2), manifest, {})
        assert node_of[manifest.shard_of(PATHS[0]).index] == 0
        assert node_of[manifest.shard_of(PATHS[3]).index] == 0  # 2 % 2 nodes
        with pytest.raises(ValueError):
            manifest.shard_of("/nope.png")


def test_stable_hash_is_process_independent():
    # sha256-derived, so a literal value is safe to pin.
    assert stable_hash("x") == stable_hash("x")
    assert stable_hash("x") != stable_hash("y")


class TestManifest:
    def test_json_and_digest_are_stable(self):
        first = split_by_directory(PATHS)
        second = split_by_directory(PATHS)
        assert first.to_dict() == second.to_dict()
        assert first.digest() == second.digest()

    def test_digest_sees_partitioner_label(self):
        by_dir = split_by_directory(PATHS)
        relabelled = ShardManifest(partitioner="other", shards=by_dir.shards)
        assert by_dir.digest() != relabelled.digest()


def test_shard_dataset_places_items_on_owner_nodes():
    cluster = ClusterKernel(nodes=2)
    manifest = split_by_directory(PATHS)
    payloads = {path: f"payload:{path}" for path in PATHS}
    assignment = shard_dataset(cluster, manifest, payloads)
    assert assignment == {0: 0, 1: 1, 2: 0}
    for shard in manifest.shards:
        node = cluster.node(assignment[shard.index])
        for item in shard.items:
            assert node.kernel.fs.read_file(item) == payloads[item]
