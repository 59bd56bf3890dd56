"""ClusterServer: sticky routing, node-failure recovery, goodput."""

import os

import numpy as np
import pytest

from repro.cluster.bench import SingleNodeFailurePlan
from repro.cluster.kernel import ClusterKernel
from repro.cluster.serve import ClusterServer
from repro.cluster.sharding import DirectoryPartitioner, stable_hash
from repro.errors import ClusterError
from repro.serve.bench import standard_pipeline


def _dataset(tenants, requests, size=8):
    rng = np.random.default_rng(0)
    paths = [
        f"/data/tenant-{t}/in-{r}.png"
        for t in range(tenants) for r in range(requests)
    ]
    return paths, {p: rng.normal(size=(size, size)) for p in paths}


def _loaded_server(nodes=3, tenants=6, requests=1, fault_plan=None):
    cluster = ClusterKernel(nodes=nodes)
    if fault_plan is not None:
        cluster.inject_faults(fault_plan)
    server = ClusterServer(cluster=cluster, pool_size=2, batching=True)
    paths, payloads = _dataset(tenants, requests)
    manifest = DirectoryPartitioner().split(paths)
    server.load_dataset(manifest, payloads)
    for t in range(tenants):
        server.pin_tenant_to_item(
            f"tenant-{t}", f"/data/tenant-{t}/in-0.png"
        )
    return server, paths


def _submit_all(server, tenants, requests):
    for t in range(tenants):
        for r in range(requests):
            server.submit(
                f"tenant-{t}",
                standard_pipeline(
                    f"/data/tenant-{t}/in-{r}.png",
                    f"/out/tenant-{t}/out-{r}.png",
                ),
            )


class TestRouting:
    def test_pinned_tenant_follows_its_shard(self):
        server, _ = _loaded_server(nodes=3, tenants=6)
        for t in range(6):
            shard = server.manifest.shard_of(f"/data/tenant-{t}/in-0.png")
            assert server.route(f"tenant-{t}") == \
                server.shard_assignment[shard.index]

    def test_routing_is_sticky(self):
        server, _ = _loaded_server()
        first = server.route("tenant-0")
        assert server.route("tenant-0") == first

    def test_unpinned_tenant_hashes_onto_living_nodes(self):
        server, _ = _loaded_server()
        living = [n.index for n in server.cluster.living()]
        expected = living[stable_hash("walk-in") % len(living)]
        assert server.route("walk-in") == expected

    def test_pin_requires_manifest(self):
        server = ClusterServer(nodes=2)
        with pytest.raises(ClusterError):
            server.pin_tenant_to_item("tenant-0", "/data/x.png")

    def test_all_nodes_down_is_an_error(self):
        server = ClusterServer(nodes=2)
        server.cluster.fail_node(0)
        server.cluster.fail_node(1)
        with pytest.raises(ClusterError):
            server.route("tenant-0")


class TestServing:
    def test_requests_run_on_the_tenants_home_node(self):
        server, _ = _loaded_server(nodes=3, tenants=6)
        _submit_all(server, tenants=6, requests=1)
        responses = server.drain()
        assert all(r.ok for r in responses)
        for t in range(6):
            home = server.route(f"tenant-{t}")
            out = server.cluster.node(home).kernel.fs.read_file(
                f"/out/tenant-{t}/out-0.png"
            )
            assert out is not None
        # Sticky routing means zero cross-node traffic at all.
        assert server.cluster.accounting.inter_node_messages == 0

    def test_stats_aggregate_across_nodes(self):
        server, _ = _loaded_server(nodes=3, tenants=6)
        _submit_all(server, tenants=6, requests=1)
        server.drain()
        stats = server.stats()
        assert stats["requests"] == 6
        assert stats["ok"] == 6
        assert stats["goodput"] == 1.0
        assert stats["makespan_seconds"] == max(
            node["makespan_seconds"] for node in stats["per_node"].values()
        )
        assert stats["requests_per_second"] > 0

    def test_multi_node_beats_single_node_makespan(self):
        single, _ = _loaded_server(nodes=1, tenants=6)
        _submit_all(single, tenants=6, requests=1)
        single.drain()
        multi, _ = _loaded_server(nodes=3, tenants=6)
        _submit_all(multi, tenants=6, requests=1)
        multi.drain()
        assert (multi.stats()["makespan_seconds"]
                < single.stats()["makespan_seconds"])


class TestNodeFailure:
    def _failed_run(self, tenants=6, requests=2):
        server, _ = _loaded_server(
            nodes=3, tenants=tenants, requests=requests,
            fault_plan=SingleNodeFailurePlan(victim=1, after=2),
        )
        _submit_all(server, tenants=tenants, requests=requests)
        responses = server.drain()
        return server, responses

    def test_victims_shards_are_re_placed(self):
        server, _ = self._failed_run()
        assert server.cluster.node_failures == 1
        assert server.shards_replaced > 0
        assert not server.cluster.nodes[1].alive
        for shard_index, node_index in server.shard_assignment.items():
            assert node_index != 1

    def test_goodput_retained_through_failure(self):
        server, responses = self._failed_run()
        stats = server.stats()
        assert stats["node_failures"] == 1
        assert stats["client_requests"] == 12
        assert stats["goodput"] == 1.0
        assert stats["resubmissions"] > 0
        # Every output was produced: requests served before the failure
        # wrote to the (now dead) victim's fs, everything after landed
        # on survivors — nothing vanished without a response.
        for t in range(6):
            for r in range(2):
                path = f"/out/tenant-{t}/out-{r}.png"
                assert any(
                    node.kernel.fs.exists(path)
                    for node in server.cluster.nodes
                ), path

    def test_evicted_requests_counted_not_lost(self):
        server, responses = self._failed_run()
        ok = sum(1 for r in responses if r.ok)
        assert ok == server.stats()["client_requests"]
        queue_stats = server.servers[1].queue.stats
        assert queue_stats.evicted > 0

    def test_failed_tenants_re_route_to_survivors(self):
        server, _ = self._failed_run()
        for t in range(6):
            assert server.route(f"tenant-{t}") != 1


class TestEvictPending:
    def test_evict_pending_empties_in_fair_share_order(self):
        from repro.serve.admission import AdmissionQueue
        from repro.sim.clock import VirtualClock

        queue = AdmissionQueue(VirtualClock(), capacity=8)
        for tenant in ("a", "a", "b", "a", "b"):
            queue.submit(type("R", (), {
                "tenant_id": tenant, "enqueued_at_ns": 0,
                "deadline_ns": None, "timed_out": False,
            })())
        evicted = queue.evict_pending()
        assert [r.tenant_id for r in evicted] == ["a", "b", "a", "b", "a"]
        assert queue.next_request() is None
        assert queue.pending == 0
        assert queue.stats.evicted == 5
        assert queue.stats.dispatched == 0


def test_cluster_import_does_not_load_the_linter():
    """Importing the cluster serving stack loads no ``repro.staticcheck``."""
    import subprocess
    import sys

    probe = (
        "import sys\n"
        "import repro.cluster.serve, repro.cluster.bench\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.staticcheck')))\n"
    )
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
