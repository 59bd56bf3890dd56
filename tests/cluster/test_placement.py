"""Placement policy: affinity keeps LDC derefs node-local."""

import os

import numpy as np
import pytest

from repro.cluster import (
    ClusterKernel,
    Placement,
    affinity_groups,
    affinity_placement,
    check_placement,
    inferred_affinity_groups,
    placement_violations,
    spread_placement,
)
from repro.cluster.gateway import ClusterGateway
from repro.cluster.trace import cluster_rollup
from repro.errors import PlacementError
from repro.serve.bench import standard_pipeline

FIXTURE = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "fixtures", "staticcheck", "phase_order_ok.py",
)


class FakeReport:
    def __init__(self, *agents):
        self._agents = set(agents)

    def agents_used(self):
        return self._agents


class TestPlacement:
    def test_node_for_and_labels_on(self):
        placement = Placement.of({"data_loading": 0, "storing": 1})
        assert placement.node_for("data_loading") == 0
        assert placement.labels_on(1) == ["storing"]
        assert placement.nodes_used() == [0, 1]

    def test_unplaced_label_raises(self):
        placement = Placement.of({"data_loading": 0})
        with pytest.raises(PlacementError):
            placement.node_for("storing")


class TestAffinityGroups:
    def test_transitive_merge(self):
        groups = affinity_groups([
            FakeReport("data_loading", "data_processing"),
            FakeReport("data_processing", "storing"),
            FakeReport("visualizing"),
        ])
        assert groups == [
            frozenset({"data_loading", "data_processing", "storing"}),
            frozenset({"visualizing"}),
        ]

    def test_order_independent(self):
        reports = [
            FakeReport("storing", "data_processing"),
            FakeReport("data_loading", "data_processing"),
        ]
        assert affinity_groups(reports) == affinity_groups(reports[::-1])

    def test_inferred_from_staticcheck_fixture(self):
        groups = inferred_affinity_groups([FIXTURE])
        assert frozenset(
            {"data_loading", "data_processing", "storing"}
        ) in groups


class TestCheckPlacement:
    GROUPS = [frozenset({"data_loading", "data_processing"})]

    def test_co_located_group_passes(self):
        placement = Placement.of(
            {"data_loading": 1, "data_processing": 1, "storing": 0}
        )
        check_placement(placement, self.GROUPS)

    def test_split_group_raises_with_description(self):
        placement = Placement.of(
            {"data_loading": 0, "data_processing": 1}
        )
        with pytest.raises(PlacementError) as excinfo:
            check_placement(placement, self.GROUPS)
        assert "data_loading" in str(excinfo.value)
        assert "framed inter-node byte copy" in str(excinfo.value)
        assert len(placement_violations(placement, self.GROUPS)) == 1

    def test_allow_split_opts_into_the_wire(self):
        placement = Placement.of(
            {"data_loading": 0, "data_processing": 1}
        )
        check_placement(placement, self.GROUPS, allow_split=True)


def _run_pipeline(placement=None, nodes=2):
    cluster = ClusterKernel(nodes=nodes)
    cluster.enable_tracing()
    gateway = ClusterGateway(cluster, placement=placement)
    rng = np.random.default_rng(0)
    image = rng.normal(size=(16, 16))
    for node in cluster.nodes:
        node.kernel.fs.write_file("/data/in.png", image)
    results = gateway.run(standard_pipeline("/data/in.png", "/out/out.png"))
    gateway.shutdown()
    return cluster, gateway, results


class TestClusterGateway:
    def test_affinity_placement_has_zero_cross_node_derefs(self):
        cluster, gateway, results = _run_pipeline()
        assert gateway.placement == affinity_placement(gateway.plan)
        assert len(results) == 4
        assert cluster.accounting.cross_node_derefs == 0
        assert cluster.accounting.inter_node_messages == 0
        # The whole pipeline ran on node 0; node 1 stayed idle.
        assert cluster.node(1).kernel.clock.now_ns == 0
        out = cluster.node(0).kernel.fs.read_file("/out/out.png")
        assert out is not None

    def test_spread_placement_pays_counted_derefs(self):
        cluster = ClusterKernel(nodes=2)
        probe = ClusterGateway(cluster)  # just to borrow the plan
        placement = spread_placement(probe.plan, 2)
        cluster, _, _ = _run_pipeline(placement=placement)
        assert cluster.accounting.cross_node_derefs > 0
        assert cluster.accounting.cross_node_deref_bytes > 0
        cluster.verify_accounting()

    def test_spread_derefs_show_in_the_rollup(self):
        cluster = ClusterKernel(nodes=2)
        probe = ClusterGateway(cluster)
        placement = spread_placement(probe.plan, 2)
        cluster, _, _ = _run_pipeline(placement=placement)
        rows = {row.category: row for row in cluster_rollup(cluster)}
        assert "inter_node" in rows
        assert rows["inter_node"].self_ns > 0
        assert rows["inter_node"].spans >= 2  # send + recv per crossing

    def test_affinity_run_outputs_match_spread_run(self):
        _, _, affinity_results = _run_pipeline()
        cluster = ClusterKernel(nodes=2)
        probe = ClusterGateway(cluster)
        placement = spread_placement(probe.plan, 2)
        spread_cluster, spread_gateway, spread_results = _run_pipeline(
            placement=placement
        )
        # Same pipeline, same inputs: crossing nodes must not change
        # the data, only the accounting.
        store_node = spread_gateway.node_for_call("opencv", "imwrite")
        affinity_out = _run_pipeline()[0].node(0).kernel.fs.read_file(
            "/out/out.png"
        )
        spread_out = spread_cluster.node(store_node).kernel.fs.read_file(
            "/out/out.png"
        )
        np.testing.assert_array_equal(
            np.asarray(affinity_out.data), np.asarray(spread_out.data)
        )

    def test_placement_on_missing_node_rejected_up_front(self):
        cluster = ClusterKernel(nodes=2)
        probe = ClusterGateway(cluster)
        bad = Placement.of(
            {partition.label: 7 for partition in probe.plan.partitions}
        )
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            ClusterGateway(ClusterKernel(nodes=2), placement=bad)


def test_cluster_import_does_not_load_the_linter():
    """Placement names ``AgentPrivilege`` in annotations only."""
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
