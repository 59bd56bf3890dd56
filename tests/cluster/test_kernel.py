"""ClusterKernel: per-node clocks, costed links, exact accounting."""

import numpy as np
import pytest

from repro.cluster import ClusterKernel, ClusterTopology, InterNodeLink
from repro.errors import AccountingError, ClusterError, NodeDown


@pytest.fixture
def cluster():
    return ClusterKernel(nodes=3)


class TestTopology:
    def test_default_link_everywhere(self):
        topology = ClusterTopology(nodes=4)
        assert topology.link_between(0, 3) is topology.link
        assert topology.link_between(2, 1) is topology.link

    def test_override_takes_precedence(self):
        fast = InterNodeLink(latency_ns=10, bandwidth_ns_per_byte=0.01,
                             per_message_ns=5)
        topology = ClusterTopology(nodes=2, overrides={(0, 1): fast})
        assert topology.link_between(0, 1) is fast
        assert topology.link_between(1, 0) is topology.link

    def test_transmit_scales_with_bytes(self):
        link = InterNodeLink(bandwidth_ns_per_byte=0.5)
        assert link.transmit_ns(1000) == 500
        assert link.transmit_ns(2000) > link.transmit_ns(1000)

    def test_bad_override_endpoint_rejected(self):
        with pytest.raises(ValueError):
            ClusterTopology(nodes=2, overrides={(0, 5): InterNodeLink()})


class TestNodes:
    def test_independent_clocks(self, cluster):
        cluster.node(0).kernel.clock.advance(100)
        assert cluster.node(1).kernel.clock.now_ns == 0
        assert cluster.makespan_ns == 100

    def test_makespan_is_max_not_sum(self, cluster):
        cluster.node(0).kernel.clock.advance(100)
        cluster.node(1).kernel.clock.advance(250)
        cluster.node(2).kernel.clock.advance(40)
        assert cluster.makespan_ns == 250

    def test_node_bounds_checked(self, cluster):
        with pytest.raises(ClusterError):
            cluster.node(3)
        with pytest.raises(ClusterError):
            cluster.node(-1)

    def test_needs_at_least_one_node(self):
        with pytest.raises(ClusterError):
            ClusterKernel(nodes=0)

    def test_topology_width_must_match(self):
        with pytest.raises(ClusterError):
            ClusterKernel(nodes=3, topology=ClusterTopology(nodes=2))


class TestTransfer:
    def test_charges_sender_and_records_lane(self, cluster):
        payload = np.zeros((64, 64))
        nbytes = cluster.transfer(0, 1, payload)
        assert nbytes == payload.nbytes
        assert cluster.node(0).kernel.clock.now_ns > 0
        assert cluster.accounting.inter_node_messages == 1
        assert cluster.accounting.inter_node_bytes == nbytes
        assert cluster.accounting.per_link[(0, 1)] == [1, nbytes]

    def test_receiver_catches_up_to_arrival(self, cluster):
        cluster.transfer(0, 1, b"x" * 100)
        link = cluster.topology.link_between(0, 1)
        # Receiver was at 0, so it must wait out latency + transmit
        # past the sender's send-completion time.
        assert (cluster.node(1).kernel.clock.now_ns
                >= cluster.node(0).kernel.clock.now_ns + link.latency_ns)

    def test_receiver_already_past_arrival_waits_zero(self, cluster):
        cluster.node(1).kernel.clock.advance(10**12)
        before = cluster.node(1).kernel.clock.now_ns
        cluster.transfer(0, 1, b"x")
        assert cluster.node(1).kernel.clock.now_ns == before

    def test_same_node_transfer_rejected(self, cluster):
        with pytest.raises(ClusterError):
            cluster.transfer(1, 1, b"x")

    def test_deref_counted_separately(self, cluster):
        cluster.transfer(0, 1, b"x" * 10, deref=True)
        cluster.transfer(0, 1, b"x" * 10)
        assert cluster.accounting.cross_node_derefs == 1
        assert cluster.accounting.cross_node_deref_bytes == 10
        assert cluster.accounting.inter_node_messages == 2

    def test_transfer_emits_inter_node_spans(self, cluster):
        cluster.enable_tracing()
        cluster.transfer(0, 2, b"x" * 100, kind="ldc-deref", deref=True)
        send = [s for s in cluster.node(0).kernel.tracer.closed_spans()
                if s.category == "inter_node"]
        recv = [s for s in cluster.node(2).kernel.tracer.closed_spans()
                if s.category == "inter_node"]
        assert [s.name for s in send] == ["inter_node_send"]
        assert [s.name for s in recv] == ["inter_node_recv"]
        assert send[0].attrs["peer"] == 2 and recv[0].attrs["peer"] == 0
        assert send[0].attrs["deref"] is True

    def test_transfer_to_dead_node_raises(self, cluster):
        cluster.fail_node(1)
        with pytest.raises(NodeDown):
            cluster.transfer(0, 1, b"x")
        with pytest.raises(NodeDown):
            cluster.transfer(1, 0, b"x")


class TestFailure:
    def test_fail_node_crashes_its_processes(self, cluster):
        node = cluster.node(1)
        process = node.kernel.spawn("agent", role="agent")
        cluster.fail_node(1)
        assert not node.alive
        assert not process.alive
        assert cluster.node_failures == 1
        assert [n.index for n in cluster.living()] == [0, 2]

    def test_fail_node_twice_raises(self, cluster):
        cluster.fail_node(1)
        with pytest.raises(NodeDown):
            cluster.fail_node(1)

    def test_failure_traced_on_victim(self, cluster):
        cluster.enable_tracing()
        cluster.fail_node(2)
        instants = [s for s in cluster.node(2).kernel.tracer.closed_spans()
                    if s.name == "node_failure"]
        assert len(instants) == 1
        assert instants[0].category == "cluster"

    def test_maybe_fail_never_kills_last_node(self):
        class KillEverything:
            def node_failure(self, candidates):
                return candidates[0]

        cluster = ClusterKernel(nodes=3)
        cluster.injectors = {
            node.index: type("I", (), {
                "node_failure": lambda self, c: c[0],
            })()
            for node in cluster.nodes
        }
        assert cluster.maybe_fail_node() == 0
        assert cluster.maybe_fail_node() == 1
        assert cluster.maybe_fail_node() is None
        assert len(cluster.living()) == 1

    def test_maybe_fail_without_plan_is_noop(self, cluster):
        assert cluster.maybe_fail_node() is None
        assert cluster.node_failures == 0


class TestAccounting:
    def test_verify_passes_after_transfers(self, cluster):
        cluster.transfer(0, 1, b"x" * 100)
        cluster.transfer(1, 2, b"y" * 50, deref=True)
        cluster.verify_accounting()

    def test_verify_names_the_off_lane(self, cluster):
        cluster.transfer(0, 1, b"x" * 100)
        cluster.accounting.inter_node_bytes += 7
        with pytest.raises(AccountingError) as excinfo:
            cluster.verify_accounting()
        assert "inter_node.bytes" in str(excinfo.value)
        assert "+7" in str(excinfo.value)

    def test_summary_reconciles_and_reports(self, cluster):
        cluster.transfer(0, 1, b"x" * 100)
        cluster.verify_accounting()
        summary = cluster.accounting.summary()
        assert summary["inter_node.messages"] == 1
        assert summary["inter_node.links"] == 1

    def test_cluster_bytes_include_node_and_link_lanes(self, cluster):
        kernel = cluster.node(0).kernel
        sender = kernel.spawn("a", role="agent")
        receiver = kernel.spawn("b", role="agent")
        kernel.transfer(sender, receiver, b"z" * 200)
        cluster.transfer(0, 1, b"x" * 100)
        assert cluster.data_transferred_bytes == (
            kernel.data_transferred_bytes + 100
        )
        cluster.verify_accounting()
