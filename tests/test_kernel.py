import pytest

from sdnsim.core import (
    ControlChannel,
    Flow,
    LinkSpec,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    SimConfig,
    TopologySpec,
    build_topology,
)
from sdnsim.kernel import (
    InjectionError,
    Kernel,
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
    ScheduleError,
)
from sdnsim.contracts import create_contract_pair
from sdnsim.resilience import variant_by_name

from conftest import GBPS, MBPS

MS = MILLISECOND
US = MICROSECOND


def two_hop_spec(capacity=GBPS):
    return TopologySpec(
        ("S1", "S2", "S3"),
        (("H1", "S1"), ("H3", "S3")),
        (LinkSpec("S1", "S2", capacity, MS), LinkSpec("S2", "S3", capacity, MS)))


def make_kernel(spec, flows, contracts=(), variant="SDN-woRM",
                config=None, control=None):
    return Kernel(
        topology=build_topology(spec),
        flows=list(flows),
        contract_pairs=list(contracts),
        variant=variant_by_name(variant),
        config=config or SimConfig(),
        control=control or ControlChannel())


def one_packet_flow(flow_id="F1", start=SECOND, length=12_000,
                    src="H1", dst="H3"):
    return Flow(id=flow_id, src_host=src, dst_host=dst, packet_length=length,
                total_volume=length, start_time=start, inter_packet_gap=0)


class TestScheduling:
    def test_same_time_events_execute_in_schedule_order(self):
        kernel = make_kernel(two_hop_spec(), [])
        seen = []
        kernel.schedule_call(5, lambda at: seen.append("first"))
        kernel.schedule_call(5, lambda at: seen.append("second"))
        kernel.run_until(10)
        assert seen == ["first", "second"]

    def test_schedule_at_current_time_executes(self):
        kernel = make_kernel(two_hop_spec(), [])
        seen = []
        kernel.schedule_call(5, lambda at: kernel.schedule_call(
            5, lambda t: seen.append(t)))
        kernel.run_until(10)
        assert seen == [5]

    def test_scheduling_into_the_past_rejected(self):
        kernel = make_kernel(two_hop_spec(), [])
        kernel.schedule_call(5, lambda at: None)
        kernel.run_until(10)
        with pytest.raises(ScheduleError):
            kernel.schedule_call(9, lambda at: None)

    def test_empty_queue_returns_immediately(self):
        kernel = make_kernel(two_hop_spec(), [])
        kernel.run_until(100 * SECOND)
        assert kernel.now == 100 * SECOND


class TestPacketTransport:
    def test_two_hops_at_1gbps(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow()])
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        [record] = kernel.log.packets
        assert record.path == ("S1", "S2", "S3")
        assert record.actual_delay == 2 * (12 * US + MS)  # 2.024 ms

    def test_two_hops_at_1mbps(self):
        kernel = make_kernel(two_hop_spec(MBPS), [one_packet_flow()])
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        [record] = kernel.log.packets
        assert record.actual_delay == 2 * (12 * MS + MS)  # 26 ms

    def test_fifo_wait_when_egress_busy(self):
        flows = [one_packet_flow("F1"), one_packet_flow("F2")]
        kernel = make_kernel(two_hop_spec(GBPS), flows)
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        first, second = kernel.log.packets
        assert first.queue_wait == 0
        # The second packet waits one serialization time at each egress it
        # shares with the first.
        assert second.queue_wait == 12 * US
        assert second.actual_delay == first.actual_delay + 12 * US

    def test_queue_overflow_drops(self):
        config = SimConfig(queue_limit=5 * US)
        flows = [one_packet_flow("F1"), one_packet_flow("F2")]
        kernel = make_kernel(two_hop_spec(GBPS), flows, config=config)
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        first, second = kernel.log.packets
        assert first.delivered
        assert second.drop_reason == "queue_overflow"

    def test_packet_in_flight_dropped_when_link_goes_down(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow()])
        # Packet occupies S2-S3 from ~1.001012 s to ~1.002024 s.
        kernel.setup(10 * SECOND,
                     [LinkDownInjection(at=SECOND + 1_500_000, a="S2", b="S3")])
        kernel.run_until(10 * SECOND)
        [record] = kernel.log.packets
        assert record.drop_reason == "link_down"
        assert not record.delivered

    def test_packet_queued_behind_dead_egress_dropped(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow()])
        kernel.setup(10 * SECOND,
                     [LinkDownInjection(at=SECOND + 100_000, a="S1", b="S2")])
        kernel.run_until(10 * SECOND)
        [record] = kernel.log.packets
        assert record.drop_reason == "link_down"

    def test_no_route_when_source_isolated(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow(start=2 * SECOND)])
        kernel.setup(10 * SECOND,
                     [LinkDownInjection(at=SECOND, a="S1", b="S2"),
                      LinkDownInjection(at=SECOND, a="S2", b="S3")])
        kernel.run_until(10 * SECOND)
        [record] = kernel.log.packets
        assert record.drop_reason == "no_route"

    def test_conservation_sent_equals_delivered_plus_dropped(self):
        flow = Flow(id="F1", src_host="H1", dst_host="H3",
                    packet_length=12_000, total_volume=50 * 12_000,
                    start_time=SECOND, inter_packet_gap=40 * MS)
        kernel = make_kernel(two_hop_spec(GBPS), [flow])
        kernel.setup(5 * SECOND,
                     [LinkDownInjection(at=2 * SECOND, a="S2", b="S3")])
        kernel.run_until(5 * SECOND)
        records = kernel.log.packets
        delivered = sum(1 for r in records if r.delivered)
        dropped = sum(1 for r in records if r.drop_reason is not None)
        assert delivered + dropped == len(records)
        assert delivered > 0 and dropped > 0

    def test_flow_stops_after_volume_exhausted(self):
        flow = Flow(id="F1", src_host="H1", dst_host="H3",
                    packet_length=12_000, total_volume=3 * 12_000 + 5_000,
                    start_time=0, inter_packet_gap=MS)
        kernel = make_kernel(two_hop_spec(GBPS), [flow])
        kernel.setup(SECOND, [])
        kernel.run_until(SECOND)
        assert len(kernel.log.packets) == 3  # a fourth packet would not fit

    def test_causality_delivered_after_sent(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow()])
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        for record in kernel.log.packets:
            if record.delivered:
                assert record.delivered_at >= record.sent_at


class TestInjections:
    def test_unknown_link_rejected(self):
        kernel = make_kernel(two_hop_spec(), [])
        with pytest.raises(InjectionError):
            kernel.inject_schedule([LinkDownInjection(at=0, a="S1", b="S9")])

    def test_unknown_contract_rejected(self):
        kernel = make_kernel(two_hop_spec(), [])
        with pytest.raises(Exception):
            kernel.inject_schedule([PedChangeInjection(at=0, pair_id="C9",
                                                       new_ped=MS)])

    def test_link_up_restores_traffic(self):
        flows = [one_packet_flow("F1", start=SECOND),
                 one_packet_flow("F2", start=3 * SECOND)]
        kernel = make_kernel(two_hop_spec(GBPS), flows)
        kernel.setup(10 * SECOND,
                     [LinkDownInjection(at=2 * SECOND, a="S2", b="S3"),
                      LinkUpInjection(at=2500 * MS, a="S2", b="S3")])
        kernel.run_until(10 * SECOND)
        first, second = kernel.log.packets
        assert first.delivered  # done before the outage
        assert second.delivered  # sent after recovery, rules persisted

    def test_empty_schedule_is_fault_free_baseline(self):
        kernel = make_kernel(two_hop_spec(GBPS), [one_packet_flow()])
        kernel.setup(10 * SECOND, [])
        kernel.run_until(10 * SECOND)
        assert all(r.delivered for r in kernel.log.packets)
        assert kernel.log.restorations == []


class TestDeterminism:
    def test_identical_runs_produce_identical_packet_streams(self):
        def run():
            flow = Flow(id="F1", src_host="H1", dst_host="H3",
                        packet_length=12_000, total_volume=20 * 12_000,
                        start_time=SECOND, inter_packet_gap=100 * MS)
            pair = create_contract_pair("C1", "S1", "S3", 3 * MS)
            kernel = make_kernel(two_hop_spec(GBPS), [flow], [pair],
                                 variant="SDN-RM")
            kernel.setup(5 * SECOND,
                         [LinkDownInjection(at=1_300 * MS, a="S2", b="S3")])
            kernel.run_until(5 * SECOND)
            return kernel.log.packets

        assert run() == run()


class TestBranch:
    def branching_kernel(self, injections):
        flow = Flow(id="F1", src_host="H1", dst_host="H3",
                    packet_length=12_000, total_volume=40 * 12_000,
                    start_time=SECOND, inter_packet_gap=50 * MS)
        pair = create_contract_pair("C1", "S1", "S3", 3 * MS)
        kernel = make_kernel(two_hop_spec(GBPS), [flow], [pair],
                             variant="SDN-RM")
        kernel.setup(5 * SECOND, injections)
        return kernel

    def test_branch_logs_its_own_injections_and_runs_as_a_fresh_run(self):
        down = LinkDownInjection(at=1_300 * MS, a="S2", b="S3")
        up = LinkUpInjection(at=2 * SECOND, a="S2", b="S3")
        trunk = self.branching_kernel([down, up])
        trunk.advance(2 * SECOND)
        kept = [LinkDownInjection(at=1_300 * MS, a="S2", b="S3")]
        twin = trunk.branch(kept)
        assert twin.log.injections == kept
        assert twin.log.injections is not kept
        assert trunk.log.injections == [down, up]
        twin.run_until(5 * SECOND)
        trunk.run_until(5 * SECOND)
        fresh = self.branching_kernel(kept)
        fresh.run_until(5 * SECOND)
        assert twin.log == fresh.log
        assert trunk.log != fresh.log

    def test_branch_rejects_injections_it_cannot_leave_out(self):
        down = LinkDownInjection(at=1_300 * MS, a="S2", b="S3")
        up = LinkUpInjection(at=2 * SECOND, a="S2", b="S3")
        trunk = self.branching_kernel([down, up])
        with pytest.raises(ValueError, match="not a subsequence"):
            trunk.branch([up, down])
        trunk.advance(1_500 * MS)
        with pytest.raises(ValueError, match="already been applied"):
            trunk.branch([up])
