import dataclasses
import gc
from contextlib import nullcontext
from dataclasses import replace
from enum import Enum
from pathlib import Path
from types import BuiltinFunctionType, CodeType, FunctionType, ModuleType

import pytest

from sdnsim.core import (
    ControlChannel,
    Flow,
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    SimConfig,
    TopologySpec,
    build_topology,
)
from sdnsim.injections import (
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
    materialize_injections,
)
from sdnsim.kernel import (
    InjectionError,
    Kernel,
    PacketRecord,
    ScheduleError,
    _NO_ARG,
    _Packet,
)
from sdnsim.contracts import create_contract_pair
from sdnsim import harness, runlog
from sdnsim.harness import run_single
from sdnsim.replicate import Replicator
from sdnsim.resilience import (
    ResilienceManager,
    VARIANT_ALIASES,
    variant_by_name,
)
from sdnsim.runlog import Part
from sdnsim.scenario import load_scenario, parse_scenario

from conftest import (
    GBPS,
    MBPS,
    ReferenceKernel,
    assert_fast_forward_exact,
    counted_fast_forward,
    no_fast_forward,
    queued_probes_chain,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MS = MILLISECOND
US = MICROSECOND


def two_hop_spec(capacity=GBPS):
    return TopologySpec(
        ("S1", "S2", "S3"),
        (("H1", "S1"), ("H3", "S3")),
        (LinkSpec("S1", "S2", capacity, MS), LinkSpec("S2", "S3", capacity, MS)))


def make_kernel(spec, flows, contracts=(), variant="SDN-woRM",
                config=None, control=None, kind=Kernel):
    return kind(
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
    down = LinkDownInjection(at=1_300 * MS, a="S2", b="S3")
    up = LinkUpInjection(at=2 * SECOND, a="S2", b="S3")

    def branching_kernel(self, injections):
        flow = Flow(id="F1", src_host="H1", dst_host="H3",
                    packet_length=12_000, total_volume=40 * 12_000,
                    start_time=SECOND, inter_packet_gap=50 * MS)
        pair = create_contract_pair("C1", "S1", "S3", 3 * MS)
        kernel = make_kernel(two_hop_spec(GBPS), [flow], [pair],
                             variant="SDN-RM")
        kernel.setup(5 * SECOND, injections)
        return kernel

    @pytest.mark.parametrize("kept", [
        [down],                                         # a prefix
        [down, up, PedChangeInjection(at=2_500 * MS, pair_id="C1",
                                      new_ped=2 * MS)],  # longer
        [down, LinkUpInjection(at=1_600 * MS, a="S2", b="S3"),
         up],                                           # not a subsequence
        [down, PedChangeInjection(at=1_500 * MS, pair_id="C1",
                                  factor_ppm=500_000)],  # due at the split
    ])
    def test_branch_agreeing_before_its_time_equals_a_fresh_run(self, kept):
        trunk = self.branching_kernel([self.down, self.up])
        trunk.advance(1_500 * MS)
        twin = trunk.branch(kept)
        assert twin.log.injections == kept
        assert twin.log.injections is not kept
        assert trunk.log.injections == [self.down, self.up]
        twin.run_until(5 * SECOND)
        trunk.run_until(5 * SECOND)
        for kernel, injections in ((twin, kept),
                                   (trunk, [self.down, self.up])):
            fresh = self.branching_kernel(injections)
            fresh.run_until(5 * SECOND)
            assert kernel.log == fresh.log

    @pytest.mark.parametrize("kept, error, message", [
        ([up], ValueError, "disagrees on an applied injection"),
        ([LinkDownInjection(at=1_200 * MS, a="S1", b="S2"), down, up],
         ValueError, "disagrees on an applied injection"),
        ([down, LinkUpInjection(at=1_400 * MS, a="S2", b="S3")],
         ScheduleError, "once the run has reached 1500000000"),
        ([down, LinkUpInjection(at=2 * SECOND, a="S1", b="S3")],
         InjectionError, "unknown link S1-S3"),
    ])
    def test_branch_rejects_a_list_it_cannot_go_on_with(self, kept, error,
                                                        message):
        trunk = self.branching_kernel([self.down, self.up])
        trunk.advance(1_500 * MS)
        with pytest.raises(error, match=message):
            trunk.branch(kept)


class TestInjectionOrder:
    def test_injection_runs_after_setup_entries_of_its_instant(self):
        """At one instant: the cycle boundary and the flow's first tick
        (setup's entries), then the injection, then the first hop that the
        tick scheduled for that same instant."""
        kernel = make_kernel(two_hop_spec(), [one_packet_flow(start=SECOND)],
                             config=SimConfig(estimation_interval=SECOND))
        seen = []

        def traced(name, action):
            def run(*args):
                seen.append((name, kernel.now))
                action(*args)
            return run

        controller = kernel.controller
        controller.on_cycle_boundary = traced(
            "boundary", controller.on_cycle_boundary)
        kernel._flow_tick = traced("tick", kernel._flow_tick)
        kernel._apply_injection = traced("injection", kernel._apply_injection)
        kernel._hop = traced("hop", kernel._hop)
        kernel.setup(2 * SECOND,
                     [LinkDownInjection(at=SECOND, a="S1", b="S2")])
        kernel.run_until(2 * SECOND)
        assert [name for name, at in seen if at == SECOND] == [
            "boundary", "tick", "injection", "hop"]
        assert list(kernel.log.packets)[0].drop_reason == "link_down"


def periodic_flow(flow_id="F1", count=100, gap=10 * MS, start=SECOND,
                  length=12_000):
    return Flow(id=flow_id, src_host="H1", dst_host="H3",
                packet_length=length, total_volume=count * length,
                start_time=start, inter_packet_gap=gap)


def triangle_spec():
    """S1-S3 directly (the shorter path) and through S2."""
    return TopologySpec(
        ("S1", "S2", "S3"),
        (("H1", "S1"), ("H3", "S3")),
        (LinkSpec("S1", "S3", GBPS, MS), LinkSpec("S1", "S2", GBPS, MS),
         LinkSpec("S2", "S3", GBPS, MS)))


class TestFastForward:
    """Each run equals the same run built without a replicator, so that
    every period is simulated."""

    @staticmethod
    def exact(spec, flows, injections=(), contracts=(), horizon=4 * SECOND,
              reference=False, **kwargs):
        """The fast-forward counts and the kernel of a run that equals the
        run simulated in full and, with reference, ReferenceKernel's run
        with every period simulated."""
        def run(kind=Kernel):
            # The contract store changes pairs in place: copy them per run.
            kernel = make_kernel(spec, flows,
                                 [replace(pair) for pair in contracts],
                                 kind=kind, **kwargs)
            kernel.setup(horizon, list(injections))
            kernel.run_until(horizon)
            return kernel
        counts, kernel = assert_fast_forward_exact(run), run()
        if reference:
            with no_fast_forward():
                simulated = run(ReferenceKernel)
            assert (kernel.log, kernel.egress_free, kernel.now) == (
                simulated.log, simulated.egress_free, simulated.now)
        return counts, kernel

    def test_flows_of_coprime_gaps_replicate_nothing(self):
        """F2's 5 ms gap puts a send in one of any two 3 ms periods in a
        row, so no period is a template."""
        counts, _ = self.exact(two_hop_spec(), [
            periodic_flow("F1", count=300, gap=3 * MS),
            periodic_flow("F2", count=300, gap=5 * MS)])
        assert (counts.calls, counts.packets) == (302, 0)

    def test_flow_whose_last_packet_falls_inside_a_window(self):
        counts, kernel = self.exact(two_hop_spec(), [
            periodic_flow("F1", count=25),
            periodic_flow("F2", count=80, start=SECOND + 3 * MS)])
        assert 0 < counts.packets < 25 + 80
        assert len(kernel.log.packets) == 25 + 80
        assert all(record.delivered for record in kernel.log.packets)

    def test_steady_queue_overflow(self):
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow("F1"), periodic_flow("F2")],
            config=SimConfig(queue_limit=5 * US))
        overflows = [record for record in kernel.log.packets
                     if record.drop_reason == "queue_overflow"]
        assert len(overflows) == 100
        assert counts.packets > 100

    def test_reroute_that_activates_mid_window(self):
        """The E1 reroute installs the detour 333 ms after its delivery,
        4 ms into a 10 ms period; the packets sent until then are lost."""
        pair = create_contract_pair("C1", "S1", "S3", 5 * MS)
        counts, kernel = self.exact(
            triangle_spec(), [periodic_flow(count=300)], [
                LinkDownInjection(at=2 * SECOND, a="S1", b="S3")],
            contracts=[pair], variant="SDN-RM",
            control=ControlChannel(default_c2s=333 * MS, default_s2c=MS))
        [(_, detour)] = [(at, path) for at, path
                         in kernel._forwarding[("S1", "S3")] if at % (10 * MS)]
        assert detour == ("S1", "S2", "S3")
        lost = [r for r in kernel.log.packets if r.drop_reason == "link_down"]
        assert len(lost) == 34  # sent at 2.000 s .. 2.330 s
        assert list(kernel.log.packets)[-1].path == detour
        assert counts.packets > 200

    def test_link_that_went_down_inside_the_compared_period(self):
        """S1-S2 goes down and up at 2 s as a packet enters it, which loses
        that packet alone; the next period must not repeat the loss."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300)], [
                LinkDownInjection(at=2 * SECOND, a="S1", b="S2"),
                LinkUpInjection(at=2 * SECOND, a="S1", b="S2")],
            config=SimConfig(host_link_delay=0))
        [lost] = [r for r in kernel.log.packets if not r.delivered]
        assert (lost.sent_at, lost.drop_reason) == (2 * SECOND, "link_down")
        assert counts.packets > 200

    def test_heap_entry_inside_the_compared_period(self):
        """An entry scheduled at 2.005 s takes S2-S3 down with no
        injection: the period before it is no template for the next.  No
        scenario takes a link down but by injection, so the naive oracle
        cannot show fast-forward that ignores the topology version."""
        def run():
            kernel = make_kernel(two_hop_spec(), [periodic_flow(count=300)])
            kernel.setup(4 * SECOND, [])
            kernel.schedule_call(2_005 * MS, lambda at: kernel.topology
                                 .set_link_state("S2", "S3", LinkState.DOWN))
            kernel.run_until(4 * SECOND)
            return kernel
        counts = assert_fast_forward_exact(run)
        lost = [r for r in run().log.packets if not r.delivered]
        assert len(lost) == 199 and lost[0].sent_at == 2_010 * MS
        assert counts.packets > 200

    def test_packets_in_flight_at_every_period_instant(self):
        """A 1 ms gap on a path of over 2 ms: some packet is always in
        flight at a period instant, and the periods are replicated with
        those packets in flight (see "Pipelined periods")."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300, gap=MS)])
        assert all(record.delivered for record in kernel.log.packets)
        assert (counts.calls, counts.packets) == (8, 295)

    def test_packets_on_a_host_link_at_every_period_instant(self):
        """A 1.5 ms host link delay puts a packet on its way to S1 at
        every period instant; a link that went down and came back up
        before the flow starts leaves it nothing to drop, and the periods
        are replicated as without the delay: 294 of 300 packets."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300, gap=MS)], [
                LinkDownInjection(at=500 * MS, a="S2", b="S3"),
                LinkUpInjection(at=500 * MS, a="S2", b="S3")],
            config=SimConfig(host_link_delay=1_500 * US), reference=True)
        assert all(record.delivered for record in kernel.log.packets)
        assert (counts.calls, counts.packets) == (9, 294)

    def test_link_flap_under_packets_in_flight(self):
        """F1 sends every 0.1 ms, so ten packets are on S2-S3 when it goes
        down and up at 1.10005 s: they are lost on arrival, and a period
        that loses one is no template for the packets behind them, which
        entered the link after it came back."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=2_000, gap=100 * US)], [
                LinkDownInjection(at=1_100_050 * US, a="S2", b="S3"),
                LinkUpInjection(at=1_100_050 * US, a="S2", b="S3")])
        lost = [record.sent_at for record in kernel.log.packets
                if not record.delivered]
        assert lost == [1_098_100 * US + k * 100 * US for k in range(10)]
        assert counts.packets > 1_500

    def test_leading_flows_in_flight_for_different_periods(self):
        """F1 crosses two links and F2 one, each sending every 0.1 ms: at
        the end of the open list F2's finished records interleave with
        F1's records in flight, and such periods are simulated."""
        spec = TopologySpec(
            ("S1", "S2", "S3"), (("H1", "S1"), ("H2", "S2"), ("H3", "S3")),
            (LinkSpec("S1", "S2", GBPS, MS), LinkSpec("S2", "S3", GBPS, MS)))
        counts, _ = self.exact(spec, [
            periodic_flow("F1", count=2_000, gap=100 * US),
            replace(periodic_flow("F2", count=2_000, gap=100 * US,
                                  start=SECOND + 50 * US), dst_host="H2")])
        assert counts.packets == 0

    def test_advance_leaves_the_clock_where_simulation_would(self):
        def advanced():
            kernel = make_kernel(two_hop_spec(), [periodic_flow(count=300)])
            kernel.setup(4 * SECOND, [])
            kernel.advance(2_500 * MS)
            return kernel
        with counted_fast_forward() as counts:
            kernel = advanced()
        with no_fast_forward():
            simulated = advanced()
        assert counts.packets > 100
        assert (kernel.now, kernel.egress_free, kernel.log) == (
            simulated.now, simulated.egress_free, simulated.log)

    @pytest.mark.parametrize("interval", [SECOND, 10 * SECOND])
    def test_injection_due_exactly_at_a_period_instant(self, interval):
        """With a 1 s cycle a boundary shares the injection's instant and
        runs first; with a 10 s cycle the injection comes first."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300)], [
                LinkDownInjection(at=2 * SECOND, a="S2", b="S3"),
                LinkUpInjection(at=3 * SECOND, a="S2", b="S3")],
            config=SimConfig(estimation_interval=interval))
        lost = [r for r in kernel.log.packets if not r.delivered]
        assert len(lost) == 100
        assert counts.packets > 100

    def test_steps_by_the_period_only_where_events_are(self):
        """Two packets 1 us apart and a 150 s horizon: the kernel asks to
        fast-forward at most once per event it processes (a tick, the
        ingress hop and one arrival per link of each packet, and the cycle
        boundaries), never once per period of the horizon."""
        horizon = 150 * SECOND
        kernel = make_kernel(two_hop_spec(), [
            periodic_flow(count=2, gap=US)])
        kernel.setup(horizon, [])
        with counted_fast_forward() as counts:
            kernel.run_until(horizon)
        boundaries = horizon // kernel.config.estimation_interval + 1
        events = (1 + 1 + 2) * len(kernel.log.packets) + boundaries
        assert counts.calls <= events < horizon // US

    def test_idle_boundary_on_the_grid_is_replicated_through(self):
        """F1 sends every 10 ms from 1 s to 3.99 s and the 1 s cycle puts
        boundaries on its period instants.  The boundary at 1 s shares its
        instant with F1's start, and each later one finds every egress
        free and installs nothing, so only the periods from 1 s and 1.01
        s and F1's last packet are simulated (the periods from 2 s and 3
        s too when such boundaries were not run through)."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300)], variant="SDN-RM",
            config=SimConfig(estimation_interval=SECOND), reference=True)
        assert len(kernel.log.packets) - counts.packets == 3
        assert [r.at for r in kernel.log.estimation][::4] == [
            cycle * SECOND for cycle in range(5)]

    def test_boundary_that_installs_a_route_stops_replication(self):
        """Under SDN-pRM the boundary at 2 s reroutes F1 around S1-S3,
        down since 1.5 s, and the one at 3 s back onto it, up again since
        2.5 s: both are simulated."""
        pair = create_contract_pair("C1", "S1", "S3", 5 * MS)
        counts, kernel = self.exact(
            triangle_spec(), [periodic_flow(count=300)], [
                LinkDownInjection(at=1_500 * MS, a="S1", b="S3"),
                LinkUpInjection(at=2_500 * MS, a="S1", b="S3")],
            contracts=[pair], variant="SDN-pRM",
            config=SimConfig(estimation_interval=SECOND), reference=True)
        assert [(at // SECOND, path) for at, path
                in kernel._forwarding[("S1", "S3")]] == [
            (1, ("S1", "S3")), (2, ("S1", "S2", "S3")), (3, ("S1", "S3"))]
        assert len(kernel.log.packets) - counts.packets == 11

    def test_interval_off_the_period_grid_is_simulated_as_before(self):
        """A 1.003 s cycle puts no boundary on a 10 ms period instant: the
        five periods that follow F1's start and the boundaries are
        simulated, as they were before boundaries on the grid were run
        through."""
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300)], variant="SDN-RM",
            config=SimConfig(estimation_interval=1_003 * MS),
            reference=True)
        assert len(kernel.log.packets) - counts.packets == 5

    def test_injection_at_the_boundary_instant(self):
        """A bound no path meets arrives at 2 s, after the boundary there:
        the kernel runs that boundary, stops at the injection, which the
        reactive controller answers, and runs the boundary at 3 s through
        (six periods simulated when it did not)."""
        pair = create_contract_pair("C1", "S1", "S3", 5 * MS)
        counts, kernel = self.exact(
            two_hop_spec(), [periodic_flow(count=300)],
            [PedChangeInjection(at=2 * SECOND, pair_id="C1", new_ped=1)],
            contracts=[pair], variant="SDN-RM",
            config=SimConfig(estimation_interval=SECOND), reference=True)
        assert [fault.detected_at for fault in kernel.log.faults] == [
            2 * SECOND]
        assert len(kernel.log.packets) - counts.packets == 5

    def test_branch_between_boundaries_replicated_through(self):
        """A twin branched at 2.5 s, between the boundaries at 2 s and 3 s
        that its trunk runs through, and the trunk each equal
        ReferenceKernel's run of their injections with every period
        simulated."""
        down = LinkDownInjection(at=3_500 * MS, a="S2", b="S3")

        def kernel(injections, kind=Kernel):
            built = make_kernel(two_hop_spec(), [periodic_flow(count=300)],
                                variant="SDN-RM", kind=kind,
                                config=SimConfig(estimation_interval=SECOND))
            built.setup(4 * SECOND, injections)
            return built

        trunk = kernel([])
        with counted_fast_forward() as counts:
            trunk.advance(2_500 * MS)
        assert len(trunk.log.packets) - counts.packets == 2
        twin = trunk.branch([down])
        simulated = []
        for done in (twin, trunk):
            before = len(done.log.packets)
            with counted_fast_forward() as counts:
                done.run_until(4 * SECOND)
            simulated.append(len(done.log.packets) - before - counts.packets)
        # The twin simulates the two periods from its injection and F1's
        # last packet; the trunk only that packet.
        assert simulated == [3, 1]
        for done, injections in ((trunk, []), (twin, [down])):
            with no_fast_forward():
                simulated = kernel(injections, ReferenceKernel)
                simulated.run_until(4 * SECOND)
            assert (done.log, done.egress_free, done.now) == (
                simulated.log, simulated.egress_free, simulated.now)
        assert len([r for r in twin.log.packets if not r.delivered]) == 50

    def test_replicates_most_bundled_ring_traffic(self):
        scenario = load_scenario(SCENARIOS / "industrial_ring_e1.scn")
        with counted_fast_forward() as counts:
            done = run_single(scenario, "SDN-RM", 1)
        assert len(done.log.packets) - counts.packets == 200

    def test_replicates_pipelined_chain_traffic(self):
        """F2's burst fills the chain, so its steady periods are replicated
        with some 670 packets in flight.  F1's packet at 10 s, sent with
        the cycle boundary there, delays the F2 packets behind it, and the
        periods repeat again only once those have arrived, 9 ms later: of
        F2's 2,000 packets, 1,456 are simulated."""
        with counted_fast_forward() as counts:
            done = run_single(parse_scenario(queued_probes_chain()),
                              "SDN-RM", 1)
        sent = [record for record in done.log.packets
                if record.flow_id == "F2"]
        assert len(sent) - counts.packets == 1_456

    def test_flows_of_other_gaps_are_simulated_in_full(self):
        scenario = load_scenario(SCENARIOS / "linear_chain.scn")
        [flow] = scenario.flows
        other = replace(flow, id="F2", inter_packet_gap=200 * MS)
        with counted_fast_forward() as counts:
            run_single(replace(scenario, flows=(flow, other)), "SDN-RM", 1)
        assert (counts.calls, counts.packets) == (297, 0)


class TestComparedPeriod:
    """A period in which a handler other than transport ran is a template
    when that handler changed nothing transport reads; each run equals
    the run simulated in full."""

    detour = ("S1", "S2", "S3")

    @staticmethod
    def run_with(entry):
        """run() for F1 (a 10 ms gap from 1 s) across the triangle, with
        entry(kernel, at) scheduled at 2.005 s."""
        def run():
            kernel = make_kernel(triangle_spec(), [periodic_flow(count=300)])
            kernel.setup(4 * SECOND, [])
            kernel.schedule_call(2_005 * MS, lambda at: entry(kernel, at))
            kernel.run_until(4 * SECOND)
            return kernel
        return run

    def test_entry_scheduled_inside_the_compared_period_keeps_its_order(self):
        """At 2.005 s a handler schedules a reroute for 2.5 s, an instant
        F1 sends at.  Simulated, that entry numbers below the tick of 2.5
        s, which the tick of 2.49 s schedules, so the packet sent at 2.5 s
        is the first on the detour."""
        def reroute(kernel, at):
            kernel.set_forwarding(("S1", "S3"), self.detour, at)

        run = self.run_with(lambda kernel, at: kernel.schedule_call(
            2_500 * MS, lambda at: reroute(kernel, at)))
        counts = assert_fast_forward_exact(run)
        first = next(record for record in run().log.packets
                     if record.path == self.detour)
        assert first.sent_at == 2_500 * MS
        assert counts.packets > 200

    def test_reroute_active_from_before_the_compared_period(self):
        """A reroute installed at 2.005 s, active from 0: no forwarding
        entry becomes active in the period from 2 s, yet its packet took
        the old path and the next period's takes the detour."""
        run = self.run_with(lambda kernel, at: kernel.set_forwarding(
            ("S1", "S3"), self.detour, 0))
        counts = assert_fast_forward_exact(run)
        paths = [(record.sent_at, record.path)
                 for record in run().log.packets]
        assert (2_000 * MS, ("S1", "S3")) in paths
        assert (2_010 * MS, self.detour) in paths
        assert counts.packets > 100

    def test_last_send_of_a_flow_of_another_gap_inside_the_period(self):
        """F2, of a 35 ms gap, sends its last packet at 2.005 s, after F1's
        tick at 2 s, back along the path: the pending entries F1 replicates
        at 2 s and at 2.01 s are alike, yet the period from 2 s logged a
        record that the next one does not."""
        counts, kernel = TestFastForward.exact(two_hop_spec(), [
            periodic_flow("F1", count=300),
            Flow(id="F2", src_host="H3", dst_host="H1", packet_length=12_000,
                 total_volume=3 * 12_000, start_time=1_935 * MS,
                 inter_packet_gap=35 * MS)])
        assert [record.sent_at for record in kernel.log.packets
                if record.flow_id == "F2"] == [1_935 * MS, 1_970 * MS,
                                               2_005 * MS]
        assert counts.packets > 100

    def test_flow_that_starts_and_ends_inside_the_compared_period(self):
        """F2 sends its one packet at 2.005 s: the pending ticks at 2 s
        and at 2.01 s are F1's alone, yet the period from 2 s sent a
        packet that the next one does not."""
        counts, kernel = TestFastForward.exact(two_hop_spec(), [
            periodic_flow("F1", count=300),
            periodic_flow("F2", count=1, start=2_005 * MS)])
        assert [record.flow_id for record in kernel.log.packets].count(
            "F2") == 1
        assert counts.packets > 100


def heap_state(kernel):
    """The kernel's heap as (time, number, kind of argument) in order, and
    the number it draws next, left undrawn."""
    return (sorted((at, number, type(arg).__name__)
                   for at, number, _, arg in kernel._queue),
            int(repr(kernel._seq)[len("count("):-1]))


class TestRunOn:
    """Transport runs a packet's next hop inline only when its entry would
    pop next: below the heap's head and below the bound being drained to.
    A kernel advanced step by step holds the heap ReferenceKernel holds,
    which schedules every hop, after each step and at each fast-forward
    snapshot; an arrival at each instant below is pushed, not run on."""

    @staticmethod
    def stepped(spec, flows, injections, steps, interval=10 * SECOND):
        """Per kernel kind: its heap states and its serialized log."""
        runs = []
        fast_forward = Replicator.fast_forward
        for kind in (Kernel, ReferenceKernel):
            states = []

            def snapshot(replicator, kernel, until):
                states.append(("snapshot", kernel.now, heap_state(kernel)))
                fast_forward(replicator, kernel, until)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Replicator, "fast_forward", snapshot)
                kernel = kind(build_topology(spec), list(flows), [],
                              variant_by_name("SDN-woRM"),
                              SimConfig(estimation_interval=interval),
                              ControlChannel())
                kernel.setup(steps[-1], list(injections))
                for t in steps:
                    kernel.advance(t)
                    states.append(("advance", t, heap_state(kernel)))
            runs.append((states, kernel.log.to_jsonl()))
        assert runs[0] == runs[1]
        return kernel.log

    def test_arrival_tied_with_a_cycle_boundary(self):
        """F1's packet reaches S2 at 1 s, when the cycle boundary that
        setup numbered first runs: the boundary's probes find S2->S3 idle."""
        log = self.stepped(two_hop_spec(), [one_packet_flow(
            start=SECOND - MS - 12 * US)], [], [SECOND + 1, 2 * SECOND],
            interval=SECOND)
        costs = {record.at: record.cost for record in log.estimation
                 if (record.src, record.dst) == ("S2", "S3")}
        assert costs[SECOND] == costs[0]

    def test_arrival_at_an_injection_instant(self):
        """F1's packet reaches S2 at 0.5 s, as S2-S3 goes down: the
        injection comes first, and the packet is dropped at S2."""
        log = self.stepped(two_hop_spec(), [one_packet_flow(
            start=SECOND // 2 - MS - 12 * US)],
            [LinkDownInjection(at=SECOND // 2, a="S2", b="S3")],
            [SECOND, 2 * SECOND])
        [record] = log.packets
        assert record.drop_reason == "link_down"
        assert record.delivered_at is None

    def test_arrival_at_a_fast_forward_period_instant(self):
        """F1 sends every 10 ms from 5 ms, and each packet reaches S2 5 ms
        later, at a multiple of the period: each snapshot sees that packet
        in flight, before its arrival runs."""
        spec = TopologySpec(
            ("S1", "S2", "S3"), (("H1", "S1"), ("H3", "S3")),
            (LinkSpec("S1", "S2", GBPS, 5 * MS - 12 * US),
             LinkSpec("S2", "S3", GBPS, MS)))
        log = self.stepped(spec, [periodic_flow(count=50, start=5 * MS)],
                           [], [100 * MS, 200 * MS, SECOND])
        assert len(log.packets) == 50
        assert all(record.delivered_at for record in log.packets)


class TestSegments:
    """Replicated periods stay run-length segments of the packet log."""

    def test_a_run_builds_no_replicated_record(self):
        def built(*args):
            raise AssertionError("a record was built from a segment")

        scenario = load_scenario(SCENARIOS / "industrial_ring_e1.scn")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(runlog, "PacketRecord", built)
            done = run_single(scenario, "SDN-RM", 1)
        packets = done.log.packets
        assert any(part.steps for part in packets.closed)
        assert len(packets) > 10 * sum(
            len(part) for part in packets.parts() if not part.steps)

    def test_branch_shares_segments_and_both_go_on_as_fresh_runs(self):
        """25 s is a multiple of the 250 ms period inside a steady stretch:
        the last segment ends there, and after branching both kernels go
        on from its last copy, each replacing it with a longer one."""
        scenario = load_scenario(SCENARIOS / "industrial_ring_e1.scn")
        injections = materialize_injections(scenario, 1)
        kernel = harness._start_kernel(scenario, variant_by_name("SDN-RM"),
                                       injections)
        kernel.advance(25 * SECOND)
        packets = kernel.log.packets
        at = len(packets.closed) - 1
        last = packets.closed[at]
        assert last.steps and packets.open == []
        twin = kernel.branch(injections)
        assert all(ours is theirs for ours, theirs in zip(
            packets.closed, twin.log.packets.closed, strict=True))
        assert twin.log.packets.open is not packets.open

        n = last.n
        fresh = run_single(scenario, "SDN-RM", 1).log.to_jsonl()
        for branched in (kernel, twin):
            done = run_single(scenario, "SDN-RM", 1, injections=injections,
                              kernel=branched)
            assert done.log.to_jsonl() == fresh
            longer = done.log.packets.closed[at]
            assert longer is not last and longer.n > n
        assert last.n == n


class TestTwin:
    """A branch is a twin: it holds its own copy of every piece of live
    state and shares only what no run changes."""

    split = 20 * SECOND + 600 * US
    # Before the split: a bound change, and a failure of S1-S10, on the
    # route S1 S10 S9 S8, while the packets sent at 20 s cross it.  The
    # reactive controller hears of it 0.25 ms later, after the split.
    common = [PedChangeInjection(at=15 * SECOND, pair_id="C1",
                                 factor_ppm=700_000),
              LinkDownInjection(at=20 * SECOND + 500 * US, a="S1", b="S10")]
    trunk = common + [LinkDownInjection(at=30 * SECOND, a="S1", b="S2")]
    branched = common + [LinkUpInjection(at=40 * SECOND, a="S1", b="S10")]

    @pytest.fixture(scope="class")
    def scenario(self):
        text = (SCENARIOS / "industrial_ring_e1.scn").read_text()
        return parse_scenario(text.replace(
            "auto_link_failures count=4 window=15s..140s", ""))

    @staticmethod
    def reachable(root, opaque) -> dict:
        """Every object reachable from root by gc.get_referents, by id.
        Classes, functions and modules are not walked into, nor opaque
        ones and those that may be shared."""
        seen = {}
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen[id(obj)] = obj
            if not (isinstance(obj, (type, ModuleType, FunctionType,
                                     BuiltinFunctionType, CodeType, Enum))
                    or id(obj) in opaque or TestTwin.frozen(obj)
                    or type(obj) is PacketRecord):
                stack.extend(gc.get_referents(obj))
        return seen

    @staticmethod
    def frozen(obj) -> bool:
        return (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
                and type(obj).__dataclass_params__.frozen)

    def test_shares_no_mutable_object_with_its_parent(self, scenario):
        kernel = harness._start_kernel(scenario, variant_by_name("RM"),
                                       self.trunk)
        kernel.advance(self.split)
        args = [arg for _, _, _, arg in kernel._queue]
        assert any(type(arg) is _Packet for arg in args)
        assert not kernel.topology.link_between("S1", "S10").is_up
        assert kernel.store.pair("C1").strong_ped != 3_200_000
        assert any(action.__func__ is ResilienceManager._on_e1_delivered
                   for _, _, action, _ in kernel._queue)

        twin = kernel.branch(self.branched)
        # The run's inputs, which nothing changes, the kernel's marker, the
        # network-state memo, which caches a pure function of its key, and
        # the cost matrix, which is never changed and may be a memo value.
        controller = kernel.controller
        memo, matrix = controller._memo, controller.matrix
        assert twin.controller._memo is memo
        assert twin.controller.matrix is matrix
        assert twin.controller._probe_plan is controller._probe_plan
        opaque = {id(kernel.config), id(controller.control), id(_NO_ARG),
                  id(memo), id(matrix), *map(id, memo.values())}
        ours = self.reachable(kernel, opaque)
        theirs = self.reachable(twin, opaque)
        shared = [ours[key] for key in ours.keys() & theirs.keys()]
        assert any(type(obj) is Part and obj.steps for obj in shared)

        def may_share(obj) -> bool:
            if type(obj) is PacketRecord:  # finished records only
                return (obj.delivered_at is not None
                        or obj.drop_reason is not None)
            return (type(obj) in (str, int, float, bool, type(None))
                    or isinstance(obj, (tuple, frozenset, Enum, Part,
                                        type, ModuleType, FunctionType,
                                        BuiltinFunctionType, CodeType))
                    or self.frozen(obj) or id(obj) in opaque)

        assert [obj for obj in shared if not may_share(obj)] == []

        for done, injections in ((twin, self.branched),
                                 (kernel, self.trunk)):
            fresh = run_single(scenario, "RM", 1, injections=injections)
            ran = run_single(scenario, "RM", 1, injections=injections,
                             kernel=done)
            assert ran.log.to_jsonl() == fresh.log.to_jsonl()

    def test_a_heap_entry_of_an_unknown_kind_is_not_branched(self):
        kernel = make_kernel(two_hop_spec(), [one_packet_flow()])
        kernel.setup(2 * SECOND, [])
        kernel.schedule_call(SECOND, kernel.forwarding_path, ["S1", "S3"])
        with pytest.raises(TypeError, match="cannot branch a heap entry"):
            kernel.branch([])


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")),
                         ids=lambda path: path.stem)
def test_bundled_runs_equal_the_reference_transport(path):
    """Every variant, fast-forwarded and simulated in full: the same log
    and metrics, and as many heap entries, as with the reference."""
    scenario = load_scenario(path)
    injections = materialize_injections(scenario, scenario.seed)
    for variant in sorted(VARIANT_ALIASES):
        for mode in (nullcontext, no_fast_forward):
            runs = []
            for kind in (Kernel, ReferenceKernel):
                with pytest.MonkeyPatch.context() as patch, mode():
                    patch.setattr(harness, "Kernel", kind)
                    kernel = harness._start_kernel(
                        scenario, variant_by_name(variant), injections)
                    done = run_single(scenario, variant,
                                      injections=injections, kernel=kernel)
                runs.append((done.log.to_jsonl(), done.metrics,
                             next(kernel._seq)))
            assert runs[0] == runs[1], (variant, mode)
