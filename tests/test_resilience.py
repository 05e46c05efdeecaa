import dataclasses

import pytest

from sdnsim import resilience
from sdnsim.contracts import (
    BoundTimeline,
    ContractKind,
    FaultCause,
    create_contract_pair,
)
from sdnsim.core import (
    ControlChannel,
    Flow,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    SimConfig,
    build_topology,
)
from sdnsim.injections import (
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
)
from sdnsim.kernel import Kernel
from sdnsim.resilience import (
    EventKind,
    ResponseAction,
    RestorationOutcome,
    VARIANTS,
    variant_by_name,
)

from conftest import ring_with_chords_spec

MS = MILLISECOND
US = MICROSECOND

# Three edge-disjoint 3-hop routes join S1 and S8 on the ring-with-chords
# topology; the lexicographic tie-break picks them in this order.
ROUTE_0 = ("S1", "S10", "S9", "S8")
ROUTE_1 = ("S1", "S2", "S3", "S8")
ROUTE_2 = ("S1", "S6", "S7", "S8")
BASE_ED = 3 * (MS + 12 * US)  # 3.036 ms over three 1 Gbps hops

KILLER_BREAKS = [  # one link from each 3-hop route, in route order
    ("S9", "S10"), ("S2", "S3"), ("S6", "S7"),
]


def ring_kernel(variant, strong=3_200_000, weak=12 * MS, injections=(),
                t_end=60 * SECOND, gap=100 * MS, control_latency=250 * US,
                pairs=None):
    topology = build_topology(ring_with_chords_spec())
    flow = Flow(id="F1", src_host="H1", dst_host="H8", packet_length=12_000,
                total_volume=10**12, start_time=SECOND, inter_packet_gap=gap)
    if pairs is None:
        pairs = [create_contract_pair("C1", "S1", "S8", strong, weak)]
    kernel = Kernel(
        topology=topology, flows=[flow], contract_pairs=pairs,
        variant=variant_by_name(variant), config=SimConfig(),
        control=ControlChannel(default_c2s=control_latency,
                               default_s2c=control_latency))
    kernel.setup(t_end, list(injections))
    kernel.run_until(t_end)
    return kernel


class TestVariantTable:
    def test_flag_rows(self):
        rows = {name: (v.proactive, v.reactive, v.weak_contracts)
                for name, v in VARIANTS.items()}
        assert rows == {
            "SDN-woRM": (False, False, False),
            "SDN-sRM": (True, True, False),
            "SDN-pRM": (True, False, True),
            "SDN-RM": (True, True, True),
        }

    def test_aliases(self):
        assert variant_by_name("RM").name == "SDN-RM"
        assert variant_by_name("SDN-pRM").name == "SDN-pRM"
        with pytest.raises(ValueError):
            variant_by_name("nope")


class TestReactiveLinkFailure:
    def test_notification_delivered_after_one_way_latency(self):
        kernel = ring_kernel("SDN-RM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        [notification] = [n for n in kernel.log.notifications
                          if n.kind is EventKind.E1_LINK_FAILURE]
        assert notification.occurred_at == 23 * SECOND
        assert notification.delivered_at == 23 * SECOND + 250 * US

    def test_restoration_record_phases(self):
        kernel = ring_kernel("SDN-RM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        [record] = kernel.log.restorations
        assert record.cause is FaultCause.LINK_FAILURE
        assert record.detection_delay == 250 * US
        assert record.recalculation_delay == 100 * US
        assert record.reassignment_delay == 250 * US
        assert record.total == 600 * US
        assert record.outcome is RestorationOutcome.RS1_APPLIED

    def test_reroute_adopts_next_disjoint_route(self):
        kernel = ring_kernel("SDN-RM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        installed = kernel.forwarding_path(("S1", "S8"), 60 * SECOND)
        assert installed == ROUTE_1
        # Only the packet launched at the failure instant is lost (plus the
        # final packet still in flight when the measurement window closes).
        dropped = [p for p in kernel.log.packets
                   if p.drop_reason not in (None, "end_of_run")]
        assert len(dropped) <= 1

    def test_down_and_up_within_latency_takes_no_action(self):
        kernel = ring_kernel(
            "SDN-RM",
            injections=[LinkDownInjection(23 * SECOND, "S9", "S10"),
                        LinkUpInjection(23 * SECOND + 100 * US, "S9", "S10")])
        assert kernel.log.restorations == []
        assert kernel.log.faults == []

    def test_break_off_path_causes_no_fault(self):
        kernel = ring_kernel("SDN-RM",
                             injections=[LinkDownInjection(23 * SECOND, "S4", "S5")])
        [notification] = [n for n in kernel.log.notifications
                          if n.kind is EventKind.E1_LINK_FAILURE]
        assert notification.delivered_at > notification.occurred_at
        assert kernel.log.faults == []


class TestProactiveOnly:
    def test_fault_detected_at_next_cycle_boundary(self):
        kernel = ring_kernel("SDN-pRM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        [record] = kernel.log.restorations
        assert record.at == 30 * SECOND
        assert record.cause is FaultCause.ESTIMATION_CYCLE
        assert record.detection_delay == 7 * SECOND

    def test_no_decisions_between_boundaries(self):
        kernel = ring_kernel("SDN-pRM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        interval = kernel.config.estimation_interval
        for decision in kernel.log.decisions:
            assert decision.at % interval == 0

    def test_detection_never_exceeds_interval(self):
        for t_break in (21 * SECOND, 29 * SECOND + 999_900_000):
            kernel = ring_kernel(
                "SDN-pRM", injections=[LinkDownInjection(t_break, "S9", "S10")])
            assert kernel.log.restorations
            for record in kernel.log.restorations:
                assert 0 <= record.detection_delay <= kernel.config.estimation_interval

    def test_reactive_dominance_over_proactive(self):
        injections = [LinkDownInjection(23 * SECOND, "S9", "S10")]
        reactive = ring_kernel("SDN-RM", injections=injections)
        proactive = ring_kernel("SDN-pRM", injections=injections)
        d_reactive = reactive.log.restorations[0].detection_delay
        d_proactive = proactive.log.restorations[0].detection_delay
        assert d_reactive <= d_proactive


class TestWithoutResilience:
    def test_no_records_and_no_recovery(self):
        kernel = ring_kernel("SDN-woRM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        assert kernel.log.restorations == []
        assert kernel.log.faults == []
        assert kernel.log.decisions == []
        late = [p for p in kernel.log.packets if p.sent_at > 24 * SECOND]
        assert late and all(p.drop_reason is not None for p in late)


class TestControlLogicDecisions:
    def test_strong_satisfiable_gives_rs1(self):
        kernel = ring_kernel("SDN-RM",
                             injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        [decision] = kernel.log.decisions
        assert decision.action is ResponseAction.RS1

    def test_only_weak_satisfiable_gives_rs1_rs2(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        kernel = ring_kernel("SDN-RM", injections=injections)
        last = kernel.log.decisions[-1]
        assert last.action is ResponseAction.RS1_RS2
        assert last.best_ed == 5 * (MS + 12 * US)  # forced onto a 5-hop detour
        assert kernel.store.pair("C1").active_kind is ContractKind.WEAK
        # Traffic keeps flowing under the weak contract.
        late = [p for p in kernel.log.packets
                if 24 * SECOND < p.sent_at < 59 * SECOND]
        assert late and all(p.delivered for p in late)

    def test_nothing_satisfiable_gives_rs3_and_keeps_rules(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        kernel = ring_kernel("SDN-RM", weak=4 * MS, injections=injections)
        last = kernel.log.decisions[-1]
        assert last.action is ResponseAction.RS3
        [warning] = kernel.log.warnings[:1]
        assert warning.best_ed == 5 * (MS + 12 * US)
        # Forwarding still points at the broken route, so traffic dies.
        installed = kernel.forwarding_path(("S1", "S8"), 60 * SECOND)
        assert installed == ROUTE_2
        late = [p for p in kernel.log.packets if p.sent_at > 24 * SECOND]
        assert late and all(p.drop_reason is not None for p in late)

    def test_partition_warns_with_no_path(self):
        # All three links into S8 go down: no path can exist at any cost.
        injections = [LinkDownInjection(21 * SECOND, "S9", "S8"),
                      LinkDownInjection(22 * SECOND, "S3", "S8"),
                      LinkDownInjection(23 * SECOND, "S7", "S8")]
        kernel = ring_kernel("SDN-RM", injections=injections,
                             t_end=40 * SECOND)
        assert kernel.log.warnings
        assert kernel.log.warnings[0].best_ed is None
        assert kernel.log.decisions[-1].action is ResponseAction.RS3

    def test_warning_repeats_each_cycle_while_unsatisfied(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        kernel = ring_kernel("SDN-RM", weak=4 * MS, injections=injections,
                             t_end=60 * SECOND)
        # One reactive warning at the third break, then one per boundary
        # (30, 40, 50, 60 s) while the condition persists.
        assert len(kernel.log.warnings) == 5

    def test_strong_only_variant_never_emits_rs2(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        kernel = ring_kernel("SDN-sRM", injections=injections)
        assert all(d.action is not ResponseAction.RS1_RS2
                   for d in kernel.log.decisions)
        assert kernel.store.pair("C1").active_kind is ContractKind.STRONG
        # The third break leaves only strong-violating detours: warn-only.
        late = [p for p in kernel.log.packets if p.sent_at > 24 * SECOND]
        assert late and all(p.drop_reason is not None for p in late)


class TestContractChangeMonitor:
    def test_tightening_handled_immediately_by_reactive(self):
        kernel = ring_kernel(
            "SDN-RM",
            injections=[PedChangeInjection(35 * SECOND, "C1", new_ped=2 * MS)])
        [notification] = [n for n in kernel.log.notifications
                          if n.kind is EventKind.E2_CONTRACT_CHANGE]
        assert notification.delivered_at == notification.occurred_at == 35 * SECOND
        [record] = kernel.log.restorations
        assert record.at == 35 * SECOND
        assert record.cause is FaultCause.CONTRACT_CHANGE
        assert record.detection_delay == 0
        assert record.reassignment_delay == 0  # same path, weak fallback
        assert record.total == 100 * US
        assert record.outcome is RestorationOutcome.RS2_APPLIED
        assert kernel.store.pair("C1").active_kind is ContractKind.WEAK

    def test_kernels_from_one_pair_list_run_alike(self):
        # The tightening changes the strong bound and RS2 makes the pair
        # weak; neither may leak into the next kernel built from the list.
        pairs = [create_contract_pair("C1", "S1", "S8", 3_200_000, 12 * MS)]
        given = [dataclasses.replace(pair) for pair in pairs]
        injections = [PedChangeInjection(35 * SECOND, "C1", new_ped=2 * MS)]
        first, second = (ring_kernel("SDN-RM", injections=injections,
                                     pairs=pairs) for _ in range(2))
        assert first.store.pair("C1").active_kind is ContractKind.WEAK
        assert first.store.pair("C1").strong_ped == 2 * MS
        assert pairs == given
        assert first.log.to_jsonl() == second.log.to_jsonl()

    def test_tightening_deferred_by_proactive_only(self):
        kernel = ring_kernel(
            "SDN-pRM",
            injections=[PedChangeInjection(35 * SECOND, "C1", new_ped=2 * MS)])
        [record] = kernel.log.restorations
        assert record.at == 40 * SECOND
        assert record.detection_delay == 5 * SECOND

    def test_relaxation_causes_no_fault(self):
        kernel = ring_kernel(
            "SDN-RM",
            injections=[PedChangeInjection(35 * SECOND, "C1", new_ped=8 * MS)])
        assert [n.kind for n in kernel.log.notifications] == [
            EventKind.E2_CONTRACT_CHANGE]
        assert kernel.log.faults == []

    def test_scaling_factor_applies_to_current_ped(self):
        kernel = ring_kernel(
            "SDN-RM",
            injections=[PedChangeInjection(35 * SECOND, "C1", factor_ppm=500_000),
                        PedChangeInjection(45 * SECOND, "C1", factor_ppm=500_000)])
        assert kernel.store.pair("C1").strong_ped == 800_000  # 3.2 ms / 4


class TestRecoveryAndReinstatement:
    def test_weak_pair_reinstates_strong_after_repair(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        injections.append(LinkUpInjection(31 * SECOND, "S9", "S10"))
        kernel = ring_kernel("SDN-RM", injections=injections,
                             t_end=60 * SECOND)
        pair = kernel.store.pair("C1")
        assert pair.active_kind is ContractKind.STRONG
        assert kernel.forwarding_path(("S1", "S8"), 60 * SECOND) == ROUTE_0
        # Reinstatement trails re-adoption by one cycle: weak was still
        # active at 40 s, strong again from 50 s.
        timeline = BoundTimeline(kernel.log.ped_changes)
        assert timeline.at("S1", "S8", 40 * SECOND + 1).active_ped == 12 * MS
        assert timeline.at("S1", "S8", 50 * SECOND + 1).active_ped == 3_200_000

    def test_parallel_reassignment_uses_slowest_switch(self):
        kernel = ring_kernel(
            "SDN-RM", control_latency=500 * US,
            injections=[LinkDownInjection(23 * SECOND, "S9", "S10")])
        [record] = kernel.log.restorations
        assert record.detection_delay == 500 * US
        assert record.recalculation_delay == 100 * US
        assert record.reassignment_delay == 500 * US
        assert record.total == 1_100 * US  # 1.1 ms


class TestAssumptionAudit:
    def test_events_annotate_assumption_windows(self):
        kernel = ring_kernel(
            "SDN-RM",
            injections=[LinkDownInjection(23 * SECOND, "S9", "S10"),
                        PedChangeInjection(35 * SECOND, "C1", new_ped=2 * MS)])
        notes = kernel.log.assumption_notes
        assert [n.kind for n in notes] == [EventKind.E1_LINK_FAILURE,
                                           EventKind.E2_CONTRACT_CHANGE]
        # Each window closes at the next estimation-cycle boundary.
        assert notes[0].occurred_at == 23 * SECOND
        assert notes[0].window_end == 30 * SECOND
        assert notes[1].window_end == 40 * SECOND


class TestPhaseSum:
    def test_every_record_decomposes_exactly(self):
        injections = [LinkDownInjection((21 + i) * SECOND, a, b)
                      for i, (a, b) in enumerate(KILLER_BREAKS)]
        injections.append(PedChangeInjection(45 * SECOND, "C1", new_ped=MS))
        for variant in VARIANTS:
            kernel = ring_kernel(variant, injections=list(injections))
            for record in kernel.log.restorations:
                assert record.total == (record.detection_delay
                                        + record.recalculation_delay
                                        + record.reassignment_delay)


class TestRouteMemo:
    """A pair's route is computed once per Down links and cycle costs, in
    every kernel on one memo."""

    PAIR = ("S1", "S8")

    @staticmethod
    def idle_kernel(memo=None):
        """An idle ring kernel after cycle 0, on the network-state memo."""
        kernel = Kernel(
            topology=build_topology(ring_with_chords_spec()), flows=[],
            contract_pairs=[], variant=variant_by_name("SDN-RM"),
            config=SimConfig(), control=ControlChannel(), memo=memo)
        kernel.controller.on_cycle_boundary(0)
        return kernel

    @pytest.fixture
    def memo(self, monkeypatch):
        """An idle ring kernel after cycle 0, and the find_path calls made."""
        calls = []
        real = resilience.find_path

        def counting(topology, costs, src, dst):
            calls.append((src, dst))
            return real(topology, costs, src, dst)

        monkeypatch.setattr(resilience, "find_path", counting)
        return self.idle_kernel(), calls

    def route(self, kernel, now=0):
        return kernel.controller._compute_route(self.PAIR, now, "test")

    def test_repeat_request_reuses_the_route_and_still_logs_it(self, memo):
        kernel, calls = memo
        assert self.route(kernel).path == ROUTE_0
        assert self.route(kernel).path == ROUTE_0
        assert len(calls) == 1
        first, second = kernel.log.routes
        assert len(kernel.log.routes) == 2
        assert first == second

    def test_no_path_is_remembered_too(self, memo):
        kernel, calls = memo
        for a in ("S9", "S3", "S7"):  # every link into S8
            kernel.topology.set_link_state(a, "S8", LinkState.DOWN)
        assert self.route(kernel) is None
        assert self.route(kernel) is None
        assert len(calls) == 1
        assert kernel.log.routes == []

    def test_link_down_misses_and_link_up_returns_to_the_memoized_route(
            self, memo):
        kernel, calls = memo
        self.route(kernel)
        kernel.topology.set_link_state("S9", "S10", LinkState.DOWN)
        assert self.route(kernel).path == ROUTE_1
        assert len(calls) == 2
        kernel.topology.set_link_state("S9", "S10", LinkState.UP)
        assert self.route(kernel).path == ROUTE_0
        assert len(calls) == 2

    def test_one_version_with_other_links_down_is_another_state(self, memo):
        """Two kernels on one memo, each one link state change in, so at
        the same Topology.version, with different links down."""
        kernel, calls = memo
        sibling = self.idle_kernel(kernel.controller._memo)
        kernel.topology.set_link_state("S9", "S10", LinkState.DOWN)
        sibling.topology.set_link_state("S3", "S8", LinkState.DOWN)
        assert kernel.topology.version == sibling.topology.version
        assert self.route(kernel).path == ROUTE_1
        assert self.route(sibling).path == ROUTE_0
        assert len(calls) == 2

    def test_equal_costs_of_another_kernel_hit_and_a_changed_cost_misses(
            self, memo):
        kernel, calls = memo
        self.route(kernel)
        sibling = self.idle_kernel(kernel.controller._memo)
        # Both idle cycles at one Down set: the memo's matrix, shared.
        ours, theirs = kernel.controller.matrix, sibling.controller.matrix
        assert theirs is ours
        assert self.route(sibling).path == ROUTE_0
        assert len(calls) == 1
        # A queued probe makes the next cycle estimate link S1-S10, both
        # ways, slower; every other cost stays.
        sibling.egress_free[("S1", "S10")] = 10 * SECOND + MS
        sibling.controller.on_cycle_boundary(10 * SECOND)
        theirs = sibling.controller.matrix
        assert [link for link in theirs if theirs[link] != ours[link]] == [
            ("S1", "S10"), ("S10", "S1")]
        assert self.route(sibling, 10 * SECOND).path == ROUTE_1
        assert len(calls) == 2

    def test_equal_cycle_costs_keep_the_memo(self, memo):
        kernel, calls = memo
        self.route(kernel)
        kernel.controller.on_cycle_boundary(10 * SECOND)
        assert self.route(kernel, 10 * SECOND).path == ROUTE_0
        assert len(calls) == 1

    def test_changed_cycle_costs_clear_the_memo(self, memo):
        kernel, calls = memo
        self.route(kernel)
        # Data queued on S1->S10 at the next boundary delays its probe, so
        # that cycle estimates S1-S10 slower and ROUTE_1 becomes cheapest.
        kernel.egress_free[("S1", "S10")] = 10 * SECOND + MS
        kernel.controller.on_cycle_boundary(10 * SECOND)
        assert self.route(kernel, 10 * SECOND).path == ROUTE_1
        assert len(calls) == 2


class TestEstimationParts:
    """The controller closes each cycle's relative records as copy c of a
    part stepping cycle by 1 and at by the interval."""

    def test_cycles_read_as_their_index_and_instant(self):
        """Idle cycles 0 to 2 share one template and close as one part; a
        busy cycle 3 starts another, and so does idle cycle 4 after it."""
        kernel = Kernel(
            topology=build_topology(ring_with_chords_spec()), flows=[],
            contract_pairs=[], variant=variant_by_name("SDN-RM"),
            config=SimConfig(estimation_interval=SECOND),
            control=ControlChannel())
        for cycle in range(5):
            if cycle == 3:
                kernel.egress_free[("S1", "S10")] = 3 * SECOND + MS
            kernel.controller.on_cycle_boundary(cycle * SECOND)
        parts = kernel.log.estimation.closed
        assert [(part.first, part.n) for part in parts] == [
            (0, 3), (3, 1), (4, 1)]
        assert parts[2].template is parts[0].template
        assert all(part.steps == (("cycle", 1), ("at", SECOND))
                   for part in parts)
        records = list(kernel.log.estimation)
        links = len(ring_with_chords_spec().links)
        assert len(records) == 5 * 2 * links
        assert [(r.cycle, r.at) for r in records] == [
            (cycle, cycle * SECOND) for cycle in range(5)
            for _ in range(2 * links)]


    def test_a_cycle_off_its_instant_is_refused(self):
        """Cycle c is logged at c intervals, so it must run there: a cycle
        at another instant raises and leaves the controller as it was."""
        kernel = Kernel(
            topology=build_topology(ring_with_chords_spec()), flows=[],
            contract_pairs=[], variant=variant_by_name("SDN-RM"),
            config=SimConfig(estimation_interval=SECOND),
            control=ControlChannel())
        controller = kernel.controller
        with pytest.raises(ValueError, match="cycle 0 runs at 0, not at"):
            controller.on_cycle_boundary(SECOND)
        controller.on_cycle_boundary(0)
        with pytest.raises(ValueError, match="cycle 1 runs at 1000000000,"):
            controller.on_cycle_boundary(2 * SECOND)
        assert controller.cycle_index == 0
        assert {r.cycle for r in kernel.log.estimation} == {0}
        controller.on_cycle_boundary(SECOND)
        assert controller.cycle_index == 1


class TestIdleCycles:
    """A proactive cycle that finds what an idle cycle left logs that
    cycle's route records again, at its own instant, and evaluates
    nothing; any change it reads makes it evaluate every pair."""

    PAIR = ("S1", "S8")

    @staticmethod
    def flow(flow_id="F1", dst="H8"):
        return Flow(id=flow_id, src_host="H1", dst_host=dst,
                    packet_length=12_000, total_volume=12_000,
                    start_time=0, inter_packet_gap=0)

    @pytest.fixture
    def idle(self, monkeypatch):
        """A ring kernel under SDN-RM with S1->S8 placed on ROUTE_0, whose
        cycle at 1 s was idle, and the evaluation calls made since."""
        kernel = Kernel(
            topology=build_topology(ring_with_chords_spec()), flows=[],
            contract_pairs=[create_contract_pair("C1", "S1", "S8", 12 * MS)],
            variant=variant_by_name("SDN-RM"),
            config=SimConfig(estimation_interval=SECOND),
            control=ControlChannel())
        controller = kernel.controller
        controller.on_cycle_boundary(0)
        controller.on_flow_arrival(self.flow(), 0)
        controller.on_cycle_boundary(SECOND)
        assert kernel.log.faults == []
        calls = []
        for name in ("_current_ed", "_compute_route"):
            real = getattr(resilience.ResilienceManager, name)

            def counted(*args, name=name, real=real, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(resilience.ResilienceManager, name, counted)
        real_find_path = resilience.find_path

        def counted_find_path(*args):
            calls.append("find_path")
            return real_find_path(*args)

        monkeypatch.setattr(resilience, "find_path", counted_find_path)
        return kernel, calls

    def test_logs_the_idle_cycle_routes_at_its_own_instant(self, idle,
                                                           monkeypatch):
        """Two replays build no RouteRecord and close one route part, the
        idle cycle's records stepped by the interval from copy 1."""
        kernel, calls = idle
        before = list(kernel.log.routes)
        idle_routes = [r for r in before if r.at == SECOND]
        assert [r.purpose for r in idle_routes] == ["reoptimize"]
        built = []
        init = resilience.RouteRecord.__init__

        def counted(record, *args, **kwargs):
            built.append(args or kwargs)
            init(record, *args, **kwargs)

        monkeypatch.setattr(resilience.RouteRecord, "__init__", counted)
        kernel.controller.on_cycle_boundary(2 * SECOND)
        kernel.controller.on_cycle_boundary(3 * SECOND)
        assert calls == [] and built == []
        *_, replayed = closed = kernel.log.routes.closed
        assert len(closed) == 2 and kernel.log.routes.open == []
        assert (replayed.first, replayed.n, replayed.steps) == (
            1, 2, (("at", SECOND),))
        assert list(map(id, replayed.template)) == list(map(id, idle_routes))
        assert kernel.log.routes == before + [
            dataclasses.replace(r, at=at) for at in (2 * SECOND, 3 * SECOND)
            for r in idle_routes]

    def evaluates(self, kernel, calls, at=2 * SECOND):
        kernel.controller.on_cycle_boundary(at)
        return "_current_ed" in calls

    def test_a_bound_change_is_evaluated(self, idle):
        kernel, calls = idle
        kernel.store.modify("C1", 11 * MS, SECOND + 1)
        assert self.evaluates(kernel, calls)

    def test_a_link_down_and_up_is_evaluated(self, idle):
        """The version moves by 2 though the same links are down."""
        kernel, calls = idle
        version = kernel.topology.version
        kernel.topology.set_link_state("S2", "S3", LinkState.DOWN)
        kernel.topology.set_link_state("S2", "S3", LinkState.UP)
        assert kernel.topology.version == version + 2
        assert self.evaluates(kernel, calls)

    def test_a_forwarding_activation_is_evaluated(self, idle):
        """An entry set before the cycle at 2 s and active from 2.5 s: that
        cycle changes nothing, yet the next finds ROUTE_1 in force."""
        kernel, calls = idle
        kernel.set_forwarding(self.PAIR, ROUTE_1, 2_500 * MS)
        assert self.evaluates(kernel, calls)
        calls.clear()
        assert self.evaluates(kernel, calls, 3 * SECOND)
        assert kernel.forwarding_path(self.PAIR, 3 * SECOND) == ROUTE_1

    def test_a_new_routed_pair_is_evaluated(self, idle):
        """F2's pair has its route installed already, so F2's arrival
        installs nothing: only the count of routed pairs moves."""
        kernel, calls = idle
        route = resilience.find_path(kernel.topology,
                                     kernel.controller.matrix, "S1", "S5")
        kernel.set_forwarding(("S1", "S5"), route.path, SECOND + 1)
        assert self.evaluates(kernel, calls)
        installed = kernel.forwarding_changes
        kernel.controller.on_flow_arrival(self.flow("F2", "H5"),
                                          2 * SECOND + 1)
        assert kernel.forwarding_changes == installed
        calls.clear()
        assert self.evaluates(kernel, calls, 3 * SECOND)
