import copy
import dataclasses
import gc
import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import sdnsim
from sdnsim import harness, injections, resilience
from sdnsim.contracts import ContractKind, FaultCause, PedChange
from sdnsim.core import MILLISECOND, SECOND
from sdnsim.delay_estimation import EstimationRecord
from sdnsim.harness import (
    compute_restoration_stats,
    emit_reports,
    metrics_from_streams,
    run_experiment,
    run_single,
    verify_conservation,
)
from sdnsim.injections import materialize_injections
from sdnsim.kernel import Kernel, PacketRecord, _Packet
from sdnsim.resilience import (
    RestorationOutcome,
    RestorationRecord,
    variant_by_name,
)
from sdnsim.runlog import Part, PartLog, RunLog
from sdnsim.scenario import load_scenario, parse_scenario

from conftest import (
    assert_runs_match_fresh_runs,
    counted_fast_forward,
    experiment_runs,
    no_fast_forward,
    queued_probes_chain,
    reference_success_rate,
)

MS = MILLISECOND


def ped_history(active=5 * MS, strong=5 * MS):
    return [PedChange(pair_id="C1", src="S1", dst="S8", at=0,
                      active_kind=ContractKind.STRONG, active_ped=active,
                      strong_ped=strong, weak_ped=2 * active)]


def packet(seq, delay, sent=SECOND, covered=True, delivered=True,
           length=12_000):
    delivered_at = sent + delay if delivered else None
    return PacketRecord(
        flow_id="F1", seq=seq, pair=("S1", "S8"), covered=covered,
        length=length, sent_at=sent, path=None, delivered_at=delivered_at,
        drop_reason=None if delivered else "link_down",
        actual_delay=delay if delivered else None, queue_wait=0)


def restoration(total):
    return RestorationRecord(
        pair_id="C1", cause=FaultCause.LINK_FAILURE, at=20 * SECOND,
        detection_delay=total - 100_000, recalculation_delay=100_000,
        reassignment_delay=0, total=total,
        outcome=RestorationOutcome.RS1_APPLIED)


def scored(packets, ped_changes=(), emulation_time=SECOND):
    """The metrics of a log holding these packets and bound changes."""
    log = RunLog(packets=packets, ped_changes=list(ped_changes))
    return metrics_from_streams(log, "SDN-RM", 1, emulation_time)


def success_rates(packets, ped_changes):
    report = scored(packets, ped_changes)
    return report.success_rate, report.success_rate_strong


class TestSuccessRate:
    def test_three_of_four_within_bound(self):
        packets = [packet(0, 3 * MS), packet(1, 4 * MS), packet(2, 5 * MS),
                   packet(3, 6 * MS)]
        rate, strong = success_rates(packets, ped_history())
        assert rate == 0.75
        assert strong == 0.75

    def test_drops_count_as_unsatisfied(self):
        packets = [packet(0, 3 * MS), packet(1, 0, delivered=False)]
        rate, _ = success_rates(packets, ped_history())
        assert rate == 0.5

    def test_all_dropped_is_zero(self):
        packets = [packet(i, 0, delivered=False) for i in range(4)]
        rate, _ = success_rates(packets, ped_history())
        assert rate == 0.0

    def test_uncovered_packets_excluded(self):
        packets = [packet(0, 3 * MS), packet(1, 99 * MS, covered=False)]
        rate, _ = success_rates(packets, ped_history())
        assert rate == 1.0

    def test_scored_against_bound_active_at_delivery(self):
        history = ped_history() + [
            PedChange(pair_id="C1", src="S1", dst="S8", at=10 * SECOND,
                      active_kind=ContractKind.WEAK, active_ped=9 * MS,
                      strong_ped=5 * MS, weak_ped=9 * MS)]
        packets = [packet(0, 7 * MS, sent=SECOND),
                   packet(1, 7 * MS, sent=11 * SECOND)]
        rate, strong = success_rates(packets, history)
        assert rate == 0.5       # second packet allowed by the weak bound
        assert strong == 0.0     # neither meets the strong bound

    def test_no_covered_packets_is_vacuously_one(self):
        rate, strong = success_rates([], ped_history())
        assert rate == 1.0 and strong == 1.0


# Two pairs with bound changes and one without; instants come from a small
# range, so several changes often share one, and some precede every
# delivery.
PAIRS = (("S1", "S8"), ("S8", "S1"), ("S2", "S5"))
instants = st.integers(0, 12)


@st.composite
def scored_streams(draw):
    changes = [SimpleNamespace(src=src, dst=dst, at=draw(instants),
                               active_ped=draw(st.integers(1, 8)),
                               strong_ped=draw(st.integers(1, 8)))
               for src, dst in draw(st.lists(st.sampled_from(PAIRS[:2]),
                                             max_size=8))]
    packets = []
    for seq in range(draw(st.integers(0, 30))):
        pair = draw(st.sampled_from(PAIRS))
        delivered_at = draw(st.none() | instants)
        packets.append(SimpleNamespace(
            seq=seq, covered=draw(st.booleans()),
            # parse_jsonl gives the pair back as a list
            pair=list(pair) if draw(st.booleans()) else pair,
            length=draw(st.integers(1, 100)), delivered_at=delivered_at,
            actual_delay=None if delivered_at is None
            else draw(st.integers(0, 9))))
    if draw(st.booleans()):
        packets.sort(key=lambda p: (p.delivered_at is None,
                                    p.delivered_at or 0))
    return packets, changes


@settings(max_examples=300, deadline=None)
@given(scored_streams())
def test_success_rate_equals_a_bisection_per_packet(streams):
    packets, changes = streams
    report = scored(packets, changes)
    delivered = [p for p in packets if p.delivered_at is not None]
    assert report.packets_delivered == len(delivered)
    # Delivered bits over the one-second emulation time.
    assert report.throughput_bps == sum(p.length for p in delivered)
    assert (report.success_rate, report.success_rate_strong) == \
        reference_success_rate(packets, changes)


class TestSegments:
    """A stepped packet part scored and checked from its template, against
    the same records in a plain list.  Copies 1 to 4 of the template's
    covered deliveries arrive at 35, 45, 55, 65 (F1) and 39, 49, 59, 69
    (F2)."""

    TEMPLATE = (
        PacketRecord("F1", 0, ("S1", "S8"), True, 100, 20, ("S1", "S8"), 25,
                     None, 5, 0),
        PacketRecord("F2", 0, ("S8", "S1"), True, 100, 21, ("S8", "S1"), 29,
                     None, 8, 0),
        PacketRecord("F3", 0, ("S1", "S8"), False, 100, 22, None, None,
                     "no_route", None, 0),
    )

    STEPS = (("seq", 1), ("sent_at", 10), ("delivered_at", 10))

    def segment_log(self):
        template = self.TEMPLATE
        return PartLog([], (Part(template), Part(template, 1, 4, self.STEPS)))

    @pytest.mark.parametrize("at", [30, 35, 40, 65, 66, 69, 70])
    def test_bound_change_among_the_copies(self, at):
        """Each pair's bound tightens at at: strictly inside a window, at a
        first copy's delivery (35), at a last one's (65, 69) and around."""
        changes = [SimpleNamespace(src=src, dst=dst, at=when,
                                   active_ped=ped, strong_ped=ped)
                   for src, dst in (("S1", "S8"), ("S8", "S1"))
                   for when, ped in ((0, 8), (at, 6))]
        packets = self.segment_log()
        records = list(packets)
        assert len(records) == 15
        assert success_rates(packets, changes) == \
            reference_success_rate(records, changes)
        logs = [RunLog(packets=p, ped_changes=changes)
                for p in (packets, records)]
        ours, theirs = (metrics_from_streams(log, "SDN-RM", 1, SECOND)
                        for log in logs)
        assert ours == theirs

    @pytest.mark.parametrize("change, message", [
        ({"actual_delay": 6}, "transit time"),
        ({"delivered_at": None, "actual_delay": None},
         "neither delivered nor dropped"),
    ])
    def test_corrupt_template_record_fails_the_check(self, change, message):
        template = ((dataclasses.replace(self.TEMPLATE[0], **change),)
                    + self.TEMPLATE[1:])
        log = RunLog(packets=PartLog([], (Part(template, 1, 4, self.STEPS),)))
        with pytest.raises(AssertionError, match=message):
            verify_conservation(log)


class TestThroughput:
    def test_delivered_bits_over_time(self):
        packets = [packet(i, MS) for i in range(100)]
        assert scored(packets).throughput_bps == 1_200_000.0

    def test_zero_deliveries(self):
        packets = [packet(0, 0, delivered=False)]
        assert scored(packets).throughput_bps == 0.0

    def test_bounded_by_offered_volume(self):
        packets = [packet(i, MS) for i in range(100)]
        offered = sum(p.length for p in packets)
        assert scored(packets, emulation_time=10 * SECOND).throughput_bps \
            <= offered

    @pytest.mark.parametrize("emulation_time", [0, -SECOND])
    def test_emulation_time_must_be_positive(self, emulation_time):
        with pytest.raises(ValueError, match="emulation time must be"):
            scored([packet(0, MS)], emulation_time=emulation_time)


class TestRestorationStats:
    def test_mean_and_list(self):
        records = [restoration(300_000), restoration(500_000)]
        mean, totals = compute_restoration_stats(records)
        assert mean == 400_000.0
        assert totals == [300_000, 500_000]

    def test_empty_is_absent(self):
        mean, totals = compute_restoration_stats([])
        assert mean is None and totals == []


@pytest.fixture(scope="module")
def ring_scenario():
    return load_scenario("scenarios/industrial_ring_e1.scn")


class TestRunSingle:
    def test_conservation_per_flow(self, ring_scenario):
        run = run_single(ring_scenario.with_flow_count(3), "RM", 2)
        per_flow = {}
        for record in run.log.packets:
            delivered, dropped = per_flow.get(record.flow_id, (0, 0))
            if record.delivered:
                per_flow[record.flow_id] = (delivered + 1, dropped)
            else:
                assert record.drop_reason is not None
                per_flow[record.flow_id] = (delivered, dropped + 1)
        assert set(per_flow) == {"F1", "F2", "F3"}

    def test_metrics_replay_from_serialized_log(self, ring_scenario):
        run = run_single(ring_scenario.with_flow_count(4), "RM", 3)
        online = run.metrics
        text = run.log.to_jsonl()
        streams = RunLog.parse_jsonl(text)
        replayed = metrics_from_streams(
            streams, run.variant, run.seed, ring_scenario.emulation_time)
        assert replayed == online

    def test_one_estimation_call_per_cycle_boundary(self, monkeypatch):
        """bench/instrument.py times the estimation layer by wrapping
        resilience.run_estimation_cycle, so every cycle boundary, whether
        its cycle is idle, busy or found in the memo, calls it once."""
        scenario = load_scenario("scenarios/industrial_ring_mixed.scn")
        instants = []
        cycle = resilience.run_estimation_cycle

        def counted(plan, topology, now, **kwargs):
            instants.append(now)
            return cycle(plan, topology, now, **kwargs)

        monkeypatch.setattr(resilience, "run_estimation_cycle", counted)
        run_single(scenario, "RM", 1)
        interval = scenario.config.estimation_interval
        assert instants == list(range(0, scenario.emulation_time + 1,
                                      interval))

    def test_serialized_log_round_trips_byte_for_byte(self):
        # Link failures and bound changes together: every enum-bearing
        # stream (notifications, faults, decisions, restorations,
        # assumption notes, ped changes, ped-change injections) is filled.
        scenario = load_scenario("scenarios/industrial_ring_mixed.scn")
        run = run_single(scenario.with_flow_count(2), "RM", 1)
        for stream in RunLog.STREAMS:
            if stream != "warnings":
                assert getattr(run.log, stream), stream
        assert any(change.at > 0 for change in run.log.ped_changes)
        text = run.log.to_jsonl()
        parsed = RunLog.parse_jsonl(text)
        assert parsed.to_jsonl() == text
        replayed = metrics_from_streams(
            parsed, run.variant, run.seed, scenario.emulation_time)
        assert replayed == run.metrics

    def test_finished_run_is_freed_without_the_cyclic_collector(
            self, ring_scenario):
        """A run, and a kernel and its twin branched with a packet in
        flight, each run to the end."""
        scenario = ring_scenario.with_flow_count(1)
        injections = materialize_injections(scenario, 1)
        gc.collect()
        gc.disable()
        try:
            run_single(scenario, "RM", 1, keep_log=False)
            kernel = harness._start_kernel(scenario, variant_by_name("RM"),
                                           injections)
            kernel.advance(20 * SECOND + MS)
            twin = kernel.branch(injections)
            assert twin.log.packets.open[-1].delivered_at is None
            for each in (twin, kernel):
                run_single(scenario, "RM", 1, keep_log=False,
                           injections=injections, kernel=each)
            del kernel, twin, each
            alive = [o for o in gc.get_objects() if isinstance(o, Kernel)]
        finally:
            gc.enable()
        assert alive == []

    def test_one_switch_without_links(self):
        """Hosts on one switch: no link to cross, yet the run neither
        fails nor differs from the run simulated in full."""
        scenario = parse_scenario(
            "[topology]\nswitches S1\nhost H1 S1\nhost H2 S1\n[flows]\n"
            "flow F1 H1 H2 packet=1500B volume=1200kb start=1s gap=10ms\n"
            "[run]\nemulation_time 3s\nestimation_interval 1s\n")
        with counted_fast_forward() as counts:
            run = run_single(scenario, "RM", 1)
        with no_fast_forward():
            simulated = run_single(scenario, "RM", 1)
        assert run.log.to_jsonl() == simulated.log.to_jsonl()
        assert run.metrics.packets_delivered == 100
        assert counts.packets > 0

    def test_variant_and_seed_recorded(self, ring_scenario):
        run = run_single(ring_scenario.with_flow_count(2), "woRM", 9)
        assert run.metrics.variant == "SDN-woRM"
        assert run.metrics.seed == 9


class TestVerifyConservation:
    """A run's own log passes; one doctored record makes it fail."""

    @pytest.fixture
    def log(self, ring_scenario):
        log = run_single(ring_scenario.with_flow_count(2), "RM", 1).log
        verify_conservation(log)
        return log

    @staticmethod
    def delivered(log):
        return next(p for p in log.packets if p.delivered_at is not None)

    def test_delivered_delay_is_the_transit_time(self, log):
        self.delivered(log).actual_delay += 1
        with pytest.raises(AssertionError, match="transit time"):
            verify_conservation(log)

    def test_delivered_delay_is_not_negative(self, log):
        packet = self.delivered(log)
        packet.delivered_at = packet.sent_at - 1
        packet.actual_delay = -1
        with pytest.raises(AssertionError, match="transit time"):
            verify_conservation(log)

    def test_drop_reason_is_known(self, log):
        packet = self.delivered(log)
        packet.delivered_at = packet.actual_delay = None
        packet.drop_reason = "lost"
        with pytest.raises(AssertionError, match="unknown drop reason"):
            verify_conservation(log)

    @pytest.mark.parametrize("link_delay, transmission_delay",
                             [(-1, 12_000), (1_000_000, 0)])
    def test_estimation_record_in_range(self, log, link_delay,
                                        transmission_delay):
        # The doctored cost stays their sum, so only the range check fires.
        first, *rest = log.estimation.closed
        template = list(first.template)
        template[3] = dataclasses.replace(
            template[3], link_delay=link_delay,
            transmission_delay=transmission_delay,
            cost=link_delay + transmission_delay)
        log.estimation = PartLog(closed=(
            Part(tuple(template), first.first, first.n, first.steps), *rest))
        with pytest.raises(AssertionError, match="out of range"):
            verify_conservation(log)


class TestRunExperiment:
    def test_shape_of_results(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["woRM", "RM"], [1, 2],
                                sweep=("events", [1, 2]))
        assert result.variants == ("SDN-woRM", "SDN-RM")
        assert set(result.cells) == {(v, k) for v in result.variants
                                     for k in (1, 2)}
        assert all(len(reports) == 2 for reports in result.cells.values())

    def test_worm_restoration_column_absent(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["woRM"], [1])
        assert result.mean("SDN-woRM", None, "restoration_mean") is None

    def test_draws_each_master_failure_diary_once_per_call(
            self, ring_scenario):
        """Every (value, seed) still gets materialize_injections' own list,
        but a seed's master diary is drawn once per run_experiment call:
        once for every event count, and once per set of measured pairs
        when a flows sweep without contracts changes them."""
        asked, drawn = [], []
        materialize = harness.materialize_injections
        diary = injections._expected_path_diary

        def recorded(scenario, seed, *args):
            asked.append((scenario, seed, materialize(scenario, seed, *args)))
            return asked[-1][2]

        def counted(*args):
            drawn.append(args[:2])
            return diary(*args)

        first, second = ring_scenario.flows[:2]
        uncontracted = dataclasses.replace(
            ring_scenario, contracts=(), flows=(
                first, dataclasses.replace(second, dst_host="H7")))
        events = (ring_scenario.with_flow_count(1), ("events", [1, 2, 3]))
        experiments = [events, events, (uncontracted, ("flows", [1, 2]))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "materialize_injections", recorded)
            patch.setattr(injections, "_expected_path_diary", counted)
            for scenario, sweep in experiments:
                run_experiment(scenario, ["woRM"], [1, 2], sweep=sweep)
        assert len(asked) == 3 * 2 + 3 * 2 + 2 * 2
        assert len(drawn) == 2 + 2 + 2 * 2
        assert {pairs for _, pairs in drawn[4:]} == {
            (("S1", "S8"),), (("S1", "S8"), ("S1", "S7"))}
        for scenario, seed, listed in asked:
            assert listed == materialize_injections(scenario, seed)

    def test_a_variant_named_twice_is_rejected(self, ring_scenario):
        with pytest.raises(ValueError, match="variant SDN-woRM named twice"):
            run_experiment(ring_scenario, ["woRM", "SDN-woRM"], [1])

    @pytest.mark.parametrize("variants, seeds", [([], [1]), (["RM"], [])])
    def test_needs_a_variant_and_a_seed(self, ring_scenario, variants, seeds):
        with pytest.raises(ValueError, match="needs a variant and a seed"):
            run_experiment(ring_scenario, variants, seeds)


class TestSharedKernels:
    """run_experiment computes each kernel history once; every run must
    still equal a fresh run_single."""

    def test_branch_inside_the_e1_control_latency_equals_fresh_runs(self):
        # The S1-S10 failure hits the route S1 S10 S9 S8; events=1 branches
        # off at the second failure, 0.1 ms later, while the first one's
        # notification is still on its way to the controller.
        with open("scenarios/industrial_ring_e1.scn",
                  encoding="utf-8") as handle:
            text = handle.read()
        text = text.replace(
            "auto_link_failures count=4 window=15s..140s",
            "at 20s link_down S1 S10\nat 20000100000ns link_down S1 S2")
        scenario = parse_scenario(text)
        runs = experiment_runs(scenario, ["woRM", "sRM", "pRM", "RM"], [1],
                               ("events", [1, 2]))
        assert len(runs) == 8
        first = runs[0][3].log
        assert any(route.path == ("S1", "S10", "S9", "S8")
                   and route.at < 20 * SECOND for route in first.routes)
        assert_runs_match_fresh_runs(runs)

    def test_branch_inside_a_replicated_pipeline_equals_fresh_runs(self):
        """A bound change at 10.012 s, inside F2's burst on the chain:
        events=1 runs on a kernel that has replicated the burst's periods
        up to there, and events=0 goes on from a twin branched then, with
        every packet in flight open in the log."""
        text = queued_probes_chain().replace(
            "[run]", "[injections]\nat 10012ms scale_ped C1 0.9\n\n[run]")
        branched = []
        branch = Kernel.branch

        def observed(kernel, injections):
            packets = kernel.log.packets
            in_flight = {id(arg.record) for _, _, _, arg in kernel._queue
                         if type(arg) is _Packet}
            branched.append((any(part.steps for part in packets.closed),
                             len(in_flight),
                             in_flight == set(map(id, packets.open))))
            return branch(kernel, injections)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Kernel, "branch", observed)
            runs = experiment_runs(parse_scenario(text), ["woRM", "RM"], [1],
                                   ("events", [0, 1]))
        assert len(runs) == 4
        assert branched == [(True, 675, True)] * 2
        assert_runs_match_fresh_runs(runs)

    def test_seeds_without_injections_reuse_one_kernel(self, ring_scenario):
        scenario = ring_scenario.with_event_count(0).with_flow_count(2)
        runs = experiment_runs(scenario, ["RM"], [1, 2, 3])
        assert [seed for _, _, seed, _ in runs] == [1, 2, 3]
        assert runs[0][3].log is runs[2][3].log
        assert [done.metrics.seed for _, _, _, done in runs] == [1, 2, 3]
        assert_runs_match_fresh_runs(runs)

    @staticmethod
    def runs_and_kernels(scenario, variants, seeds, sweep=None):
        """experiment_runs, and how many kernels run_experiment started."""
        started = []
        start = harness._start_kernel

        def counted(*args):
            started.append(args)
            return start(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_start_kernel", counted)
            runs = experiment_runs(scenario, variants, seeds, sweep)
        return runs, len(started)

    def test_seeds_branch_off_one_kernel_per_variant(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        lists = [materialize_injections(scenario, seed) for seed in (1, 2, 3)]
        assert lists[0] != lists[1] != lists[2] != lists[0]
        runs, kernels = self.runs_and_kernels(scenario, ["woRM", "RM"],
                                              [1, 2, 3])
        assert len(runs) == 6
        assert kernels == 2
        assert_runs_match_fresh_runs(runs)

    def test_per_pair_sweep_branches_off_one_kernel_per_variant(self):
        # Two contracts make per_pair lists differ across event counts.
        with open("scenarios/industrial_ring_e2.scn",
                  encoding="utf-8") as handle:
            text = handle.read()
        text = text.replace("contract C1 S1 S8 strong=3.2ms weak=12ms",
                            "contract C1 S1 S8 strong=3.2ms weak=12ms\n"
                            "contract C2 S2 S7 strong=4ms")
        text = text.replace("factor=0.45..0.85", "factor=0.45..0.85 per_pair")
        scenario = parse_scenario(text).with_flow_count(2)
        lists = [materialize_injections(scenario.with_event_count(count), 1)
                 for count in (1, 2, 3)]
        assert lists[1][:len(lists[0])] != lists[0]
        runs, kernels = self.runs_and_kernels(scenario, ["woRM", "RM"], [1],
                                              ("events", [1, 2, 3]))
        assert len(runs) == 6
        assert kernels == 2
        assert_runs_match_fresh_runs(runs)

    def test_branches_without_the_copy_module(self, ring_scenario):
        """A branch builds its twin: an events sweep runs with copy.copy
        and copy.deepcopy refused, and every run equals a fresh one."""
        def refused(*args, **kwargs):
            raise AssertionError("the copy module was used")

        scenario = ring_scenario.with_flow_count(2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(copy, "copy", refused)
            patch.setattr(copy, "deepcopy", refused)
            runs, kernels = self.runs_and_kernels(
                scenario, ["woRM", "RM"], [1, 2], ("events", [1, 2, 3]))
        assert len(runs) == 12
        assert kernels == 2
        assert_runs_match_fresh_runs(runs)

    def test_run_single_rejects_a_kernel_of_another_run(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(1)
        kernel = harness._start_kernel(
            scenario, variant_by_name("RM"), materialize_injections(scenario, 1))
        with pytest.raises(ValueError, match="other injections"):
            run_single(scenario, "RM", 2, kernel=kernel)
        with pytest.raises(ValueError, match="another variant"):
            run_single(scenario, "woRM", 1, kernel=kernel)
        assert run_single(scenario, "RM", 1, kernel=kernel).metrics == \
            run_single(scenario, "RM", 1).metrics


class TestSharedRoutes:
    """Every kernel of one run_experiment call shares one route memo, and
    no later call sees it."""

    VARIANTS = ["woRM", "sRM", "pRM", "RM"]

    @staticmethod
    def solved(run):
        """run()'s result and the number of find_path calls it made."""
        calls = []
        find_path = resilience.find_path

        def counted(*args):
            calls.append(args[2:])
            return find_path(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(resilience, "find_path", counted)
            return run(), len(calls)

    def test_runs_solve_fewer_paths_together_than_alone(self, ring_scenario):
        """Fewer than the runs solve alone, and fewer than each variant's
        experiment, whose runs already share kernel work, solves alone."""
        scenario = ring_scenario.with_flow_count(2)
        sweep = ("events", [1, 2])
        runs, together = self.solved(lambda: experiment_runs(
            scenario, self.VARIANTS, [1, 2], sweep))
        assert len(runs) == 16
        _, alone = self.solved(lambda: assert_runs_match_fresh_runs(runs))
        per_variant = sum(self.solved(lambda: run_experiment(
            scenario, [variant], [1, 2], sweep))[1]
            for variant in self.VARIANTS)
        assert together < per_variant < alone

    def test_the_memo_does_not_outlive_its_call(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        counts = [self.solved(lambda: run_experiment(
            scenario, self.VARIANTS, [1, 2]))[1] for _ in range(2)]
        assert counts[0] == counts[1] > 0


class TestEmitReports:
    def test_files_and_byte_stability(self, ring_scenario, tmp_path):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["woRM", "RM"], [1, 2],
                                sweep=("events", [1, 2]))
        first = tmp_path / "a"
        second = tmp_path / "b"
        emit_reports(result, str(first))
        emit_reports(result, str(second))
        names = sorted(os.listdir(first))
        assert names == ["events.jsonl", "llde_cycles.csv", "manifest.json",
                         "restoration_ms.csv", "success_rate.csv",
                         "success_rate_strong.csv", "summary.json",
                         "throughput_mbps.csv", "warnings.csv"]
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_csv_layout(self, ring_scenario, tmp_path):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["woRM", "RM"], [1],
                                sweep=("events", [1, 2]))
        emit_reports(result, str(tmp_path))
        lines = (tmp_path / "success_rate.csv").read_text().splitlines()
        assert lines[0] == "variant,events=1,events=2"
        assert lines[1].startswith("SDN-woRM,")
        assert len(lines) == 3
        restoration = (tmp_path / "restoration_ms.csv").read_text().splitlines()
        assert restoration[1].split(",")[1] == "-"  # no records for woRM

    def test_manifest_contents(self, ring_scenario, tmp_path):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["RM"], [1, 2])
        emit_reports(result, str(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [1, 2]
        assert manifest["variants"] == ["SDN-RM"]
        assert len(manifest["scenario_sha256"]) == 64
        assert manifest["version"] == sdnsim.__version__

    def test_single_run_csv_has_one_value_column(self, ring_scenario, tmp_path):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["RM"], [1])
        emit_reports(result, str(tmp_path))
        lines = (tmp_path / "success_rate.csv").read_text().splitlines()
        assert lines[0] == "variant,value"
        assert len(lines) == 2

    def test_estimation_cycle_csv(self, ring_scenario, tmp_path):
        scenario = ring_scenario.with_flow_count(2)
        result = run_experiment(scenario, ["RM"], [1])
        emit_reports(result, str(tmp_path))
        lines = (tmp_path / "llde_cycles.csv").read_text().splitlines()
        assert lines[0].startswith("cycle,src,dst,link_delay_ns")
        # 12 links, both directions, 16 cycle boundaries over 150 s
        assert len(lines) - 1 >= 12 * 2

    def test_estimation_cycle_csv_is_one_row_per_record(self, ring_scenario,
                                                        tmp_path):
        """Rows written from cycle templates equal rows written record by
        record, on a run whose links go down and up and on a hand-made log
        with braces in its switch names and a record in its open list."""
        result = run_experiment(ring_scenario.with_flow_count(2), ["RM"], [1])
        record = EstimationRecord(7, "S{0}", "S}", 5, 12, 17, 70)
        steps = (("cycle", 1), ("at", 10))
        made = RunLog(estimation=PartLog([record], (
            Part((dataclasses.replace(record, cycle=0, at=0),), 5, 1, steps),
            Part((), 6, 1, steps))))
        for log in (result.sample_log, made):
            assert len({id(part.template)
                        for part in log.estimation.closed}) > 1
            out = tmp_path / str(id(log))
            emit_reports(dataclasses.replace(result, sample_log=log),
                         str(out))
            assert (out / "llde_cycles.csv").read_text() == "".join(
                ["cycle,src,dst,link_delay_ns,transmission_delay_ns,"
                 "cost_ns,at_ns\n"]
                + [f"{r.cycle},{r.src},{r.dst},{r.link_delay},"
                   f"{r.transmission_delay},{r.cost},{r.at}\n"
                   for r in log.estimation])

    def test_eq1_raw_mode_doubles_link_delay_estimates(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        normal = run_single(scenario, "RM", 1)
        config = dataclasses.replace(scenario.config, eq1_raw_mode=True)
        raw = run_single(dataclasses.replace(scenario, config=config), "RM", 1)
        entry = next(iter(normal.log.estimation))
        raw_entry = next(iter(raw.log.estimation))
        assert (entry.src, entry.dst) == (raw_entry.src, raw_entry.dst)
        assert raw_entry.link_delay == 2 * entry.link_delay
