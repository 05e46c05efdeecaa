import dataclasses
import gc
import json
import os
from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import sdnsim
from sdnsim import harness
from sdnsim.contracts import ContractKind, FaultCause, PedChange
from sdnsim.core import MILLISECOND, SECOND
from sdnsim.harness import (
    compute_restoration_stats,
    compute_success_rate,
    compute_throughput,
    emit_reports,
    metrics_from_streams,
    run_experiment,
    run_single,
    verify_conservation,
)
from sdnsim.injections import materialize_injections
from sdnsim.kernel import Kernel, PacketRecord
from sdnsim.resilience import (
    RestorationOutcome,
    RestorationRecord,
    variant_by_name,
)
from sdnsim.runlog import RunLog
from sdnsim.scenario import load_scenario, parse_scenario

from conftest import assert_runs_match_fresh_runs, experiment_runs

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


class TestSuccessRate:
    def test_three_of_four_within_bound(self):
        packets = [packet(0, 3 * MS), packet(1, 4 * MS), packet(2, 5 * MS),
                   packet(3, 6 * MS)]
        rate, strong = compute_success_rate(packets, ped_history())
        assert rate == 0.75
        assert strong == 0.75

    def test_drops_count_as_unsatisfied(self):
        packets = [packet(0, 3 * MS), packet(1, 0, delivered=False)]
        rate, _ = compute_success_rate(packets, ped_history())
        assert rate == 0.5

    def test_all_dropped_is_zero(self):
        packets = [packet(i, 0, delivered=False) for i in range(4)]
        rate, _ = compute_success_rate(packets, ped_history())
        assert rate == 0.0

    def test_uncovered_packets_excluded(self):
        packets = [packet(0, 3 * MS), packet(1, 99 * MS, covered=False)]
        rate, _ = compute_success_rate(packets, ped_history())
        assert rate == 1.0

    def test_scored_against_bound_active_at_delivery(self):
        history = ped_history() + [
            PedChange(pair_id="C1", src="S1", dst="S8", at=10 * SECOND,
                      active_kind=ContractKind.WEAK, active_ped=9 * MS,
                      strong_ped=5 * MS, weak_ped=9 * MS)]
        packets = [packet(0, 7 * MS, sent=SECOND),
                   packet(1, 7 * MS, sent=11 * SECOND)]
        rate, strong = compute_success_rate(packets, history)
        assert rate == 0.5       # second packet allowed by the weak bound
        assert strong == 0.0     # neither meets the strong bound

    def test_no_covered_packets_is_vacuously_one(self):
        rate, strong = compute_success_rate([], ped_history())
        assert rate == 1.0 and strong == 1.0


def reference_success_rate(packets, ped_changes):
    """compute_success_rate as one bisection per covered delivery."""
    changes = sorted(ped_changes, key=lambda c: c.at)
    covered = [p for p in packets if p.covered]
    if not covered:
        return 1.0, 1.0
    hits = strong_hits = 0
    for p in covered:
        if p.delivered_at is None:
            continue
        mine = [c for c in changes if (c.src, c.dst) == tuple(p.pair)]
        index = bisect_right([c.at for c in mine], p.delivered_at)
        if index:
            hits += p.actual_delay <= mine[index - 1].active_ped
            strong_hits += p.actual_delay <= mine[index - 1].strong_ped
    return hits / len(covered), strong_hits / len(covered)


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
    assert compute_success_rate(packets, changes) == \
        reference_success_rate(packets, changes)
    log = RunLog(packets=packets, ped_changes=changes)
    report = metrics_from_streams(log, "SDN-RM", 1, SECOND)
    delivered = [p for p in packets if p.delivered_at is not None]
    assert report.packets_delivered == len(delivered)
    assert report.throughput_bps == compute_throughput(packets, SECOND)
    assert (report.success_rate, report.success_rate_strong) == \
        reference_success_rate(packets, changes)


class TestThroughput:
    def test_delivered_bits_over_time(self):
        packets = [packet(i, MS) for i in range(100)]
        assert compute_throughput(packets, SECOND) == 1_200_000.0

    def test_zero_deliveries(self):
        packets = [packet(0, 0, delivered=False)]
        assert compute_throughput(packets, SECOND) == 0.0

    def test_bounded_by_offered_volume(self):
        packets = [packet(i, MS) for i in range(100)]
        offered = sum(p.length for p in packets)
        assert compute_throughput(packets, 10 * SECOND) <= offered


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
        gc.collect()
        gc.disable()
        try:
            run_single(ring_scenario.with_flow_count(1), "RM", 1,
                       keep_log=False)
            alive = [o for o in gc.get_objects() if isinstance(o, Kernel)]
        finally:
            gc.enable()
        assert alive == []

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
        log.estimation[3] = dataclasses.replace(
            log.estimation[3], link_delay=link_delay,
            transmission_delay=transmission_delay,
            cost=link_delay + transmission_delay)
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

    def test_eq1_raw_mode_doubles_link_delay_estimates(self, ring_scenario):
        scenario = ring_scenario.with_flow_count(2)
        normal = run_single(scenario, "RM", 1)
        config = dataclasses.replace(scenario.config, eq1_raw_mode=True)
        raw = run_single(dataclasses.replace(scenario, config=config), "RM", 1)
        entry = normal.log.estimation[0]
        raw_entry = raw.log.estimation[0]
        assert (entry.src, entry.dst) == (raw_entry.src, raw_entry.dst)
        assert raw_entry.link_delay == 2 * entry.link_delay
