import dataclasses
import logging
import random

import pytest
from hypothesis import given, strategies as st

from sdnsim.core import (
    ControlChannel,
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    TopologySpec,
    build_topology,
    transmission_delay,
)
from sdnsim.delay_estimation import (
    CostMatrix,
    EstimationRecord,
    MissingCostError,
    ProbeObservation,
    ProbePlan,
    estimate_link_delay,
    estimate_path_delay,
    link_cost,
    run_estimation_cycle,
)

from conftest import GBPS, MBPS, linear_chain_spec

MS = MILLISECOND


def make_observation(elapsed_fwd, elapsed_rev, rtt_near, rtt_far):
    return ProbeObservation(
        near="S1", far="S2",
        lldp_send_time=0, lldp_return_time=elapsed_fwd,
        reverse_lldp_send_time=0, reverse_lldp_return_time=elapsed_rev,
        rtt_near=rtt_near, rtt_far=rtt_far)


class TestEstimateLinkDelay:
    def test_symmetric_probes_give_5ms(self):
        # Ground truth: controller->S1 is 2 ms, S2->controller is 3 ms, the
        # link contributes 5 ms each way, so both traversals take 10 ms.
        obs = make_observation(10 * MS, 10 * MS, 4 * MS, 6 * MS)
        assert estimate_link_delay(obs) == 5 * MS

    def test_probes_fully_explained_by_control_channel(self):
        obs = make_observation(5 * MS, 5 * MS, 4 * MS, 6 * MS)
        assert estimate_link_delay(obs) == 0

    def test_negative_residual_clamps_with_warning(self, caplog):
        obs = make_observation(4 * MS, 4 * MS, 6 * MS, 6 * MS)
        with caplog.at_level(logging.WARNING, logger="sdnsim.delay_estimation"):
            assert estimate_link_delay(obs) == 0
        assert any("clamping" in message for message in caplog.messages)

    def test_raw_mode_returns_undivided_residual(self):
        obs = make_observation(10 * MS, 10 * MS, 4 * MS, 6 * MS)
        assert estimate_link_delay(obs, raw_mode=True) == 10 * MS

    def test_invalid_observation_rejected(self):
        with pytest.raises(ValueError):
            make_observation(-1, 0, 0, 0)


class TestLinkCost:
    def test_sum(self):
        assert link_cost(12 * MICROSECOND, 5 * MS) == 5_012_000

    def test_zero_identities(self):
        assert link_cost(0, 7 * MS) == 7 * MS
        assert link_cost(7 * MS, 0) == 7 * MS

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            link_cost(-1, 0)


class TestEstimatePathDelay:
    def test_three_link_path_sums(self):
        matrix = CostMatrix()
        matrix.set_entry("A", "B", 1 * MS, 0)
        matrix.set_entry("B", "C", 2 * MS, 0)
        matrix.set_entry("C", "D", 3 * MS, 0)
        assert estimate_path_delay(["A", "B", "C", "D"], matrix) == 6 * MS

    def test_single_switch_path_is_zero(self):
        assert estimate_path_delay(["A"], CostMatrix()) == 0

    def test_missing_entry_raises(self):
        matrix = CostMatrix()
        matrix.set_entry("A", "B", 1 * MS, 0)
        with pytest.raises(MissingCostError):
            estimate_path_delay(["A", "B", "C"], matrix)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**9),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=12))
    def test_monotone_extension_adds_exactly_the_link_cost(self, hops):
        matrix = CostMatrix()
        path = [f"N{i}" for i in range(len(hops) + 1)]
        for i, (link_delay, td) in enumerate(hops):
            matrix.set_entry(path[i], path[i + 1], link_delay, td)
        shorter = estimate_path_delay(path[:-1], matrix)
        extension = matrix.cost(path[-2], path[-1])
        assert estimate_path_delay(path, matrix) == shorter + extension


class TestEstimationCycle:
    def test_idle_network_estimates_configured_delay_exactly(
            self, chain10, symmetric_control):
        matrix, records = run_estimation_cycle(ProbePlan(chain10, symmetric_control), 0)
        assert len(matrix) == 18  # 9 links, both directions
        for (src, dst), entry in matrix.items():
            assert entry.link_delay == MILLISECOND
            assert entry.transmission_delay == 12 * MICROSECOND
            assert entry.cost == entry.link_delay + entry.transmission_delay

    def test_random_symmetric_configurations_are_exact(self):
        rng = random.Random(20260808)
        for _ in range(200):
            propagation = rng.randrange(0, 50 * MS)
            capacity = rng.randrange(MBPS, 10 * GBPS)
            spec = TopologySpec(("S1", "S2"), (),
                                (LinkSpec("S1", "S2", capacity, propagation),))
            topology = build_topology(spec)
            control = ControlChannel(per_switch={
                "S1": (rng.randrange(0, MS),) * 2,
                "S2": (rng.randrange(0, MS),) * 2,
            })
            matrix, _ = run_estimation_cycle(ProbePlan(topology, control), 0)
            assert matrix.entry("S1", "S2").link_delay == propagation

    def test_asymmetric_control_channel_cancels_exactly(self):
        # The bidirectional probe subtracts each switch's full echo RTT, so
        # per-direction control-channel asymmetry cancels and the estimate
        # stays exact for symmetric links.
        spec = TopologySpec(("S1", "S2"), (),
                            (LinkSpec("S1", "S2", GBPS, 7 * MS),))
        topology = build_topology(spec)
        control = ControlChannel(per_switch={
            "S1": (100 * MICROSECOND, 900 * MICROSECOND),
            "S2": (50 * MICROSECOND, 450 * MICROSECOND),
        })
        matrix, _ = run_estimation_cycle(ProbePlan(topology, control), 0)
        assert matrix.entry("S1", "S2").link_delay == 7 * MS

    def test_down_link_has_no_entry(self, chain10, symmetric_control):
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        matrix, _ = run_estimation_cycle(ProbePlan(chain10, symmetric_control), 0)
        assert len(matrix) == 16
        assert not matrix.has("S3", "S4")
        assert not matrix.has("S4", "S3")

    def test_transmission_term_scales_with_capacity(self, symmetric_control):
        # 1500 B per hop costs 12 ms at 1 Mbps but only 12 us at 1 Gbps; the
        # cost matrix must reflect the three-orders-of-magnitude shift.
        slow = build_topology(linear_chain_spec(capacity=MBPS))
        fast = build_topology(linear_chain_spec(capacity=GBPS))
        slow_matrix, _ = run_estimation_cycle(
            ProbePlan(slow, symmetric_control), 0)
        fast_matrix, _ = run_estimation_cycle(
            ProbePlan(fast, symmetric_control), 0)
        assert slow_matrix.entry("S1", "S2").transmission_delay == 12 * MS
        assert fast_matrix.entry("S1", "S2").transmission_delay == 12 * MICROSECOND
        assert slow_matrix.entry("S1", "S2").transmission_delay > \
            slow_matrix.entry("S1", "S2").link_delay
        assert fast_matrix.entry("S1", "S2").transmission_delay < \
            fast_matrix.entry("S1", "S2").link_delay

    def test_queued_egress_inflates_estimate(self, chain10, symmetric_control):
        waits = {("S1", "S2"): 300 * MICROSECOND}
        matrix, _ = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), 0,
            egress_wait=lambda a, b, t: waits.get((a, b), 0))
        # The probe averages the two directions' waits.
        assert matrix.entry("S1", "S2").link_delay == MILLISECOND + 150 * MICROSECOND
        assert matrix.entry("S2", "S3").link_delay == MILLISECOND

    def test_raw_mode_doubles_symmetric_estimate(self, chain10, symmetric_control):
        matrix, _ = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control, raw_mode=True), 0)
        assert matrix.entry("S1", "S2").link_delay == 2 * MILLISECOND

    def test_records_match_matrix(self, chain10, symmetric_control):
        matrix, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), 0, cycle_index=3)
        assert len(records) == len(matrix)
        for record in records:
            entry = matrix.entry(record.src, record.dst)
            assert record.cost == entry.cost == \
                record.transmission_delay + record.link_delay
            assert record.cycle == 3


class TestProbePlan:
    def test_equal_waits_reuse_the_same_entry(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        first, _ = run_estimation_cycle(plan, 0)
        second, records = run_estimation_cycle(plan, 7 * MS, cycle_index=1)
        assert len(plan.estimates) == 9  # one per link
        for (src, dst), entry in second.items():
            assert entry is first.entry(src, dst)
            assert entry is second.entry(dst, src)
        assert {record.at for record in records} == {7 * MS}
        assert {record.cycle for record in records} == {1}

    def test_changed_wait_re_estimates(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        idle, _ = run_estimation_cycle(plan, 0)
        waits = {("S2", "S1"): 300 * MICROSECOND}
        queued, _ = run_estimation_cycle(
            plan, SECOND, egress_wait=lambda a, b, t: waits.get((a, b), 0))
        assert len(plan.estimates) == 10
        assert queued.entry("S1", "S2").link_delay == \
            MILLISECOND + 150 * MICROSECOND
        assert queued.entry("S1", "S2") is not idle.entry("S1", "S2")
        assert queued.entry("S2", "S3") is idle.entry("S2", "S3")

    def test_down_link_gets_no_entry(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        run_estimation_cycle(plan, 0)
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        matrix, records = run_estimation_cycle(plan, SECOND)
        assert not matrix.has("S3", "S4") and not matrix.has("S4", "S3")
        assert len(matrix) == len(records) == 16
        chain10.set_link_state("S3", "S4", LinkState.UP)
        matrix, _ = run_estimation_cycle(plan, 2 * SECOND)
        assert matrix.entry("S3", "S4").link_delay == MILLISECOND


class TestEstimationRecord:
    def test_frozen(self):
        record = EstimationRecord(2, "S1", "S2", 5, 12, 17, 9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.cost = 0

    def test_equals_its_field_by_field_twin(self):
        record = EstimationRecord(2, "S1", "S2", 5, 12, 17, 9)
        twin = EstimationRecord(cycle=2, src="S1", dst="S2", link_delay=5,
                                transmission_delay=12, cost=17, at=9,
                                noise_clamped=False)
        assert record == twin and hash(record) == hash(twin)
        assert repr(record) == repr(twin)
        assert vars(record) == {
            field.name: getattr(twin, field.name)
            for field in dataclasses.fields(EstimationRecord)}
        assert list(vars(record)) == [
            field.name for field in dataclasses.fields(EstimationRecord)]
        assert dataclasses.replace(record, cost=18) != record
