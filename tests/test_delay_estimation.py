import dataclasses
import logging
import operator
import random

import pytest
from hypothesis import given, strategies as st

from sdnsim.core import (
    ControlChannel,
    Link,
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    Topology,
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


def entry_of(records, src, dst):
    """The cycle's record for directed link src->dst."""
    [record] = [r for r in records if (r.src, r.dst) == (src, dst)]
    return record


class TestEstimatePathDelay:
    def test_three_link_path_sums(self):
        matrix = {("A", "B"): 1 * MS, ("B", "C"): 2 * MS, ("C", "D"): 3 * MS}
        assert estimate_path_delay(["A", "B", "C", "D"], matrix) == 6 * MS

    def test_single_switch_path_is_zero(self):
        assert estimate_path_delay(["A"], {}) == 0

    def test_missing_entry_raises(self):
        matrix = {("A", "B"): 1 * MS}
        with pytest.raises(MissingCostError):
            estimate_path_delay(["A", "B", "C"], matrix)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10**9),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=12))
    def test_monotone_extension_adds_exactly_the_link_cost(self, hops):
        matrix: CostMatrix = {}
        path = [f"N{i}" for i in range(len(hops) + 1)]
        for i, (link_delay, td) in enumerate(hops):
            matrix[(path[i], path[i + 1])] = link_cost(td, link_delay)
        shorter = estimate_path_delay(path[:-1], matrix)
        extension = matrix[(path[-2], path[-1])]
        assert estimate_path_delay(path, matrix) == shorter + extension


class TestEstimationCycle:
    def test_idle_network_estimates_configured_delay_exactly(
            self, chain10, symmetric_control):
        matrix, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, 0)
        assert len(matrix) == len(records) == 18  # 9 links, both directions
        for record in records:
            assert record.link_delay == MILLISECOND
            assert record.transmission_delay == 12 * MICROSECOND
            assert matrix[(record.src, record.dst)] == record.cost == \
                record.link_delay + record.transmission_delay

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
            _, records = run_estimation_cycle(ProbePlan(topology, control),
                                              topology, 0)
            assert entry_of(records, "S1", "S2").link_delay == propagation

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
        _, records = run_estimation_cycle(ProbePlan(topology, control),
                                          topology, 0)
        assert entry_of(records, "S1", "S2").link_delay == 7 * MS

    def test_down_link_has_no_entry(self, chain10, symmetric_control):
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        matrix, _ = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, 0)
        assert len(matrix) == 16
        assert ("S3", "S4") not in matrix
        assert ("S4", "S3") not in matrix

    def test_transmission_term_scales_with_capacity(self, symmetric_control):
        # 1500 B per hop costs 12 ms at 1 Mbps but only 12 us at 1 Gbps; the
        # cost matrix must reflect the three-orders-of-magnitude shift.
        slow = build_topology(linear_chain_spec(capacity=MBPS))
        fast = build_topology(linear_chain_spec(capacity=GBPS))
        _, slow_records = run_estimation_cycle(
            ProbePlan(slow, symmetric_control), slow, 0)
        _, fast_records = run_estimation_cycle(
            ProbePlan(fast, symmetric_control), fast, 0)
        slow_entry = entry_of(slow_records, "S1", "S2")
        fast_entry = entry_of(fast_records, "S1", "S2")
        assert slow_entry.transmission_delay == 12 * MS
        assert fast_entry.transmission_delay == 12 * MICROSECOND
        assert slow_entry.transmission_delay > slow_entry.link_delay
        assert fast_entry.transmission_delay < fast_entry.link_delay

    def test_queued_egress_inflates_estimate(self, chain10, symmetric_control):
        _, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, 0,
            egress_free={("S1", "S2"): 300 * MICROSECOND})
        # The probe averages the two directions' waits.
        assert entry_of(records, "S1", "S2").link_delay == \
            MILLISECOND + 150 * MICROSECOND
        assert entry_of(records, "S2", "S3").link_delay == MILLISECOND

    def test_egress_free_before_now_is_no_wait(self, chain10,
                                               symmetric_control):
        _, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, SECOND,
            egress_free={("S1", "S2"): SECOND - MS, ("S2", "S3"): SECOND})
        assert entry_of(records, "S1", "S2").link_delay == MILLISECOND
        assert entry_of(records, "S2", "S3").link_delay == MILLISECOND

    def test_raw_mode_doubles_symmetric_estimate(self, chain10, symmetric_control):
        _, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control, raw_mode=True), chain10, 0)
        assert entry_of(records, "S1", "S2").link_delay == 2 * MILLISECOND

    def test_records_match_matrix(self, chain10, symmetric_control):
        matrix, records = run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, 3 * SECOND)
        assert len(records) == len(matrix)
        for record in records:
            assert record.cost == matrix[(record.src, record.dst)] == \
                record.transmission_delay + record.link_delay
            assert (record.cycle, record.at) == (0, 0)  # relative


class TestProbePlan:
    """A plan holds each link's fixed inputs and zero-wait records and is
    never changed; idle cycles are memoized by their Down links."""

    BUSY = {("S1", "S2"): SECOND + 300 * MICROSECOND}

    def test_equal_waits_reuse_the_same_entry(self, chain10, symmetric_control):
        """Zero waits: every idle cycle logs the plan's own records."""
        plan = ProbePlan(chain10, symmetric_control)
        first, first_records = run_estimation_cycle(plan, chain10, 0)
        second, records = run_estimation_cycle(plan, chain10, 7 * MS)
        assert second == first
        assert len(records) == len(first_records) == 18
        assert all(map(operator.is_, records, first_records))
        assert all(map(operator.is_, records, (
            record for *_, logged in plan.probes for record in logged)))
        assert {(record.cycle, record.at) for record in records} == {(0, 0)}

    def test_is_frozen_and_holds_no_link(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.probes = ()
        held = list(dataclasses.astuple(plan))
        while held:
            value = held.pop()
            assert not isinstance(value, (Link, Topology, dict, list))
            if isinstance(value, tuple):
                held.extend(value)

    def test_changed_wait_re_estimates(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        _, idle = run_estimation_cycle(plan, chain10, 0)
        _, queued = run_estimation_cycle(
            plan, chain10, SECOND,
            egress_free={("S2", "S1"): SECOND + 300 * MICROSECOND})
        assert entry_of(queued, "S1", "S2").link_delay == \
            MILLISECOND + 150 * MICROSECOND
        assert entry_of(idle, "S1", "S2").link_delay == MILLISECOND
        assert entry_of(queued, "S2", "S3") is entry_of(idle, "S2", "S3")

    def test_down_link_gets_no_entry(self, chain10, symmetric_control):
        plan = ProbePlan(chain10, symmetric_control)
        run_estimation_cycle(plan, chain10, 0)
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        matrix, records = run_estimation_cycle(plan, chain10, SECOND)
        assert ("S3", "S4") not in matrix and ("S4", "S3") not in matrix
        assert len(matrix) == len(records) == 16
        chain10.set_link_state("S3", "S4", LinkState.UP)
        _, records = run_estimation_cycle(plan, chain10, 2 * SECOND)
        assert entry_of(records, "S3", "S4").link_delay == MILLISECOND

    def test_egress_freeing_at_now_reuses_the_idle_template(
            self, chain10, symmetric_control):
        plan, memo = ProbePlan(chain10, symmetric_control), {}
        first = run_estimation_cycle(plan, chain10, 0, memo=memo)
        free = {("S1", "S2"): SECOND, ("S2", "S1"): SECOND - MS}
        cycle = run_estimation_cycle(plan, chain10, SECOND, egress_free=free,
                                     memo=memo)
        assert cycle is first
        assert cycle == run_estimation_cycle(
            ProbePlan(chain10, symmetric_control), chain10, SECOND,
            egress_free=free)

    def test_a_siblings_idle_cycle_at_a_seen_down_set_is_shared(
            self, chain10, symmetric_control):
        """Another kernel's topology and plan, one Down set: the memo hands
        it the same matrix and template."""
        memo = {}
        sibling = build_topology(linear_chain_spec())
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        ours = run_estimation_cycle(ProbePlan(chain10, symmetric_control),
                                    chain10, SECOND, memo=memo)
        sibling.set_link_state("S4", "S3", LinkState.DOWN)
        sibling.set_link_state("S1", "S2", LinkState.DOWN)
        sibling.set_link_state("S1", "S2", LinkState.UP)
        assert sibling.version != chain10.version
        theirs = run_estimation_cycle(ProbePlan(sibling, symmetric_control),
                                      sibling, 2 * SECOND, memo=memo)
        assert theirs is ours
        assert list(memo) == [frozenset({("S3", "S4")})]

    def test_a_link_flap_back_reuses_the_first_template(
            self, chain10, symmetric_control):
        plan, memo = ProbePlan(chain10, symmetric_control), {}
        first_matrix, first = run_estimation_cycle(plan, chain10, 0,
                                                   memo=memo)
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        matrix, down = run_estimation_cycle(plan, chain10, SECOND, memo=memo)
        assert len(matrix) == 16
        chain10.set_link_state("S3", "S4", LinkState.UP)
        matrix, again = run_estimation_cycle(plan, chain10, 2 * SECOND,
                                             memo=memo)
        assert again is first and matrix is first_matrix
        assert len(memo) == 2

    def test_busy_cycle_leaves_the_idle_template(self, chain10,
                                                 symmetric_control):
        """A busy cycle is computed and not stored."""
        plan, memo = ProbePlan(chain10, symmetric_control), {}
        _, busy = run_estimation_cycle(plan, chain10, SECOND,
                                       egress_free=self.BUSY, memo=memo)
        assert memo == {}
        assert entry_of(busy, "S1", "S2").link_delay == \
            MILLISECOND + 150 * MICROSECOND
        matrix, idle = run_estimation_cycle(
            plan, chain10, 2 * SECOND, egress_free=self.BUSY, memo=memo)
        assert entry_of(idle, "S1", "S2").link_delay == MILLISECOND
        assert memo == {frozenset(): (matrix, idle)}
        _, again = run_estimation_cycle(plan, chain10, 3 * SECOND,
                                        egress_free=self.BUSY, memo=memo)
        assert again is idle


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
