import pytest
from hypothesis import given, strategies as st

from sdnsim.core import (
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    SimConfig,
    TopologyError,
    TopologySpec,
    build_topology,
    transmission_delay,
)

from conftest import GBPS, MBPS, linear_chain_spec


class TestTransmissionDelay:
    def test_1500_bytes_at_1mbps_is_12ms(self):
        assert transmission_delay(12_000, MBPS) == 12 * MILLISECOND

    def test_1500_bytes_at_1gbps_is_12us(self):
        assert transmission_delay(12_000, GBPS) == 12 * MICROSECOND

    def test_zero_length_is_zero(self):
        assert transmission_delay(0, GBPS) == 0

    def test_rounds_to_nearest(self):
        # 1 bit at 1 Gbps is 1 ns exactly; 1 bit at 2 Gbps rounds 0.5 -> 1.
        assert transmission_delay(1, GBPS) == 1
        assert transmission_delay(1, 2 * GBPS) == 1
        assert transmission_delay(1, 3 * GBPS) == 0

    @pytest.mark.parametrize("bandwidth", [0, -1])
    def test_nonpositive_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError):
            transmission_delay(12_000, bandwidth)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay(-1, GBPS)

    @given(length=st.integers(min_value=0, max_value=10**9),
           bandwidth=st.integers(min_value=1, max_value=10**11))
    def test_linear_in_length_up_to_rounding(self, length, bandwidth):
        twice = transmission_delay(2 * length, bandwidth)
        single = transmission_delay(length, bandwidth)
        assert abs(twice - 2 * single) <= 1

    @given(length=st.integers(min_value=0, max_value=10**9),
           bandwidth=st.integers(min_value=1, max_value=10**11))
    def test_inverse_in_bandwidth_up_to_rounding(self, length, bandwidth):
        half = transmission_delay(length, 2 * bandwidth)
        full = transmission_delay(length, bandwidth)
        assert abs(full - 2 * half) <= 1


class TestBuildTopology:
    def test_linear_chain_has_nine_links(self):
        topology = build_topology(linear_chain_spec(10))
        assert len(topology.links()) == 9
        assert all(link.is_up for link in topology.links())
        assert len(topology.switches) == 10

    def test_degenerate_single_switch(self):
        spec = TopologySpec(("S1",), (("H1", "S1"),), ())
        topology = build_topology(spec)
        assert topology.links() == []
        assert topology.attachment("H1") == "S1"

    def test_link_to_unknown_switch_rejected(self):
        spec = TopologySpec(("S1",), (), (LinkSpec("S1", "S99", GBPS, 0),))
        with pytest.raises(TopologyError, match="S99"):
            build_topology(spec)

    def test_duplicate_switch_rejected(self):
        spec = TopologySpec(("S1", "S1"), (), ())
        with pytest.raises(TopologyError, match="duplicate"):
            build_topology(spec)

    def test_parallel_link_rejected(self):
        spec = TopologySpec(("S1", "S2"), (),
                            (LinkSpec("S1", "S2", GBPS, 0),
                             LinkSpec("S2", "S1", GBPS, 0)))
        with pytest.raises(TopologyError, match="parallel"):
            build_topology(spec)

    def test_nonpositive_capacity_rejected(self):
        spec = TopologySpec(("S1", "S2"), (), (LinkSpec("S1", "S2", 0, 0),))
        with pytest.raises(TopologyError, match="capacity"):
            build_topology(spec)

    def test_host_multi_attach_rejected(self):
        spec = TopologySpec(("S1", "S2"), (("H1", "S1"), ("H1", "S2")), ())
        with pytest.raises(TopologyError, match="attached more than once"):
            build_topology(spec)

    def test_host_to_unknown_switch_rejected(self):
        spec = TopologySpec(("S1",), (("H1", "S9"),), ())
        with pytest.raises(TopologyError, match="unknown switch"):
            build_topology(spec)


class TestLinkState:
    def test_down_then_up(self, chain10):
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        assert not chain10.link_between("S3", "S4").is_up
        chain10.set_link_state("S3", "S4", LinkState.UP)
        assert chain10.link_between("S3", "S4").is_up

    def test_idempotent(self, chain10):
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        chain10.set_link_state("S3", "S4", LinkState.DOWN)
        assert not chain10.link_between("S3", "S4").is_up

    def test_unknown_link_rejected(self, chain10):
        with pytest.raises(TopologyError):
            chain10.set_link_state("S1", "S9", LinkState.DOWN)

    def test_link_between_unlinked_switches_rejected(self, chain10):
        with pytest.raises(TopologyError, match="no link"):
            chain10.link_between("S1", "S3")


class TestSimConfig:
    @pytest.mark.parametrize("field, value", [
        ("estimation_interval", 0), ("probe_length_bits", 0),
        ("probe_length_bits", -1), ("recalc_cost", -1), ("queue_limit", -1),
        ("host_link_delay", -5)])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError):
            SimConfig(**{field: value})

    def test_zero_costs_and_delays_accepted(self):
        config = SimConfig(recalc_cost=0, queue_limit=0, host_link_delay=0)
        assert (config.recalc_cost, config.queue_limit,
                config.host_link_delay) == (0, 0, 0)
