from dataclasses import replace
from pathlib import Path

import pytest

from sdnsim.contracts import ContractError, ContractKind
from sdnsim.core import MICROSECOND, MILLISECOND, SECOND
from sdnsim.injections import (
    MASTER_EVENT_POOL,
    LinkDownInjection,
    PedChangeInjection,
    materialize_injections,
)
from sdnsim.scenario import (
    AutoLinkFailures,
    AutoPedChanges,
    ScenarioError,
    load_scenario,
    parse_fraction_ppm,
    parse_rate,
    parse_scenario,
    parse_size,
    parse_time,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _auto_scenarios_without_per_pair() -> list[str]:
    """Bundled scenarios whose auto schedules nest across event counts."""
    names = []
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = load_scenario(path)
        auto_e2 = scenario.auto_ped_changes
        if auto_e2 is not None and auto_e2.per_pair:
            continue
        if scenario.auto_link_failures is not None or auto_e2 is not None:
            names.append(path.stem)
    return names


MINIMAL = """
[topology]
switches S1 S2
host H1 S1
host H2 S2
link S1 S2 capacity=1Gbps propagation=1ms

[flows]
flow F1 H1 H2 volume=1Mb start=1s gap=10ms

[run]
emulation_time 30s
"""


class TestUnits:
    def test_times(self):
        assert parse_time("1ns") == 1
        assert parse_time("0.25ms") == 250 * MICROSECOND
        assert parse_time("1.5ms") == 1_500_000
        assert parse_time("10s") == 10 * SECOND

    def test_rates(self):
        assert parse_rate("1Gbps") == 10**9
        assert parse_rate("100Mbps") == 10**8
        assert parse_rate("1.5Mbps") == 1_500_000

    def test_sizes(self):
        assert parse_size("1500B") == 12_000
        assert parse_size("100Mb") == 100_000_000
        assert parse_size("12000b") == 12_000

    def test_fraction(self):
        assert parse_fraction_ppm("0.7") == 700_000
        assert parse_fraction_ppm("1") == 1_000_000

    @pytest.mark.parametrize("text", ["5", "5 ms", "ms", "5.5.5ms", "5parsec"])
    def test_bad_time_rejected(self, text):
        with pytest.raises(ScenarioError):
            parse_time(text)


class TestParser:
    def test_minimal_scenario(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.emulation_time == 30 * SECOND
        assert scenario.config.estimation_interval == 10 * SECOND
        assert scenario.config.probe_length_bits == 12_000
        assert scenario.control.default_c2s == 250 * MICROSECOND
        [flow] = scenario.flows
        assert flow.packet_length == 12_000  # 1500 B default
        assert flow.inter_packet_gap == 10 * MILLISECOND

    def test_bundled_ring_scenario_loads(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        assert len(scenario.topology_spec.switches) == 10
        assert len(scenario.topology_spec.hosts) == 8
        assert len(scenario.topology_spec.links) == 12
        assert len(scenario.flows) == 10
        assert scenario.auto_link_failures.count == 4
        assert scenario.emulation_time == 150 * SECOND

    def test_bundled_mesh_scenario_loads(self):
        scenario = load_scenario("scenarios/mesh20_e1.scn")
        assert len(scenario.topology_spec.switches) == 20
        assert len(scenario.topology_spec.hosts) == 20
        assert len(scenario.topology_spec.links) == 40
        assert len(scenario.flows) == 15
        assert len(scenario.contracts) == 5

    def test_missing_topology_section_rejected(self):
        text = ("[flows]\nflow F1 H1 H2 volume=1Mb start=1s gap=10ms\n"
                "\n[run]\nemulation_time 30s\n")
        with pytest.raises(ScenarioError, match="topology"):
            parse_scenario(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            parse_scenario("[nonsense]\n")

    def test_error_carries_line_number(self):
        bad = MINIMAL.replace("capacity=1Gbps", "capacity=fast")
        with pytest.raises(ScenarioError, match="line 6"):
            parse_scenario(bad)

    def test_unresolved_flow_host_rejected(self):
        bad = MINIMAL.replace("flow F1 H1 H2", "flow F1 H1 H9")
        with pytest.raises(Exception, match="H9"):
            parse_scenario(bad)

    def test_injection_outside_window_rejected(self):
        bad = MINIMAL + "\n[injections]\nat 99s link_down S1 S2\n"
        with pytest.raises(ScenarioError, match="outside"):
            parse_scenario(bad)

    def test_explicit_injections_parse(self):
        text = MINIMAL + (
            "\n[injections]\n"
            "at 5s link_down S1 S2\n"
            "at 6s link_up S1 S2\n")
        scenario = parse_scenario(text)
        down, up = scenario.explicit_injections
        assert down.at == 5 * SECOND and (down.a, down.b) == ("S1", "S2")
        assert up.kind == "link_up"

    def test_ped_injection_requires_known_contract(self):
        text = MINIMAL + "\n[injections]\nat 5s set_ped C9 1ms\n"
        with pytest.raises(ScenarioError, match="C9"):
            parse_scenario(text)

    def test_probe_must_take_a_nanosecond_on_every_link(self):
        bad = MINIMAL.replace("capacity=1Gbps", "capacity=30000Gbps")
        with pytest.raises(ScenarioError, match="link S1-S2: a 12000-bit"):
            parse_scenario(bad)


def line_of(text, line):
    return text.splitlines().index(line) + 1


class TestStrictInput:
    """Typos and inputs the kernel would mishandle fail at parse time."""

    def test_unknown_run_key(self):
        text = MINIMAL + "estimation_intervall 1s\n"
        line = line_of(text, "estimation_intervall 1s")
        with pytest.raises(ScenarioError,
                           match=f"line {line}: unknown key "
                                 "'estimation_intervall'"):
            parse_scenario(text)

    def test_duplicate_run_key(self):
        text = MINIMAL + "emulation_time 40s\n"
        line = line_of(text, "emulation_time 40s")
        with pytest.raises(ScenarioError,
                           match=f"line {line}: duplicate key"):
            parse_scenario(text)

    @pytest.mark.parametrize("old, new, key", [
        ("volume=1Mb", "pakcet=9000B volume=1Mb", "pakcet"),
        ("propagation=1ms", "propagation=1ms delay=1ms", "delay"),
        ("host H2 S2", "host H2 S2\ncontrol S1 c2s=1ms s2c=1ms c2x=1ms",
         "c2x"),
    ])
    def test_unknown_key_on_entry(self, old, new, key):
        text = MINIMAL.replace(old, new)
        line = line_of(text, next(l for l in text.splitlines() if key in l))
        with pytest.raises(ScenarioError,
                           match=f"line {line}: unknown key '{key}'"):
            parse_scenario(text)

    @pytest.mark.parametrize("entry, key", [
        ("contract C1 S1 S2 strong=5ms waek=9ms", "waek"),
        ("auto_link_failures count=1 window=5s..20s cuont=2", "cuont"),
        ("auto_ped_changes count=1 window=5s..20s factor=0.5..0.9 fator=1",
         "fator"),
    ])
    def test_unknown_key_on_contract_and_auto_lines(self, entry, key):
        section = "contracts" if entry.startswith("contract") else "injections"
        text = (MINIMAL + "\n[contracts]\ncontract C0 S1 S2 strong=5ms\n"
                + f"\n[{section}]\n{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"line {line_of(text, entry)}: unknown key "
                                 f"'{key}'"):
            parse_scenario(text)

    def test_unknown_flag_on_auto_ped_changes(self):
        entry = "auto_ped_changes count=1 window=5s..20s factor=0.5..0.9 perpair"
        text = (MINIMAL + "\n[contracts]\ncontract C1 S1 S2 strong=5ms\n"
                + f"\n[injections]\n{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"line {line_of(text, entry)}: unknown flags"):
            parse_scenario(text)

    def test_duplicate_key(self):
        text = MINIMAL.replace("gap=10ms", "gap=10ms gap=20ms")
        with pytest.raises(ScenarioError,
                           match="line 9: duplicate key 'gap'"):
            parse_scenario(text)

    @pytest.mark.parametrize("gap", [" gap=0s", ""])
    def test_multi_packet_flow_needs_a_positive_gap(self, gap):
        text = MINIMAL.replace(" gap=10ms", gap)
        with pytest.raises(ScenarioError, match="line 9: .*gap must be"):
            parse_scenario(text)

    def test_single_packet_flow_needs_no_gap(self):
        text = MINIMAL.replace("volume=1Mb start=1s gap=10ms",
                               "volume=1500B start=1s")
        assert parse_scenario(text).flows[0].inter_packet_gap == 0

    def test_window_narrower_than_master_pool_rejected(self):
        with open("scenarios/linear_chain.scn", encoding="utf-8") as handle:
            text = handle.read()
        entry = "auto_link_failures count=1 window=15s..15000000004ns"
        text += f"\n[injections]\n{entry}\n"
        with pytest.raises(ScenarioError,
                           match=f"line {line_of(text, entry)}: window"):
            parse_scenario(text)

    @pytest.mark.parametrize("old, new, bad", [
        ("host H1 S1", "host H1 S1\nswitch S11 S12", "switch S11 S12"),
        ("emulation_time 30s",
         "emulation_time 30s\n\n[injections]\nat 20s link_down S1 S2 S3",
         "at 20s link_down S1 S2 S3"),
    ])
    def test_surplus_tokens(self, old, new, bad):
        text = MINIMAL.replace(old, new)
        with pytest.raises(ScenarioError, match=f"line {line_of(text, bad)}: "):
            parse_scenario(text)

    @pytest.mark.parametrize("entry", [
        "auto_link_failures count=2 window=20s..29s",
        "auto_ped_changes count=2 window=20s..29s factor=0.5..0.9",
    ])
    def test_second_auto_line_rejected(self, entry):
        text = (MINIMAL + "\n[contracts]\ncontract C1 S1 S2 strong=5ms\n"
                + f"\n[injections]\n{entry.replace('count=2', 'count=1')}\n"
                + f"{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"line {line_of(text, entry)}: second"):
            parse_scenario(text)

    @pytest.mark.parametrize("old, new", [
        ("emulation_time 30s", "emulation_time 150x"),
        ("emulation_time 30s", "emulation_time 30s\nestimation_interval 0s"),
        ("emulation_time 30s", "emulation_time 30s\nprobe_length 1500"),
        ("emulation_time 30s", "emulation_time 30s\nprobe_length 0B"),
        ("emulation_time 30s", "emulation_time 30s\nseed one"),
        ("emulation_time 30s", "emulation_time 30s\nvariant SDN-XX"),
        ("emulation_time 30s", "emulation_time 30s\ncontrol_latency fast"),
    ])
    def test_bad_run_value_carries_its_line(self, old, new):
        text = MINIMAL.replace(old, new)
        bad = new.splitlines()[-1]
        with pytest.raises(ScenarioError, match=f"line {line_of(text, bad)}: "):
            parse_scenario(text)

    def test_missing_emulation_time_rejected(self):
        text = MINIMAL.replace("emulation_time 30s", "seed 3")
        with pytest.raises(ScenarioError, match="needs emulation_time"):
            parse_scenario(text)

    @pytest.mark.parametrize("section, entry, key", [
        ("topology", "link S2 S3 propagation=1ms", "capacity"),
        ("topology", "control S1 c2s=1ms", "s2c"),
        ("topology", "control S1 s2c=1ms", "c2s"),
        ("flows", "flow F2 H1 H2 packet=1500B start=1s", "volume"),
        ("contracts", "contract C1 S1 S2 weak=9ms", "strong"),
        ("injections", "auto_link_failures window=5s..20s", "count"),
        ("injections", "auto_link_failures count=1", "window"),
        ("injections", "auto_ped_changes count=1 window=5s..20s", "factor"),
        ("injections", "auto_ped_changes count=1 factor=0.5..0.9 per_pair",
         "window"),
    ])
    def test_missing_required_key(self, section, entry, key):
        text = (MINIMAL.replace("switches S1 S2", "switches S1 S2 S3\n"
                                "control S1 c2s=1ms s2c=1ms")
                + "\n[contracts]\ncontract C0 S1 S2 strong=5ms\n"
                + f"\n[{section}]\n{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"^line {line_of(text, entry)}: missing key "
                                 f"'{key}'$"):
            parse_scenario(text)

    @pytest.mark.parametrize("entry", ["control c2s=1ms s2c=1ms", "control"])
    def test_control_needs_its_switch_first(self, entry):
        text = MINIMAL.replace("host H2 S2", f"host H2 S2\n{entry}")
        with pytest.raises(ScenarioError,
                           match=f"^line {line_of(text, entry)}: control "
                                 "<switch>"):
            parse_scenario(text)

    def test_count_beyond_window_width_raises_instead_of_hanging(self):
        with open("scenarios/industrial_ring_e1.scn", encoding="utf-8") as handle:
            text = handle.read().replace("window=15s..140s",
                                         "window=15s..15000000008ns")
        scenario = parse_scenario(text)  # 8 ns hold the 8-event master pool
        assert len(materialize_injections(scenario, 1)) == 4
        with pytest.raises(ScenarioError, match="cannot draw 9"):
            materialize_injections(scenario.with_event_count(9), 1)


    @pytest.mark.parametrize("section, entry, message", [
        ("contracts", "contract C1 S1 S2 strong=5ms weak=2ms",
         "weak ped 2000000 below strong ped 5000000"),
        ("contracts", "contract C1 S1 S2 strong=0s",
         "strong ped must be positive"),
        ("injections", "at 20s set_ped C0 0s", "ped must be positive"),
        ("injections", "at 20s scale_ped C0 0", "ped factor must be positive"),
        ("injections",
         "auto_ped_changes count=1 window=5s..20s factor=0..0",
         "factor 0..0 ppm needs 0 < lo <= hi"),
        ("injections",
         "auto_ped_changes count=1 window=5s..20s factor=0..0.5",
         "factor 0..500000 ppm needs 0 < lo <= hi"),
        ("injections",
         "auto_ped_changes count=1 window=5s..20s factor=0.9..0.5",
         "factor 900000..500000 ppm needs 0 < lo <= hi"),
    ])
    def test_bad_bound_carries_its_line(self, section, entry, message):
        text = (MINIMAL + "\n[contracts]\ncontract C0 S2 S1 strong=5ms\n"
                + f"\n[{section}]\n{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"^line {line_of(text, entry)}: {message}$"):
            parse_scenario(text)

    @pytest.mark.parametrize("section, entry, message", [
        ("topology", "link S1 S9 capacity=1Gbps",
         "link S1-S9 references an unknown switch"),
        ("topology", "link S2 S1 capacity=1Gbps", "parallel link S2-S1"),
        ("topology", "link S1 S3 capacity=0bps",
         "link S1-S3: capacity must be positive"),
        ("topology", "link S3 S3 capacity=1Gbps", "link S3-S3 is a self loop"),
        ("topology", "host H1 S2", "host 'H1' attached more than once"),
        ("topology", "host H3 S9", "host 'H3' attaches to unknown switch 'S9'"),
        ("topology", "switches S2", "duplicate switch id in topology spec"),
        ("topology", "switch H1", "id 'H1' used for both a host and a switch"),
        ("topology", "control S9 c2s=1ms s2c=1ms", "unknown switch 'S9'"),
        ("topology", "control S1 c2s=2ms s2c=2ms",
         "second control line for 'S1'"),
        ("topology", "switches", "switches <id> <id>..."),
        ("flows", "flow F2 H1 H9 volume=1Mb gap=10ms",
         "unknown host 'H9'"),
        ("flows", "flow F1 H2 H1 volume=1Mb gap=10ms",
         "duplicate flow id 'F1'"),
        ("contracts", "contract C1 S1 S9 strong=5ms", "unknown switch 'S9'"),
        ("contracts", "contract C0 S1 S2 strong=5ms",
         "duplicate contract pair 'C0'"),
        ("contracts", "contract C1 S2 S1 strong=9ms",
         r"duplicate contract for endpoints \('S2', 'S1'\)"),
        ("injections", "at 20s link_down S1 S9", "no link between S1 and S9"),
        ("injections", "at 20s set_ped C9 1ms", "unknown contract pair 'C9'"),
    ])
    def test_reference_carries_its_line(self, section, entry, message):
        """Each line is checked by the Topology or ContractStore a run
        uses, as it is read; a typo never waits for a second pass."""
        text = (MINIMAL.replace("switches S1 S2", "switches S1 S2 S3\n"
                                "control S1 c2s=1ms s2c=1ms")
                + "\n[contracts]\ncontract C0 S2 S1 strong=5ms\n"
                + f"\n[{section}]\n{entry}\n")
        with pytest.raises(ScenarioError,
                           match=f"^line {line_of(text, entry)}: {message}$"):
            parse_scenario(text)

    @pytest.mark.parametrize("section", ["flows", "contracts", "injections"])
    def test_sections_follow_topology(self, section):
        text = f"[{section}]\n" + MINIMAL
        with pytest.raises(ScenarioError,
                           match=f"^line 1: \\[{section}\\] must follow "
                                 r"\[topology\]$"):
            parse_scenario(text)

    def test_auto_ped_changes_needs_a_contract_before_it(self):
        entry = "auto_ped_changes count=1 window=5s..20s factor=0.5..0.9"
        text = MINIMAL + f"\n[injections]\n{entry}\n"
        with pytest.raises(ScenarioError,
                           match=f"^line {line_of(text, entry)}: "
                                 "auto_ped_changes requires"):
            parse_scenario(text)

    @pytest.mark.parametrize("entry", [
        "auto_link_failures count=1 window=20s..{end}",
        "auto_ped_changes count=1 window=20s..{end} factor=0.5..0.9",
    ])
    def test_auto_window_must_end_by_emulation_time(self, entry):
        text = (MINIMAL + "\n[contracts]\ncontract C1 S1 S2 strong=5ms\n"
                + "\n[injections]\n")
        parse_scenario(text + entry.format(end="30s"))  # emulation_time 30s
        with pytest.raises(ScenarioError,
                           match="auto window ends at 30000000001 ns, after "
                                 "emulation_time 30000000000 ns"):
            parse_scenario(text + entry.format(end="30000000001ns"))

    def test_directly_built_auto_spec_needs_a_wide_window(self):
        with pytest.raises(ScenarioError, match="window .* cannot draw 8"):
            AutoPedChanges(count=1, window=(0, 7), factor_ppm=(1, 1))

    def test_replaced_auto_count_needs_a_wide_window(self):
        spec = AutoLinkFailures(count=1, window=(0, 8))  # 8 ns, the pool
        with pytest.raises(ScenarioError, match="window .* cannot draw 9"):
            replace(spec, count=9)


class TestPedChangeInjection:
    """A requirement change is checked when it is built, not when it is
    applied part-way through a run."""

    @pytest.mark.parametrize("values", [
        {}, {"new_ped": MILLISECOND, "factor_ppm": 500_000}])
    def test_needs_exactly_one_of_new_ped_and_factor(self, values):
        with pytest.raises(ContractError, match="exactly one"):
            PedChangeInjection(40 * SECOND, "C1", **values)

    def test_new_ped_must_be_positive(self):
        with pytest.raises(ContractError, match="ped must be positive"):
            PedChangeInjection(40 * SECOND, "C1", new_ped=0)

    def test_factor_must_be_positive(self):
        with pytest.raises(ContractError, match="ped factor must be positive"):
            PedChangeInjection(40 * SECOND, "C1", factor_ppm=0)

    def test_only_the_strong_bound_changes(self):
        with pytest.raises(ContractError, match="strong contract"):
            PedChangeInjection(40 * SECOND, "C1", new_ped=13 * MILLISECOND,
                               contract_kind=ContractKind.WEAK)


class TestSweepSlicing:
    def test_flow_count_takes_prefix(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        sliced = scenario.with_flow_count(3)
        assert [f.id for f in sliced.flows] == ["F1", "F2", "F3"]

    def test_flow_count_out_of_range(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        with pytest.raises(ScenarioError):
            scenario.with_flow_count(11)

    def test_event_count_keeps_a_link_down_with_its_link_up(self):
        with open("scenarios/linear_chain.scn", encoding="utf-8") as handle:
            text = handle.read() + (
                "\n[injections]\n"
                "at 20s link_down S4 S5\n"
                "at 25s set_ped C1 8ms\n"
                "at 30s link_up S4 S5\n"
                "at 35s link_down S4 S5\n")
        scenario = parse_scenario(text)
        kinds = [[i.kind for i in scenario.with_event_count(count)
                  .explicit_injections] for count in range(4)]
        assert kinds == [
            [],
            ["link_down", "link_up"],
            ["link_down", "ped_change", "link_up"],
            ["link_down", "ped_change", "link_up", "link_down"],
        ]

    def test_event_count_rewrites_auto_specs(self):
        scenario = load_scenario("scenarios/industrial_ring_mixed.scn")
        sliced = scenario.with_event_count(5)
        assert sliced.auto_link_failures.count == 5
        assert sliced.auto_ped_changes.count == 5


class TestMaterialization:
    def test_deterministic_per_seed(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        assert materialize_injections(scenario, 7) == \
            materialize_injections(scenario, 7)
        assert materialize_injections(scenario, 7) != \
            materialize_injections(scenario, 8)

    def test_event_counts_nest_chronologically(self):
        scenario = load_scenario("scenarios/industrial_ring_mixed.scn")
        smaller = materialize_injections(scenario.with_event_count(2), 3)
        larger = materialize_injections(scenario.with_event_count(4), 3)
        for kind in (LinkDownInjection, PedChangeInjection):
            small_of_kind = [i for i in smaller if isinstance(i, kind)]
            large_of_kind = [i for i in larger if isinstance(i, kind)]
            assert large_of_kind[:len(small_of_kind)] == small_of_kind
            assert len(large_of_kind) == len(small_of_kind) + 2

    @pytest.mark.parametrize("name", _auto_scenarios_without_per_pair())
    def test_event_counts_up_to_master_pool_nest(self, name):
        # Each count's injections of a kind are a prefix of the next
        # count's.  This holds only without per_pair and only up to
        # MASTER_EVENT_POOL events; see materialize_injections.
        scenario = load_scenario(SCENARIO_DIR / f"{name}.scn")
        for seed in range(1, 11):
            runs = [materialize_injections(scenario.with_event_count(count),
                                           seed)
                    for count in range(1, MASTER_EVENT_POOL + 1)]
            for smaller, larger in zip(runs, runs[1:]):
                for kind in (LinkDownInjection, PedChangeInjection):
                    small_of_kind = [i for i in smaller if isinstance(i, kind)]
                    large_of_kind = [i for i in larger if isinstance(i, kind)]
                    assert large_of_kind[:len(small_of_kind)] == small_of_kind

    def test_first_failure_lands_on_expected_path(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        route_0 = [("S1", "S10"), ("S10", "S9"), ("S9", "S8")]
        for seed in range(1, 11):
            first = [i for i in materialize_injections(scenario, seed)
                     if isinstance(i, LinkDownInjection)][0]
            key = (first.a, first.b)
            assert key in route_0 or tuple(reversed(key)) in route_0

    def test_times_fall_inside_window(self):
        scenario = load_scenario("scenarios/industrial_ring_e1.scn")
        for seed in range(1, 6):
            for injection in materialize_injections(scenario, seed):
                assert 15 * SECOND <= injection.at < 140 * SECOND

    def test_ped_factors_only_tighten(self):
        scenario = load_scenario("scenarios/industrial_ring_e2.scn")
        for injection in materialize_injections(scenario, 5):
            assert isinstance(injection, PedChangeInjection)
            assert 450_000 <= injection.factor_ppm <= 850_000
