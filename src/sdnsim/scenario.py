"""Scenario files: topology, flows, contracts, injections, run parameters.

The format is line oriented with named sections, so experiments are data
rather than code::

    # comment
    [topology]
    switches S1 S2 S3
    host H1 S1
    link S1 S2 capacity=1Gbps propagation=1ms
    control S1 c2s=0.3ms s2c=0.3ms

    [flows]
    flow F1 H1 H3 packet=1500B volume=100Mb start=1s gap=250ms

    [contracts]
    contract C1 S1 S3 strong=3.2ms weak=12ms

    [injections]
    at 40s link_down S1 S2
    at 55s link_up S1 S2
    at 60s set_ped C1 2ms
    at 70s scale_ped C1 0.7
    auto_link_failures count=4 window=15s..140s
    auto_ped_changes count=4 window=15s..140s factor=0.45..0.85
    auto_ped_changes count=4 window=15s..140s factor=0.45..0.85 per_pair

    [run]
    emulation_time 150s
    estimation_interval 10s
    control_latency 0.25ms
    queue_limit 5ms
    seed 1
    variant SDN-RM

[topology] comes before every section but [run], and a switch, host or
contract is declared before a line names it.  Times accept ns/us/ms/s
suffixes, rates bps/Kbps/Mbps/Gbps, sizes b/Kb/Mb/Gb (bits) or B/KB/MB
(bytes); decimal values are parsed exactly.  The injection types, and how
auto_* lines expand into injections for a seed, live in the injections
module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .contracts import ContractPair, ContractStore, create_contract_pair
from .core import (
    ControlChannel,
    Flow,
    SimConfig,
    Topology,
    TopologySpec,
    transmission_delay,
)
from .injections import (
    MASTER_EVENT_POOL,
    Injection,
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
    first_events,
)
from .resilience import variant_by_name


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate."""


# ---------------------------------------------------------------------------
# unit parsing

_TIME_UNITS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
_RATE_UNITS = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000}
_SIZE_UNITS = {  # to bits
    "b": 1, "kb": 1_000, "mb": 1_000_000, "gb": 1_000_000_000,
    "B": 8, "KB": 8_000, "MB": 8_000_000, "GB": 8_000_000_000,
}

_NUMBER_RE = re.compile(r"^(\d+)(?:\.(\d+))?([a-zA-Z]+)$")


def _scaled_int(whole: str, frac: str | None, unit_value: int) -> int:
    """Exact decimal * unit_value, rounded to the nearest integer."""
    numerator = int(whole + (frac or ""))
    denominator = 10 ** len(frac or "")
    return (numerator * unit_value + denominator // 2) // denominator


def parse_time(text: str) -> int:
    """'1.5ms' -> 1_500_000 ns, exactly."""
    m = _NUMBER_RE.match(text.strip())
    if not m or m.group(3).lower() not in _TIME_UNITS:
        raise ScenarioError(f"bad time value {text!r} (use ns/us/ms/s)")
    return _scaled_int(m.group(1), m.group(2), _TIME_UNITS[m.group(3).lower()])


def parse_rate(text: str) -> int:
    m = _NUMBER_RE.match(text.strip())
    if not m or m.group(3).lower() not in _RATE_UNITS:
        raise ScenarioError(f"bad rate value {text!r} (use bps/Kbps/Mbps/Gbps)")
    return _scaled_int(m.group(1), m.group(2), _RATE_UNITS[m.group(3).lower()])


def parse_size(text: str) -> int:
    m = _NUMBER_RE.match(text.strip())
    if not m:
        raise ScenarioError(f"bad size value {text!r} (use b/Kb/Mb/Gb or B/KB/MB)")
    unit = m.group(3)
    factor = _SIZE_UNITS.get(unit)
    if factor is None:
        factor = _SIZE_UNITS.get(unit.lower())  # lowercase forms mean bits
    if factor is None:
        raise ScenarioError(f"bad size unit in {text!r}")
    return _scaled_int(m.group(1), m.group(2), factor)


def parse_fraction_ppm(text: str) -> int:
    """'0.7' -> 700_000 parts per million, exactly."""
    m = re.match(r"^(\d+)(?:\.(\d+))?$", text.strip())
    if not m:
        raise ScenarioError(f"bad fraction {text!r}")
    return _scaled_int(m.group(1), m.group(2), 1_000_000)


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class ContractSpec:
    pair_id: str
    src: str
    dst: str
    strong_ped: int
    weak_ped: int | None  # None means the default weak factor applies

    def pair(self) -> ContractPair:
        """The run's record of this contract; checks its bounds."""
        return create_contract_pair(self.pair_id, self.src, self.dst,
                                    self.strong_ped, self.weak_ped)


def _check_auto_count(count: int, window: tuple[int, int]) -> None:
    """An auto spec's count is non-negative, and its window [lo, hi) holds
    a distinct nanosecond for every event of its master schedule."""
    if count < 0:
        raise ScenarioError("count must be non-negative")
    needed = max(count, MASTER_EVENT_POOL)
    if window[1] - window[0] < needed:
        raise ScenarioError(
            f"window {window[0]}..{window[1]} ns cannot draw {needed} "
            "distinct event times")


@dataclass(frozen=True)
class AutoLinkFailures:
    count: int
    window: tuple[int, int]

    def __post_init__(self) -> None:
        _check_auto_count(self.count, self.window)


@dataclass(frozen=True)
class AutoPedChanges:
    count: int
    window: tuple[int, int]
    factor_ppm: tuple[int, int]  # tightening range, applied to strong peds
    per_pair: bool = False

    def __post_init__(self) -> None:
        _check_auto_count(self.count, self.window)
        lo, hi = self.factor_ppm
        if not 0 < lo <= hi:
            raise ScenarioError(f"factor {lo}..{hi} ppm needs 0 < lo <= hi")


@dataclass(frozen=True)
class Scenario:
    name: str
    topology_spec: TopologySpec
    control: ControlChannel
    flows: tuple[Flow, ...]
    contracts: tuple[ContractSpec, ...]
    explicit_injections: tuple[Injection, ...]
    auto_link_failures: AutoLinkFailures | None
    auto_ped_changes: AutoPedChanges | None
    emulation_time: int
    config: SimConfig
    seed: int = 1
    variant: str = "SDN-RM"
    source_text: str | None = None

    def with_flow_count(self, count: int) -> "Scenario":
        if not 1 <= count <= len(self.flows):
            raise ScenarioError(
                f"flow count {count} outside 1..{len(self.flows)}")
        return replace(self, flows=self.flows[:count])

    def with_event_count(self, count: int) -> "Scenario":
        """Scale injected events; auto schedules take a chronological prefix.

        Without auto specs the explicit injections are cut to their first
        count events in time, where a link_down and the link_up that ends
        it are one event, so a cut never leaves a link down for good.
        """
        if count < 0:
            raise ScenarioError("event count must be non-negative")
        auto_e1 = self.auto_link_failures
        auto_e2 = self.auto_ped_changes
        explicit = self.explicit_injections
        if auto_e1 is not None:
            auto_e1 = replace(auto_e1, count=count)
        if auto_e2 is not None:
            auto_e2 = replace(auto_e2, count=count)
        if auto_e1 is None and auto_e2 is None:
            explicit = first_events(explicit, count)
        return replace(self, auto_link_failures=auto_e1,
                       auto_ped_changes=auto_e2,
                       explicit_injections=explicit)


# ---------------------------------------------------------------------------
# parser


def _positive_time(text: str) -> int:
    value = parse_time(text)
    if value <= 0:
        raise ScenarioError(f"time {text!r} must be positive")
    return value


def _positive_size(text: str) -> int:
    value = parse_size(text)
    if value <= 0:
        raise ScenarioError(f"size {text!r} must be positive")
    return value


def _variant_name(name: str) -> str:
    variant_by_name(name)  # raises for unknown names
    return name


# [run] keys and the parser of each value; values are parsed on their own
# line, so a bad value is reported with its line number.
_RUN_PARSERS = {
    "emulation_time": parse_time,
    "estimation_interval": _positive_time,
    "probe_length": _positive_size,
    "recalc_cost": parse_time,
    "queue_limit": parse_time,
    "host_link_delay": parse_time,
    "control_latency": parse_time,
    "seed": int,
    "variant": _variant_name,
}

# [run] keys that set a SimConfig field; SimConfig holds their defaults.
_CONFIG_FIELDS = {
    "estimation_interval": "estimation_interval",
    "probe_length": "probe_length_bits",
    "recalc_cost": "recalc_cost",
    "queue_limit": "queue_limit",
    "host_link_delay": "host_link_delay",
}


def _parse_kv(tokens: list[str], allowed: tuple[str, ...],
              required: tuple[str, ...] = ()) -> dict[str, str]:
    """key=value tokens to a dict; unknown, repeated and missing required
    keys are errors."""
    out: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ScenarioError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in allowed:
            raise ScenarioError(
                f"unknown key {key!r} (expected one of "
                f"{', '.join(allowed)})")
        if key in out:
            raise ScenarioError(f"duplicate key {key!r}")
        out[key] = value
    for key in required:
        if key not in out:
            raise ScenarioError(f"missing key {key!r}")
    return out


def parse_scenario(text: str, name: str = "<string>") -> Scenario:
    """Parse a scenario into a Topology and a ContractStore line by line,
    so each line is checked, on its line, by the code a run uses."""
    topology = Topology()
    store = ContractStore()
    control = ControlChannel()
    flows: dict[str, Flow] = {}
    contracts: list[ContractSpec] = []
    explicit: list[Injection] = []
    auto_e1: AutoLinkFailures | None = None
    auto_e2: AutoPedChanges | None = None
    run: dict[str, int | str] = {}
    seen_sections: set[str] = set()

    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("topology", "flows", "contracts",
                               "injections", "run"):
                raise ScenarioError(f"line {line_no}: unknown section {section!r}")
            if section not in ("topology", "run") and \
                    "topology" not in seen_sections:
                raise ScenarioError(
                    f"line {line_no}: [{section}] must follow [topology]")
            seen_sections.add(section)
            continue
        if section is None:
            raise ScenarioError(f"line {line_no}: content before any section")
        tokens = line.split()
        word = tokens[0]
        try:
            if section == "topology":
                _parse_topology_line(word, tokens, topology, control)
            elif section == "flows":
                flow = _parse_flow_line(word, tokens)
                if flow.id in flows:
                    raise ScenarioError(f"duplicate flow id {flow.id!r}")
                topology.attachment(flow.src_host)
                topology.attachment(flow.dst_host)
                flows[flow.id] = flow
            elif section == "contracts":
                contract = _parse_contract_line(word, tokens)
                _known_switch(topology, contract.src)
                _known_switch(topology, contract.dst)
                store.add(contract.pair())
                contracts.append(contract)
            elif section == "injections":
                parsed = _parse_injection_line(word, tokens)
                if isinstance(parsed, AutoLinkFailures):
                    if auto_e1 is not None:
                        raise ScenarioError(f"second {word} line")
                    auto_e1 = parsed
                elif isinstance(parsed, AutoPedChanges):
                    if auto_e2 is not None:
                        raise ScenarioError(f"second {word} line")
                    if not contracts:
                        raise ScenarioError(
                            "auto_ped_changes requires at least one contract")
                    auto_e2 = parsed
                else:
                    if isinstance(parsed, PedChangeInjection):
                        store.pair(parsed.pair_id)
                    else:
                        topology.link_between(parsed.a, parsed.b)
                    explicit.append(parsed)
            elif section == "run":
                if len(tokens) != 2:
                    raise ScenarioError("run entries are 'key value'")
                if word in run:
                    raise ScenarioError(f"duplicate key {word!r}")
                _parse_kv([f"{word}={tokens[1]}"], tuple(_RUN_PARSERS))
                run[word] = _RUN_PARSERS[word](tokens[1])
        except (ValueError, KeyError, IndexError) as exc:
            raise ScenarioError(f"line {line_no}: {exc}") from exc

    for required in ("topology", "flows", "run"):
        if required not in seen_sections:
            raise ScenarioError(f"missing required section [{required}]")
    if "emulation_time" not in run:
        raise ScenarioError("[run] needs emulation_time")

    # The rules that read [run] values, which may come last.
    end = run["emulation_time"]
    config = SimConfig(**{field: run[key]
                          for key, field in _CONFIG_FIELDS.items()
                          if key in run})
    probe_bits = config.probe_length_bits
    for link in topology.links():
        # A cost entry needs a positive probe transmission delay.
        if transmission_delay(probe_bits, link.capacity_bps) == 0:
            raise ScenarioError(
                f"link {link.a}-{link.b}: a {probe_bits}-bit probe crosses "
                "it in under 1 ns; lower its capacity or raise probe_length")
    for inj in explicit:
        if inj.at > end:
            raise ScenarioError(
                f"injection at {inj.at} ns outside the emulation window")
    for spec in (auto_e1, auto_e2):
        if spec is not None and spec.window[1] > end:
            raise ScenarioError(
                f"auto window ends at {spec.window[1]} ns, after "
                f"emulation_time {end} ns")
    if end < config.estimation_interval:
        raise ScenarioError("emulation_time shorter than estimation_interval")

    latency = run.get("control_latency")
    if latency is not None:
        control.default_c2s = latency
        control.default_s2c = latency
    return Scenario(
        name=name,
        topology_spec=topology.spec(),
        control=control,
        flows=tuple(flows.values()),
        contracts=tuple(contracts),
        explicit_injections=tuple(explicit),
        auto_link_failures=auto_e1,
        auto_ped_changes=auto_e2,
        emulation_time=end,
        config=config,
        seed=run.get("seed", 1),
        variant=run.get("variant", "SDN-RM"),
        source_text=text,
    )


def _known_switch(topology: Topology, switch: str) -> None:
    if not topology.has_switch(switch):
        raise ScenarioError(f"unknown switch {switch!r}")


def _parse_topology_line(word, tokens, topology, control) -> None:
    if word == "switches":
        if len(tokens) < 2:
            raise ScenarioError("switches <id> <id>...")
        for switch in tokens[1:]:
            topology.add_switch(switch)
    elif word == "switch":
        if len(tokens) != 2:
            raise ScenarioError("switch <id> (one per line)")
        topology.add_switch(tokens[1])
    elif word == "host":
        if len(tokens) != 3:
            raise ScenarioError("host <id> <switch>")
        topology.add_host(tokens[1], tokens[2])
    elif word == "link":
        if len(tokens) < 3:
            raise ScenarioError("link <a> <b> key=value...")
        kv = _parse_kv(tokens[3:], ("capacity", "propagation"),
                       required=("capacity",))
        topology.add_link(tokens[1], tokens[2], parse_rate(kv["capacity"]),
                          parse_time(kv.get("propagation", "0ns")))
    elif word == "control":
        if len(tokens) < 2 or "=" in tokens[1]:
            raise ScenarioError("control <switch> c2s=... s2c=...")
        kv = _parse_kv(tokens[2:], ("c2s", "s2c"),
                       required=("c2s", "s2c"))
        _known_switch(topology, tokens[1])
        if tokens[1] in control.per_switch:
            raise ScenarioError(f"second control line for {tokens[1]!r}")
        control.per_switch[tokens[1]] = (
            parse_time(kv["c2s"]), parse_time(kv["s2c"]))
    else:
        raise ScenarioError(f"unknown topology entry {word!r}")


def _parse_flow_line(word, tokens) -> Flow:
    if word != "flow" or len(tokens) < 4:
        raise ScenarioError("flow <id> <src_host> <dst_host> key=value...")
    kv = _parse_kv(tokens[4:], ("packet", "volume", "start", "gap"),
                   required=("volume",))
    return Flow(
        id=tokens[1], src_host=tokens[2], dst_host=tokens[3],
        packet_length=parse_size(kv.get("packet", "1500B")),
        total_volume=parse_size(kv["volume"]),
        start_time=parse_time(kv.get("start", "0s")),
        inter_packet_gap=parse_time(kv.get("gap", "0s")))


def _parse_contract_line(word, tokens) -> ContractSpec:
    if word != "contract" or len(tokens) < 4:
        raise ScenarioError("contract <id> <src> <dst> strong=... [weak=...]")
    kv = _parse_kv(tokens[4:], ("strong", "weak"),
                   required=("strong",))
    weak = kv.get("weak")
    return ContractSpec(
        pair_id=tokens[1], src=tokens[2], dst=tokens[3],
        strong_ped=parse_time(kv["strong"]),
        weak_ped=parse_time(weak) if weak is not None else None)


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return parse_time(lo), parse_time(hi)


def _parse_injection_line(word, tokens):
    if word == "at":
        if len(tokens) != 5:
            raise ScenarioError("at <time> <action> <arg> <arg>")
        at = parse_time(tokens[1])
        action = tokens[2]
        if action == "link_down":
            return LinkDownInjection(at=at, a=tokens[3], b=tokens[4])
        if action == "link_up":
            return LinkUpInjection(at=at, a=tokens[3], b=tokens[4])
        if action == "set_ped":
            return PedChangeInjection(at=at, pair_id=tokens[3],
                                      new_ped=parse_time(tokens[4]))
        if action == "scale_ped":
            return PedChangeInjection(at=at, pair_id=tokens[3],
                                      factor_ppm=parse_fraction_ppm(tokens[4]))
        raise ScenarioError(f"unknown injection {action!r}")
    if word == "auto_link_failures":
        kv = _parse_kv(tokens[1:], ("count", "window"),
                       required=("count", "window"))
        return AutoLinkFailures(count=int(kv["count"]),
                                window=_parse_window(kv["window"]))
    if word == "auto_ped_changes":
        flags = [t for t in tokens[1:] if "=" not in t]
        if flags not in ([], ["per_pair"]):
            raise ScenarioError(f"unknown flags {flags} (only per_pair)")
        keys = ("count", "window", "factor")
        kv = _parse_kv([t for t in tokens[1:] if "=" in t], keys,
                       required=keys)
        lo, _, hi = kv["factor"].partition("..")
        factor = (parse_fraction_ppm(lo), parse_fraction_ppm(hi))
        return AutoPedChanges(count=int(kv["count"]),
                              window=_parse_window(kv["window"]),
                              factor_ppm=factor, per_pair="per_pair" in flags)
    raise ScenarioError(f"unknown injection entry {word!r}")


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text, name=str(path))
