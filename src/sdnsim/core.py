"""Network model shared by the whole simulator.

Time is integer nanoseconds since simulation start; every delay computation
stays in exact integer arithmetic so runs are reproducible across platforms.
The topology is a graph of switches joined by bidirectional links with
symmetric capacity and propagation delay, plus hosts attached to exactly one
switch each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

# Time unit multipliers (nanoseconds).
NANOSECOND = 1
MICROSECOND = 1_000
MILLISECOND = 1_000_000
SECOND = 1_000_000_000

SwitchId = str
HostId = str
FlowId = str

# Placeholder delay used when a path has no finite estimate (dead or missing
# links).  Larger than any real delay so contract checks treat it as a
# violation.
UNBOUNDED_DELAY = 1 << 62


class TopologyError(ValueError):
    """Raised when a topology description fails validation."""


class LinkState(Enum):
    UP = "up"
    DOWN = "down"


# LinkState.UP read once: a member lookup on the enum costs about four
# times a module constant's, and hot loops test links against it.
LINK_UP = LinkState.UP


def link_key(a: SwitchId, b: SwitchId) -> tuple[SwitchId, SwitchId]:
    """Canonical unordered key for the link between two switches."""
    return (a, b) if a <= b else (b, a)


@dataclass
class Link:
    a: SwitchId
    b: SwitchId
    capacity_bps: int
    propagation_delay: int  # ns per direction
    state: LinkState = LinkState.UP

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise TopologyError(f"link {self.a}-{self.b}: capacity must be positive")
        if self.propagation_delay < 0:
            raise TopologyError(f"link {self.a}-{self.b}: negative propagation delay")

    @property
    def key(self) -> tuple[SwitchId, SwitchId]:
        return link_key(self.a, self.b)

    @property
    def is_up(self) -> bool:
        return self.state is LINK_UP


@dataclass(frozen=True)
class LinkSpec:
    a: SwitchId
    b: SwitchId
    capacity_bps: int
    propagation_delay: int


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a topology, validated by build_topology."""

    switches: tuple[SwitchId, ...]
    hosts: tuple[tuple[HostId, SwitchId], ...]
    links: tuple[LinkSpec, ...]


class Topology:
    """Switch/host/link graph, built one declaration at a time.

    add_switch, add_host and add_link hold every structural rule; after
    building, only set_link_state changes the graph.  Iteration orders
    follow declaration order so that downstream consumers stay
    deterministic.  version counts the link state changes so far, so a
    caller can tell whether any link moved since it last looked.
    """

    def __init__(self) -> None:
        self.switches: list[SwitchId] = []
        self.hosts: dict[HostId, SwitchId] = {}
        self.version = 0
        self._links: dict[tuple[SwitchId, SwitchId], Link] = {}
        self._adjacency: dict[SwitchId, tuple[tuple[SwitchId, Link], ...]] = {}

    def add_switch(self, switch: SwitchId) -> None:
        if switch in self._adjacency:
            raise TopologyError("duplicate switch id in topology spec")
        if switch in self.hosts:
            raise TopologyError(f"id {switch!r} used for both a host and a switch")
        self.switches.append(switch)
        self._adjacency[switch] = ()

    def add_host(self, host: HostId, attach: SwitchId) -> None:
        if host in self.hosts:
            raise TopologyError(f"host {host!r} attached more than once")
        if host in self._adjacency:
            raise TopologyError(f"id {host!r} used for both a host and a switch")
        if attach not in self._adjacency:
            raise TopologyError(f"host {host!r} attaches to unknown switch {attach!r}")
        self.hosts[host] = attach

    def add_link(self, a: SwitchId, b: SwitchId, capacity_bps: int,
                 propagation_delay: int) -> None:
        """Join two declared switches; the new link starts Up."""
        if a not in self._adjacency or b not in self._adjacency:
            raise TopologyError(f"link {a}-{b} references an unknown switch")
        if a == b:
            raise TopologyError(f"link {a}-{b} is a self loop")
        if link_key(a, b) in self._links:
            raise TopologyError(f"parallel link {a}-{b}")
        link = Link(a, b, capacity_bps, propagation_delay)
        self._links[link.key] = link
        for switch, neighbor in ((a, b), (b, a)):
            self._adjacency[switch] = tuple(sorted(
                self._adjacency[switch] + ((neighbor, link),),
                key=lambda pair: pair[0]))

    def links(self) -> list[Link]:
        return list(self._links.values())

    def link_between(self, a: SwitchId, b: SwitchId) -> Link:
        try:
            return self._links[link_key(a, b)]
        except KeyError:
            raise TopologyError(f"no link between {a} and {b}") from None

    def has_link(self, a: SwitchId, b: SwitchId) -> bool:
        return link_key(a, b) in self._links

    def adjacent(self, switch: SwitchId) -> tuple[tuple[SwitchId, Link], ...]:
        """(neighbor, Link) pairs of a switch, sorted by neighbor."""
        return self._adjacency.get(switch, ())

    def has_switch(self, switch: SwitchId) -> bool:
        return switch in self._adjacency

    def attachment(self, host: HostId) -> SwitchId:
        try:
            return self.hosts[host]
        except KeyError:
            raise TopologyError(f"unknown host {host!r}") from None

    def set_link_state(self, a: SwitchId, b: SwitchId, state: LinkState) -> None:
        """Flip a link up or down.  Idempotent when already in that state."""
        link = self.link_between(a, b)
        if link.state is not state:
            link.state = state
            self.version += 1

    def twin(self) -> Topology:
        """A copy with a new Link, in its current state, for every link;
        changing either topology's link states leaves the other's alone."""
        twin = Topology.__new__(Topology)
        twin.switches = list(self.switches)
        twin.hosts = dict(self.hosts)
        twin.version = self.version
        twin._links = links = {
            key: Link(link.a, link.b, link.capacity_bps,
                      link.propagation_delay, link.state)
            for key, link in self._links.items()}
        twin._adjacency = {
            switch: tuple((neighbor, links[link_key(switch, neighbor)])
                          for neighbor, _ in adjacent)
            for switch, adjacent in self._adjacency.items()}
        return twin

    def spec(self) -> TopologySpec:
        """The declarations this topology was built from, in order."""
        return TopologySpec(
            tuple(self.switches), tuple(self.hosts.items()),
            tuple(LinkSpec(link.a, link.b, link.capacity_bps,
                           link.propagation_delay) for link in self.links()))


def build_topology(spec: TopologySpec) -> Topology:
    """The Topology that spec declares, all links Up; the add methods
    check each declaration."""
    topology = Topology()
    for switch in spec.switches:
        topology.add_switch(switch)
    for host, attach in spec.hosts:
        topology.add_host(host, attach)
    for ls in spec.links:
        topology.add_link(ls.a, ls.b, ls.capacity_bps, ls.propagation_delay)
    return topology


def transmission_delay(packet_length_bits: int, bandwidth_bps: int) -> int:
    """Serialization time of a packet on a link, in ns, rounded to nearest.

    packet_length_bits / bandwidth_bps seconds, computed exactly in integers.
    """
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth must be positive")
    if packet_length_bits < 0:
        raise ValueError("packet length must be non-negative")
    return (packet_length_bits * SECOND + bandwidth_bps // 2) // bandwidth_bps


@dataclass(frozen=True)
class Flow:
    """A unidirectional packet stream between two hosts.

    Packets of packet_length bits leave the source every inter_packet_gap ns
    starting at start_time, until total_volume bits have been sent or the
    emulation ends.  A gap of 0 is only valid for a single-packet flow; a
    larger volume needs a positive gap.
    """

    id: FlowId
    src_host: HostId
    dst_host: HostId
    packet_length: int  # bits
    total_volume: int   # bits
    start_time: int     # ns
    inter_packet_gap: int  # ns

    def __post_init__(self) -> None:
        if self.packet_length <= 0:
            raise ValueError(f"flow {self.id}: packet_length must be positive")
        if self.total_volume < self.packet_length:
            raise ValueError(f"flow {self.id}: total_volume below one packet")
        if self.src_host == self.dst_host:
            raise ValueError(f"flow {self.id}: source equals destination")
        if self.start_time < 0 or self.inter_packet_gap < 0:
            raise ValueError(f"flow {self.id}: negative timing")
        if self.inter_packet_gap == 0 and self.total_volume > self.packet_length:
            raise ValueError(f"flow {self.id}: volume exceeds one packet, "
                             "so gap must be positive")


@dataclass
class SimConfig:
    """Simulation-wide parameters shared by kernel and controller."""

    estimation_interval: int = 10 * SECOND
    probe_length_bits: int = 12_000          # 1500 B reference packet
    recalc_cost: int = 100 * MICROSECOND    # path computation charge
    queue_limit: int = 5 * MILLISECOND      # max backlog wait per egress
    host_link_delay: int = 0                 # per host access hop
    eq1_raw_mode: bool = False               # undivided estimator residual

    def __post_init__(self) -> None:
        if self.estimation_interval <= 0:
            raise ValueError("estimation interval must be positive")
        if self.probe_length_bits <= 0:
            raise ValueError("probe length must be positive")
        for name in ("recalc_cost", "queue_limit", "host_link_delay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must not be negative")


@dataclass
class ControlChannel:
    """Controller-to-switch latency model, per direction and per switch."""

    default_c2s: int = 250 * MICROSECOND
    default_s2c: int = 250 * MICROSECOND
    per_switch: dict[SwitchId, tuple[int, int]] = field(default_factory=dict)

    def c2s(self, switch: SwitchId) -> int:
        return self.per_switch.get(switch, (self.default_c2s, self.default_s2c))[0]

    def s2c(self, switch: SwitchId) -> int:
        return self.per_switch.get(switch, (self.default_c2s, self.default_s2c))[1]

    def echo_rtt(self, switch: SwitchId) -> int:
        return self.c2s(switch) + self.s2c(switch)
