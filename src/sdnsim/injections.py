"""The E1/E2 event model: link failures and delay-requirement changes.

An injection is an external event at a fixed time: a link going down or
up (E1), or a run-time change of a contract's delay requirement (E2).  A
run's injections are the scenario's explicit ones plus those its auto
specs generate for the run's seed; sweeping the event count slices them.

Auto-generated injections are seeded: a run asking for k events uses the
chronologically first k of a per-seed master schedule of max(k, 8) events.
Event counts nest (sweeping the count only adds later events) only for
counts up to MASTER_EVENT_POOL and only without per_pair: a larger count
draws a longer master schedule, and per_pair draws each contract's times
after the previous contract's count factors.  Generated link failures
follow the path a well-managed controller would be using at that moment
(computed on an idle copy of the topology, independent of any mechanism
variant), which is what makes an injected failure actually exercise fault
handling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .contracts import ContractError, ContractKind
from .core import (
    ControlChannel,
    LinkState,
    SwitchId,
    build_topology,
    link_key,
)
from .delay_estimation import ProbePlan, run_estimation_cycle
from .routing import NoPathError, find_path

# Master schedules are generated at this length (or the count, if larger);
# counts take a chronological prefix, so event counts up to this length
# nest, unless per_pair interleaves contracts' times with earlier factors.
MASTER_EVENT_POOL = 8


@dataclass(frozen=True)
class LinkDownInjection:
    at: int
    a: SwitchId
    b: SwitchId
    kind: str = "link_down"


@dataclass(frozen=True)
class LinkUpInjection:
    at: int
    a: SwitchId
    b: SwitchId
    kind: str = "link_up"


@dataclass(frozen=True)
class PedChangeInjection:
    """Runtime change of a pair's strong delay requirement.

    Exactly one of a positive new bound (new_ped) or a positive factor in
    parts per million (factor_ppm) applied to the current bound.
    contract_kind is always STRONG; it stays a field as part of the
    serialized log.
    """

    at: int
    pair_id: str
    new_ped: int | None = None
    factor_ppm: int | None = None
    contract_kind: ContractKind = ContractKind.STRONG
    kind: str = "ped_change"

    def __post_init__(self) -> None:
        if (self.new_ped is None) == (self.factor_ppm is None):
            raise ContractError("a ped change needs exactly one of new_ped "
                                "and factor_ppm")
        if self.new_ped is not None and self.new_ped <= 0:
            raise ContractError("ped must be positive")
        if self.factor_ppm is not None and self.factor_ppm <= 0:
            raise ContractError("ped factor must be positive")
        if self.contract_kind is not ContractKind.STRONG:
            raise ContractError("a ped change applies to the strong contract")


Injection = LinkDownInjection | LinkUpInjection | PedChangeInjection


def first_events(injections: tuple[Injection, ...],
                 count: int) -> tuple[Injection, ...]:
    """The injections of the chronologically first count events, in their
    original order.  A link_up joins the event of the open link_down of
    the same link; any other injection is an event of its own."""
    events: list[list[int]] = []
    open_down: dict[tuple[str, str], list[int]] = {}
    order = sorted(range(len(injections)), key=lambda i: injections[i].at)
    for index in order:
        inj = injections[index]
        if isinstance(inj, LinkUpInjection) and \
                link_key(inj.a, inj.b) in open_down:
            open_down.pop(link_key(inj.a, inj.b)).append(index)
            continue
        events.append([index])
        if isinstance(inj, LinkDownInjection):
            open_down.setdefault(link_key(inj.a, inj.b), events[-1])
    kept = {index for event in events[:count] for index in event}
    return tuple(inj for index, inj in enumerate(injections) if index in kept)


# ---------------------------------------------------------------------------
# seeded injection generation


def _idle_matrix(topology, probe_bits: int):
    matrix, _ = run_estimation_cycle(
        ProbePlan(topology, ControlChannel(), probe_bits), 0)
    return matrix


def _sorted_times(rng: random.Random, count: int,
                  window: tuple[int, int]) -> list[int]:
    """count distinct instants drawn from [window[0], window[1]); an auto
    spec's window is at least its master schedule's length wide."""
    times: set[int] = set()
    while len(times) < count:
        times.add(rng.randrange(window[0], window[1]))
    return sorted(times)


def _components(topology) -> dict[str, str]:
    """Each switch's connected component over Up links, labelled by the
    component's first switch."""
    label: dict[str, str] = {}
    for root in topology.switches:
        if root in label:
            continue
        label[root] = root
        frontier = [root]
        while frontier:
            for neighbor, link in topology.adjacent(frontier.pop()):
                if neighbor not in label and link.state is LinkState.UP:
                    label[neighbor] = root
                    frontier.append(neighbor)
    return label


def _severable(topology, pairs, a: str, b: str) -> bool:
    """True when taking link a-b down leaves every pair connected."""
    topology.set_link_state(a, b, LinkState.DOWN)
    try:
        label = _components(topology)
        return all(label.get(src, src) == label.get(dst, dst)
                   for src, dst in pairs)
    finally:
        topology.set_link_state(a, b, LinkState.UP)


def _measured_pairs(scenario) -> tuple[tuple[str, str], ...]:
    """The contracts' (src, dst) pairs or, without contracts, each flow's
    (ingress, egress) switch pair once, in flow order."""
    if scenario.contracts:
        return tuple((c.src, c.dst) for c in scenario.contracts)
    attached = dict(scenario.topology_spec.hosts)
    return tuple(dict.fromkeys(
        (attached[flow.src_host], attached[flow.dst_host])
        for flow in scenario.flows))


def _expected_path_diary(topology_spec, pairs, probe_bits: int,
                         rng: random.Random,
                         times: list[int]) -> list[LinkDownInjection]:
    """Pick one live link per failure, following expected traffic paths.

    A scratch topology accumulates the failures so the k-th pick lands on
    the path traffic would occupy after the first k-1 failures.  Pair
    choice and link choice are seeded; the result does not depend on any
    mechanism variant.  A pick never severs a measured pair: the tests
    probe fault handling, and a partition leaves nothing to handle.
    """
    topology = build_topology(topology_spec)
    # Idle costs do not depend on which links are down, and find_path skips
    # down links, so one matrix serves every pick.
    matrix = _idle_matrix(topology, probe_bits)
    injections: list[LinkDownInjection] = []
    for at in times:
        candidates: list[tuple[str, str]] = []
        order = list(range(len(pairs)))
        rng.shuffle(order)
        for index in order:
            src, dst = pairs[index]
            try:
                route = find_path(topology, matrix, src, dst)
            except NoPathError:
                continue
            hops = [(a, b) for a, b in zip(route.path, route.path[1:])
                    if _severable(topology, pairs, a, b)]
            if hops:
                candidates = hops
                break
        if not candidates:
            candidates = [(link.a, link.b)
                          for link in topology.links() if link.is_up
                          if _severable(topology, pairs, link.a, link.b)]
        if not candidates:
            continue  # nothing can fail without a partition; skip this event
        a, b = candidates[rng.randrange(len(candidates))]
        injections.append(LinkDownInjection(at=at, a=a, b=b))
        topology.set_link_state(a, b, LinkState.DOWN)
    return injections


def materialize_injections(scenario, seed: int,
                           diaries: dict | None = None) -> list[Injection]:
    """Expand a Scenario's auto specs into concrete injections for one
    seeded run, after its explicit ones, sorted by time.

    The scenario is read by attribute (explicit_injections, the two auto
    specs, contracts, flows, topology_spec, config).  Counts take a
    chronological prefix of a master schedule of max(count,
    MASTER_EVENT_POOL) events.  Without per_pair, counts up to
    MASTER_EVENT_POOL under the same seed therefore share their earliest
    events.  A larger count re-draws the master schedule, and per_pair
    draws each contract's times after the previous contract's count
    factors, so neither nests.

    diaries, when given, keeps each master link-failure diary under every
    input that draws it (topology, measured pairs, probe length, seed,
    master length and window), so calls that share those inputs, as an
    event-count sweep's do, draw it once.
    """
    injections: list[Injection] = list(scenario.explicit_injections)

    spec_e1 = scenario.auto_link_failures
    if spec_e1 is not None and spec_e1.count > 0:
        master = max(spec_e1.count, MASTER_EVENT_POOL)
        pairs = _measured_pairs(scenario)
        probe_bits = scenario.config.probe_length_bits
        key = (scenario.topology_spec, pairs, probe_bits, seed, master,
               spec_e1.window)
        if diaries is None:
            diaries = {}
        diary = diaries.get(key)
        if diary is None:
            rng = random.Random(f"{seed}:link-failures")
            times = _sorted_times(rng, master, spec_e1.window)
            diary = diaries[key] = _expected_path_diary(
                scenario.topology_spec, pairs, probe_bits, rng, times)
        injections.extend(diary[:spec_e1.count])

    spec_e2 = scenario.auto_ped_changes
    if spec_e2 is not None and spec_e2.count > 0:
        rng = random.Random(f"{seed}:ped-changes")
        master = max(spec_e2.count, MASTER_EVENT_POOL)
        lo, hi = spec_e2.factor_ppm
        if spec_e2.per_pair:
            for contract in scenario.contracts:
                times = _sorted_times(rng, master, spec_e2.window)
                for at in times[:spec_e2.count]:
                    injections.append(PedChangeInjection(
                        at=at, pair_id=contract.pair_id,
                        factor_ppm=rng.randint(lo, hi)))
        else:
            times = _sorted_times(rng, master, spec_e2.window)
            pair_ids = [c.pair_id for c in scenario.contracts]
            schedule = [(at, pair_ids[rng.randrange(len(pair_ids))],
                         rng.randint(lo, hi)) for at in times]
            for at, pair_id, factor in schedule[:spec_e2.count]:
                injections.append(PedChangeInjection(
                    at=at, pair_id=pair_id, factor_ppm=factor))

    injections.sort(key=lambda inj: inj.at)
    return injections
