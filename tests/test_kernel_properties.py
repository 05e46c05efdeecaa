"""Kernel invariants over random small chains and rings.

Random flows cross random chains and rings while links go down and come
back up, so packets follow hop plans across link flaps and reroutes.  The
invariants are checked against the topology spec, not the kernel's own
state:

- every packet is delivered xor dropped, with a known drop reason;
- a delivered packet took at least the propagation plus transmission
  delay of every hop on its path, plus the two host access links;
- scheduling before the current time raises ScheduleError, mid-run and
  after the horizon, in both forms of schedule_call;
- each egress link's busy-until time never decreases;
- every experiment, with all its shortcuts, equals the naive oracle in
  conftest in its reports, report files, sample log and run logs, each
  log as written and as read record by record, also when packets ask
  for routes just after the runs' failures, and, as extra cases, when a
  link flap or an unmet bound falls between proactive cycles, when
  flows share a gap that puts the cycle boundaries on the period grid
  and a link on a flow's route fails between two boundaries, or when a
  burst whose gap is below its path's latency straddles a boundary off
  that grid beside one other flow, which sends with a longer gap while
  the route's last link flaps inside the burst, or with the burst's gap
  to a host on its route, with a link failure or a bound change inside
  the burst in some examples.
"""

import dataclasses
import os
import tempfile

import pytest
from hypothesis import event, given, settings, strategies as st

from sdnsim import resilience
from sdnsim.harness import emit_reports
from sdnsim.contracts import create_contract_pair
from sdnsim.core import (
    ControlChannel,
    Flow,
    LinkSpec,
    MICROSECOND,
    MILLISECOND,
    SECOND,
    SimConfig,
    TopologySpec,
    build_topology,
    transmission_delay,
)
from sdnsim.delay_estimation import ProbePlan
from sdnsim.injections import (
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
    materialize_injections,
)
from sdnsim.kernel import Kernel, ScheduleError
from sdnsim.resilience import VARIANT_ALIASES, variant_by_name
from sdnsim.routing import find_path
from sdnsim.runlog import Part
from sdnsim.scenario import (
    AutoLinkFailures,
    AutoPedChanges,
    ContractSpec,
    Scenario,
)

from conftest import (
    naive_experiment,
    recorded_experiment,
    reference_jsonl,
)

MS = MILLISECOND
HORIZON = 3 * SECOND
DROP_REASONS = {"no_route", "link_down", "queue_overflow", "end_of_run"}
CAPACITIES = (1_000_000, 10_000_000, 100_000_000, 1_000_000_000)


@st.composite
def networks(draw, max_packets=30, max_gap=50 * MS, interval=SECOND,
             shared_gap=False):
    """(TopologySpec, flows, contract pairs, injections, variant, config).

    With shared_gap every flow sends with one drawn gap, single-packet
    flows too, so that the kernel may fast-forward.  Its periods start at
    multiples of the gap, so there flows often start on or next to such
    a multiple, often send one packet, and injections often fall on or
    next to a flow's tick, often a link down and up at one instant, with
    no host delay in some networks: then a flow may start and end, or a
    packet enter a link as it goes down, inside a period that would
    otherwise be replicated."""
    n = draw(st.integers(2, 6))
    ring = n >= 3 and draw(st.booleans())
    switches = tuple(f"S{i}" for i in range(1, n + 1))
    ends = [(f"S{i}", f"S{i + 1}") for i in range(1, n)]
    if ring:
        ends.append((f"S{n}", "S1"))
    links = tuple(LinkSpec(a, b, draw(st.sampled_from(CAPACITIES)),
                           draw(st.integers(0, 2 * MS)))
                  for a, b in ends)
    hosts = tuple((f"H{i}", f"S{i}") for i in range(1, n + 1))

    # Half of the shared gaps are long enough for packets to arrive within
    # one period, which integers() alone rarely draws.
    gap = draw(st.integers(MICROSECOND, max_gap)
               | st.integers(max_gap // 2, max_gap)) if shared_gap else None

    def near(instant: int) -> int:
        return max(0, instant + draw(st.just(0) | st.sampled_from((1, -1))))

    def tick(flow: Flow) -> int:
        return flow.start_time + gap * draw(st.sampled_from(range(
            flow.total_volume // flow.packet_length)))

    flows = []
    for index in range(draw(st.integers(1, 4))):
        src, dst = draw(st.lists(st.sampled_from([h for h, _ in hosts]),
                                 min_size=2, max_size=2, unique=True))
        length = draw(st.integers(1_000, 12_000))
        count = draw(st.integers(1, max_packets))
        start = draw(st.integers(0, SECOND))
        if gap:
            if index:
                count = draw(st.just(1) | st.integers(1, max_packets))
            where = draw(st.just("tick") | st.sampled_from((
                "period", "any"))) if flows else "period"
            if where == "tick":
                anchor = draw(st.sampled_from(flows))
                start = near(tick(anchor))
                if draw(st.booleans()):  # the anchor's pair, already routed
                    src, dst = anchor.src_host, anchor.dst_host
            elif where == "period":
                start = near(start - start % gap)
        flows.append(Flow(
            id=f"F{index}", src_host=src, dst_host=dst, packet_length=length,
            total_volume=count * length, start_time=start,
            inter_packet_gap=gap or (0 if count == 1 else draw(
                st.integers(MICROSECOND, max_gap)))))

    first = flows[0]
    contracts = [create_contract_pair(
        "C1", dict(hosts)[first.src_host], dict(hosts)[first.dst_host],
        draw(st.integers(MS, 20 * MS)))]

    injections = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(ends))
        down = draw(st.integers(0, HORIZON))
        up = down + draw(st.integers(0, SECOND))
        if gap:
            flow = draw(st.sampled_from(flows))
            source = dict(hosts)[flow.src_host]
            a, b = draw(st.sampled_from([e for e in ends if source in e])
                        | st.sampled_from(ends))
            down = near(tick(flow))
            up = down + draw(st.just(0) | st.integers(0, SECOND))
        injections.append(LinkDownInjection(at=down, a=a, b=b))
        if gap and up == down or draw(st.booleans()):
            injections.append(LinkUpInjection(at=up, a=a, b=b))
    injections.sort(key=lambda inj: inj.at)

    variant = draw(st.sampled_from(sorted(VARIANT_ALIASES)))
    config = SimConfig(estimation_interval=interval,
                       queue_limit=draw(st.integers(0, 5 * MS)),
                       host_link_delay=draw(st.integers(0, MS)) if not gap
                       else draw(st.just(0) | st.integers(0, MS)))
    return (TopologySpec(switches, hosts, links), flows, contracts,
            injections, variant, config)


def path_floor(spec, path, length, host_link_delay):
    """Smallest possible delay of a packet along path: no queueing."""
    links = {frozenset((ls.a, ls.b)): ls for ls in spec.links}
    floor = 2 * host_link_delay
    for a, b in zip(path, path[1:]):
        link = links[frozenset((a, b))]
        floor += link.propagation_delay + transmission_delay(
            length, link.capacity_bps)
    return floor


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(0, HORIZON))
def test_packets_delivered_xor_dropped_no_faster_than_their_path(
        network, probe_at):
    spec, flows, contracts, injections, variant, config = network
    kernel = Kernel(build_topology(spec), flows, contracts,
                    variant_by_name(variant), config, ControlChannel())
    kernel.setup(HORIZON, injections)

    rejected = []

    def schedule_into_the_past(at):
        for extra in ((), ("arg",)):
            with pytest.raises(ScheduleError):
                kernel.schedule_call(at - 1, lambda *args: None, *extra)
        rejected.append(at)

    kernel.schedule_call(probe_at, schedule_into_the_past)
    kernel.run_until(HORIZON)

    assert rejected == [probe_at]
    with pytest.raises(ScheduleError):
        kernel.schedule_call(HORIZON - 1, lambda at: None)

    lengths = {flow.id: flow.packet_length for flow in flows}
    assert len(kernel.log.packets) > 0
    for record in kernel.log.packets:
        delivered = record.delivered_at is not None
        assert delivered != (record.drop_reason is not None)
        if not delivered:
            assert record.drop_reason in DROP_REASONS
            continue
        assert record.length == lengths[record.flow_id]
        assert record.actual_delay == record.delivered_at - record.sent_at
        assert record.actual_delay >= path_floor(
            spec, record.path, record.length, config.host_link_delay)


def network_kernel(network):
    """A kernel set up for network."""
    spec, flows, contracts, injections, variant, config = network
    kernel = Kernel(build_topology(spec), flows, contracts,
                    variant_by_name(variant), config, ControlChannel())
    kernel.setup(HORIZON, injections)
    return kernel


class MonotoneEgress(dict):
    """Busy-until times that fail the run if one ever moves back."""

    def __setitem__(self, egress, free):
        assert free >= self.get(egress, 0), (egress, self.get(egress), free)
        super().__setitem__(egress, free)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_egress_busy_until_never_decreases(network):
    kernel = network_kernel(network)
    kernel.egress_free = MonotoneEgress()
    kernel.run_until(HORIZON)


@st.composite
def scenarios(draw):
    """A Scenario around networks(), with dense flows and explicit
    injections that put branch points where sharing is delicate: down/up
    pairs, equal-time injections, requirement changes, and failures within
    the control latency of each other.  Some also carry auto specs, so
    that seeds draw different lists."""
    spec, flows, contracts, injections, _, config = draw(networks(
        max_packets=60, max_gap=5 * MS, shared_gap=draw(st.booleans())))
    latency = draw(st.sampled_from((100 * MICROSECOND, 250 * MICROSECOND,
                                    MS)))
    ends = [(link.a, link.b) for link in spec.links]
    extra = []
    for _ in range(draw(st.integers(1, 4))):
        # Often while a flow sends, so that egresses may be queued.
        flow = draw(st.sampled_from(flows))
        sending = flow.total_volume // flow.packet_length * \
            flow.inter_packet_gap
        at = draw(st.one_of(st.integers(0, HORIZON), st.integers(
            flow.start_time, flow.start_time + sending)))
        kind = draw(st.sampled_from(("burst", "ped", "same_time")))
        if kind == "burst":
            for _ in range(2):
                a, b = draw(st.sampled_from(ends))
                extra.append(LinkDownInjection(at=at, a=a, b=b))
                at += draw(st.integers(0, latency))
        elif kind == "ped":
            if draw(st.booleans()):
                change = {"new_ped": draw(st.integers(MS, 20 * MS))}
            else:
                change = {"factor_ppm": draw(st.integers(300_000, 1_500_000))}
            extra.append(PedChangeInjection(at=at, pair_id="C1", **change))
        elif injections or extra:
            other = draw(st.sampled_from(injections + extra))
            toggle = draw(st.sampled_from((LinkDownInjection, LinkUpInjection)))
            a, b = draw(st.sampled_from(ends))
            extra.append(toggle(at=other.at, a=a, b=b))
    explicit = injections + extra
    if draw(st.booleans()):
        explicit.sort(key=lambda inj: inj.at)
    window = (0, HORIZON)
    auto_e1 = auto_e2 = None
    if draw(st.booleans()):
        auto_e1 = AutoLinkFailures(count=draw(st.integers(0, 3)),
                                   window=window)
    if draw(st.booleans()):
        auto_e2 = AutoPedChanges(count=draw(st.integers(0, 3)),
                                 window=window,
                                 factor_ppm=(500_000, 900_000),
                                 per_pair=draw(st.booleans()))
    pair = contracts[0]
    return Scenario(
        name="random", topology_spec=spec,
        control=ControlChannel(default_c2s=latency, default_s2c=latency),
        flows=tuple(flows),
        contracts=(ContractSpec(pair.id, pair.src, pair.dst,
                                pair.strong_ped, None),),
        explicit_injections=tuple(explicit), auto_link_failures=auto_e1,
        auto_ped_changes=auto_e2, emulation_time=HORIZON, config=config)


def idle_matrix(scenario):
    """The costs an estimation cycle finds in scenario's idle network."""
    topology = build_topology(scenario.topology_spec)
    matrix, _ = resilience.run_estimation_cycle(ProbePlan(
        topology, scenario.control, scenario.config.probe_length_bits,
        scenario.config.eq1_raw_mode), topology, 0)
    return matrix


def crosses(part, instant):
    """Whether a replicated packet part sends both before and after
    instant."""
    sent = [record.sent_at for record in part]
    return min(sent) < instant < max(sent)


def in_flight(packets):
    """For each replicated packet part, whether a packet sent after it was
    still in flight when the part's last copy finished."""
    parts = packets.parts()
    for part, following in zip(parts, parts[1:]):
        if part.steps and len(following):
            [last] = Part(part.template[-1:], part.first + part.n - 1, 1,
                          part.steps)
            done = last.delivered_at or last.sent_at
            yield next(iter(following)).sent_at < done


def report_files(result) -> dict[str, bytes]:
    """emit_reports' files for result, by name."""
    with tempfile.TemporaryDirectory() as out:
        written = emit_reports(result, out)
        files = {}
        for path in written:
            with open(path, "rb") as handle:
                files[os.path.basename(path)] = handle.read()
        return files


@settings(max_examples=160, deadline=None)
@given(scenarios(), st.data())
def test_every_experiment_equals_the_naive_oracle(scenario, data):
    """Shared kernels, branches, fast-forward, packets run on inline, idle
    estimation templates, replayed proactive cycles, the shared route
    memo, the diary memo, scoring by bound spans and the slotted log
    writer together: the same reports, report bytes, sample log and run
    logs as naive_experiment, with each log written by json.dumps per
    record, and each of ours also written by its own writer."""
    variants = data.draw(st.lists(st.sampled_from(sorted(VARIANT_ALIASES)),
                                  min_size=1, max_size=4, unique=True))
    seeds = [1, 2, 3]
    sweep = data.draw(st.none() | st.builds(
        lambda counts: ("events", sorted(counts)),
        st.sets(st.integers(0, 5), min_size=2, max_size=3)))
    # What an idle cycle's replay must notice, drawn as an extra case.  On
    # a ring, a flap of the first link of the first flow's route in the
    # idle network, ending just before the boundary at 1 s: a reactive
    # reroute answers it and becomes active only after the boundary,
    # whose cycle may find the old path up and stay idle; the second
    # packet of a flow on the first flow's pair, sent after the next
    # boundary, takes the path that cycle leaves.  In this case the ring's
    # other link failures come after that packet, as links left down
    # across the flap mostly hide it.  On a chain, which has one path per
    # pair, a requirement change between later boundaries to a bound that
    # no path meets, which the following cycles must each find.
    spec, first = scenario.topology_spec, scenario.flows[0]
    latency = scenario.control.default_c2s
    flows, explicit, probes = (scenario.flows,
                               list(scenario.explicit_injections), ())
    auto = scenario.auto_link_failures
    extra, grid, pipelined = data.draw(st.booleans()), False, False
    if extra and len(spec.links) == len(spec.switches):  # a ring
        after = 2 * SECOND + 4 * latency
        if not {"RM", "sRM"} & set(variants):
            variants.append("RM")  # a reactive variant answers the flap
        hosts = dict(spec.hosts)
        a, b = find_path(build_topology(spec), idle_matrix(scenario),
                         hosts[first.src_host], hosts[first.dst_host]).path[:2]
        explicit = [inj for inj in explicit if inj.at >= after] + [
            LinkDownInjection(at=SECOND - 2 * latency + 1, a=a, b=b),
            LinkUpInjection(at=SECOND - 1, a=a, b=b)]
        probes = (dataclasses.replace(
            first, id="R", total_volume=2 * first.packet_length,
            start_time=SECOND - 2 * latency,
            inter_packet_gap=SECOND + 5 * latency),)
        auto = AutoLinkFailures(
            count=auto.count if auto else data.draw(st.integers(1, 3)),
            window=(after, HORIZON))
    elif extra:
        explicit.append(PedChangeInjection(
            at=data.draw(st.integers(SECOND + 1, HORIZON - 1)),
            pair_id="C1", new_ped=1))
    elif pipelined := data.draw(st.booleans()):
        # Pipelined periods, as another extra case: a burst B on the first
        # flow's pair whose gap is below its path latency, at the path's
        # line rate in some examples, so that packets are in flight at
        # every period instant once it has filled the path, and whose sends
        # straddle the boundary at 1 s, mostly off the gap's grid.  The
        # first flow, the only other one, either sends beside it with a
        # longer gap while the route's last link flaps inside the burst, or
        # leads with B's gap to a host on B's route short of its end, where
        # the route has one, so that its finished records interleave with
        # B's in flight; then, in some examples, a link of the route fails
        # or the bound changes inside the burst.  A flap (down and up at
        # one instant) loses the packets on the link then, and nothing
        # behind them shows the loss; B is sent in the phase that puts a
        # packet on the link at a period instant just after the flap, lost
        # where the next packet stands a period later.  Every other
        # injection comes after the burst.
        hosts = dict(spec.hosts)
        path = find_path(build_topology(spec), idle_matrix(scenario),
                         hosts[first.src_host], hosts[first.dst_host]).path
        specs = {frozenset((link.a, link.b)): link for link in spec.links}
        hops = [specs[frozenset(ends)] for ends in zip(path, path[1:])]
        line = max(transmission_delay(first.packet_length, link.capacity_bps)
                   for link in hops)
        on_hop = [link.propagation_delay + transmission_delay(
            first.packet_length, link.capacity_bps) for link in hops]
        latency = sum(on_hop)
        low = max(line, latency // 40)
        gap = data.draw(st.just(low) | st.integers(low, max(low, latency // 8))
                        | st.integers(low, max(low, latency - 1)))
        count = latency // gap + data.draw(st.integers(
            10, max(10, min(60, SECOND // 2 // gap))))
        start = SECOND - data.draw(st.integers(1, count - 1)) * gap - \
            data.draw(st.integers(0, gap - 1))
        end = start + count * gap
        kind = "flap" if (beside := data.draw(st.booleans())) else \
            data.draw(st.sampled_from((None, "failure", "ped")))
        if kind == "flap":
            # B's packets enter the last link `ahead` before a period
            # instant, `enter` after they are sent; the flap falls between
            # for a packet sent while B still sends a few periods on.
            enter = scenario.config.host_link_delay + latency - on_hop[-1]
            ahead = data.draw(st.integers(1, max(1, min(on_hop[-1], gap) - 1)))
            start -= (start + enter + ahead) % gap
            end = start + count * gap
            first_full = latency // gap + 2
            at = start + enter + data.draw(st.integers(first_full, max(
                first_full, count - 4 - enter // gap))) * gap + data.draw(
                    st.integers(0, ahead - 1))
        else:
            at = data.draw(st.integers(start + latency, end))
        if beside:
            flows = (dataclasses.replace(
                first, start_time=data.draw(st.integers(0, end)),
                inter_packet_gap=data.draw(st.integers(2 * gap, end - start)),
                total_volume=data.draw(st.integers(1, 20))
                * first.packet_length),)
        else:
            inner = [host for host, switch in spec.hosts
                     if switch in path[1:-1]]
            flows = (dataclasses.replace(
                first, dst_host=data.draw(st.sampled_from(inner or sorted(
                    set(hosts) - {first.src_host}))),
                start_time=data.draw(st.integers(start, start + latency)),
                inter_packet_gap=gap,
                total_volume=data.draw(st.integers(count // 2, count))
                * first.packet_length),)
        probes = (Flow(id="B", src_host=first.src_host,
                       dst_host=first.dst_host,
                       packet_length=first.packet_length,
                       total_volume=count * first.packet_length,
                       start_time=start, inter_packet_gap=gap),)
        after = end + latency
        explicit = [inj for inj in explicit if inj.at >= after]
        if kind == "flap":
            link = hops[-1]
            explicit += [LinkDownInjection(at=at, a=link.a, b=link.b),
                         LinkUpInjection(at=at, a=link.a, b=link.b)]
        elif kind == "failure":
            link = data.draw(st.sampled_from(hops))
            explicit.append(LinkDownInjection(at=at, a=link.a, b=link.b))
        elif kind == "ped":
            explicit.append(PedChangeInjection(
                at=at, pair_id="C1",
                factor_ppm=data.draw(st.integers(300_000, 1_500_000))))
        auto = AutoLinkFailures(
            count=auto.count if auto else data.draw(st.integers(1, 3)),
            window=(min(after, HORIZON), HORIZON))
    elif grid := data.draw(st.booleans()):
        # Boundaries on the period grid, as a third extra case: every flow
        # sends with one gap that divides the 1 s interval, and a flow on
        # the first flow's pair reversed, which no contract covers, sends
        # until the horizon, so that runs replicate up to the boundaries
        # at 1 s and 2 s and through them.  The first link of its idle
        # route goes down between the two and stays down: replicated
        # periods hold its dropped packets, and on a ring the proactive
        # cycle at 2 s reroutes it (SDN-pRM, added if missing, reacts no
        # sooner).  Every other injection comes after 2.25 s, so that none
        # cuts the detour or stops replication next to 2 s.
        gap = data.draw(st.sampled_from((10 * MS, 20 * MS, 25 * MS,
                                         50 * MS)))
        if "pRM" not in variants:
            variants.append("pRM")
        hosts = dict(spec.hosts)
        a, b = find_path(build_topology(spec), idle_matrix(scenario),
                         hosts[first.dst_host], hosts[first.src_host]).path[:2]
        start = data.draw(st.integers(0, SECOND))
        flows = tuple(dataclasses.replace(flow, inter_packet_gap=gap)
                      for flow in flows)
        probes = (dataclasses.replace(
            first, id="G", src_host=first.dst_host, dst_host=first.src_host,
            start_time=start, inter_packet_gap=gap,
            total_volume=(HORIZON - start) // gap * first.packet_length),)
        after = 2 * SECOND + SECOND // 4
        explicit = [inj for inj in explicit if inj.at >= after] + [
            LinkDownInjection(at=data.draw(st.integers(
                SECOND + 2 * gap, 2 * SECOND - 4 * gap)), a=a, b=b)]
        auto = AutoLinkFailures(
            count=auto.count if auto else data.draw(st.integers(1, 3)),
            window=(after, HORIZON))
    # Only an auto spec fails different links under different seeds.
    if auto is None:
        auto = AutoLinkFailures(count=data.draw(st.integers(1, 3)),
                                window=(0, HORIZON))
    scenario = dataclasses.replace(
        scenario, flows=flows + probes,
        explicit_injections=tuple(explicit), auto_link_failures=auto)
    # A packet sent just after each failure of any run asks for a route
    # where runs may stand at one topology version with other links down.
    # It keeps the first flow's gap, so flows that share one still do.
    per_value = [scenario] if sweep is None else [
        scenario.with_event_count(count) for count in sweep[1]]
    # None follows a failure inside a pipelined burst, where its packet
    # would hide the periods that the burst's packets in flight make.
    failures = sorted({inj.at for each in per_value for seed in seeds
                       for inj in materialize_injections(each, seed)
                       if type(inj) is LinkDownInjection
                       and not (pipelined and inj.at < after)})
    hosts = [host for host, _ in scenario.topology_spec.hosts]
    late = tuple(Flow(id=f"L{index}", src_host=src, dst_host=dst,
                      packet_length=1_000, total_volume=1_000,
                      start_time=at + 1,
                      inter_packet_gap=scenario.flows[0].inter_packet_gap)
                 for index, at in enumerate(failures)
                 for src, dst in [data.draw(st.lists(
                     st.sampled_from(hosts), min_size=2, max_size=2,
                     unique=True))])
    scenario = dataclasses.replace(scenario, flows=scenario.flows + late)
    ours, runs = recorded_experiment(scenario, variants, seeds, sweep)
    naive, naive_runs = naive_experiment(scenario, variants, seeds, sweep)
    assert ours.cells == naive.cells
    assert report_files(ours) == report_files(naive)
    assert ours.sample_log.to_jsonl() == reference_jsonl(naive.sample_log)
    # Two sweep values may give one scenario, so runs match by their inputs.
    logs = [(variant, seed, swept, reference_jsonl(done.log))
            for swept, variant, seed, done in naive_runs]
    assert len(runs) == len(logs)
    for swept, variant, seed, done in runs:
        # Each log as written and as read record by record, so that every
        # copy of a replicated part is built.
        for text in (done.log.to_jsonl(), reference_jsonl(done.log)):
            assert (variant, seed, swept, text) in logs
        if any(record.delivered_at is None for part in done.log.packets.closed
               if part.steps for record in part.template):
            event("a replicated packet part holds a dropped packet")
        if grid and any(
                crosses(part, SECOND) or crosses(part, 2 * SECOND)
                for part in done.log.packets.closed if part.steps):
            event("replicated through a boundary on the period grid")
        if pipelined and any(in_flight(done.log.packets)):
            event("replicated periods with packets in flight")
