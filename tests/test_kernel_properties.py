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
- every route the controller hands out, memoized or not, equals a fresh
  find_path over the topology and cost matrix of that moment;
- every estimation cycle, run with the run's probe plan, yields the costs
  and records of a cycle with a fresh plan at the same instant and waits;
- every run of an experiment, whose runs share kernel work, equals a
  fresh run_single, log and metrics alike;
- every run whose flows share one gap, so that the kernel fast-forwards
  through repeated periods, equals the same run simulated in full.
"""

import pytest
from hypothesis import event, given, settings, strategies as st

from sdnsim import resilience
from sdnsim.contracts import create_contract_pair
from sdnsim.core import (
    ControlChannel,
    Flow,
    LinkSpec,
    LinkState,
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
)
from sdnsim.kernel import Kernel, ScheduleError
from sdnsim.resilience import VARIANT_ALIASES, variant_by_name
from sdnsim.routing import NoPathError, find_path
from sdnsim.scenario import (
    AutoLinkFailures,
    AutoPedChanges,
    ContractSpec,
    Scenario,
)

from conftest import (
    assert_fast_forward_exact,
    assert_runs_match_fresh_runs,
    experiment_runs,
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
    flows too, so that the kernel may fast-forward."""
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

    gap = draw(st.integers(MICROSECOND, max_gap)) if shared_gap else None
    flows = []
    for index in range(draw(st.integers(1, 4))):
        src, dst = draw(st.lists(st.sampled_from([h for h, _ in hosts]),
                                 min_size=2, max_size=2, unique=True))
        length = draw(st.integers(1_000, 12_000))
        count = draw(st.integers(1, max_packets))
        flows.append(Flow(
            id=f"F{index}", src_host=src, dst_host=dst, packet_length=length,
            total_volume=count * length,
            start_time=draw(st.integers(0, SECOND)),
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
        injections.append(LinkDownInjection(at=down, a=a, b=b))
        if draw(st.booleans()):
            injections.append(LinkUpInjection(
                at=down + draw(st.integers(0, SECOND)), a=a, b=b))
    injections.sort(key=lambda inj: inj.at)

    variant = draw(st.sampled_from(sorted(VARIANT_ALIASES)))
    config = SimConfig(estimation_interval=interval,
                       queue_limit=draw(st.integers(0, 5 * MS)),
                       host_link_delay=draw(st.integers(0, MS)))
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


def test_every_run_equals_the_run_simulated_in_full():
    """Flows of one gap, links that flap, reroutes and queue overflows: the
    kernel fast-forwards some runs, and each equals the run with
    Kernel._fast_forward patched to a no-op."""
    fired = []

    @settings(max_examples=80, deadline=None)
    @given(networks(max_packets=200, max_gap=10 * MS, shared_gap=True))
    def check(network):
        def run():
            kernel = network_kernel(network)
            kernel.run_until(HORIZON)
            return kernel
        counts = assert_fast_forward_exact(run)
        fired.append(counts.packets > 0)
        if counts.packets:
            event("fast-forwarded")

    check()
    assert any(fired)


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


@settings(max_examples=60, deadline=None)
@given(networks(), st.data())
def test_every_route_equals_a_fresh_find_path(network, data):
    """Requests for every pair between random link flaps and estimation
    cycles, some with data queued on the egresses so that costs change."""
    spec = network[0]
    kernel = network_kernel(network)
    controller, topology = kernel.controller, kernel.topology
    pairs = [(a, b) for a in spec.switches for b in spec.switches]
    now = 0
    for _ in range(data.draw(st.integers(1, 30))):
        step = data.draw(st.sampled_from(("flap", "cycle", "route")))
        if step == "flap":
            link = data.draw(st.sampled_from(spec.links))
            state = topology.link_between(link.a, link.b).state
            topology.set_link_state(link.a, link.b, LinkState.DOWN
                                    if state is LinkState.UP else LinkState.UP)
        elif step == "cycle":
            now += SECOND
            if data.draw(st.booleans()):
                for link in spec.links:
                    for egress in ((link.a, link.b), (link.b, link.a)):
                        kernel.egress_free[egress] = now + data.draw(
                            st.sampled_from((0, MS)))
            controller.on_cycle_boundary(now)
        else:
            for key in pairs:
                route = controller._compute_route(key, now, "check")
                try:
                    fresh = find_path(topology, controller.matrix, *key)
                except NoPathError:
                    fresh = None
                assert route == fresh


@settings(max_examples=40, deadline=None)
@given(networks(max_packets=400, max_gap=5 * MS, interval=10 * MS))
def test_every_cycle_equals_a_cycle_with_a_fresh_plan(network):
    """Dense flows and a 10 ms cycle leave egresses queued at many cycle
    boundaries while links flap, so the plan's estimates are reused,
    re-estimated and skipped."""
    kernel = network_kernel(network)
    planned = resilience.run_estimation_cycle
    queued = []

    def compared(plan, now, **kwargs):
        assert plan is kernel.controller._probe_plan
        matrix, records = planned(plan, now, **kwargs)
        fresh = ProbePlan(kernel.topology, kernel.control,
                          kernel.config.probe_length_bits,
                          kernel.config.eq1_raw_mode)
        fresh_matrix, fresh_records = planned(fresh, now, **kwargs)
        assert matrix == fresh_matrix
        assert records == fresh_records
        queued.extend(key for key, free in kernel.egress_free.items()
                      if free > now)
        return matrix, records

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resilience, "run_estimation_cycle", compared)
        kernel.run_until(HORIZON)
    event("queued egress at a cycle" if queued else "idle cycles only")


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


@settings(max_examples=100, deadline=None)
@given(scenarios(), st.data())
def test_every_shared_run_equals_a_fresh_run(scenario, data):
    variants = data.draw(st.lists(st.sampled_from(sorted(VARIANT_ALIASES)),
                                  min_size=1, max_size=4, unique=True))
    counts = sorted(data.draw(st.sets(st.integers(0, 5), min_size=2,
                                      max_size=4)))
    queued = []
    branch = Kernel.branch

    def observed(kernel, injections):
        queued.append(any(free > kernel.now
                          for free in kernel.egress_free.values()))
        trunk = iter(kernel.log.injections)
        if not all(inj in trunk for inj in injections):
            event("branch at a divergence that is not a subsequence")
        return branch(kernel, injections)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "branch", observed)
        sweep_runs = experiment_runs(scenario, variants, [1, 2],
                                     ("events", counts))
        seed_runs = experiment_runs(scenario, variants, [1, 2, 3])
    assert len(sweep_runs) == len(counts) * len(variants) * 2
    assert len(seed_runs) == len(variants) * 3
    assert_runs_match_fresh_runs(sweep_runs + seed_runs)
    event("queued egress at a branch" if any(queued)
          else "branches, idle egresses" if queued else "no branch")
