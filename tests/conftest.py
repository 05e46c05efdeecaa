import json
import os
from bisect import bisect_right
from contextlib import contextmanager
from itertools import zip_longest
from types import SimpleNamespace

import pytest

from sdnsim import harness, resilience
from sdnsim.core import (
    ControlChannel,
    LinkSpec,
    LinkState,
    MICROSECOND,
    MILLISECOND,
    TopologySpec,
    build_topology,
)
from sdnsim.delay_estimation import ProbePlan
from sdnsim.injections import materialize_injections
from sdnsim.kernel import Kernel, PacketRecord, _Packet
from sdnsim.replicate import Replicator
from sdnsim.resilience import ResilienceManager, RouteRecord, variants_by_name
from sdnsim.routing import NoPathError, find_path
from sdnsim.runlog import RunLog, record_to_dict

GBPS = 1_000_000_000
MBPS = 1_000_000


def linear_chain_spec(n: int = 10, capacity: int = GBPS,
                      propagation: int = MILLISECOND,
                      hosts_at: tuple[int, ...] = (1, 10)) -> TopologySpec:
    """S1-S2-...-Sn chain with hosts H<i> attached at the given switches."""
    switches = tuple(f"S{i}" for i in range(1, n + 1))
    links = tuple(LinkSpec(f"S{i}", f"S{i + 1}", capacity, propagation)
                  for i in range(1, n))
    hosts = tuple((f"H{i}", f"S{i}") for i in hosts_at)
    return TopologySpec(switches, hosts, links)


def ring_with_chords_spec(capacity: int = GBPS,
                          propagation: int = MILLISECOND) -> TopologySpec:
    """10-switch ring plus two chords; three disjoint 3-hop S1->S8 routes."""
    switches = tuple(f"S{i}" for i in range(1, 11))
    ring = [LinkSpec(f"S{i}", f"S{i + 1}", capacity, propagation)
            for i in range(1, 10)]
    ring.append(LinkSpec("S10", "S1", capacity, propagation))
    chords = [LinkSpec("S1", "S6", capacity, propagation),
              LinkSpec("S3", "S8", capacity, propagation)]
    hosts = tuple((f"H{i}", f"S{i}") for i in range(1, 9))
    return TopologySpec(switches, hosts, tuple(ring + chords))


class ReferenceKernel(Kernel):
    """The kernel with transport split over four handlers that schedule
    through schedule_call: a flow tick sends a packet, which starts a hop
    at ingress and after each hop's arrival, and is delivered after the
    last.  Kernel._hop must leave the same log and schedule the same
    entries, in the same order."""

    def _flow_tick(self, state, at):
        flow = state.flow
        if not state.started:
            state.started = True
            self.controller.on_flow_arrival(flow, at)
        state.bits_sent += flow.packet_length
        self._send_packet(state, at)
        state.next_seq += 1
        if state.bits_sent + flow.packet_length <= flow.total_volume:
            self.schedule_call(at + flow.inter_packet_gap, self._flow_tick,
                               state)

    def _send_packet(self, state, at):
        flow = state.flow
        key = state.pair
        path = self.forwarding_path(key, at)
        record = PacketRecord(
            flow_id=flow.id, seq=state.next_seq, pair=key,
            covered=state.covered, length=flow.packet_length,
            sent_at=at, path=path)
        self.log.packets.open.append(record)
        if path is None:
            record.drop_reason = "no_route"
            return
        ingress_at = at + self.config.host_link_delay
        packet = _Packet(record, self._hop_plan(path, flow.packet_length),
                         ingress_at)
        self.schedule_call(ingress_at, self._start_hop, packet)

    def _start_hop(self, packet, at):
        if packet.hop == len(packet.hops):
            self._deliver(packet, at)
            return
        link, egress, _, td, propagation = packet.hops[packet.hop]
        if link.state is not LinkState.UP:
            packet.record.drop_reason = "link_down"
            return
        free = self.egress_free.get(egress, 0)
        start = at if at >= free else free
        wait = start - at
        if wait > self.config.queue_limit:
            packet.record.drop_reason = "queue_overflow"
            return
        self.egress_free[egress] = start + td
        packet.record.queue_wait += wait
        packet.entered = at
        self.schedule_call(start + td + propagation, self._hop_arrival, packet)

    def _hop_arrival(self, packet, at):
        link, _, key, _, _ = packet.hops[packet.hop]
        went_down = self._last_down.get(key)
        if (link.state is not LinkState.UP
                or went_down is not None and packet.entered <= went_down < at):
            packet.record.drop_reason = "link_down"
            return
        packet.hop += 1
        self._start_hop(packet, at)

    def _deliver(self, packet, at):
        record = packet.record
        record.delivered_at = at + self.config.host_link_delay
        record.actual_delay = record.delivered_at - record.sent_at


def queued_probes_chain() -> str:
    """scenarios/linear_chain.scn as the golden digests' queued-probes
    case edits it: F2 sends 2,000 packets 13.5 us apart from 9.99 s, each
    over 9 ms in flight, so the burst fills the chain."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scenarios", "linear_chain.scn")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    flow = next(line for line in text.splitlines()
                if line.startswith("flow F1 "))
    return text.replace(flow, flow + "\nflow F2 H1 H10 packet=1500B "
                        "volume=24Mb start=9990ms gap=13500ns")


@pytest.fixture
def chain10():
    return build_topology(linear_chain_spec())


@pytest.fixture
def ring10():
    return build_topology(ring_with_chords_spec())


@pytest.fixture
def symmetric_control():
    return ControlChannel(default_c2s=250 * MICROSECOND,
                          default_s2c=250 * MICROSECOND)


def recorded_experiment(scenario, variants, seeds, sweep=None):
    """run_experiment's result, and (swept scenario, variant, seed,
    RunResult with its log) of every run it makes, in the order it makes
    them."""
    run_single = harness.run_single
    runs = []

    def recorded(swept, variant, seed, **kwargs):
        kwargs["keep_log"] = True
        done = run_single(swept, variant, seed, **kwargs)
        runs.append((swept, variant, seed, done))
        return done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_single", recorded)
        result = harness.run_experiment(scenario, variants, seeds,
                                        sweep=sweep)
    return result, runs


def experiment_runs(scenario, variants, seeds, sweep=None):
    """The runs of recorded_experiment."""
    return recorded_experiment(scenario, variants, seeds, sweep)[1]


def assert_same_jsonl(ours, theirs, label=None):
    """Two serialized logs are equal, line for line.  A failure names the
    first differing line alone: a diff of whole logs takes minutes."""
    ours, theirs = ours.split("\n"), theirs.split("\n")
    first = next((i for i, (a, b) in enumerate(zip_longest(ours, theirs))
                  if a != b), None)
    assert first is None, (label, f"line {first + 1}",
                           ours[first:first + 1], theirs[first:first + 1])


def assert_runs_match_fresh_runs(runs):
    """Each recorded run's log and metrics equal a fresh run_single's."""
    for swept, variant, seed, done in runs:
        fresh = harness.run_single(swept, variant, seed)
        assert_same_jsonl(done.log.to_jsonl(), fresh.log.to_jsonl(),
                          (variant, seed))
        assert done.metrics == fresh.metrics, (variant, seed)


@contextmanager
def counted_fast_forward():
    """Count Replicator.fast_forward's calls and the packets it replicates."""
    counts = SimpleNamespace(calls=0, packets=0)
    fast_forward = Replicator.fast_forward

    def counted(replicator, kernel, until):
        before = len(kernel.log.packets)
        fast_forward(replicator, kernel, until)
        counts.calls += 1
        counts.packets += len(kernel.log.packets) - before

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Replicator, "fast_forward", counted)
        yield counts


@contextmanager
def no_fast_forward():
    """Kernels built inside get no replicator, so they simulate every
    period."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Replicator, "of", staticmethod(lambda *args: None))
        yield


def assert_fast_forward_exact(run):
    """run() builds a kernel and runs it to its end.  The kernel it returns
    must leave the same log, egress state and clock as one that simulates
    every period; returns the fast-forward counts."""
    with counted_fast_forward() as counts:
        kernel = run()
    with no_fast_forward():
        simulated = run()
    assert_same_jsonl(kernel.log.to_jsonl(), simulated.log.to_jsonl())
    assert kernel.log == simulated.log
    assert kernel.egress_free == simulated.egress_free
    assert kernel.now == simulated.now
    return counts


def reference_compute_route(manager, key, now, purpose):
    """ResilienceManager._compute_route without a memo: find_path on every
    request, logged the same way."""
    try:
        route = find_path(manager.topology, manager.matrix, *key)
    except NoPathError:
        return None
    costs = tuple(manager.matrix[hop] for hop in zip(route.path,
                                                      route.path[1:]))
    manager.log.routes.open.append(RouteRecord(
        at=now, src=key[0], dst=key[1], path=route.path, ed=route.ed,
        link_costs=costs, purpose=purpose))
    return route


def reference_jsonl(log: RunLog) -> str:
    """The rule RunLog.to_jsonl implements: json.dumps of each record."""
    lines = [json.dumps({"stream": stream, **record_to_dict(record)},
                        sort_keys=True)
             for stream in RunLog.STREAMS for record in getattr(log, stream)]
    return "\n".join(lines) + ("\n" if lines else "")


def reference_success_rate(packets, ped_changes):
    """The success rates as one bisection per covered delivery."""
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


def reference_score_packets(packets, ped_changes):
    """harness._score_packets record by record, each copy of a stepped
    part built, with the success rates by bisection."""
    packets = list(packets)
    delivered = [p for p in packets if p.delivered_at is not None]
    return (len(delivered), sum(p.length for p in delivered),
            *reference_success_rate(packets, ped_changes))


def naive_experiment(scenario, variants, seeds, sweep=None):
    """recorded_experiment by the plainest pipeline: per cell, freshly
    materialized injections and a fresh ReferenceKernel that simulates
    every period, estimates each cycle with a fresh ProbePlan and no memo,
    evaluates every proactive cycle in full and solves every route
    request, so no kernel work, diary, estimate, cycle or route is shared
    and nothing is fast-forwarded; packets are scored by bisection, one by
    one."""
    sweep_param, sweep_values = (None, (None,)) if sweep is None else (
        sweep[0], tuple(sweep[1]))
    names = tuple(variant.name for variant in variants_by_name(variants))
    runs = []
    result = harness.ExperimentResult(
        scenario_name=scenario.name,
        scenario_sha256=harness._scenario_digest(scenario),
        sweep_param=sweep_param, sweep_values=sweep_values, variants=names,
        seeds=tuple(seeds), eq1_raw_mode=scenario.config.eq1_raw_mode)
    cycle = resilience.run_estimation_cycle
    with no_fast_forward(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "Kernel", ReferenceKernel)
        patch.setattr(ResilienceManager, "_compute_route",
                      reference_compute_route)
        patch.setattr(ResilienceManager, "_proactive_cycle",
                      ResilienceManager._evaluate_pairs)
        patch.setattr(harness, "_score_packets", reference_score_packets)
        for value in sweep_values:
            swept = harness._swept_scenario(scenario, sweep_param, value)

            def afresh(plan, topology, now, *, egress_free, memo,
                       swept=swept):
                """The cycle from a fresh plan, without memo."""
                return cycle(ProbePlan(
                    topology, swept.control,
                    swept.config.probe_length_bits, plan.raw_mode),
                    topology, now, egress_free=egress_free)

            patch.setattr(resilience, "run_estimation_cycle", afresh)
            for variant in names:
                reports = result.cells[(variant, value)] = []
                for seed in seeds:
                    done = harness.run_single(
                        swept, variant, seed,
                        injections=materialize_injections(swept, seed))
                    if result.sample_log is None:
                        result.sample_log = done.log
                    reports.append(done.metrics)
                    runs.append((swept, variant, seed, done))
    return result, runs
