"""Deterministic discrete-event engine for packet transport and injections.

Events execute in (time, sequence) order; the sequence number is assigned
when an event is scheduled, so simultaneous events run in schedule order
and every run is a pure function of its inputs.  Packets experience, per
hop, the sender's serialization delay, FIFO waiting when the egress is
busy, and the link's propagation delay.  A packet in flight on a link at
the moment the link goes down is dropped, as is a packet whose egress
backlog exceeds the configured queue limit.

Hop plans.  A packet does not look its links up hop by hop: when it is
sent, the kernel resolves its path once into a plan, one tuple per hop of
(Link, egress (a, b), link key, transmission delay, propagation delay),
and caches the plan per (path, packet length).  The cache stays valid for
the whole run because a Topology changes only through set_link_state:
capacities and propagation delays are fixed at build time, and a plan
holds the live Link objects, so a hop still sees the link's current state.

Heap entries are (time, sequence, action, argument).  The kernel and the
controller schedule bound methods with the packet, flow or an argument
tuple as their argument, so no closure is built per event.

Injections never enter the heap.  The log holds them as one time-sorted
list, and advance applies each after the heap entries setup numbered at
its instant (cycle boundaries, flow starts) and before every other entry
there: an injection landing on a boundary is seen by the following cycle.

Branching.  A kernel's state once advance has reached t is therefore a
pure function of its scenario without injections, its variant and the
injections due before t.  branch copies a kernel part-way through a run
for another injection list that agrees with its own before t, so runs
whose lists agree up to t compute their common history once.  A branch
shares finished packet records, every record of the other log streams
and the applied injections, and copies the live state: the heap,
in-flight packets, topology, forwarding and egress state, contracts, the
controller with its memos and the last fast-forward snapshot.

Fast-forward.  When every flow sends with one positive gap P, traffic is
periodic, and the kernel replicates whole periods instead of simulating
them.  Whenever the heap's head passes a multiple of P, the kernel takes
a snapshot at the last such multiple x, before any entry at or after x
runs: the started flows' pending ticks as (time - x, flow id) in heap
order; a packet on the heap spoils it.  Let the horizon H be the earliest
of the heap entries other than a started flow's tick pending at x - P or
at x, the forwarding entries active from x - P on, and the advance target
(which never passes the next pending injection).  Suppose the snapshot at
x - P equals the one at x, no injection was applied and no link went
down since x - P, and H >= x: nothing but transport ran in [x - P, x).
Between two non-transport events, transport is a pure function of the
state relative to now: the pending ticks, the forwarding paths and link
states (fixed until the next non-transport event), and egress busy-until
times, which lie before the period on both sides and so delay nothing.
The period from x therefore repeats the one from x - P shifted by P, and
so does each whole period that ends by H.  The kernel appends shifted
copies of the last period's packet records for n such periods, stopping
short of each flow's last packet, and moves the flows' counters, their
ticks, each egress the period used and the clock on by nP.  Sequence
order is kept without renumbering.  The pending ticks were all scheduled
in the last period and every other pending entry before it, so the
ticks' numbers already order them among themselves and after every other
pending entry, as the numbers of the ticks they stand for would; entries
scheduled later number above all of them.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import weakref
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Callable

from .contracts import ContractPair, ContractStore
from .core import (
    ControlChannel,
    Flow,
    Link,
    LinkState,
    SimConfig,
    SwitchId,
    Topology,
    transmission_delay,
)
from .injections import (
    Injection,
    LinkDownInjection,
    LinkUpInjection,
    PedChangeInjection,
)
from .resilience import MechanismVariant, ResilienceManager
from .runlog import RunLog


class ScheduleError(ValueError):
    """Attempt to schedule an event into the past."""


class InjectionError(ValueError):
    """An injection references an unknown link or contract."""


# ---------------------------------------------------------------------------
# packet bookkeeping


# Why a packet was dropped: no forwarding path when it was sent, its link
# was or went down, its egress backlog exceeded the queue limit, or the run
# ended before it arrived.
DROP_REASONS = frozenset({"no_route", "link_down", "queue_overflow",
                          "end_of_run"})


@dataclass
class PacketRecord:
    flow_id: str
    seq: int
    pair: tuple[SwitchId, SwitchId]
    covered: bool            # flow is governed by a contract pair
    length: int              # bits
    sent_at: int
    path: tuple[SwitchId, ...] | None
    delivered_at: int | None = None
    drop_reason: str | None = None
    actual_delay: int | None = None
    queue_wait: int = 0

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None


@dataclass
class _FlowState:
    flow: Flow
    pair: tuple[SwitchId, SwitchId]  # (ingress switch, egress switch)
    covered: bool                    # pair is governed by a contract pair
    bits_sent: int = 0
    next_seq: int = 0
    started: bool = False


# One hop of a plan: (link, egress (a, b), link.key, transmission delay,
# propagation delay).
_Hop = tuple[Link, tuple[SwitchId, SwitchId], tuple[SwitchId, SwitchId],
             int, int]

# Marks a heap entry whose action takes the event time alone.
_NO_ARG = object()


class _Packet:
    """A packet in flight: its record, hop plan, current hop index and the
    time it entered that hop."""

    __slots__ = ("record", "hops", "hop", "entered")

    def __init__(self, record: PacketRecord, hops: tuple[_Hop, ...]) -> None:
        self.record = record
        self.hops = hops
        self.hop = 0
        self.entered = 0


class Kernel:
    """Single-threaded event loop owning topology and forwarding state."""

    def __init__(self, topology: Topology, flows: list[Flow],
                 contract_pairs: list[ContractPair],
                 variant: MechanismVariant, config: SimConfig,
                 control: ControlChannel) -> None:
        self.topology = topology
        self.config = config
        self.control = control
        self.log = RunLog()
        self.now = 0
        self._queue: list[tuple[int, int, Callable[..., None], Any]] = []
        self._seq = itertools.count()
        # Busy-until time of each egress (a, b); probes wait behind it too.
        self.egress_free: dict[tuple[SwitchId, SwitchId], int] = {}
        self._last_down: dict[tuple[SwitchId, SwitchId], int] = {}
        self._forwarding: dict[tuple[SwitchId, SwitchId],
                               list[tuple[int, tuple[SwitchId, ...]]]] = {}
        self._plans: dict[tuple[tuple[SwitchId, ...], int],
                          tuple[_Hop, ...]] = {}
        # advance has applied the first _applied of log.injections and every
        # heap entry before _reached; setup's entries number below _setup_end.
        self._applied = 0
        self._reached = 0
        self._setup_end = 0
        # Fast-forward (see "Fast-forward"): the common gap P, the next
        # multiple of it to snapshot at (never when the flows' gaps
        # differ), and the last snapshot as (instant, pending ticks,
        # earliest other heap entry, injections applied, packets logged).
        gaps = {flow.inter_packet_gap for flow in flows}
        self._period = gaps.pop() if len(gaps) == 1 else 0
        self._period_at: float = 0 if self._period > 0 else math.inf
        self._snapshot: tuple | None = None

        # The store changes its pairs in place, so it holds copies: the
        # caller's pairs stay as given for the next kernel built from them.
        self.store = ContractStore()
        for pair in contract_pairs:
            self.store.add(replace(pair), now=0)
        self.log.ped_changes = self.store.ped_changes

        covered = {(p.src, p.dst) for p in contract_pairs}
        self._flows: dict[str, _FlowState] = {}
        for flow in flows:
            key = (topology.attachment(flow.src_host),
                   topology.attachment(flow.dst_host))
            self._flows[flow.id] = _FlowState(flow, key, key in covered)
        self.controller = ResilienceManager(
            variant, topology, control, self.store, self, config, self.log)

    def setup(self, t_end: int, injections: list[Injection]) -> None:
        """Schedule cycle boundaries and flow starts; take the injections."""
        t = 0
        while t <= t_end:
            self.schedule_call(t, self.controller.on_cycle_boundary)
            t += self.config.estimation_interval
        for state in self._flows.values():
            self.schedule_call(state.flow.start_time, self._flow_tick, state)
        self._setup_end = next(self._seq)
        self.inject_schedule(injections)

    # ------------------------------------------------------------------
    # scheduling

    def schedule_call(self, at: int, action: Callable[..., None],
                      arg: Any = _NO_ARG) -> None:
        """Run action(at), or action(arg, at) when arg is given, at time at."""
        if at < self.now:
            raise ScheduleError(f"cannot schedule at {at} before now {self.now}")
        heapq.heappush(self._queue, (at, next(self._seq), action, arg))

    def inject_schedule(self, injections: list[Injection]) -> None:
        """Validate external events (E1 link toggles, E2 changes) and add
        them to the pending ones (see "Injections")."""
        for inj in injections:
            if isinstance(inj, (LinkDownInjection, LinkUpInjection)):
                if not self.topology.has_link(inj.a, inj.b):
                    raise InjectionError(
                        f"injection references unknown link {inj.a}-{inj.b}")
            elif isinstance(inj, PedChangeInjection):
                self.store.pair(inj.pair_id)  # raises for unknown pairs
            if inj.at < self._reached:
                raise ScheduleError(f"cannot inject at {inj.at} once the "
                                    f"run has reached {self._reached}")
        self.log.injections.extend(injections)
        self.log.injections.sort(key=attrgetter("at"))

    # ------------------------------------------------------------------
    # main loop

    def advance(self, t: int) -> None:
        """Process every event with time < t, injections in their place."""
        for inj in self.log.injections[self._applied:]:
            if inj.at >= t:
                break
            self._run_before((inj.at, self._setup_end))
            self._applied += 1
            self._apply_injection(inj)
        self._run_before((t, -1))
        self._reached = max(self._reached, t)

    def _run_before(self, until: tuple[int, int]) -> None:
        """Process every heap entry whose (time, sequence) is below until."""
        queue, pop = self._queue, heapq.heappop
        while True:
            # Stop at the next multiple of the period to fast-forward there.
            stop = min(until, (self._period_at, -1))
            while queue and queue[0] < stop:
                at, _, action, arg = pop(queue)
                self.now = at
                if arg is _NO_ARG:
                    action(at)
                else:
                    action(arg, at)
            if not queue or queue[0] >= until:
                return
            self._fast_forward(until[0])

    def _fast_forward(self, until: int) -> None:
        """Snapshot at the last multiple x of the period that the heap's
        head has reached, and replicate the whole periods from x that end
        by until when the snapshot repeats the one at x - P (see
        "Fast-forward")."""
        queue, period = self._queue, self._period
        head = queue[0][0]
        x = head - head % period
        self._period_at = x + period
        ticks = []
        other: float = math.inf
        for index, (at, seq, _, arg) in enumerate(queue):
            if type(arg) is _Packet:
                self._snapshot = None
                return
            if type(arg) is _FlowState and arg.started:
                ticks.append((at, seq, index))
            elif at < other:
                other = at
        ticks.sort()
        shape = tuple((at - x, queue[index][3].flow.id)
                      for at, _, index in ticks)
        last = self._snapshot
        packets = self.log.packets
        self._snapshot = (x, shape, other, self._applied, len(packets))
        since = x - period
        if (not shape or last is None or last[:2] != (since, shape)
                or last[3] != self._applied
                or any(down >= since for down in self._last_down.values())):
            return
        # Below x when something other than transport ran since x - P.
        horizon = min(last[2], other, until, *(
            active_at for entries in self._forwarding.values()
            for active_at, _ in entries if active_at >= since))
        states = [queue[index][3] for _, _, index in ticks]
        n = min((horizon - x) // period,
                min((state.flow.total_volume - state.bits_sent)
                    // state.flow.packet_length for state in states) - 1)
        if n <= 0:
            return

        template = [(r.flow_id, r.seq, r.pair, r.covered, r.length, r.sent_at,
                     r.path, r.delivered_at, r.drop_reason, r.actual_delay,
                     r.queue_wait) for r in packets[last[4]:]]
        for k in range(1, n + 1):  # each started flow sends once a period
            shift = k * period
            packets.extend([PacketRecord(
                flow, seq + k, pair, covered, length, sent + shift, path,
                None if delivered is None else delivered + shift,
                reason, delay, wait)
                for (flow, seq, pair, covered, length, sent, path, delivered,
                     reason, delay, wait) in template])
        span = n * period
        for state in states:
            state.bits_sent += n * state.flow.packet_length
            state.next_seq += n
        for at, seq, index in ticks:
            _, _, action, arg = queue[index]
            queue[index] = (at + span, seq, action, arg)
        heapq.heapify(queue)
        for egress, free in self.egress_free.items():
            if free >= since:
                self.egress_free[egress] = free + span
        self.now += span
        self._snapshot = (x + span - period, shape, other, self._applied,
                          len(packets) - len(template))
        self._period_at = x + span

    def run_until(self, t_end: int) -> None:
        """Process every event with time <= t_end, then settle leftovers.

        Packets that are neither delivered nor dropped when the horizon
        closes count as dropped; the measurement window ended before they
        arrived.
        """
        self.advance(t_end + 1)
        self.now = t_end
        self._queue.clear()
        for record in self.log.packets:
            if record.delivered_at is None and record.drop_reason is None:
                record.drop_reason = "end_of_run"

    def branch(self, injections: list[Injection]) -> "Kernel":
        """A copy of this kernel that goes on as a fresh run with injections
        would (see "Branching"); injections must agree with the applied
        ones and hold no other due before the time advance reached."""
        applied = self.log.injections[:self._applied]
        pending = sorted(injections, key=attrgetter("at"))
        if pending[:self._applied] != applied:
            raise ValueError("branch disagrees on an applied injection")

        # Shared with the copy: the sentinel (compared by identity) and
        # every record but the in-flight packets'.  The weak proxy is
        # re-pointed after copying; both kernels number on from seq.
        memo: dict[int, Any] = {id(_NO_ARG): _NO_ARG,
                                id(self.controller.kernel): None}
        for _, _, _, arg in self._queue:
            if type(arg) is _Packet:
                memo[id(arg.record)] = copy.copy(arg.record)
        log = RunLog(**{stream: list(getattr(self.log, stream))
                        for stream in RunLog.STREAMS})
        log.packets = [memo.get(id(record), record)
                       for record in self.log.packets]
        log.injections = applied
        for stream in RunLog.STREAMS:
            memo[id(getattr(self.log, stream))] = getattr(log, stream)
        memo[id(self.log)] = log
        seq = next(self._seq)
        self._seq = itertools.count(seq)
        memo[id(self._seq)] = itertools.count(seq)

        twin = copy.deepcopy(self, memo)
        twin.controller.kernel = weakref.proxy(twin)
        twin.inject_schedule(pending[self._applied:])
        return twin

    # ------------------------------------------------------------------
    # controller-facing services

    def forwarding_path(self, key: tuple[SwitchId, SwitchId],
                        now: int) -> tuple[SwitchId, ...] | None:
        for active_at, path in reversed(self._forwarding.get(key, ())):
            if active_at <= now:
                return path
        return None

    def set_forwarding(self, key: tuple[SwitchId, SwitchId],
                       path: tuple[SwitchId, ...], active_at: int) -> None:
        self._forwarding.setdefault(key, []).append((active_at, tuple(path)))

    # ------------------------------------------------------------------
    # injections

    def _apply_injection(self, inj: Injection) -> None:
        at = self.now = inj.at
        if isinstance(inj, LinkDownInjection):
            link = self.topology.link_between(inj.a, inj.b)
            if link.is_up:
                self.topology.set_link_state(inj.a, inj.b, LinkState.DOWN)
                self._last_down[link.key] = at
                self.controller.on_link_state_change(inj.a, inj.b, at)
        elif isinstance(inj, LinkUpInjection):
            self.topology.set_link_state(inj.a, inj.b, LinkState.UP)
        else:
            new_ped = inj.new_ped
            if new_ped is None:
                old = self.store.pair(inj.pair_id).strong_ped
                new_ped = max(1, (old * inj.factor_ppm + 500_000) // 1_000_000)
            if self.store.modify(inj.pair_id, new_ped, at):
                self.controller.on_contract_modified(inj.pair_id, at)

    # ------------------------------------------------------------------
    # packet transport

    def _flow_tick(self, state: _FlowState, at: int) -> None:
        flow = state.flow
        if not state.started:
            state.started = True
            self.controller.on_flow_arrival(flow, at)
        state.bits_sent += flow.packet_length
        self._send_packet(state, at)
        state.next_seq += 1
        # Flow guarantees a positive gap whenever another packet fits.
        if state.bits_sent + flow.packet_length <= flow.total_volume:
            self.schedule_call(at + flow.inter_packet_gap, self._flow_tick,
                               state)

    def _send_packet(self, state: _FlowState, at: int) -> None:
        flow = state.flow
        key = state.pair
        path = self.forwarding_path(key, at)
        record = PacketRecord(
            flow_id=flow.id, seq=state.next_seq, pair=key,
            covered=state.covered, length=flow.packet_length,
            sent_at=at, path=path)
        self.log.packets.append(record)
        if path is None:
            record.drop_reason = "no_route"
            return
        packet = _Packet(record, self._hop_plan(path, flow.packet_length))
        ingress_at = at + self.config.host_link_delay
        self.schedule_call(ingress_at, self._start_hop, packet)

    def _hop_plan(self, path: tuple[SwitchId, ...],
                  length: int) -> tuple[_Hop, ...]:
        """The hops of path for a packet of length bits, resolved once."""
        plan = self._plans.get((path, length))
        if plan is None:
            hops = []
            for a, b in zip(path, path[1:]):
                link = self.topology.link_between(a, b)
                hops.append((link, (a, b), link.key,
                             transmission_delay(length, link.capacity_bps),
                             link.propagation_delay))
            plan = self._plans[(path, length)] = tuple(hops)
        return plan

    def _start_hop(self, packet: _Packet, at: int) -> None:
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

    def _hop_arrival(self, packet: _Packet, at: int) -> None:
        link, _, key, _, _ = packet.hops[packet.hop]
        went_down = self._last_down.get(key)
        if (link.state is not LinkState.UP
                or went_down is not None and packet.entered <= went_down < at):
            packet.record.drop_reason = "link_down"
            return
        packet.hop += 1
        self._start_hop(packet, at)

    def _deliver(self, packet: _Packet, at: int) -> None:
        record = packet.record
        record.delivered_at = at + self.config.host_link_delay
        record.actual_delay = record.delivered_at - record.sent_at
