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
controller schedule bound methods with the packet, flow, injection position
or an argument tuple as their argument, so no closure is built per event;
every event still goes through schedule_call.

Branching.  setup schedules cycle boundaries, flow starts and injections
before any event runs, so they hold the lowest sequence numbers and every
event scheduled later numbers above them.  A kernel's state at time t is
therefore a pure function of its scenario without injections, its variant
and the injections due before t: leaving out injections that are still
pending only shifts later sequence numbers uniformly, which keeps every
(time, sequence) tie-break.  branch copies a kernel part-way through a run
and drops pending injections, so runs whose injection lists agree up to t
compute their common history once.  A branch shares what can no longer
change (finished packet records, every record of the other log streams,
the injections) and copies the live state: the heap, in-flight packets
with their records, topology, forwarding and egress state, contracts and
the controller with its memos.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import weakref
from dataclasses import dataclass
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
    left_out,
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
        # Every injection scheduled so far; an injection's heap entry
        # carries its position here.  Branches share this list.
        self._injections: list[Injection] = []

        self.store = ContractStore()
        for pair in contract_pairs:
            self.store.add(pair, now=0)
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
        """Schedule cycle boundaries, flow starts and injections.

        Boundaries go first so an injection landing exactly on a boundary
        is seen by the following cycle, never the coinciding one.
        """
        t = 0
        while t <= t_end:
            self.schedule_call(t, self.controller.on_cycle_boundary)
            t += self.config.estimation_interval
        for state in self._flows.values():
            self.schedule_call(state.flow.start_time, self._flow_tick, state)
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
        """Validate and enqueue external events (E1 link toggles, E2 changes)."""
        start = len(self._injections)
        self._injections = self._injections + list(injections)
        for index, inj in enumerate(injections, start):
            if isinstance(inj, (LinkDownInjection, LinkUpInjection)):
                if not self.topology.has_link(inj.a, inj.b):
                    raise InjectionError(
                        f"injection references unknown link {inj.a}-{inj.b}")
            elif isinstance(inj, PedChangeInjection):
                self.store.pair(inj.pair_id)  # raises for unknown pairs
            self.log.injections.append(inj)
            self.schedule_call(inj.at, self._apply_injection, index)

    # ------------------------------------------------------------------
    # main loop

    def advance(self, t: int) -> None:
        """Process every event with time < t."""
        queue, pop = self._queue, heapq.heappop
        while queue and queue[0][0] < t:
            at, _, action, arg = pop(queue)
            self.now = at
            if arg is _NO_ARG:
                action(at)
            else:
                action(arg, at)

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
        """A copy of this kernel that goes on with injections alone.

        injections must be a subsequence of the kernel's scheduled ones, and
        each one they leave out must still be pending; the copy then goes on
        as a fresh run with injections would from here (see "Branching").
        """
        missing = left_out(self._injections, injections)
        if missing is None:
            raise ValueError("branch injections are not a subsequence of "
                             "the kernel's injections")
        seq_at = {entry[3]: entry[1] for entry in self._queue
                  if entry[2] == self._apply_injection}
        if any(index not in seq_at for index in missing):
            raise ValueError("a left-out injection has already been applied")
        dropped = {seq_at[index] for index in missing}

        # Shared with the copy: the sentinel (compared by identity), the
        # injections and every record but the in-flight packets'.  The weak
        # proxy is re-pointed after copying; both kernels number on from seq.
        memo: dict[int, Any] = {id(_NO_ARG): _NO_ARG,
                                id(self.controller.kernel): None,
                                id(self._injections): self._injections}
        for _, _, _, arg in self._queue:
            if type(arg) is _Packet:
                memo[id(arg.record)] = copy.copy(arg.record)
        log = RunLog(**{stream: list(getattr(self.log, stream))
                        for stream in RunLog.STREAMS})
        log.packets = [memo.get(id(record), record)
                       for record in self.log.packets]
        log.injections = list(injections)
        for stream in RunLog.STREAMS:
            memo[id(getattr(self.log, stream))] = getattr(log, stream)
        memo[id(self.log)] = log
        seq = next(self._seq)
        self._seq = itertools.count(seq)
        memo[id(self._seq)] = itertools.count(seq)

        twin = copy.deepcopy(self, memo)
        twin.controller.kernel = weakref.proxy(twin)
        twin._queue = [entry for entry in twin._queue
                       if entry[1] not in dropped]
        heapq.heapify(twin._queue)
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

    def _apply_injection(self, index: int, at: int) -> None:
        inj = self._injections[index]
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
