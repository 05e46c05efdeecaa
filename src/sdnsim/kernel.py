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

Heap entries are (time, sequence, action, argument), with bound methods as
actions, so no closure is built per event.  One handler, _hop, takes each
hop of a packet: at ingress or on arrival it delivers the packet or
reserves its next egress and pushes its arrival there.  Setup and the
controller use the checked schedule_call; transport pushes directly, as
its times are never past: a tick is a positive gap ahead, an ingress the
host delay, an arrival the egress wait, transmission and propagation delay
(SimConfig, Link and Flow reject negatives).  An entry transport makes is
run on at once, in the call that made it, when it sorts below both the
heap's head and the bound _run_before drains to: the advance target, the
(instant, number) that an injection waits behind, or the next instant
fast-forward looks at (see "Fast-forward" in replicate).  Such an entry is
the very next one the loop would pop, and nothing reads the heap in
between, so handlers run in the same order at the same clock and draw the
same sequence numbers.  A packet that leads the queue, as the packets of
sparse flows mostly do, thus crosses its hops in one call; _flow_tick
numbers the ingress, pushes the next tick and then runs the ingress on if
it would pop next.

Injections never enter the heap.  The log holds them as one time-sorted
list, and advance applies each after the heap entries setup numbered at
its instant (cycle boundaries, flow starts) and before every other entry
there: an injection landing on a boundary is seen by the following cycle.

Branching.  A kernel's state once advance has reached t is therefore a
pure function of its scenario without injections, its variant and the
injections due before t.  branch builds a twin of a kernel part-way
through a run for another injection list that agrees with its own before
t, so runs whose lists agree up to t compute their common history once.
The twin gets its own copy of every piece of state a run changes, and each
owner copies its own: Topology.twin makes new Links in their current
states, ContractStore.twin new pairs and its list of bound changes,
ResilienceManager.twin the controller's routed pairs and pending events,
and Replicator.twin a replicator that shares the immutable snapshot.  The
kernel copies its egress, link-down and forwarding tables with the count
of forwarding changes, the flows' states, each log stream's list, the open
lists of the packet and route logs and the heap.  The heap keeps its order
and sequence numbers; each action is bound to the twin's kernel or
controller, each flow's tick to the twin's flow state, and each packet in
flight becomes a new packet with a copy of its record, in the same place
of the twin's open list, on a hop plan over the twin's Links (plans refill
as packets ask).
An argument of any other kind is refused, so that no new kind of heap
entry is shared by accident.  What no run changes is shared: flows, the
config and control channel, the variant, estimation records, routes, the
controller's probe plan and cost matrix, the network-state memo of routes
and idle cycles (keyed by content, see resilience), the closed parts of
the packet, estimation and route logs (runlog.Part) and the applied
injections.  Copies are built by their constructors or by plain attribute
assignment, not by copy.deepcopy, whose generic walk of every reachable
object cost several times a fresh kernel's set-up.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import replace
from operator import attrgetter
from types import MethodType
from typing import Any, Callable

from .contracts import ContractPair, ContractStore
from .core import (
    ControlChannel,
    Flow,
    LINK_UP,
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
from .replicate import Replicator, _FlowState, _Hop, _Packet
from .resilience import MechanismVariant, ResilienceManager
from .runlog import PacketRecord, PartLog, RunLog


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

# Marks a heap entry whose action takes the event time alone.
_NO_ARG = object()

# The kinds of heap entry argument a branch maps to its twin's or shares:
# an in-flight packet, a flow's state and an immutable tuple (an E1 delivery).
_BRANCHED_ARGS = (_Packet, _FlowState, tuple)

# The log streams a branch copies as plain lists: all but the part logs,
# the contract store's changes and the injections.
_LISTED_STREAMS = tuple(stream for stream in RunLog.STREAMS if stream not in
                        ("packets", "estimation", "routes", "ped_changes",
                         "injections"))


class Kernel:
    """Single-threaded event loop owning topology and forwarding state."""

    def __init__(self, topology: Topology, flows: list[Flow],
                 contract_pairs: list[ContractPair],
                 variant: MechanismVariant, config: SimConfig,
                 control: ControlChannel, memo: dict | None = None) -> None:
        self.topology = topology
        self.config = config
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
        self._host_delay = config.host_link_delay
        self._queue_limit = config.queue_limit
        # advance has applied the first _applied of log.injections and every
        # heap entry before _reached; setup's entries number below _setup_end.
        self._applied = 0
        self._reached = 0
        self._setup_end = 0
        # The number of set_forwarding calls so far, which fast-forward and
        # the controller's idle cycles compare.
        self.forwarding_changes = 0
        self.replicator = Replicator.of(topology, flows)

        # The store changes its pairs in place, so it holds copies: the
        # caller's pairs stay as given for the next kernel built from them.
        self.store = ContractStore()
        for pair in contract_pairs:
            self.store.add(replace(pair))
        self.log.ped_changes = self.store.ped_changes

        covered = {(p.src, p.dst) for p in contract_pairs}
        self._flows: dict[str, _FlowState] = {}
        for flow in flows:
            key = (topology.attachment(flow.src_host),
                   topology.attachment(flow.dst_host))
            self._flows[flow.id] = _FlowState(flow, key, key in covered)
        self.controller = ResilienceManager(
            variant, topology, control, self.store, self, config, self.log,
            memo)

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
        queue, pop, replicator = self._queue, heapq.heappop, self.replicator
        # Transport pushes this one bound method; it is dropped on leaving,
        # so that a finished kernel holds no reference cycle.
        self._on_hop = self._hop
        while True:
            # Stop where the replicator looks next (see "Fast-forward"
            # in replicate); transport runs an entry below this bound on
            # inline when it would pop next (see "Heap entries").
            stop = self._bound = until if replicator is None else min(
                until, (replicator.at, -1))
            while queue and queue[0] < stop:
                at, _, action, arg = pop(queue)
                self.now = at
                if arg is _NO_ARG:
                    action(at)
                else:
                    action(arg, at)
            if not queue or queue[0] >= until:
                break
            replicator.fast_forward(self, until)
        del self._on_hop, self._bound

    def run_until(self, t_end: int) -> None:
        """Process every event with time <= t_end, then settle leftovers.

        Packets that are neither delivered nor dropped when the horizon
        closes count as dropped; the measurement window ended before they
        arrived.
        """
        self.advance(t_end + 1)
        self.now = t_end
        self._queue.clear()
        for record in self.log.packets.open:  # closed parts are finished
            if record.delivered_at is None and record.drop_reason is None:
                record.drop_reason = "end_of_run"

    def branch(self, injections: list[Injection]) -> "Kernel":
        """A twin of this kernel that goes on as a fresh run with injections
        would (see "Branching"); injections must agree with the applied
        ones and hold no other due before the time advance reached."""
        applied = self.log.injections[:self._applied]
        pending = sorted(injections, key=attrgetter("at"))
        if pending[:self._applied] != applied:
            raise ValueError("branch disagrees on an applied injection")

        twin = Kernel.__new__(Kernel)
        topology = self.topology.twin()
        store = self.store.twin()
        packets, routes = self.log.packets, self.log.routes
        # The controller only closes cycles into the estimation log.
        log = RunLog(PartLog(closed=packets.closed),
                     PartLog(closed=self.log.estimation.closed),
                     PartLog(list(routes.open), routes.closed),
                     ped_changes=store.ped_changes, injections=applied,
                     **{stream: list(getattr(self.log, stream))
                        for stream in _LISTED_STREAMS})
        flows = {flow_id: _FlowState(state.flow, state.pair, state.covered,
                                     state.bits_sent, state.next_seq,
                                     state.started)
                 for flow_id, state in self._flows.items()}
        controller = self.controller.twin(twin, topology, store, log)
        # Both kernels number on from seq.
        seq = next(self._seq)
        self._seq = itertools.count(seq)

        twin.topology = topology
        twin.config = self.config
        twin.log = log
        twin.now = self.now
        twin._queue = queue = []
        twin._seq = itertools.count(seq)
        twin.egress_free = dict(self.egress_free)
        twin._last_down = dict(self._last_down)
        twin._forwarding = {key: list(entries)
                            for key, entries in self._forwarding.items()}
        twin._plans = {}  # refilled over the twin's Links as packets ask
        twin._host_delay = self._host_delay
        twin._queue_limit = self._queue_limit
        twin._applied = self._applied
        twin._reached = self._reached
        twin._setup_end = self._setup_end
        twin.replicator = self.replicator and self.replicator.twin()
        twin.forwarding_changes = self.forwarding_changes
        twin.store = store
        twin._flows = flows
        twin.controller = controller

        # The heap in the same order, each action bound to the twin's
        # kernel or controller and each argument mapped to its twin.
        owners = {id(self): twin, id(self.controller): controller}
        in_flight: dict[int, PacketRecord] = {}
        for at, number, action, arg in self._queue:
            owner = owners.get(id(getattr(action, "__self__", None)))
            kind = type(arg)
            if owner is None or not (kind in _BRANCHED_ARGS or arg is _NO_ARG):
                raise TypeError(f"cannot branch a heap entry running "
                                f"{action!r} on {arg!r}")
            if kind is _Packet:
                record = arg.record
                copied = in_flight[id(record)] = PacketRecord(
                    record.flow_id, record.seq, record.pair, record.covered,
                    record.length, record.sent_at, record.path,
                    record.delivered_at, record.drop_reason,
                    record.actual_delay, record.queue_wait)
                packet = _Packet(copied, twin._hop_plan(record.path,
                                                        record.length),
                                 arg.entered)
                packet.hop = arg.hop
                arg = packet
            elif kind is _FlowState:
                arg = flows[arg.flow.id]
            queue.append((at, number, MethodType(action.__func__, owner),
                          arg))
        log.packets.open = [in_flight.get(id(record), record)
                            for record in packets.open]

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
        self.forwarding_changes += 1

    def forwarding_settled(self, now: int) -> bool:
        """Whether every forwarding entry is active by now, so that
        forwarding_path gives the same answers at every later instant
        until the next set_forwarding."""
        return all(active_at <= now for entries in self._forwarding.values()
                   for active_at, _ in entries)

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
        length = flow.packet_length
        state.bits_sent += length
        path = self.forwarding_path(state.pair, at)
        record = PacketRecord(flow.id, state.next_seq, state.pair,
                              state.covered, length, at, path)
        self.log.packets.open.append(record)
        ingress = None
        if path is None:
            record.drop_reason = "no_route"
        else:
            reach = at + self._host_delay
            ingress = (reach, next(self._seq), self._on_hop,
                       _Packet(record, self._hop_plan(path, length), reach))
        state.next_seq += 1
        queue = self._queue
        # Flow guarantees a positive gap whenever another packet fits.
        if state.bits_sent + length <= flow.total_volume:
            heapq.heappush(queue, (at + flow.inter_packet_gap,
                                   next(self._seq), self._flow_tick, state))
        if ingress is not None:
            if queue and queue[0] < ingress or not ingress < self._bound:
                heapq.heappush(queue, ingress)
            else:
                at, _, hop, packet = ingress
                self.now = at
                hop(packet, at)

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

    def _hop(self, packet: _Packet, at: int) -> None:
        """A packet's ingress or arrival, and each next arrival that would
        pop next (see "Heap entries")."""
        record, hops = packet.record, packet.hops
        queue, bound, egress_free = self._queue, self._bound, self.egress_free
        while True:
            hop = packet.hop
            if hop:
                link, _, key, _, _ = hops[hop - 1]
                if link.state is not LINK_UP or self._last_down and (
                        packet.entered <= self._last_down.get(key, -1) < at):
                    record.drop_reason = "link_down"
                    return
            if hop == len(hops):
                record.delivered_at = delivered = at + self._host_delay
                record.actual_delay = delivered - record.sent_at
                return
            link, egress, _, td, propagation = hops[hop]
            if link.state is not LINK_UP:
                record.drop_reason = "link_down"
                return
            free = egress_free.get(egress, 0)
            start = at if at >= free else free
            wait = start - at
            if wait > self._queue_limit:
                record.drop_reason = "queue_overflow"
                return
            egress_free[egress] = start + td
            record.queue_wait += wait
            packet.hop, packet.entered = hop + 1, at
            arrival = (start + td + propagation, next(self._seq),
                       self._on_hop, packet)
            if queue and queue[0] < arrival or not arrival < bound:
                heapq.heappush(queue, arrival)
                return
            at = self.now = arrival[0]
