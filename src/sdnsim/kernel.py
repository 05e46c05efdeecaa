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

Heap entries are (time, sequence, action, argument), with bound methods
as actions, so no closure is built per event.  One handler, _hop, takes
each hop of a packet: at ingress or on arrival it delivers the packet or
reserves its next egress and pushes its arrival there.  Setup
and the controller use the checked schedule_call; transport pushes
directly, as its times are never past: a tick is a positive gap ahead, an
ingress the host delay, an arrival the egress wait, transmission and
propagation delay (SimConfig, Link and Flow reject negatives).  An
entry transport makes is run on at once, in the call that made it, when
it sorts below both the heap's head and the bound _run_before drains to:
the advance target, the (instant, number) that an injection waits
behind, or the next instant fast-forward looks at.  Such an entry
is the very next one the loop would pop, and nothing reads the heap in
between, so handlers run in the same order at the same clock and draw
the same sequence numbers.  A packet that leads the queue, as the
packets of sparse flows mostly do, thus crosses its hops in one call;
_flow_tick numbers the ingress, pushes the next tick and then runs the
ingress on if it would pop next.

Injections never enter the heap.  The log holds them as one time-sorted
list, and advance applies each after the heap entries setup numbered at
its instant (cycle boundaries, flow starts) and before every other entry
there: an injection landing on a boundary is seen by the following cycle.

Branching.  A kernel's state once advance has reached t is therefore a
pure function of its scenario without injections, its variant and the
injections due before t.  branch builds a twin of a kernel part-way
through a run for another injection list that agrees with its own before
t, so runs whose lists agree up to t compute their common history once.
The twin gets its own copy of every piece of state a run changes, and
each owner copies its own: Topology.twin makes new Links in their
current states, ContractStore.twin new pairs and its list of bound
changes, and ResilienceManager.twin the controller's cost matrix, routed
pairs and pending events and a probe plan over the twin's Links.  The
kernel copies its egress, link-down and forwarding tables with the count
of forwarding changes, the flows' states, each log stream's list, the
open lists of the packet and route logs and the heap.  The heap keeps
its order and sequence numbers; each action is bound to the twin's
kernel or controller, each flow's tick to the twin's flow state, and
each packet in flight becomes a new packet with a copy of its record, in
the same place of the twin's open list, on a hop plan over the twin's
Links (plans refill as packets ask).
An argument of any other kind is refused, so that no new kind of heap
entry is shared by accident.  What no run changes is shared: flows, the
config and control channel, the variant, estimation records, routes and
the route memo (keyed by content, see resilience), the fast-forward
snapshot, the closed parts of the packet, estimation and route logs
(runlog.Part) with the plan's idle template, and the applied
injections.  Copies are built by their constructors or by plain
attribute assignment, not by copy.deepcopy, whose generic walk of every
reachable object cost several times a fresh kernel's set-up.

Fast-forward.  The flows whose gap is the smallest positive one, P, lead:
once they settle into a steady state, transport repeats every P, and the
kernel replicates whole periods instead of simulating them.  Whenever the
heap's head passes a multiple of P, the kernel takes a snapshot at the
last such multiple x, before any heap entry at or after x runs: the
replicated entries, that is the leading flows' pending ticks and the
packets in flight, relative to x and in heap order (see "Pipelined
periods"), the egresses busy after x with their busy-until times less x,
the topology's version (its count of link state changes), the kernel's
count of forwarding changes (set_forwarding is the one mutator), the
number of flows yet to start, and the length of the open packet log.
Those are what transport reads, with two more: the forwarding entries'
activation times and the instant each link last went down.  Replication
from x needs the snapshot at x - P to equal the one at x: the same
replicated entries and busy egresses, no link state change, forwarding
change or flow start in [x - P, x), and one record logged in [x - P, x)
per pending leading tick, so that no flow of another gap sent then.  Let
the horizon H be the earliest of the other heap entries (cycle
boundaries, controller events, the ticks of flows of other gaps or yet to
start), the forwarding activations from x - P on and the advance target
(which never passes the next pending injection); no forwarding entry
becomes active in [x - P, H).  Replication also needs no injection due
in [x - P, x): advance applies an injection before the snapshot of its
instant, so a link taken down at x - P by one leaves the version of both
snapshots alike, yet it drops a packet of that period, which entered the
link at x - P, and none of the next.  Other handlers may have run in
[x - P, x), a cycle boundary's estimation and routing or a controller's
pending delivery, but they changed nothing transport reads: estimation
only reads the egress times, and a handler that changed a link or a
route moved a count.  So the period from x - P ran under the state that
holds until H: the same ticks, packets in flight, busy egresses, paths
and link states, and no link going down from then on.  The period from
x therefore repeats it shifted by P, and so does each whole period that
ends by H, as nothing but the replicated entries and what they schedule
runs before H.  The kernel logs n such periods, stopping short of each
leading flow's last packet, as one part of its packet log (runlog.Part):
copies 1 to n of the records that finished in the last simulated period,
one per leading flow, seq stepped by 1 and sent_at and delivered_at by
P, with no record built.  The part closes the log's open list up to the
records of the packets still in flight, which stay open: every record
before them is finished, branches share those closed parts as they are,
and the end-of-run settle reads only the open list.  A fast-forward that
goes on from the previous one's last copy closes the next copies of that
part's template, which PartLog.close merges into one longer part; parts
are never changed in place, as branches share them.  It moves the
leading flows' counters, their ticks, the packets in flight, each egress
the period used and the clock on by nP.  Sequence order is kept without
renumbering.  Every entry a period schedules numbers above every entry
pending at its start, and the snapshot holds the replicated entries in
(time, number) order, ties included, so each copy pops them in the same
order as the period from x - P.  An other entry that a handler
scheduled after some of them, as inside the compared period, numbers
above those, though: simulated, it numbers below the entry it meets at a
later instant, which a copy schedules, and replicated it would run after
that entry.  So the kernel replicates only when every pending entry
other than a replicated one numbers below every replicated one.  Entries
scheduled later number above all of them.

Pipelined periods.  A leading flow whose gap is below its path's latency
has packets in flight at every period instant, as do the paper's
line-rate bursts.  The snapshot describes each by its arrival time, hop
index, entered, sent_at, queue_wait and seq, the times less x and the
seq less x // P, with its flow and path: a leading flow logs one record
per period, so a packet that stands where one stood a period earlier
has the same description.  Equal snapshots thus pair each packet in
flight at x with one that stood in its place at x - P, and the period
from x - P moved each of those on to the place of one at x or finished
it.  So a leading flow's packets in flight are its last L records, L the
same at both instants, and its record just before them, z, finished in
[x - P, x).  The packet with z's seq plus j, for j from 1 to n, reaches
z's place at x - P + jP and finishes as z did, shifted by jP: the
records that finish in the copies are the copies of the z records.  The
kernel checks that the records of the packets in flight are the open
list's last ones and that the k before them hold one record per leading
flow; those are the z records, and as the flows send in the same order
every period, the records that follow them in the log are their copies
in turn.  It closes the copies, and moves each record still in flight on
to the one of the packet that stands in its place at x + nP: seq by n,
sent_at by nP.  Three more things keep the copies exact.  A link that
went down and came back up before x - P still drops, on arrival, a packet
that entered it before it went down (_last_down), while the packet in
its place at x entered P later, perhaps after; so the kernel replicates
only when every packet in flight at x - P entered its hop after the last
instant a link went down, and no link goes down before H.  A packet on
its way to its ingress switch is on no link yet: its entered is the
instant it reaches the switch, its arrival time, so it is described
alike at both instants and, pending at x - P, comes after every
link-down, as no injection is due in [x - P, x).  An egress busy
after x - P was used in [x - P, x): a use sets its time past x - P, as
every packet takes a positive transmission delay (the kernel does not
fast-forward otherwise), and a time set earlier and still past x - P
would stand at x with another value less x, which the equal busy
egresses rule out.  Each such egress is used again in every copy, so its
time moves on by nP, and every other egress time stays.  Flows of other
gaps change nothing of this: their ticks are other entries, and a period
in which one sent logged a record that no leading tick accounts for.
A snapshot scans the heap, so the kernel skips it at O(1) cost where no
comparison can succeed: after a period that logged more records than
there are leading flows (a flow of another gap sent) or in which the
heap grew (a pipeline filling), and until a leading flow's first tick
when none sends.  After failed comparisons in a row with packets in
flight it waits twice as many periods each time before it looks again,
up to _MAX_WAIT.  These choose when to look, never what a copy holds.

Boundaries on the period grid.  When the estimation interval is a
multiple of P, as in the bundled scenarios, each cycle boundary falls on a
snapshot instant x, where it is the earliest entry other than a
replicated one, so the horizon stops at x and the period from x would be
simulated again.  The kernel instead runs the boundary there itself,
which extends the argument above from handlers that ran in [x - P, x) to
one that runs at x.  At x the state is the one simulation reaches: the
copies end by x, and the packets in flight and the egress times are where
simulation leaves them, so the estimation cycle reads the egress times
that simulation gives it.  Setup numbers a boundary below every tick and
packet, so the boundary entries due at x are the ones simulation pops
first there; the kernel pops and runs those alone, and only when they
sort below until.  It goes on from x only when, after them, the three
counts are as they were, no other entry is left at x and every pending
other entry still numbers below every replicated one: the boundary then
moved no link or route, started no flow and scheduled nothing a copy
could run out of order.  Like the handlers in [x - P, x) it changed
nothing else transport reads (the estimation cycle reads the egress
times, and the proactive cycle reaches forwarding only through
set_forwarding), so the period from x - P is a template for the periods
from x too.  Simulated, the boundary runs before every event of the
period from x, so the clock after n copies is still the template
period's last event plus nP.  Otherwise the kernel returns with the
snapshot it took before the boundary and the clock at x, where
simulation stands once the boundary has run, and simulation goes on
from there.  Boundaries off the period grid bound the horizon like any
other entry, and those sharing their instant with a flow's start are
simulated as before.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from operator import attrgetter
from types import MethodType
from typing import Any, Callable

from .contracts import ContractPair, ContractStore
from .core import (
    ControlChannel,
    Flow,
    Link,
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
from .resilience import MechanismVariant, ResilienceManager
from .runlog import Part, PacketRecord, PartLog, RunLog


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

# The most periods fast-forward waits between two snapshots after failed
# comparisons with packets in flight (see "Pipelined periods").
_MAX_WAIT = 256

# Marks a heap entry whose action takes the event time alone.
_NO_ARG = object()


class _Packet:
    """A packet in flight: its record, hop plan, the index of its next hop
    and the time it entered the hop it is on, or, before its first hop,
    the time it reaches its ingress switch."""

    __slots__ = ("record", "hops", "hop", "entered")

    def __init__(self, record: PacketRecord, hops: tuple[_Hop, ...],
                 entered: int) -> None:
        self.record = record
        self.hops = hops
        self.hop = 0
        self.entered = entered


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
                 control: ControlChannel, routes: dict | None = None) -> None:
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
        # Fast-forward (see "Fast-forward"): the smallest gap P, the next
        # instant to snapshot at (never without a positive gap or when a
        # packet could cross a link in no time), the last snapshot as
        # (instant, replicated entries, busy egresses, (link state changes,
        # forwarding changes, flows yet to start), open packets), the number
        # of leading flows, the last multiple of P crossed as (instant, heap
        # size, open packets), and the periods to wait after a failed
        # comparison.
        gaps = [flow.inter_packet_gap for flow in flows
                if flow.inter_packet_gap > 0]
        self._period = min(gaps, default=0)
        if flows and transmission_delay(
                min(flow.packet_length for flow in flows),
                max(link.capacity_bps for link in topology.links())) == 0:
            self._period = 0
        self._period_at: float = 0 if self._period > 0 else math.inf
        self._snapshot: tuple | None = None
        self._leads = gaps.count(self._period)
        self._looked = (-1, 0, 0)
        self._wait = 1

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
            variant, topology, control, self.store, self, config, self.log,
            routes)

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
        # Transport pushes this one bound method; it is dropped on leaving,
        # so that a finished kernel holds no reference cycle.
        self._on_hop = self._hop
        while True:
            # Stop at the next multiple of the period to fast-forward there;
            # transport runs an entry below this bound on inline when it
            # would pop next (see "Heap entries").
            stop = self._bound = min(until, (self._period_at, -1))
            while queue and queue[0] < stop:
                at, _, action, arg = pop(queue)
                self.now = at
                if arg is _NO_ARG:
                    action(at)
                else:
                    action(arg, at)
            if not queue or queue[0] >= until:
                break
            self._fast_forward(until)
        del self._on_hop, self._bound

    def _fast_forward(self, until: tuple[int, int]) -> None:
        """Snapshot at the last multiple x of the period that the heap's
        head has reached, and replicate the whole periods from x that end
        by until when nothing transport reads changed since the snapshot
        at x - P (see "Fast-forward" and "Pipelined periods"), running a
        cycle boundary due at x first when it changes nothing transport
        reads."""
        queue, period = self._queue, self._period
        head = queue[0][0]
        x = head - head % period
        self._period_at = x + period
        since = x - period
        # A last period that logged more records than there are leading
        # flows (a flow of another gap sent), or in which the heap grew,
        # leaves no steady state to compare.
        packets = self.log.packets
        size, logged = len(queue), len(packets.open)
        looked, self._looked = self._looked, (x, size, logged)
        if looked[0] == since and (looked[1] < size
                                   or logged - looked[2] > self._leads):
            self._snapshot = None
            return
        last = self._snapshot
        now = self.now  # the last event of the period that copies repeat
        boundary = self.controller.on_cycle_boundary
        base = x // period  # a leading flow's seq less base repeats
        snapshot = None
        while True:
            # The replicated entries, the leading flows' ticks and the
            # packets in flight, as (time, number, index in the heap, what
            # else the snapshot holds of them).
            ticks, flying = [], []
            other: float = math.inf
            latest = -1  # the highest number of a pending other entry
            unstarted = 0  # pending first ticks
            start: float = math.inf  # a leading flow's first tick
            for index, (at, seq, _, arg) in enumerate(queue):
                kind = type(arg)
                if kind is _Packet:
                    record = arg.record
                    flying.append((at, seq, index, (
                        record.flow_id, arg.hop, arg.entered - x,
                        record.sent_at - x, record.queue_wait,
                        record.seq - base, record.path)))
                    continue
                if kind is _FlowState:
                    lead = arg.flow.inter_packet_gap == period
                    if arg.started:
                        if lead:
                            ticks.append((at, seq, index, arg.flow.id))
                            continue
                    else:
                        unstarted += 1
                        if lead and at < start:
                            start = at
                if at < other:
                    other = at
                if seq > latest:
                    latest = seq
            if not ticks:
                # Nothing repeats before a leading flow's first tick.
                self._snapshot, self._wait = None, 1
                self._period_at = max(start, x + period)
                return
            entries = ticks + flying
            entries.sort()
            shape = tuple((at - x, held) for at, _, _, held in entries)
            # An egress is busy only under a packet in flight.
            busy = tuple((egress, free - x) for egress, free
                         in self.egress_free.items() if free > x) if (
                flying) else ()
            counts = (self.topology.version, self.forwarding_changes,
                      unstarted)
            if snapshot is None:  # before any entry at x runs
                snapshot = self._snapshot = (x, shape, busy, counts, logged)
            if last is None or last[0] != since:
                return
            applied = self._applied
            if (last[1:4] != (shape, busy, counts)
                    or logged - last[4] != len(ticks)
                    or applied and self.log.injections[applied - 1].at >= since
                    or min(seq for _, seq, _, _ in entries) < latest
                    or flying and self._last_down and min(
                        queue[index][3].entered for _, _, index, _ in flying)
                    - period <= max(self._last_down.values())):
                if flying:
                    # Wait twice as long after each failed comparison in a
                    # row that scanned packets in flight, up to _MAX_WAIT.
                    self._period_at = x + self._wait * period
                    self._wait = min(2 * self._wait, _MAX_WAIT)
                return
            if other != x:
                break
            # Run a cycle boundary due at x, then look again (see
            # "Boundaries on the period grid").
            entry = queue[0]
            if entry[2] != boundary or entry[:2] >= until:
                return
            heapq.heappop(queue)
            self.now = x
            boundary(x)
        horizon = min(other, until[0], *(
            active_at for entries in self._forwarding.values()
            for active_at, _ in entries if active_at >= since))
        states = [queue[index][3] for _, _, index, _ in ticks]
        n = min((horizon - x) // period,
                min((state.flow.total_volume - state.bits_sent)
                    // state.flow.packet_length for state in states) - 1)
        if n <= 0:
            return

        # The records of the packets in flight are the last of the open
        # list, and the k before them, one per flow of gap P, finished in
        # the last period: they are the template.  When the open list holds
        # the flight alone, they are the last part's last copy, and the
        # copies go on from there; close lengthens that part.
        records = packets.open
        cut, k = len(records) - len(flying), len(ticks)
        flight = records[cut:]
        if cut >= k:
            template, first = tuple(records[cut - k:cut]), 1
        elif cut == 0:
            part = packets.closed[-1]
            template, first = part.template, part.first + part.n
        else:
            return
        if flight and (any(record.delivered_at is not None
                           or record.drop_reason is not None
                           for record in flight)
                       or {record.flow_id for record in template}
                       != {state.flow.id for state in states}):
            return
        del records[cut:]
        packets.close(Part(template, first, n, (
            ("seq", 1), ("sent_at", period), ("delivered_at", period))))
        packets.open.extend(flight)
        span = n * period
        for state in states:
            state.bits_sent += n * state.flow.packet_length
            state.next_seq += n
        for at, seq, index, _ in ticks:
            _, _, action, arg = queue[index]
            queue[index] = (at + span, seq, action, arg)
        for at, seq, index, _ in flying:
            _, _, action, packet = queue[index]
            queue[index] = (at + span, seq, action, packet)
            packet.entered += span
            record = packet.record
            record.seq += n
            record.sent_at += span
        heapq.heapify(queue)
        for egress, free in self.egress_free.items():
            if free > since:
                self.egress_free[egress] = free + span
        self.now = now + span
        # The last period is now the part's last copy, which sent k records.
        self._snapshot = (x + span - period, shape, busy, counts,
                          len(packets.open) - k)
        self._period_at = x + span
        self._wait = 1

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
        twin.control = self.control
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
        twin._period = self._period
        twin._period_at = self._period_at
        twin._snapshot = self._snapshot
        twin._leads = self._leads
        twin._looked = self._looked
        twin._wait = self._wait
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
