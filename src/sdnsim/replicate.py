"""Fast-forward: a kernel's Replicator copies the periods that repeat.

Fast-forward.  The flows whose gap is the smallest positive one, P, lead.
Whenever the heap's head passes a multiple of P, the kernel takes a
snapshot at the last such multiple x, before any heap entry at or after x
runs: the replicated entries, that is the leading flows' pending ticks and
the packets in flight, relative to x and in heap order (see "Pipelined
periods"), the egresses busy after x with their busy-until times less x,
the topology's version (its count of link state changes), the kernel's
count of forwarding changes (set_forwarding is the one mutator) and the
length of the open packet log.  Transport reads these, the forwarding
entries' activation times and the instant each link last went down.
Replication from x needs the snapshot at x - P to equal the one at x (so
no link state change or forwarding change in [x - P, x)), one record
logged in [x - P, x) per pending leading tick (no flow of another gap sent
and no flow started then: a flow's first tick logs a record that no tick
pending at x - P accounts for), and no injection due in [x - P, x):
advance applies an injection before the snapshot of its instant, so a
link taken down at x - P leaves both versions alike, yet drops a packet
of that period and none of the next.  Let the horizon H be the earliest
of the other heap entries (cycle boundaries, controller events, the
ticks of flows of other gaps or yet to start), the forwarding
activations from x - P on and the advance target, which never passes the
next injection; no forwarding entry becomes active and no link goes down
in [x - P, H).  Other handlers that ran in [x - P, x), a cycle boundary's
estimation and routing or a controller's pending delivery, changed nothing
transport reads: estimation only reads the egress times, and a handler
that changed a link or a route moved a count.  So the period from x - P
ran under the state that holds until H, and each whole period from x that
ends by H repeats it shifted by P, as nothing but the replicated entries
and what they schedule runs before H.  The kernel logs n such periods,
stopping short of each leading flow's last packet, as one part of its
packet log (runlog.Part): copies 1 to n of the records that finished in
the last simulated period, one per leading flow, seq stepped by 1 and
sent_at and delivered_at by P, with no record built.  The part closes the
open list up to the records of the packets still in flight, which stay
open, so the closed parts, which branches share and the end-of-run settle
skips, hold finished records only; PartLog.close merges the copies that go
on from a part's last copy into a new, longer part.  The kernel moves the
leading flows' counters, their ticks, the packets in flight, each egress
the period used and the clock on by nP, without renumbering: every entry a
period schedules numbers above every entry pending at its start, and the
snapshot holds the replicated entries in (time, number) order, ties
included, so each copy pops them in the order of the period from x - P.
An other entry pending among them, as one a handler scheduled inside the
compared period, would run after an entry that a copy schedules at a later
instant, though simulated it numbers below that entry; so the kernel
replicates only when every pending other entry numbers below every
replicated one.

Pipelined periods.  A leading flow whose gap is below its path's latency
has packets in flight at every period instant, as do the paper's line-rate
bursts.  The snapshot describes each by its arrival time, hop index,
entered, sent_at, queue_wait and seq, the times less x and the seq less
x // P, with its flow and path: a leading flow logs one record per period,
so a packet that stands where one stood a period earlier has the same
description.  Equal snapshots thus pair each packet in flight at x with
one in its place at x - P, which the period from x - P moved to the place
of one at x or finished.  So a leading flow's packets in flight are its
last L records at both instants, and its record z just before them
finished in [x - P, x).  The packet with z's seq plus j, for j from 1 to
n, reaches z's place at x - P + jP and finishes as z did, shifted by jP:
the copies of the z records are the records that finish in the copies.
The kernel checks that the records of the packets in flight are the open
list's last ones and that the k before them hold one record per leading
flow; those are the z records, and as the flows send in the same order
every period, the records after them are their copies in turn.  It closes
the copies and moves each record still in flight on to the one of the
packet in its place at x + nP: seq by n, sent_at by nP.  A link that went
down and came back up before x - P still drops, on arrival, a packet that
entered it before it went down (_last_down), while the packet in its place
at x entered P later, perhaps after; so the kernel replicates only when
every packet in flight at x - P entered its hop after the last link-down.
A packet on its way to its ingress switch has its arrival there as
entered: it is described alike at both instants and, as no injection is
due in [x - P, x), comes after every link-down.  An egress busy after
x - P was used in [x - P, x), as a use sets its time past x - P (a packet
takes a positive transmission delay, else there is no replicator), and a
time set earlier and still past x - P would stand at x with another value
less x, which the equal busy egresses rule out.  Every copy uses such an
egress again, so its time moves on by nP, and every other egress time
stays.  Flows of other gaps change nothing of this: their ticks are other
entries, and a period in which one sent logged a record that no leading
tick accounts for.

When to look.  A snapshot scans the heap, so the kernel skips it at O(1)
cost where no comparison can succeed: after a period that logged more
records than there are leading flows (a flow of another gap sent) or in
which the heap grew (a pipeline filling), and until a leading flow's first
tick when none sends.  After failed comparisons in a row with packets in
flight it waits twice as many periods each time before it looks again, up
to _MAX_WAIT.  These choose when to look, never what a copy holds.  Both
rules stay: one doubling back-off after every refusal cut a mesh's
crossings sevenfold on the benchmark's workloads, but replicated fewer
packets of a line-rate chain and made it about a fifth slower.

Boundaries on the period grid.  When the estimation interval is a multiple
of P, as in the bundled scenarios, each cycle boundary falls on a snapshot
instant x as the earliest other entry, so the horizon stops at x.  The
kernel instead runs the boundary there itself, extending the argument
above from handlers that ran in [x - P, x) to one at x.  At x the packets
in flight and the egress times are where simulation leaves them, so the
estimation cycle reads what simulation gives it.  Setup numbers a boundary
below every tick and packet, so the boundary entries due at x pop first
there; the kernel pops and runs those alone, and only when they sort below
until.  It goes on from x only when, after them, the two counts are as
they were, no other entry is left at x and every pending other entry still
numbers below every replicated one: the boundary then moved no link or
route and scheduled nothing a copy could run out of order.  Like the
handlers in [x - P, x) it changed nothing else transport reads (the
estimation cycle reads the egress times, and the proactive
cycle reaches forwarding only through set_forwarding), so the period from
x - P is a template for the periods from x too.  Simulated, the boundary
runs before every event of the period from x, so the clock after n copies
is still the template period's last event plus nP.  Otherwise the kernel
returns with the snapshot it took before the boundary and the clock at x,
where simulation stands once the boundary has run.  Boundaries off the
period grid bound the horizon like any other entry, and those sharing
their instant with a flow's start are simulated as before.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import Flow, Link, SwitchId, Topology, transmission_delay
from .runlog import Part, PacketRecord

# The most periods fast-forward waits between two snapshots after failed
# comparisons with packets in flight (see "When to look").
_MAX_WAIT = 256


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


class Replicator:
    """A kernel's fast-forward state: P, the number of leading flows, the
    next instant to look at, the last snapshot as (instant, replicated
    entries, busy egresses, (link state changes, forwarding changes), open
    packets), the last multiple of P crossed as (instant, heap size, open
    packets) and the periods to wait."""

    def __init__(self, period: int, leads: int) -> None:
        self.period = period
        self._leads = leads
        self.at: float = 0
        self._snapshot: tuple | None = None
        self._looked = (-1, 0, 0)
        self._wait = 1

    @staticmethod
    def of(topology: Topology, flows: list[Flow]) -> Replicator | None:
        """The replicator for a kernel, or None when no flow has a positive
        gap or a packet could cross a link in 0 ns (see "Pipelined
        periods")."""
        gaps = [flow.inter_packet_gap for flow in flows
                if flow.inter_packet_gap > 0]
        capacities = [link.capacity_bps for link in topology.links()]
        if not gaps or capacities and transmission_delay(
                min(flow.packet_length for flow in flows),
                max(capacities)) == 0:
            return None
        period = min(gaps)
        return Replicator(period, gaps.count(period))

    def twin(self) -> Replicator:
        """A copy for a twin of the kernel, sharing the immutable snapshot."""
        twin = Replicator(self.period, self._leads)
        twin.at, twin._snapshot = self.at, self._snapshot
        twin._looked, twin._wait = self._looked, self._wait
        return twin

    def fast_forward(self, kernel, until: tuple[int, int]) -> None:
        """Snapshot at the last multiple x of P that the kernel's heap head
        has reached and, when nothing transport reads changed since x - P,
        replicate the whole periods from x that end by until, running a
        cycle boundary due at x first (see "Fast-forward")."""
        queue, period = kernel._queue, self.period
        head = queue[0][0]
        x = head - head % period
        self.at = x + period
        since = x - period
        # The O(1) skip (see "When to look").
        packets, last_down = kernel.log.packets, kernel._last_down
        size, logged = len(queue), len(packets.open)
        looked, self._looked = self._looked, (x, size, logged)
        if looked[0] == since and (looked[1] < size
                                   or logged - looked[2] > self._leads):
            self._snapshot = None
            return
        last = self._snapshot
        now = kernel.now  # the last event of the period that copies repeat
        boundary = kernel.controller.on_cycle_boundary
        base = x // period  # a leading flow's seq less base repeats
        snapshot = None
        while True:
            # The replicated entries, the leading flows' ticks and the
            # packets in flight, as (time, number, index in the heap, what
            # else the snapshot holds of them).
            ticks, flying = [], []
            other: float = math.inf
            latest = -1  # the highest number of a pending other entry
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
                if (kind is _FlowState
                        and arg.flow.inter_packet_gap == period):
                    if arg.started:
                        ticks.append((at, seq, index, arg.flow.id))
                        continue
                    if at < start:
                        start = at
                if at < other:
                    other = at
                if seq > latest:
                    latest = seq
            if not ticks:
                # Nothing repeats before a leading flow's first tick.
                self._snapshot, self._wait = None, 1
                self.at = max(start, x + period)
                return
            entries = ticks + flying
            entries.sort()
            shape = tuple((at - x, held) for at, _, _, held in entries)
            # An egress is busy only under a packet in flight.
            busy = tuple((egress, free - x) for egress, free
                         in kernel.egress_free.items() if free > x) if (
                flying) else ()
            counts = (kernel.topology.version, kernel.forwarding_changes)
            if snapshot is None:  # before any entry at x runs
                snapshot = self._snapshot = (x, shape, busy, counts, logged)
            if last is None or last[0] != since:
                return
            applied, injections = kernel._applied, kernel.log.injections
            if (last[1:4] != (shape, busy, counts)
                    or logged - last[4] != len(ticks)
                    or applied and injections[applied - 1].at >= since
                    or min(seq for _, seq, _, _ in entries) < latest
                    or flying and last_down and min(
                        queue[index][3].entered for _, _, index, _ in flying)
                    - period <= max(last_down.values())):
                if flying:
                    # The back-off (see "When to look").
                    self.at = x + self._wait * period
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
            kernel.now = x
            boundary(x)
        horizon = min(other, until[0], *(
            active_at for entries in kernel._forwarding.values()
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
        for at, seq, index, _ in entries:
            _, _, action, arg = queue[index]
            queue[index] = (at + span, seq, action, arg)
            if type(arg) is _Packet:
                arg.entered += span
                arg.record.seq += n
                arg.record.sent_at += span
        heapq.heapify(queue)
        egress_free = kernel.egress_free
        for egress, free in egress_free.items():
            if free > since:
                egress_free[egress] = free + span
        kernel.now = now + span
        # The last period is now the part's last copy, which sent k records.
        self._snapshot = (x + span - period, shape, busy, counts,
                          len(packets.open) - k)
        self.at = x + span
        self._wait = 1
