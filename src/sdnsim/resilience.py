"""Resilience management: event monitors, control logic and responses.

Four controller configurations differ in which machinery is enabled:

=========== ========= ======== =========
mechanism   proactive reactive weak
=========== ========= ======== =========
SDN-woRM    no        no       no
SDN-sRM     yes       yes      no
SDN-pRM     yes       no       yes
SDN-RM      yes       yes      yes
=========== ========= ======== =========

Monitors turn link failures (E1) and runtime requirement changes (E2) into
notifications.  Reactive configurations act on a notification as soon as it
reaches the controller; proactive-only ones act at the next estimation
cycle; without resilience management nothing acts at all.  The control
logic maps a reported fault to a response: reroute (RS1), additionally fall
back to the weak contract (RS2), or issue a warning when even the weak
requirement is out of reach (RS3).  A warning does not touch forwarding
state; rules persist as last installed.

Network-state memo.  find_path reads only the Up links, the cost
matrix, src and dst.  Capacities, propagation delays and the switch and
link sets are fixed by the topology spec, and one run_experiment call
sweeps a single spec, control channel and config, so within a call a
route is a function of the set of Down links, the matrix's content, src
and dst alone, and an idle estimation cycle of the Down links alone (see
"Idle templates" in delay_estimation).  One dict holds both, keyed by
that content: under (Down links, matrix items), the answer per (src,
dst) met so far, "no path" included; under the Down links, the idle
cycle's matrix and template.  run_experiment hands one such memo to
every kernel it starts, so sibling variants, seeds and sweep values, and
their twins, solve each path and estimate each idle state once;
run_single's kernel keeps its own.  Topology.version is never part of a
key, as twins and siblings reach one version with different links down.
Topology.down, the Down links, is rebuilt only when the version moves
(set_link_state is the only mutator of link state), and the manager
looks its routes up again only then or when a cycle's matrix has other
costs than the previous cycle's, so a request stays one (src, dst)
lookup.  Each request still logs its own RouteRecord and each cycle its
own estimation part, so a run's log is the same with the memo as
without.

Idle cycles.  A proactive cycle reads the placed pairs, each pair's
bounds and active kind, its forwarding path at now with the states of
that path's links, the cost matrix and the memo's routes, which are a
function of the Down links and the matrix.  Call a cycle idle when
it logged no fault and left the topology version, the kernel's count of
forwarding changes, the count of bound changes and the count of routed
pairs as it found them, with every forwarding entry active by its
instant.  Suppose the next cycle finds those four counts and the matrix
as the idle one left them.  No event is pending then, as a link failure
is queued only with a version change and a requirement change only with
a bound change.  The cycle reads the same inputs: link states change
only with the version, bounds and active kinds only with a bound change,
forwarding entries only with a forwarding change, and a forwarding path
answers alike at both instants since no entry becomes active between
them; routed pairs are only ever added.  So it makes the same choices:
no weak-to-strong switch and no fault, as the idle cycle made none, and
the same routes, none installed.  observe, the weak-to-strong switch,
_attribute and the installs read now, but only on the paths that a
switch, a fault or an install takes, so now enters the cycle's output
only as the at of its RouteRecords.  Such a cycle therefore evaluates
nothing, is itself idle and logs the idle cycle's route records with at
moved to now: it closes copy k of them as a runlog.Part that steps at by
the estimation interval, k cycles after the idle one, and builds no
record.  That is exact, as Kernel.setup runs cycle c at c intervals, and
PartLog.close makes a run of replays of one idle cycle a single part.  A
boundary whose matrix differs from the last one forgets the idle cycle.
"""

from __future__ import annotations

import logging
import weakref
from dataclasses import dataclass
from enum import Enum

from .contracts import (
    ContractKind,
    ContractStore,
    FaultCause,
    FaultReport,
    observe,
)
from .core import (
    ControlChannel,
    Flow,
    LINK_UP,
    SwitchId,
    Topology,
    UNBOUNDED_DELAY,
)
from .delay_estimation import (
    CostMatrix,
    MissingCostError,
    ProbePlan,
    estimate_path_delay,
    run_estimation_cycle,
)
from .routing import NoPathError, RouteResult, find_path
from .runlog import Part

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MechanismVariant:
    name: str
    proactive: bool
    reactive: bool
    weak_contracts: bool


VARIANTS: dict[str, MechanismVariant] = {
    "SDN-woRM": MechanismVariant("SDN-woRM", False, False, False),
    "SDN-sRM": MechanismVariant("SDN-sRM", True, True, False),
    "SDN-pRM": MechanismVariant("SDN-pRM", True, False, True),
    "SDN-RM": MechanismVariant("SDN-RM", True, True, True),
}

VARIANT_ALIASES = {
    "woRM": "SDN-woRM", "sRM": "SDN-sRM", "pRM": "SDN-pRM", "RM": "SDN-RM",
}


def variant_by_name(name: str) -> MechanismVariant:
    full = VARIANT_ALIASES.get(name, name)
    try:
        return VARIANTS[full]
    except KeyError:
        raise ValueError(f"unknown mechanism variant {name!r}") from None


def variants_by_name(names: list[str]) -> list[MechanismVariant]:
    """The named variants in order; ValueError for an unknown name or a
    variant named twice, by its full name or an alias."""
    variants: list[MechanismVariant] = []
    for name in names:
        variant = variant_by_name(name)
        if variant in variants:
            raise ValueError(f"variant {variant.name} named twice")
        variants.append(variant)
    return variants


class EventKind(Enum):
    E1_LINK_FAILURE = "E1"
    E2_CONTRACT_CHANGE = "E2"


@dataclass(frozen=True)
class EventNotification:
    kind: EventKind
    subject: str  # "a-b" for links, pair id for contracts
    occurred_at: int
    delivered_at: int

    def __post_init__(self) -> None:
        if self.delivered_at < self.occurred_at:
            raise ValueError("notification delivered before it occurred")


class ResponseAction(Enum):
    RS1 = "rs1"            # path recalculation and reassignment
    RS1_RS2 = "rs1+rs2"    # reroute and switch to the weak contract
    RS3 = "rs3"            # warning only


class RestorationOutcome(Enum):
    RS1_APPLIED = "rs1_applied"
    RS2_APPLIED = "rs2_applied"
    RS3_WARNED = "rs3_warned"


@dataclass(frozen=True)
class RestorationRecord:
    pair_id: str
    cause: FaultCause
    at: int
    detection_delay: int
    recalculation_delay: int
    reassignment_delay: int
    total: int
    outcome: RestorationOutcome

    def __post_init__(self) -> None:
        expected = (self.detection_delay + self.recalculation_delay
                    + self.reassignment_delay)
        if self.total != expected:
            raise ValueError("restoration total does not equal its phases")


@dataclass(frozen=True)
class WarningRecord:
    pair_id: str
    at: int
    best_ed: int | None  # None when no path exists at all
    required_ped: int


@dataclass(frozen=True)
class RouteRecord:
    """One path computation, with the per-link costs it summed."""

    at: int
    src: SwitchId
    dst: SwitchId
    path: tuple[SwitchId, ...]
    ed: int
    link_costs: tuple[int, ...]
    purpose: str


@dataclass(frozen=True)
class AssumptionNote:
    """Window in which a contract assumption was violated by an event."""

    kind: EventKind
    subject: str
    occurred_at: int
    window_end: int


@dataclass(frozen=True)
class DecisionRecord:
    at: int
    pair_id: str
    action: ResponseAction
    cause: FaultCause
    best_ed: int | None


class ResilienceManager:
    """Controller-resident fault handling around the delay estimator.

    The kernel drives this object: it reports link state changes and
    contract modifications as they are injected, invokes the estimation
    cycle at every interval boundary, and asks it to place arriving flows.
    The manager decides, the kernel owns the forwarding state.
    """

    def __init__(self, variant: MechanismVariant, topology: Topology,
                 control: ControlChannel, store: ContractStore,
                 kernel, config, log, memo: dict | None = None) -> None:
        self.variant = variant
        self.topology = topology
        self.control = control
        self.store = store
        # The kernel owns this manager; a weak reference back avoids a cycle,
        # so a finished run is freed without the cyclic garbage collector.
        self.kernel = weakref.proxy(kernel)
        self.config = config
        self.log = log
        self.matrix: CostMatrix = {}
        self._probe_plan = ProbePlan(topology, control,
                                     config.probe_length_bits,
                                     config.eq1_raw_mode)
        # See "Network-state memo": memo maps each (Down links, matrix
        # items) to its routes, (src, dst) -> (route, its link costs) or
        # None when unreachable, and each Down links to its idle cycle.
        # self._routes is the routes of the state at topology version
        # self._picked_at; None there makes the next request pick again.
        self._memo: dict = {} if memo is None else memo
        self._routes: dict[tuple[SwitchId, SwitchId],
                           tuple[RouteResult, tuple[int, ...]] | None] = {}
        self._picked_at: int | None = None
        self.cycle_index = -1
        self.routed_pairs: set[tuple[SwitchId, SwitchId]] = set()
        # Events since the last cycle boundary, for detection-delay
        # attribution when a proactive-only configuration finds the fault.
        self._pending: list[tuple[int, EventKind, tuple]] = []
        # The last proactive cycle when it was idle (see "Idle cycles"):
        # the counts it left, the route records it logged and its index;
        # else None.
        self._idle: tuple[tuple[int, int, int, int],
                          tuple[RouteRecord, ...], int] | None = None

    def twin(self, kernel, topology: Topology, store: ContractStore,
             log) -> ResilienceManager:
        """A copy of this manager for kernel, a twin of this one's kernel
        with its topology, store and log: the same pending events and its
        own containers.  The probe plan, the cost matrix and the memo,
        which are never changed or cache a pure function of their key,
        are shared."""
        twin = ResilienceManager.__new__(ResilienceManager)
        twin.variant = self.variant
        twin.topology = topology
        twin.control = self.control
        twin.store = store
        twin.kernel = weakref.proxy(kernel)
        twin.config = self.config
        twin.log = log
        twin.matrix = self.matrix
        twin._probe_plan = self._probe_plan
        twin._memo = self._memo
        twin._routes = self._routes
        twin._picked_at = self._picked_at
        twin.cycle_index = self.cycle_index
        twin.routed_pairs = set(self.routed_pairs)
        twin._pending = list(self._pending)
        twin._idle = self._idle
        return twin

    # ------------------------------------------------------------------
    # estimation cycle

    def on_cycle_boundary(self, now: int) -> None:
        """Estimate, then run the proactive cycle.  The cycle's records are
        logged as copy cycle_index of their template, at cycle_index
        estimation intervals: Kernel.setup runs cycle c at c intervals,
        and a cycle run at any other instant is refused."""
        cycle, interval = self.cycle_index + 1, self.config.estimation_interval
        if now != cycle * interval:
            raise ValueError(f"cycle {cycle} runs at {cycle * interval}, "
                             f"not at {now}")
        self.cycle_index = cycle
        matrix, template = run_estimation_cycle(
            self._probe_plan, self.topology, now,
            egress_free=self.kernel.egress_free, memo=self._memo)
        if matrix is not self.matrix and matrix != self.matrix:
            self._picked_at = None
            self._idle = None
        self.matrix = matrix
        self.log.estimation.close(Part(template, cycle, 1, (
            ("cycle", 1), ("at", interval))))
        if self.variant.proactive:
            self._proactive_cycle(now)
        self._pending.clear()

    def _proactive_cycle(self, now: int) -> None:
        """Evaluate the placed pairs, or replay the previous cycle when it
        was idle and nothing it read has changed (see "Idle cycles")."""
        counts = self._cycle_counts()
        idle = self._idle
        if idle is not None and idle[0] == counts:
            _, template, cycle = idle
            self.log.routes.close(Part(
                template, self.cycle_index - cycle, 1,
                (("at", self.config.estimation_interval),)))
            return
        faults, routes = len(self.log.faults), len(self.log.routes.open)
        self._evaluate_pairs(now)
        self._idle = None
        if (len(self.log.faults) == faults and self._cycle_counts() == counts
                and self.kernel.forwarding_settled(now)):
            self._idle = (counts, tuple(self.log.routes.open[routes:]),
                          self.cycle_index)

    def _cycle_counts(self) -> tuple[int, int, int, int]:
        """What an idle cycle must find unchanged besides the matrix."""
        return (self.topology.version, self.kernel.forwarding_changes,
                len(self.store.ped_changes), len(self.routed_pairs))

    def _evaluate_pairs(self, now: int) -> None:
        """Evaluate each placed pair's contract, then re-optimize.

        Contract pairs that have no flows yet carry no traffic to defend
        and are left alone until a flow arrives.
        """
        for key in sorted(self.routed_pairs):
            pair = self.store.pair_for(*key)
            ed = self._current_ed(key, now)
            if pair is None:
                self._maybe_adopt(key, now, ed, required_ped=None)
                continue
            if (self.variant.weak_contracts
                    and pair.active_kind is ContractKind.WEAK
                    and ed <= pair.strong_ped):
                # The strong guarantee holds again: reinstate it.
                self.store.switch_active(pair.id, ContractKind.STRONG, now)
            fault = observe(pair, ed, now, FaultCause.ESTIMATION_CYCLE)
            if fault is not None:
                self.log.faults.append(fault)
                occurred = self._attribute(key, now)
                self._respond(fault, occurred_at=occurred, now=now)
            else:
                self._maybe_adopt(key, now, ed, required_ped=pair.active_ped)

    def _current_ed(self, key: tuple[SwitchId, SwitchId], now: int) -> int:
        path = self.kernel.forwarding_path(key, now)
        if path is None:
            return UNBOUNDED_DELAY
        for a, b in zip(path, path[1:]):
            if self.topology.link_between(a, b).state is not LINK_UP:
                return UNBOUNDED_DELAY
        try:
            return estimate_path_delay(list(path), self.matrix)
        except MissingCostError:
            return UNBOUNDED_DELAY

    def _maybe_adopt(self, key: tuple[SwitchId, SwitchId], now: int,
                     current_ed: int, required_ped: int | None) -> None:
        """Adopt a better path for on-going flows, outside fault handling.

        current_ed is the current path's estimated delay at now.  A
        replacement is only adopted when it improves on the current path
        and, for contract-covered pairs, satisfies the active requirement;
        installing a still-violating path would churn rules for nothing.
        """
        route = self._compute_route(key, now, purpose="reoptimize")
        if route is None:
            return
        if required_ped is not None and route.ed > required_ped:
            return
        if route.ed < current_ed:
            self.execute_rs1(key, route.path, now)

    # ------------------------------------------------------------------
    # monitors

    def on_link_state_change(self, a: SwitchId, b: SwitchId, now: int) -> None:
        """Link failure monitor (E1), fed by switch port status; recoveries
        surface through the next estimation cycle."""
        subject = f"{min(a, b)}-{max(a, b)}"
        latency = min(self.control.s2c(a), self.control.s2c(b))
        notification = EventNotification(
            kind=EventKind.E1_LINK_FAILURE, subject=subject,
            occurred_at=now, delivered_at=now + latency)
        self.log.notifications.append(notification)
        self._note_assumption_window(notification)
        if self.variant.reactive:
            self.kernel.schedule_call(notification.delivered_at,
                                      self._on_e1_delivered, (a, b, now))
        elif self.variant.proactive:
            # Deferred to the next cycle; remembered for detection-delay
            # attribution there.
            self._pending.append((now, EventKind.E1_LINK_FAILURE, (a, b)))

    def _on_e1_delivered(self, failure: tuple[SwitchId, SwitchId, int],
                         now: int) -> None:
        """A link failure (a, b, occurred_at) reaches the controller."""
        a, b, occurred_at = failure
        link = self.topology.link_between(a, b)
        if link.state is LINK_UP:
            return  # already recovered; topology is healthy
        for key in sorted(self.routed_pairs):
            if not self._path_uses_link(key, a, b, now):
                continue
            pair = self.store.pair_for(*key)
            if pair is None:
                continue  # no guarantee to defend; next cycle re-optimizes
            fault = FaultReport(
                pair_id=pair.id, observed_ed=UNBOUNDED_DELAY,
                ped=pair.active_ped, detected_at=now,
                cause=FaultCause.LINK_FAILURE)
            self.log.faults.append(fault)
            self._respond(fault, occurred_at=occurred_at, now=now)

    def on_contract_modified(self, pair_id: str, now: int) -> None:
        """Contract modification monitor (E2); in-controller, zero latency."""
        notification = EventNotification(
            kind=EventKind.E2_CONTRACT_CHANGE, subject=pair_id,
            occurred_at=now, delivered_at=now)
        self.log.notifications.append(notification)
        self._note_assumption_window(notification)
        pair = self.store.pair(pair_id)
        key = (pair.src, pair.dst)
        if not self.variant.reactive:
            if self.variant.proactive:
                self._pending.append((now, EventKind.E2_CONTRACT_CHANGE, key))
            return
        if key not in self.routed_pairs:
            return
        ed = self._current_ed(key, now)
        fault = observe(pair, ed, now, FaultCause.CONTRACT_CHANGE)
        if fault is not None:
            self.log.faults.append(fault)
            self._respond(fault, occurred_at=now, now=now)

    def _note_assumption_window(self, notification: EventNotification) -> None:
        interval = self.config.estimation_interval
        next_boundary = ((notification.occurred_at // interval) + 1) * interval
        self.log.assumption_notes.append(AssumptionNote(
            kind=notification.kind, subject=notification.subject,
            occurred_at=notification.occurred_at, window_end=next_boundary))

    # ------------------------------------------------------------------
    # flow placement

    def on_flow_arrival(self, flow: Flow, now: int) -> None:
        src = self.topology.attachment(flow.src_host)
        dst = self.topology.attachment(flow.dst_host)
        key = (src, dst)
        self.routed_pairs.add(key)
        route = self._compute_route(key, now, purpose="flow_arrival")
        if route is None:
            logger.info("flow %s: no path from %s to %s", flow.id, src, dst)
            return
        current = self.kernel.forwarding_path(key, now)
        if current is not None and tuple(current) == route.path:
            return
        self.kernel.set_forwarding(key, route.path, active_at=now)

    # ------------------------------------------------------------------
    # control logic and response strategies

    def control_logic(self, fault: FaultReport, now: int,
                      ) -> tuple[ResponseAction, RouteResult | None]:
        """Map a fault to a response: reroute, weaken, or warn.

        Returns the action and the best available route (None when the
        destination is unreachable).
        """
        pair = self.store.pair(fault.pair_id)
        route = self._compute_route((pair.src, pair.dst), now,
                                    purpose="fault_response")
        if route is not None and route.ed <= pair.strong_ped:
            action = ResponseAction.RS1
        elif (route is not None and self.variant.weak_contracts
                and route.ed <= pair.weak_ped):
            action = ResponseAction.RS1_RS2
        else:
            action = ResponseAction.RS3
        return action, route

    def _respond(self, fault: FaultReport, occurred_at: int, now: int) -> None:
        action, route = self.control_logic(fault, now)
        self.log.decisions.append(DecisionRecord(
            at=now, pair_id=fault.pair_id, action=action, cause=fault.cause,
            best_ed=route.ed if route else None))
        pair = self.store.pair(fault.pair_id)
        key = (pair.src, pair.dst)
        detection = now - occurred_at
        recalculation = self.config.recalc_cost
        reassignment = 0

        if action is ResponseAction.RS3:
            self.execute_rs3(fault, route, now)
            outcome = RestorationOutcome.RS3_WARNED
        else:
            reassignment = self.execute_rs1(key, route.path, now)
            outcome = RestorationOutcome.RS1_APPLIED
            if action is ResponseAction.RS1_RS2:
                self.execute_rs2(pair.id, now)
                outcome = RestorationOutcome.RS2_APPLIED

        self.log.restorations.append(RestorationRecord(
            pair_id=fault.pair_id, cause=fault.cause, at=now,
            detection_delay=detection, recalculation_delay=recalculation,
            reassignment_delay=reassignment,
            total=detection + recalculation + reassignment,
            outcome=outcome))

    def execute_rs1(self, key: tuple[SwitchId, SwitchId],
                    path: tuple[SwitchId, ...], now: int) -> int:
        """Install a recalculated path; returns the reassignment delay.

        Rules are pushed to all path switches in parallel, so reassignment
        is the slowest single installation.  Re-installing the already
        active path is free.
        """
        current = self.kernel.forwarding_path(key, now)
        if current is not None and tuple(current) == tuple(path):
            return 0
        reassignment = self._reassignment_delay(path)
        self.kernel.set_forwarding(key, tuple(path), active_at=now + reassignment)
        return reassignment

    def execute_rs2(self, pair_id: str, now: int) -> None:
        """Switch a pair to its weak contract; no-op when already weak."""
        self.store.switch_active(pair_id, ContractKind.WEAK, now)

    def execute_rs3(self, fault: FaultReport, route: RouteResult | None,
                    now: int) -> WarningRecord:
        """Issue a warning; forwarding state is deliberately left alone."""
        pair = self.store.pair(fault.pair_id)
        warning = WarningRecord(
            pair_id=fault.pair_id, at=now,
            best_ed=route.ed if route else None,
            required_ped=pair.active_ped)
        self.log.warnings.append(warning)
        return warning

    # ------------------------------------------------------------------
    # helpers

    def _compute_route(self, key: tuple[SwitchId, SwitchId], now: int,
                       purpose: str) -> RouteResult | None:
        """Best route for a pair under the current network state, logged."""
        if self._picked_at != self.topology.version:
            self._pick_routes()
        try:
            memo = self._routes[key]
        except KeyError:
            try:
                route = find_path(self.topology, self.matrix, key[0], key[1])
            except NoPathError:
                memo = None
            else:
                memo = (route, tuple(self.matrix[(a, b)] for a, b
                                     in zip(route.path, route.path[1:])))
            self._routes[key] = memo
        if memo is None:
            return None
        route, costs = memo
        self.log.routes.open.append(RouteRecord(
            at=now, src=key[0], dst=key[1], path=route.path, ed=route.ed,
            link_costs=costs, purpose=purpose))
        return route

    def _pick_routes(self) -> None:
        """Point self._routes at the routes of the current Down links and
        costs, shared with every kernel that has met the same state."""
        state = (self.topology.down, frozenset(self.matrix.items()))
        self._routes = self._memo.setdefault(state, {})
        self._picked_at = self.topology.version

    def _reassignment_delay(self, path: tuple[SwitchId, ...]) -> int:
        return max(self.control.c2s(s) for s in path)

    def _path_uses_link(self, key: tuple[SwitchId, SwitchId], a: SwitchId,
                        b: SwitchId, now: int) -> bool:
        path = self.kernel.forwarding_path(key, now)
        if path is None:
            return False
        hops = set(zip(path, path[1:]))
        return (a, b) in hops or (b, a) in hops

    def _attribute(self, key: tuple[SwitchId, SwitchId], now: int) -> int:
        """Earliest un-consumed event that plausibly caused a pair's fault.

        Used for the detection-delay phase when a proactive evaluation is
        what finds the fault; with no matching pending event the fault is
        considered detected the moment it arose (zero detection delay).
        """
        for occurred_at, kind, detail in self._pending:
            if kind is EventKind.E2_CONTRACT_CHANGE and tuple(detail) == key:
                return occurred_at
            if (kind is EventKind.E1_LINK_FAILURE
                    and self._path_uses_link(key, detail[0], detail[1], now)):
                return occurred_at
        return now
