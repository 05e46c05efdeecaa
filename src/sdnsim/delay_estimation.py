"""Link-layer delay estimation from discovery-probe timestamps.

The controller stamps a discovery frame when it leaves for the first switch
and again when the far switch reports it back, does the same in the reverse
direction, and measures the echo round-trip to each switch.  Subtracting the
two echo RTTs from the two probe traversals leaves twice the one-way link
delay, so halving the residual recovers it without any clock on the switches.

Per-link cost adds the sending switch's serialization delay for a reference
packet, and a path's estimated end-to-end delay is the sum of its directed
link costs.

Probe plans.  Everything a probe measures except the egress waits is fixed
for a run: a Topology changes only through set_link_state, so each link's
endpoints, propagation delay and capacity stay as built, and the control
channel never changes.  A ProbePlan therefore resolves, once per run, each
link's control latencies, echo RTTs and probe transmission delay, and holds
the live Link so a cycle still sees its current state; the plan, with its
probe length and raw mode, is a cycle's only source of fixed inputs.  The
send time cancels out of every difference the estimator takes, so an
estimate is a pure function of (near, far, forward wait, reverse wait);
the plan keeps the two records it logged for each such input and builds
the ProbeObservation and calls estimate_link_delay only for an input it
has not seen.  A negative-residual warning would thus be logged once per
distinct input, not once per cycle; none arises here, since every term of
the residual is non-negative.

Idle templates.  A cycle's records are logged relative to it, with cycle
and at 0, and the controller closes them into the log as copy c of a
runlog.Part that steps cycle by 1 and at by the estimation interval.
That is exact, as Kernel.setup puts cycle c at c times the interval.  So
a record does not depend on the cycle that logged it, and any cycle may
reuse the records and templates of another.  In a cycle at which every
egress busy-until time is at or before now, every wait is 0, so its
matrix and template depend only on which links are Up.  set_link_state,
the only mutator of link state, moves Topology.version.  So the plan
keeps the last idle cycle's template and matrix with the version they
were computed at, and an idle cycle at that same version reuses them,
with one pass over the busy-until times and no per-link work.  Any other
cycle is computed link by link; a busy one leaves the idle template in
place, and an idle one replaces it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import (
    ControlChannel,
    Link,
    LINK_UP,
    SwitchId,
    Topology,
    transmission_delay,
)
logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ProbeObservation:
    """Timestamps collected while probing one link in both directions.

    Times are controller-local; the forward probe travels controller ->
    near switch -> far switch -> controller, the reverse probe the other
    way around, and the two RTTs are echo round trips to each switch.
    """

    near: SwitchId
    far: SwitchId
    lldp_send_time: int
    lldp_return_time: int
    reverse_lldp_send_time: int
    reverse_lldp_return_time: int
    rtt_near: int
    rtt_far: int

    def __post_init__(self) -> None:
        if self.lldp_return_time < self.lldp_send_time:
            raise ValueError("forward probe returned before it was sent")
        if self.reverse_lldp_return_time < self.reverse_lldp_send_time:
            raise ValueError("reverse probe returned before it was sent")
        if self.rtt_near < 0 or self.rtt_far < 0:
            raise ValueError("negative echo round-trip time")


def estimate_link_delay(obs: ProbeObservation, raw_mode: bool = False) -> int:
    """One-way link delay from a probe observation, clamped at zero.

    The residual after removing both echo RTTs covers the link twice, so the
    default returns half of it.  raw_mode returns the undivided residual for
    fidelity experiments.  Negative residuals (measurement noise) clamp to
    zero with a logged warning.
    """
    forward = obs.lldp_return_time - obs.lldp_send_time
    reverse = obs.reverse_lldp_return_time - obs.reverse_lldp_send_time
    residual = forward + reverse - obs.rtt_near - obs.rtt_far
    if residual < 0:
        logger.warning(
            "probe %s-%s produced negative delay residual %d ns; clamping to 0",
            obs.near, obs.far, residual,
        )
        return 0
    if raw_mode:
        return residual
    return residual // 2


def link_cost(td_sender: int, link_delay: int) -> int:
    """Cost of a directed link: sender transmission delay plus link delay."""
    if td_sender < 0 or link_delay < 0:
        raise ValueError("delays must be non-negative")
    return td_sender + link_delay


class MissingCostError(LookupError):
    """A path references a directed link absent from the cost matrix."""


# Directed link costs (src, dst) -> cost, as last refreshed by the
# estimation cycle.  Entries exist only for links that were Up when the
# cycle ran; a missing entry therefore means "do not route here with this
# matrix".
CostMatrix = dict[tuple[SwitchId, SwitchId], int]


def estimate_path_delay(path: list[SwitchId], costs: CostMatrix) -> int:
    """Sum of directed link costs along a path; 0 for a single-switch path.

    Raises MissingCostError when the matrix has no entry for a hop, which
    happens after a topology change that the matrix has not caught up with.
    """
    total = 0
    for a, b in zip(path, path[1:]):
        try:
            total += costs[(a, b)]
        except KeyError:
            raise MissingCostError(f"no cost entry for {a}->{b}") from None
    return total


@dataclass(frozen=True)
class EstimationRecord:
    """One refreshed directed-link entry, for the structured run log."""

    cycle: int
    src: SwitchId
    dst: SwitchId
    link_delay: int
    transmission_delay: int
    cost: int
    at: int
    noise_clamped: bool = False


# One link's probe inputs: (link, (near, far), (far, near), (c2s(near),
# s2c(far), c2s(far), s2c(near), echo RTT of near, echo RTT of far, probe
# transmission delay)).
_Probe = tuple[Link, tuple[SwitchId, SwitchId], tuple[SwitchId, SwitchId],
               tuple[int, int, int, int, int, int, int]]


class ProbePlan:
    """Every link's fixed probe inputs, the records logged so far and the
    last idle cycle's template.

    probes follows topology.links() order.  estimates maps (near, far,
    forward wait, reverse wait) to the records logged for it, forward
    then reverse; idle is the last idle cycle's (topology version,
    matrix, template), or None.  See "Probe plans" and "Idle templates"
    above.
    """

    def __init__(self, topology: Topology, control: ControlChannel,
                 probe_length_bits: int = 12_000,
                 raw_mode: bool = False) -> None:
        self.topology = topology
        self.raw_mode = raw_mode
        probes = []
        for link in topology.links():
            near, far = link.key
            probes.append((link, (near, far), (far, near), (
                control.c2s(near), control.s2c(far),
                control.c2s(far), control.s2c(near),
                control.echo_rtt(near), control.echo_rtt(far),
                transmission_delay(probe_length_bits, link.capacity_bps))))
        self.probes: tuple[_Probe, ...] = tuple(probes)
        self.estimates: dict[tuple[SwitchId, SwitchId, int, int],
                             tuple[EstimationRecord, EstimationRecord]] = {}
        self.idle: tuple[int, CostMatrix,
                         tuple[EstimationRecord, ...]] | None = None

    def twin(self, topology: Topology) -> ProbePlan:
        """This plan over topology's Links, a copy of this plan's topology,
        with the records logged so far and the idle template, which are
        frozen and so shared, and a copy of the idle matrix."""
        twin = ProbePlan.__new__(ProbePlan)
        twin.topology = topology
        twin.raw_mode = self.raw_mode
        twin.probes = tuple((topology.link_between(*forward), forward, reverse,
                             inputs)
                            for _, forward, reverse, inputs in self.probes)
        twin.estimates = dict(self.estimates)
        idle = self.idle
        twin.idle = None if idle is None else (idle[0], dict(idle[1]),
                                               idle[2])
        return twin

    def estimate(self, probe: _Probe, forward_wait: int, reverse_wait: int,
                 now: int) -> tuple[EstimationRecord, EstimationRecord]:
        """Estimate one link from probes sent at now behind the given
        egress waits, and remember its two records, relative to their
        cycle, for those waits."""
        link, (near, far), _, inputs = probe
        c2s_near, s2c_far, c2s_far, s2c_near, rtt_near, rtt_far, td = inputs
        forward_travel = forward_wait + link.propagation_delay
        reverse_travel = reverse_wait + link.propagation_delay
        obs = ProbeObservation(
            near=near,
            far=far,
            lldp_send_time=now,
            lldp_return_time=now + c2s_near + forward_travel + s2c_far,
            reverse_lldp_send_time=now,
            reverse_lldp_return_time=now + c2s_far + reverse_travel + s2c_near,
            rtt_near=rtt_near,
            rtt_far=rtt_far,
        )
        estimated = estimate_link_delay(obs, raw_mode=self.raw_mode)
        cost = link_cost(td, estimated)
        records = self.estimates[(near, far, forward_wait, reverse_wait)] = (
            EstimationRecord(0, near, far, estimated, td, cost, 0),
            EstimationRecord(0, far, near, estimated, td, cost, 0))
        return records


def run_estimation_cycle(
    plan: ProbePlan,
    now: int,
    *,
    egress_free: dict[tuple[SwitchId, SwitchId], int] | None = None,
) -> tuple[CostMatrix, tuple[EstimationRecord, ...]]:
    """Probe every Up link of the plan's topology; return a fresh cost
    matrix and the cycle's template, its records relative to the cycle.

    Probes ride the links as zero-size control frames: they wait behind any
    queued data traffic on the egress (until its busy-until time in
    egress_free, in ns) and then cross in one propagation delay, so on an
    idle network the estimate equals the configured link delay exactly.
    Down links get no entry.  The sender transmission delay uses the
    plan's probe length over the egress link capacity.  A caller that runs
    many cycles passes one plan to all of them; an idle cycle then reuses
    the plan's idle template (see "Idle templates").
    """
    idle = not egress_free or max(egress_free.values()) <= now
    version = plan.topology.version
    if idle and plan.idle is not None and plan.idle[0] == version:
        _, matrix, template = plan.idle
        return dict(matrix), template

    matrix: CostMatrix = {}
    records: list[EstimationRecord] = []
    busy_until = (egress_free or {}).get
    estimates = plan.estimates
    for probe in plan.probes:
        link, forward, reverse, _ = probe
        if link.state is not LINK_UP:
            continue
        near, far = forward
        forward_wait = max(0, busy_until(forward, 0) - now)
        reverse_wait = max(0, busy_until(reverse, 0) - now)
        logged = estimates.get((near, far, forward_wait, reverse_wait))
        if logged is None:
            logged = plan.estimate(probe, forward_wait, reverse_wait, now)
        matrix[forward] = matrix[reverse] = logged[0].cost
        records += logged
    template = tuple(records)
    if idle:
        plan.idle = (version, dict(matrix), template)
    return matrix, template
