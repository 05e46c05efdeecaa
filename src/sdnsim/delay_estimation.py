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
link's control latencies, echo RTTs, propagation delay and probe
transmission delay, in topology.links() order, and holds no Link: a cycle
reads link states from the topology it is given.  The send time cancels
out of every difference the estimator takes, so an estimate is a pure
function of (near, far, forward wait, reverse wait).  Nearly every probe
waits behind no data, so the plan builds each link's two zero-wait
records with itself; a link with a wait is estimated afresh, as such an
input is rarely met twice.  A plan is never changed, so a kernel's twins
share it.  An unwaited probe is estimated once per plan, so it would log
a negative-residual warning once, not once per cycle; none arises here,
since every term of the residual is non-negative.

Idle templates.  A cycle's records are logged relative to it, with cycle
and at 0, and the controller closes them into the log as copy c of a
runlog.Part that steps cycle by 1 and at by the estimation interval.
That is exact, as Kernel.setup puts cycle c at c times the interval.  So
a record does not depend on the cycle that logged it, and any cycle may
reuse the records and templates of another.  In a cycle at which every
egress busy-until time is at or before now, every wait is 0, so its
matrix and template depend only on the plan and on which links are Up.
A caller whose plans all have the same inputs, as every kernel of one
run_experiment call has, may pass one memo to all its cycles: an idle
cycle is looked up, and stored, under the frozenset of Down links
(Topology.down), so it costs one pass over the busy-until times and no
per-link work once any cycle has met its Down links.  A busy cycle is
computed link by link and never stored.  The memo's matrices and
templates are shared by every cycle that finds them, and never changed.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .core import (
    ControlChannel,
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


# One link's probe: (near, far), (far, near), its fixed inputs (c2s(near),
# s2c(far), c2s(far), s2c(near), echo RTT of near, echo RTT of far,
# propagation delay, probe transmission delay) and the two records, forward
# then reverse, that it logs when neither probe waits.
_Probe = tuple[tuple[SwitchId, SwitchId], tuple[SwitchId, SwitchId],
               tuple[int, int, int, int, int, int, int, int],
               tuple[EstimationRecord, EstimationRecord]]


def _probe_records(near: SwitchId, far: SwitchId,
                   inputs: tuple[int, ...], forward_wait: int,
                   reverse_wait: int, raw_mode: bool,
                   ) -> tuple[EstimationRecord, EstimationRecord]:
    """The two records, relative to their cycle, of one link whose probes
    leave at 0 and wait the given times at the two egresses."""
    c2s_near, s2c_far, c2s_far, s2c_near, rtt_near, rtt_far, prop, td = inputs
    obs = ProbeObservation(
        near=near,
        far=far,
        lldp_send_time=0,
        lldp_return_time=c2s_near + forward_wait + prop + s2c_far,
        reverse_lldp_send_time=0,
        reverse_lldp_return_time=c2s_far + reverse_wait + prop + s2c_near,
        rtt_near=rtt_near,
        rtt_far=rtt_far,
    )
    estimated = estimate_link_delay(obs, raw_mode=raw_mode)
    cost = link_cost(td, estimated)
    return (EstimationRecord(0, near, far, estimated, td, cost, 0),
            EstimationRecord(0, far, near, estimated, td, cost, 0))


@dataclass(frozen=True, init=False)
class ProbePlan:
    """Every link's fixed probe inputs and zero-wait records, in
    topology.links() order (see "Probe plans" above)."""

    raw_mode: bool
    probes: tuple[_Probe, ...]

    def __init__(self, topology: Topology, control: ControlChannel,
                 probe_length_bits: int = 12_000,
                 raw_mode: bool = False) -> None:
        probes = []
        for link in topology.links():
            near, far = link.key
            inputs = (control.c2s(near), control.s2c(far),
                      control.c2s(far), control.s2c(near),
                      control.echo_rtt(near), control.echo_rtt(far),
                      link.propagation_delay,
                      transmission_delay(probe_length_bits, link.capacity_bps))
            probes.append(((near, far), (far, near), inputs,
                           _probe_records(near, far, inputs, 0, 0, raw_mode)))
        object.__setattr__(self, "raw_mode", raw_mode)
        object.__setattr__(self, "probes", tuple(probes))


def run_estimation_cycle(
    plan: ProbePlan,
    topology: Topology,
    now: int,
    *,
    egress_free: dict[tuple[SwitchId, SwitchId], int] | None = None,
    memo: dict | None = None,
) -> tuple[CostMatrix, tuple[EstimationRecord, ...]]:
    """Probe every Up link of topology, which plan was built over; return
    the cost matrix and the cycle's template, its records relative to the
    cycle.  Neither is ever changed, so callers may share them.

    Probes ride the links as zero-size control frames: they wait behind any
    queued data traffic on the egress (until its busy-until time in
    egress_free, in ns) and then cross in one propagation delay, so on an
    idle network the estimate equals the configured link delay exactly.
    Down links get no entry.  The sender transmission delay uses the
    plan's probe length over the egress link capacity.  An idle cycle is
    looked up in memo, and stored there, under topology.down (see "Idle
    templates").
    """
    idle = not egress_free or max(egress_free.values()) <= now
    if idle and memo is not None:
        cycle = memo.get(topology.down)
        if cycle is not None:
            return cycle
    matrix: CostMatrix = {}
    records: list[EstimationRecord] = []
    busy_until = (egress_free or {}).get
    for (forward, reverse, inputs, logged), link in zip(plan.probes,
                                                        topology.links()):
        if link.state is not LINK_UP:
            continue
        forward_wait = max(0, busy_until(forward, 0) - now)
        reverse_wait = max(0, busy_until(reverse, 0) - now)
        if forward_wait or reverse_wait:
            logged = _probe_records(*forward, inputs, forward_wait,
                                    reverse_wait, plan.raw_mode)
        matrix[forward] = matrix[reverse] = logged[0].cost
        records += logged
    cycle = matrix, tuple(records)
    if idle and memo is not None:
        memo[topology.down] = cycle
    return cycle
