"""Compare estimated and measured end-to-end delay across bandwidth tiers.

A 10-switch linear chain carries one paced measurement flow, so a single
path joins source and destination and the controller's estimate can be put
side by side with per-packet ground truth.  The run has two phases: an idle
phase, where the estimate must match exactly, and a loaded phase with a
near-line-rate background stream, where the two may differ by queue
sampling but stay within one serialization time per hop.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sdnsim import (
    ControlChannel,
    Flow,
    LinkSpec,
    SimConfig,
    TopologySpec,
    transmission_delay,
)
from sdnsim.harness import run_single
from sdnsim.scenario import Scenario

MS = 1_000_000
SECOND = 1_000_000_000
PACKET_BITS = 12_000  # 1500 bytes


def chain_spec(capacity_bps: int) -> TopologySpec:
    """S1-S2-...-S10, 1 ms per link, with H1 at S1 and H10 at S10."""
    switches = tuple(f"S{i}" for i in range(1, 11))
    links = tuple(LinkSpec(a, b, capacity_bps, MS)
                  for a, b in zip(switches, switches[1:]))
    return TopologySpec(switches, (("H1", "S1"), ("H10", "S10")), links)


def chain_scenario(capacity_bps: int) -> Scenario:
    td = transmission_delay(PACKET_BITS, capacity_bps)
    gap_bg = td + max(1, td // 8)  # slightly under line rate
    bg_packets = (700 * MS) // gap_bg
    flows = (
        Flow(id="probe", src_host="H1", dst_host="H10",
             packet_length=PACKET_BITS, total_volume=10**12,
             start_time=600 * MS, inter_packet_gap=100 * MS),
        Flow(id="load", src_host="H1", dst_host="H10",
             packet_length=PACKET_BITS,
             total_volume=int(bg_packets) * PACKET_BITS,
             start_time=9_700 * MS, inter_packet_gap=gap_bg),
    )
    return Scenario(
        name=f"chain@{capacity_bps}", control=ControlChannel(),
        topology_spec=chain_spec(capacity_bps),
        flows=flows, contracts=(), explicit_injections=(),
        auto_link_failures=None, auto_ped_changes=None,
        emulation_time=12 * SECOND,
        config=SimConfig(queue_limit=500 * MS), seed=1, variant="SDN-woRM")


def path_estimate(log, cycle: int) -> int:
    path = [f"S{i}" for i in range(1, 11)]
    costs = {(r.src, r.dst): r.cost for r in log.estimation if r.cycle == cycle}
    return sum(costs[(a, b)] for a, b in zip(path, path[1:]))


def main() -> None:
    print(f"{'link rate':>10} {'phase':>7} {'estimated':>12} {'measured':>12} "
          f"{'difference':>11}")
    for capacity, label in ((1_000_000, "1 Mbps"),
                            (100_000_000, "100 Mbps"),
                            (1_000_000_000, "1 Gbps")):
        run = run_single(chain_scenario(capacity), "woRM", 1)
        idle_est = path_estimate(run.log, 0)
        loaded_est = path_estimate(run.log, 1)
        idle = [p for p in run.log.packets
                if p.flow_id == "probe" and p.delivered
                and p.sent_at <= 9_400 * MS]
        loaded = [p for p in run.log.packets
                  if p.flow_id == "probe" and p.delivered
                  and 10_050 * MS <= p.sent_at <= 10_300 * MS]
        idle_actual = sum(p.actual_delay for p in idle) / len(idle)
        loaded_actual = sum(p.actual_delay for p in loaded) / len(loaded)
        for phase, est, actual in (("idle", idle_est, idle_actual),
                                   ("loaded", loaded_est, loaded_actual)):
            print(f"{label:>10} {phase:>7} {est / 1e6:>10.3f}ms "
                  f"{actual / 1e6:>10.3f}ms {abs(est - actual) / 1e6:>9.3f}ms")


if __name__ == "__main__":
    main()
