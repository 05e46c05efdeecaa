"""Life of a delay-contract pair under runtime requirement changes.

The measured pair starts on its strong contract.  A runtime tightening
makes the strong bound unachievable, so the controller falls back to the
weak contract (traffic keeps flowing, judged against the relaxed bound).
A later relaxation makes the strong bound achievable again and the next
estimation cycle reinstates it.  The printed log follows the active bound
over time together with the per-packet satisfaction rate in each phase.
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from sdnsim import PedChangeInjection
from sdnsim.contracts import BoundTimeline
from sdnsim.harness import run_single
from sdnsim.scenario import load_scenario

MS = 1_000_000
SECOND = 1_000_000_000
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def main() -> None:
    scenario = load_scenario(os.path.join(SCENARIOS, "industrial_ring_e2.scn"))
    changes = (
        # Tighten below the 3.036 ms base path delay: strong is infeasible.
        PedChangeInjection(40 * SECOND, "C1", new_ped=2 * MS),
        # Relax again: the base path meets the strong bound once more.
        PedChangeInjection(90 * SECOND, "C1", new_ped=5 * MS),
    )
    scenario = dataclasses.replace(scenario, auto_ped_changes=None,
                                   explicit_injections=changes)
    run = run_single(scenario.with_flow_count(2), "RM", 1)

    print("active-bound timeline:")
    for change in run.log.ped_changes:
        print(f"  {change.at / 1e9:8.3f}s  {change.active_kind.value:>6} "
              f"active, bound {change.active_ped / 1e6:5.1f}ms "
              f"(strong {change.strong_ped / 1e6:.1f} / "
              f"weak {change.weak_ped / 1e6:.1f})")

    timeline = BoundTimeline(run.log.ped_changes)

    print("\nper-phase packet satisfaction:")
    phases = [("strong, original bound", 0, 40 * SECOND),
              ("weak fallback after tightening", 40 * SECOND, 90 * SECOND),
              ("strong reinstated", 100 * SECOND, 150 * SECOND)]
    for label, lo, hi in phases:
        packets = [p for p in run.log.packets
                   if p.delivered and lo <= p.delivered_at < hi]
        ok = sum(1 for p in packets if p.actual_delay
                 <= timeline.at(*p.pair, p.delivered_at).active_ped)
        print(f"  {label:<32} {len(packets):>4} packets, "
              f"{ok / len(packets):6.1%} within the active bound")

    print(f"\noverall success rate: {run.metrics.success_rate:.4f}")


if __name__ == "__main__":
    main()
