"""Tests of the benchmark's own checkers and input generation.

Run from the root of the repository:

    python3 -m unittest discover -s bench -t bench

Each checker passes on a small hand-computed case and fails once one
record is corrupted.
"""

from __future__ import annotations

import os
import sys
import unittest
from types import SimpleNamespace as Rec

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

MS = 1_000_000
MBPS = 1_000_000


def link(a, b, capacity=MBPS, propagation=MS):
    return Rec(a=a, b=b, capacity_bps=capacity, propagation_delay=propagation)


def packet(seq, sent_at, delay, path=("A", "B", "C"), flow="F1", covered=True,
           drop=None, length=12_000):
    delivered = None if drop else sent_at + delay
    return Rec(flow_id=flow, seq=seq, pair=(path[0], path[-1]), covered=covered,
               length=length, sent_at=sent_at, path=path,
               delivered_at=delivered, drop_reason=drop,
               actual_delay=None if drop else delay)


def metrics(**fields):
    base = dict(packets_sent=0, packets_delivered=0, packets_dropped=0,
                success_rate=1.0, success_rate_strong=1.0, throughput_bps=0.0)
    base.update(fields)
    return Rec(**base)


def change(at, active, strong, src="A", dst="C"):
    return Rec(src=src, dst=dst, at=at, active_ped=active, strong_ped=strong)


# A-B-C at 1 Mbps and 1 ms: a 1500 B packet takes 12 ms + 1 ms per hop.
LINKS = checks.link_table([link("A", "B"), link("B", "C")])
FLOOR = 2 * (12 * MS + MS)


class PathFloorTest(unittest.TestCase):
    def test_hand_computed_floor(self):
        self.assertEqual(checks.transmission_ns(12_000, MBPS), 12 * MS)
        self.assertEqual(checks.transmission_ns(12_000, 7), 1714285714286)
        self.assertEqual(checks.path_floor(("A", "B", "C"), 12_000, LINKS, 0),
                         FLOOR)
        self.assertEqual(checks.path_floor(("A", "B", "C"), 12_000, LINKS, 5),
                         FLOOR + 10)


class PacketCheckTest(unittest.TestCase):
    flow = Rec(id="F1", src_host="H1", dst_host="H3", packet_length=12_000,
               total_volume=3 * 12_000, start_time=MS, inter_packet_gap=100 * MS)
    hosts = (("H1", "A"), ("H3", "C"))
    contracts = (Rec(src="A", dst="C"),)

    def run_check(self, packets, report):
        return checks.check_packets([self.flow], self.hosts, self.contracts,
                                    LINKS, 0, 10 * 1_000 * MS, packets, report)

    def good(self):
        return [packet(0, MS, FLOOR), packet(1, 101 * MS, FLOOR + 7),
                packet(2, 201 * MS, 0, drop="link_down")]

    def test_passes(self):
        report = metrics(packets_sent=3, packets_delivered=2, packets_dropped=1)
        self.assertEqual(self.run_check(self.good(), report), [])

    def test_delay_below_floor(self):
        packets = self.good()
        packets[1] = packet(1, 101 * MS, FLOOR - 1)
        report = metrics(packets_sent=3, packets_delivered=2, packets_dropped=1)
        found = self.run_check(packets, report)
        self.assertEqual(len(found), 1)
        self.assertIn("below the path floor", found[0])

    def test_unaccounted_packet(self):
        packets = self.good()
        packets[2].drop_reason = None
        report = metrics(packets_sent=3, packets_delivered=2, packets_dropped=1)
        self.assertTrue(any("exactly one" in p
                            for p in self.run_check(packets, report)))

    def test_missing_packet_and_wrong_counts(self):
        report = metrics(packets_sent=3, packets_delivered=2, packets_dropped=1)
        found = self.run_check(self.good()[:2], report)
        self.assertTrue(any("its spec gives 3" in p for p in found))
        self.assertTrue(any("counted 2/2/0" in p for p in found))

    def test_expected_sent(self):
        flow = Rec(start_time=MS, inter_packet_gap=100 * MS, total_volume=10**9,
                   packet_length=12_000)
        self.assertEqual(checks.expected_sent(flow, 301 * MS), 4)
        self.assertEqual(checks.expected_sent(flow, 300 * MS), 3)
        self.assertEqual(checks.expected_sent(flow, 0), 0)


class RateCheckTest(unittest.TestCase):
    # Bound 30 ms until 1 s, then 20 ms (strong stays 30 ms: a weak switch
    # would raise it, so lower both to keep the case small).
    changes = [change(0, 30 * MS, 30 * MS), change(1_000 * MS, 20 * MS, 25 * MS)]
    packets = [packet(0, 0, 26 * MS),            # before the change: ok
               packet(1, 990 * MS, 26 * MS),     # delivered after: active miss
               packet(2, 2_000 * MS, 21 * MS),   # active miss, strong hit
               packet(3, 3_000 * MS, 0, drop="queue_overflow"),
               packet(4, 0, 40 * MS, covered=False)]

    def test_hand_computed_rates(self):
        self.assertEqual(checks.score(self.packets, self.changes), (1 / 4, 2 / 4))

    def test_reported_rate_must_match(self):
        bits = 4 * 12_000
        good = metrics(success_rate=0.25, success_rate_strong=0.5,
                       throughput_bps=bits * 1e9 / (10 * 1_000 * MS))
        self.assertEqual(checks.check_rates(self.packets, self.changes,
                                            10 * 1_000 * MS, good), [])
        one_off = metrics(success_rate=0.5, success_rate_strong=0.5,
                          throughput_bps=good.throughput_bps)
        found = checks.check_rates(self.packets, self.changes,
                                   10 * 1_000 * MS, one_off)
        self.assertEqual(len(found), 1)
        self.assertIn("success rate", found[0])
        low = metrics(success_rate=0.25, success_rate_strong=0.5,
                      throughput_bps=good.throughput_bps - 1)
        self.assertIn("throughput", checks.check_rates(
            self.packets, self.changes, 10 * 1_000 * MS, low)[0])

    def test_no_covered_traffic_scores_one(self):
        self.assertEqual(checks.score([self.packets[4]], self.changes), (1.0, 1.0))


class RestorationCheckTest(unittest.TestCase):
    @staticmethod
    def restoration(detection, recalc=100_000, reassign=250_000, total=None):
        phases = detection + recalc + reassign
        return Rec(at=0, detection_delay=detection, recalculation_delay=recalc,
                   reassignment_delay=reassign,
                   total=phases if total is None else total)

    def check(self, variant, records):
        return checks.check_restorations(variant, records, 1_000 * MS,
                                         250_000, 100_000)

    def test_regimes(self):
        fast = self.restoration(250_000)
        self.assertEqual(self.check("SDN-woRM", []), [])
        self.assertEqual(self.check("SDN-RM", [fast]), [])
        self.assertEqual(self.check("SDN-sRM", [fast]), [])
        self.assertEqual(self.check("SDN-pRM", [self.restoration(1_000 * MS)]), [])

    def test_violations(self):
        self.assertTrue(self.check("SDN-woRM", [self.restoration(0)]))
        self.assertTrue(self.check("SDN-RM", [self.restoration(10 * MS)]))
        self.assertTrue(self.check("SDN-pRM",
                                   [self.restoration(1_000 * MS + 1)]))
        self.assertTrue(self.check("SDN-pRM", [self.restoration(0, 0, 0)]))
        self.assertTrue(self.check("SDN-RM", [self.restoration(0, total=1)]))

    def test_warnings(self):
        good = Rec(pair_id="C1", at=0, best_ed=11, required_ped=10)
        none = Rec(pair_id="C1", at=0, best_ed=None, required_ped=10)
        bad = Rec(pair_id="C1", at=0, best_ed=10, required_ped=10)
        self.assertEqual(checks.check_warnings([good, none]), [])
        self.assertEqual(len(checks.check_warnings([good, bad])), 1)


def estimation(cycle, at, costs):
    return [Rec(cycle=cycle, at=at, src=a, dst=b, cost=c)
            for (a, b), c in costs.items()]


class RouteOracleTest(unittest.TestCase):
    # Square A-B-C-D-A plus nothing else: A->C costs 2 via B, 5 via D.
    costs = {("A", "B"): 1, ("B", "C"): 1, ("A", "D"): 2, ("D", "C"): 3}
    records = estimation(0, 0, costs) + estimation(
        1, 10, {k: v for k, v in costs.items() if k != ("A", "B")})

    @staticmethod
    def route(at, ed):
        return Rec(at=at, src="A", dst="C", ed=ed)

    def test_minimum_per_cycle_and_failures(self):
        down = Rec(at=3, kind="link_down", a="B", b="A")
        up = Rec(at=6, kind="link_up", a="A", b="B")
        routes = [self.route(1, 2), self.route(4, 5), self.route(7, 2),
                  self.route(11, 5)]
        self.assertEqual(checks.check_routes(self.records, [down, up], routes),
                         [])

    def test_route_above_oracle_minimum(self):
        found = checks.check_routes(self.records, [], [self.route(1, 3)])
        self.assertEqual(len(found), 1)
        self.assertIn("oracle minimum 2", found[0])

    def test_down_link_is_excluded(self):
        down = Rec(at=3, kind="link_down", a="A", b="B")
        found = checks.check_routes(self.records, [down], [self.route(4, 2)])
        self.assertIn("oracle minimum 5", found[0])


class ProbeAccuracyTest(unittest.TestCase):
    # A-B-C at 1 Mbps and 1 ms.  Cycle 0 is idle; cycle 1 at 10 s saw a
    # 4 ms egress wait on A->B, which the estimator halves.
    idle = {("A", "B"): 13 * MS, ("B", "C"): 13 * MS}
    loaded = {("A", "B"): 15 * MS, ("B", "C"): 13 * MS}
    records = (estimation(0, 0, idle)
               + estimation(1, 10_000 * MS, loaded))
    load = [packet(0, 9_990 * MS, FLOOR, flow="BG"),
            packet(1, 10_003 * MS, FLOOR + 8 * MS, flow="BG")]

    def check(self, probes):
        return checks.check_probe_accuracy(probes + self.load, self.records,
                                           LINKS, "F1", "BG")

    def test_idle_exact_and_loaded_bounded(self):
        probes = [packet(0, 500 * MS, FLOOR),
                  packet(1, 10_000 * MS, FLOOR + 11 * MS)]
        self.assertEqual(self.check(probes), [])

    def test_idle_probe_off_by_one(self):
        probes = [packet(0, 500 * MS, FLOOR + 1),
                  packet(1, 10_000 * MS, FLOOR)]
        found = self.check(probes)
        self.assertEqual(len(found), 1)
        self.assertIn("idle probe 0", found[0])

    def test_loaded_probe_too_far_from_estimate(self):
        # Estimate 28 ms, allowed difference 2 x 12 ms.
        probes = [packet(0, 500 * MS, FLOOR),
                  packet(1, 10_000 * MS, 52 * MS + 1)]
        self.assertIn("loaded probe 1", self.check(probes)[0])

    def test_needs_both_kinds(self):
        self.assertIn("needs both", self.check([packet(0, 500 * MS, FLOOR)])[0])


class ReportCsvTest(unittest.TestCase):
    summary = """{"sweep": {"param": "events", "values": [1, 2]},
      "variants": {"SDN-RM": {
        "1": {"per_seed": [
          {"success_rate": 0.5, "success_rate_strong": 0.25,
           "throughput_bps": 1000000.0, "restoration_mean": null,
           "warning_count": 0},
          {"success_rate": 1.0, "success_rate_strong": 0.75,
           "throughput_bps": 3000000.0, "restoration_mean": 2000000.0,
           "warning_count": 3}]},
        "2": {"per_seed": [
          {"success_rate": 0.1, "success_rate_strong": 0.1,
           "throughput_bps": 1.0, "restoration_mean": null,
           "warning_count": 1}]}}}}"""

    def files(self):
        return {
            "success_rate.csv": "variant,events=1,events=2\nSDN-RM,0.750000,0.100000\n",
            "success_rate_strong.csv":
                "variant,events=1,events=2\nSDN-RM,0.500000,0.100000\n",
            "throughput_mbps.csv": "variant,events=1,events=2\nSDN-RM,2.000,0.000\n",
            "restoration_ms.csv": "variant,events=1,events=2\nSDN-RM,2.000000,-\n",
            "warnings.csv": "variant,events=1,events=2\nSDN-RM,1.50,1.00\n",
        }

    def test_cells_match_recomputed_means(self):
        self.assertEqual(checks.check_report_csvs(self.files(), self.summary), [])

    def test_corrupted_cell(self):
        files = self.files()
        files["warnings.csv"] = files["warnings.csv"].replace("1.50", "1.49")
        found = checks.check_report_csvs(files, self.summary)
        self.assertEqual(len(found), 1)
        self.assertIn("warnings.csv", found[0])


class WorkloadInputTest(unittest.TestCase):
    def test_inputs_are_a_function_of_the_seed(self):
        for workload in ("chain_line_rate", "mesh_control"):
            first = workloads.build_plan(workload, 7, "")
            again = workloads.build_plan(workload, 7, "")
            other = workloads.build_plan(workload, 8, "")
            self.assertEqual(first, again)
            self.assertNotEqual([e.sha256 for e in first.experiments],
                                [e.sha256 for e in other.experiments])


class ProgramRunTest(unittest.TestCase):
    """The checks accept a real run and reject it once a record is broken."""

    @classmethod
    def setUpClass(cls):
        src = os.path.join(os.path.dirname(HERE), "src")
        if not os.path.isdir(os.path.join(src, "sdnsim")):
            raise unittest.SkipTest("no sdnsim sources next to the benchmark")
        sys.path.insert(0, src)
        from sdnsim.harness import run_single
        from sdnsim.scenario import parse_scenario

        plan = workloads.build_plan("chain_line_rate", 3, "")
        experiment = plan.experiments[0]  # the 1 Mbps tier
        cls.scenario = parse_scenario(experiment.text)
        cls.result = run_single(cls.scenario, "woRM", experiment.seeds[0])

    def problems(self):
        scenario, result = self.scenario, self.result
        log = result.log
        links = checks.link_table(scenario.topology_spec.links)
        return (checks.check_packets(scenario.flows, scenario.topology_spec.hosts,
                                     scenario.contracts, links, 0,
                                     scenario.emulation_time, log.packets,
                                     result.metrics)
                + checks.check_rates(log.packets, log.ped_changes,
                                     scenario.emulation_time, result.metrics)
                + checks.check_routes(log.estimation, log.injections, log.routes)
                + checks.check_probe_accuracy(log.packets, log.estimation,
                                              links, "PROBE", "BG"))

    def test_real_run_passes_then_fails_when_corrupted(self):
        self.assertEqual(self.problems(), [])
        probe = next(p for p in self.result.log.packets
                     if p.flow_id == "PROBE" and p.delivered_at is not None)
        probe.actual_delay -= 1
        probe.delivered_at -= 1
        try:
            found = self.problems()
        finally:
            probe.actual_delay += 1
            probe.delivered_at += 1
        self.assertTrue(any("below the path floor" in p for p in found))
        self.assertTrue(any("idle probe" in p for p in found))


if __name__ == "__main__":
    unittest.main()
