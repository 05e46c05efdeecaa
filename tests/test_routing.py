import itertools
import random

import pytest

from sdnsim.core import (
    LinkSpec,
    LinkState,
    MILLISECOND,
    TopologySpec,
    build_topology,
)
from sdnsim.delay_estimation import CostMatrix, link_cost
from sdnsim.routing import NoPathError, find_path

from conftest import GBPS

MS = MILLISECOND


def brute_force_min_cost(topology, costs, src, dst):
    """Oracle: enumerate every simple path and return the minimal cost.

    Depth-first enumeration over Up links with cost entries; independent of
    the Dijkstra implementation under test.
    """
    best = None

    def extend(node, visited, cost):
        nonlocal best
        if node == dst:
            best = cost if best is None else min(best, cost)
            return
        for neighbor, link in topology.adjacent(node):
            if neighbor in visited:
                continue
            if not link.is_up or (node, neighbor) not in costs:
                continue
            extend(neighbor, visited | {neighbor},
                   cost + costs[(node, neighbor)])

    extend(src, {src}, 0)
    return best


def triangle():
    spec = TopologySpec(("A", "B", "C"), (),
                        (LinkSpec("A", "B", GBPS, 0),
                         LinkSpec("B", "C", GBPS, 0),
                         LinkSpec("A", "C", GBPS, 0)))
    topology = build_topology(spec)
    costs: CostMatrix = {}
    for a, b, delay in (("A", "B", 5 * MS), ("B", "C", 5 * MS),
                        ("A", "C", 12 * MS)):
        costs[(a, b)] = costs[(b, a)] = delay
    return topology, costs


def random_instance(rng):
    n = rng.randint(2, 8)
    switches = tuple(f"S{i}" for i in range(n))
    links = []
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.45:
            links.append(LinkSpec(f"S{a}", f"S{b}", GBPS, 0))
    topology = build_topology(TopologySpec(switches, (), tuple(links)))
    costs: CostMatrix = {}
    for link in topology.links():
        for src, dst in ((link.a, link.b), (link.b, link.a)):
            link_delay = rng.randint(1, 10_000_000)
            costs[(src, dst)] = link_cost(rng.randint(0, 20_000), link_delay)
    return topology, costs


class TestFindPath:
    def test_triangle_prefers_two_cheap_hops(self):
        topology, costs = triangle()
        result = find_path(topology, costs, "A", "C")
        assert result.path == ("A", "B", "C")
        assert result.ed == 10 * MS

    def test_src_equals_dst(self):
        topology, costs = triangle()
        result = find_path(topology, costs, "B", "B")
        assert result.path == ("B",)
        assert result.ed == 0

    def test_isolated_destination_raises(self):
        topology, costs = triangle()
        topology.set_link_state("A", "C", LinkState.DOWN)
        topology.set_link_state("B", "C", LinkState.DOWN)
        with pytest.raises(NoPathError):
            find_path(topology, costs, "A", "C")

    def test_down_links_excluded_even_with_stale_costs(self):
        topology, costs = triangle()
        # Matrix still lists A-C, but the link itself just went down.
        topology.set_link_state("A", "C", LinkState.DOWN)
        result = find_path(topology, costs, "A", "C")
        assert result.path == ("A", "B", "C")

    def test_tie_break_prefers_fewer_hops(self):
        spec = TopologySpec(("A", "B", "C"), (),
                            (LinkSpec("A", "B", GBPS, 0),
                             LinkSpec("B", "C", GBPS, 0),
                             LinkSpec("A", "C", GBPS, 0)))
        topology = build_topology(spec)
        costs = {("A", "B"): 5 * MS, ("B", "C"): 5 * MS, ("A", "C"): 10 * MS}
        result = find_path(topology, costs, "A", "C")
        assert result.path == ("A", "C")

    def test_tie_break_prefers_lexicographic_sequence(self):
        # Two equal-cost equal-hop routes: via B and via C.
        spec = TopologySpec(("A", "B", "C", "D"), (),
                            (LinkSpec("A", "B", GBPS, 0),
                             LinkSpec("B", "D", GBPS, 0),
                             LinkSpec("A", "C", GBPS, 0),
                             LinkSpec("C", "D", GBPS, 0)))
        topology = build_topology(spec)
        costs: CostMatrix = {}
        for a, b in (("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")):
            costs[(a, b)] = costs[(b, a)] = 5 * MS
        result = find_path(topology, costs, "A", "D")
        assert result.path == ("A", "B", "D")

    def test_unknown_switch_raises(self):
        topology, costs = triangle()
        with pytest.raises(NoPathError):
            find_path(topology, costs, "A", "Z")


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(120):
            topology, costs = random_instance(rng)
            names = topology.switches
            src, dst = rng.sample(names, 2)
            expected = brute_force_min_cost(topology, costs, src, dst)
            if expected is None:
                with pytest.raises(NoPathError):
                    find_path(topology, costs, src, dst)
            else:
                result = find_path(topology, costs, src, dst)
                assert result.ed == expected
                checked += 1
        assert checked > 40  # the sample actually exercised reachable pairs

    def test_no_single_edge_swap_improves(self):
        # Local optimality: replacing any one hop of the returned path with
        # a two-hop detour never beats the returned cost.
        rng = random.Random(11)
        for _ in range(60):
            topology, costs = random_instance(rng)
            names = topology.switches
            src, dst = rng.sample(names, 2)
            try:
                result = find_path(topology, costs, src, dst)
            except NoPathError:
                continue
            path = result.path
            for i in range(len(path) - 1):
                a, b = path[i], path[i + 1]
                for mid, _ in topology.adjacent(a):
                    if mid in path:
                        continue
                    if (a, mid) not in costs or (mid, b) not in costs:
                        continue
                    if not topology.has_link(mid, b):
                        continue
                    detour = (result.ed - costs[(a, b)]
                              + costs[(a, mid)] + costs[(mid, b)])
                    assert detour >= result.ed

    def test_deterministic_across_repeats(self):
        rng = random.Random(23)
        topology, costs = random_instance(rng)
        names = topology.switches
        for src, dst in itertools.permutations(names, 2):
            try:
                first = find_path(topology, costs, src, dst)
            except NoPathError:
                continue
            for _ in range(3):
                again = find_path(topology, costs, src, dst)
                assert again == first

    def test_never_traverses_down_links(self):
        rng = random.Random(31)
        for _ in range(40):
            topology, costs = random_instance(rng)
            links = topology.links()
            for link in links:
                if rng.random() < 0.3:
                    link.state = LinkState.DOWN
            names = topology.switches
            src, dst = rng.sample(names, 2)
            try:
                result = find_path(topology, costs, src, dst)
            except NoPathError:
                continue
            for a, b in zip(result.path, result.path[1:]):
                assert topology.link_between(a, b).is_up
