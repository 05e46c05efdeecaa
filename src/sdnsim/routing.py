"""Delay-aware path finding over the live topology and cost matrix.

Dijkstra on the directed cost graph, restricted to Up links.  Ties are
broken first by hop count and then by the lexicographically smallest
switch-id sequence, so identical inputs always yield the identical route.
The search walks each switch's (neighbor, Link) pairs and looks costs up
in the matrix, a plain dict, so an edge costs one state test and one dict
lookup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .core import LINK_UP, SwitchId, Topology
from .delay_estimation import CostMatrix


class NoPathError(Exception):
    """Destination unreachable from the source over Up links with costs."""


@dataclass(frozen=True)
class RouteResult:
    path: tuple[SwitchId, ...]
    ed: int  # estimated end-to-end delay of the path


def find_path(topology: Topology, costs: CostMatrix,
              src: SwitchId, dst: SwitchId) -> RouteResult:
    """Minimum-cost simple path from src to dst.

    Only directed links present in the cost matrix (and physically Up) are
    considered.  Raises NoPathError when dst cannot be reached.
    """
    if not topology.has_switch(src):
        raise NoPathError(f"unknown switch {src!r}")
    if not topology.has_switch(dst):
        raise NoPathError(f"unknown switch {dst!r}")
    if src == dst:
        return RouteResult(path=(src,), ed=0)

    # Heap entries are (cost, hops, path); tuple comparison implements the
    # full tie-breaking order.  Graphs here are small (tens of switches).
    heap: list[tuple[int, int, tuple[SwitchId, ...]]] = [(0, 0, (src,))]
    best: dict[SwitchId, tuple[int, int, tuple[SwitchId, ...]]] = {}
    adjacent, cost_of = topology.adjacent, costs.get
    up = LINK_UP

    while heap:
        entry = heapq.heappop(heap)
        cost, hops, path = entry
        node = path[-1]
        if node in best and best[node] <= entry:
            continue
        best[node] = entry
        if node == dst:
            return RouteResult(path=path, ed=cost)
        for neighbor, link in adjacent(node):
            if neighbor in path or link.state is not up:
                continue
            step = cost_of((node, neighbor))
            if step is None:
                continue
            candidate = (cost + step, hops + 1, path + (neighbor,))
            if neighbor in best and best[neighbor] <= candidate:
                continue
            heapq.heappush(heap, candidate)

    raise NoPathError(f"no path from {src} to {dst}")
