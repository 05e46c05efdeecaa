"""Independent checks of the program's outputs.

Each check recomputes a result from first principles (link specs, flow
specs, the logged active-bound timeline) or tests a property the method
must have, and returns a list of problems; an empty list means the output
passed.  Records are read by attribute only, so the checks accept the
program's typed records or any object with the same field names.  None of
them calls into sdnsim.
"""

from __future__ import annotations

import csv
import heapq
import io
import json

SECOND = 1_000_000_000
RESTORATION_LIMIT_REACTIVE = 10_000_000  # 10 ms, for sRM and RM

# CSV report name -> (MetricsReport field, printf pattern, scale); this is
# the report format documented in the project README.
REPORT_FILES = {
    "success_rate.csv": ("success_rate", "%.6f", 1.0),
    "success_rate_strong.csv": ("success_rate_strong", "%.6f", 1.0),
    "throughput_mbps.csv": ("throughput_bps", "%.3f", 1e-6),
    "restoration_ms.csv": ("restoration_mean", "%.6f", 1e-6),
    "warnings.csv": ("warning_count", "%.2f", 1.0),
}


def transmission_ns(bits: int, bps: int) -> int:
    """Serialization time of ``bits`` at ``bps``, in ns, rounded half up."""
    return (2 * bits * SECOND + bps) // (2 * bps)


def link_table(links) -> dict[tuple[str, str], tuple[int, int]]:
    """Directed (a, b) -> (capacity bps, propagation ns) from link specs."""
    table = {}
    for link in links:
        spec = (link.capacity_bps, link.propagation_delay)
        table[(link.a, link.b)] = spec
        table[(link.b, link.a)] = spec
    return table


def path_floor(path, length_bits: int, links, host_delay: int) -> int:
    """Least possible delivery delay: every hop's transmission plus
    propagation, plus both host access hops."""
    total = 2 * host_delay
    for a, b in zip(path, path[1:]):
        capacity, propagation = links[(a, b)]
        total += transmission_ns(length_bits, capacity) + propagation
    return total


# ---------------------------------------------------------------------------
# packets


def expected_sent(flow, emulation_time: int) -> int:
    """Packets a flow emits: one per gap from its start, until its volume
    is sent or the emulation ends."""
    if flow.start_time > emulation_time:
        return 0
    by_volume = flow.total_volume // flow.packet_length
    if flow.inter_packet_gap == 0:
        return by_volume
    by_time = (emulation_time - flow.start_time) // flow.inter_packet_gap + 1
    return min(by_volume, by_time)


def check_packets(flows, hosts, contracts, links, host_delay: int,
                  emulation_time: int, packets, metrics) -> list[str]:
    """sent = delivered + dropped, every flow's schedule, the delay floor."""
    problems = []
    attach = dict(hosts)
    covered_pairs = {(c.src, c.dst) for c in contracts}
    by_flow: dict[str, list] = {}
    for packet in packets:
        by_flow.setdefault(packet.flow_id, []).append(packet)
    for flow in flows:
        sent = by_flow.pop(flow.id, [])
        want = expected_sent(flow, emulation_time)
        if len(sent) != want:
            problems.append(f"flow {flow.id}: sent {len(sent)} packets, "
                            f"its spec gives {want}")
        pair = (attach[flow.src_host], attach[flow.dst_host])
        for index, packet in enumerate(sent):
            at = flow.start_time + index * flow.inter_packet_gap
            if packet.seq != index or packet.sent_at != at:
                problems.append(f"flow {flow.id}: packet {index} is seq "
                                f"{packet.seq} sent at {packet.sent_at}, "
                                f"expected at {at}")
                break
            if (tuple(packet.pair) != pair
                    or packet.covered != (pair in covered_pairs)
                    or packet.length != flow.packet_length):
                problems.append(f"flow {flow.id}: packet {index} has pair "
                                f"{packet.pair}, covered {packet.covered}, "
                                f"length {packet.length}")
                break
    if by_flow:
        problems.append(f"packets of unknown flows {sorted(by_flow)}")

    delivered = dropped = 0
    for packet in packets:
        if (packet.delivered_at is None) == (packet.drop_reason is None):
            problems.append(f"packet {packet.flow_id}/{packet.seq} is not "
                            "exactly one of delivered and dropped")
            continue
        if packet.delivered_at is None:
            dropped += 1
            continue
        delivered += 1
        if packet.actual_delay != packet.delivered_at - packet.sent_at:
            problems.append(f"packet {packet.flow_id}/{packet.seq}: delay "
                            "is not delivery minus send time")
        floor = path_floor(packet.path, packet.length, links, host_delay)
        if packet.actual_delay < floor:
            problems.append(f"packet {packet.flow_id}/{packet.seq}: delay "
                            f"{packet.actual_delay} below the path floor "
                            f"{floor}")
    if (metrics.packets_sent, metrics.packets_delivered,
            metrics.packets_dropped) != (len(packets), delivered, dropped):
        problems.append(
            f"reported sent/delivered/dropped {metrics.packets_sent}/"
            f"{metrics.packets_delivered}/{metrics.packets_dropped}, "
            f"counted {len(packets)}/{delivered}/{dropped}")
    return problems[:20]


# ---------------------------------------------------------------------------
# success rate and throughput


def bound_timeline(ped_changes) -> dict[tuple[str, str], list[tuple[int, int, int]]]:
    """Per contract endpoints: (at, active bound, strong bound), in log
    order sorted by time, so the later of two same-time changes wins."""
    timeline: dict[tuple[str, str], list[tuple[int, int, int]]] = {}
    for change in sorted(ped_changes, key=lambda c: c.at):
        timeline.setdefault((change.src, change.dst), []).append(
            (change.at, change.active_ped, change.strong_ped))
    return timeline


def bounds_at(entries, when: int) -> tuple[int, int] | None:
    found = None
    for at, active, strong in entries:
        if at > when:
            break
        found = (active, strong)
    return found


def score(packets, ped_changes) -> tuple[float, float]:
    """(success vs the active bound, success vs the strong bound) over
    contract-covered packets; a dropped packet never succeeds."""
    timeline = bound_timeline(ped_changes)
    covered = hits = strong_hits = 0
    for packet in packets:
        if not packet.covered:
            continue
        covered += 1
        if packet.delivered_at is None:
            continue
        bounds = bounds_at(timeline.get(tuple(packet.pair), ()),
                           packet.delivered_at)
        if bounds is None:
            continue
        hits += packet.actual_delay <= bounds[0]
        strong_hits += packet.actual_delay <= bounds[1]
    if covered == 0:
        return 1.0, 1.0
    return hits / covered, strong_hits / covered


def check_rates(packets, ped_changes, emulation_time: int, metrics) -> list[str]:
    problems = []
    success, strong = score(packets, ped_changes)
    if (success, strong) != (metrics.success_rate, metrics.success_rate_strong):
        problems.append(f"success rate reported {metrics.success_rate}/"
                        f"{metrics.success_rate_strong}, rescored "
                        f"{success}/{strong}")
    bits = sum(p.length for p in packets if p.delivered_at is not None)
    throughput = bits * SECOND / emulation_time
    if throughput != metrics.throughput_bps:
        problems.append(f"throughput reported {metrics.throughput_bps}, "
                        f"recomputed {throughput}")
    return problems


# ---------------------------------------------------------------------------
# restorations and warnings


def check_restorations(variant: str, restorations, interval: int,
                       control_latency: int, recalc_cost: int) -> list[str]:
    """Restoration regimes by mechanism: none without resilience, fast when
    reactive, and within one estimation interval plus reassignment and
    recalculation when proactive only."""
    problems = []
    totals = [r.total for r in restorations]
    for r in restorations:
        phases = r.detection_delay + r.recalculation_delay + r.reassignment_delay
        if r.total != phases:
            problems.append(f"restoration at {r.at}: total {r.total} is not "
                            f"the sum of its phases {phases}")
    if variant == "SDN-woRM":
        if totals:
            problems.append(f"SDN-woRM logged {len(totals)} restorations")
    elif variant in ("SDN-sRM", "SDN-RM"):
        slow = [t for t in totals if t >= RESTORATION_LIMIT_REACTIVE]
        if slow:
            problems.append(f"{variant}: {len(slow)} restorations of 10 ms "
                            f"or more, e.g. {slow[0]} ns")
    elif variant == "SDN-pRM":
        limit = interval + control_latency + recalc_cost
        bad = [t for t in totals if not 0 < t <= limit]
        if bad:
            problems.append(f"SDN-pRM: {len(bad)} restorations outside "
                            f"(0, {limit}] ns, e.g. {bad[0]}")
    else:
        problems.append(f"unknown variant {variant!r}")
    return problems


def check_warnings(warnings) -> list[str]:
    """An RS3 warning means no path met the bound it was held to."""
    return [f"warning for {w.pair_id} at {w.at}: best_ed {w.best_ed} meets "
            f"required {w.required_ped}"
            for w in warnings
            if w.best_ed is not None and w.best_ed <= w.required_ped][:20]


# ---------------------------------------------------------------------------
# routes against an oracle


def min_costs(costs: dict[tuple[str, str], int], src: str) -> dict[str, int]:
    """Single-source minimum path cost over directed link costs."""
    adjacency: dict[str, list[tuple[str, int]]] = {}
    for (a, b), cost in costs.items():
        adjacency.setdefault(a, []).append((b, cost))
    best = {src: 0}
    heap = [(0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > best[node]:
            continue
        for neighbor, step in adjacency.get(node, ()):
            total = cost + step
            if neighbor not in best or total < best[neighbor]:
                best[neighbor] = total
                heapq.heappush(heap, (total, neighbor))
    return best


def down_links_at(injections, when: int) -> frozenset:
    """Links that the logged injections have taken down at ``when``."""
    down = set()
    for inj in injections:
        if inj.at > when:
            break
        if inj.kind == "link_down":
            down.add(frozenset((inj.a, inj.b)))
        elif inj.kind == "link_up":
            down.discard(frozenset((inj.a, inj.b)))
    return frozenset(down)


def check_routes(estimation, injections, routes) -> list[str]:
    """Each route's ``ed`` is the minimum cost over the latest estimation
    cycle's links, less the links down when the route was computed."""
    cycles: dict[int, tuple[int, dict]] = {}
    for record in estimation:
        at, costs = cycles.setdefault(record.cycle, (record.at, {}))
        costs[(record.src, record.dst)] = record.cost
    starts = sorted((at, cycle) for cycle, (at, _) in cycles.items())
    ordered = sorted(injections, key=lambda inj: inj.at)
    problems = []
    memo: dict[tuple, dict[str, int]] = {}
    index = -1
    for route in sorted(routes, key=lambda r: r.at):
        while index + 1 < len(starts) and starts[index + 1][0] <= route.at:
            index += 1
        if index < 0:
            problems.append(f"route at {route.at} precedes every cycle")
            continue
        cycle = starts[index][1]
        down = down_links_at(ordered, route.at)
        key = (cycle, down, route.src)
        if key not in memo:
            live = {link: cost for link, cost in cycles[cycle][1].items()
                    if frozenset(link) not in down}
            memo[key] = min_costs(live, route.src)
        best = memo[key].get(route.dst)
        if best != route.ed:
            problems.append(f"route {route.src}->{route.dst} at {route.at}: "
                            f"ed {route.ed}, oracle minimum {best}")
    return problems[:20]


# ---------------------------------------------------------------------------
# estimator accuracy on the chain


def check_probe_accuracy(packets, estimation, links, probe_flow: str,
                         load_flow: str) -> list[str]:
    """Estimated against measured path delay for a sparse probe flow.

    A probe is idle when neither its own flight nor the estimation cycle
    it is compared with overlaps the load flow's busy period; its delay
    must then equal both the link-spec sum and the cycle's path cost.
    Otherwise the delay must lie within hop count times the transmission
    delay of the cycle's path cost.
    """
    cycles: dict[int, tuple[int, dict]] = {}
    for record in estimation:
        at, costs = cycles.setdefault(record.cycle, (record.at, {}))
        costs[(record.src, record.dst)] = record.cost
    starts = sorted((at, cycle) for cycle, (at, _) in cycles.items())
    load = [p for p in packets if p.flow_id == load_flow]
    busy_from = min(p.sent_at for p in load)
    busy_to = max(p.delivered_at if p.delivered_at is not None else p.sent_at
                  for p in load)

    def busy(t0: int, t1: int) -> bool:
        return t0 <= busy_to and busy_from <= t1

    problems = []
    idle = loaded = 0
    for packet in packets:
        if packet.flow_id != probe_flow or packet.delivered_at is None:
            continue
        at, cycle = [s for s in starts if s[0] <= packet.sent_at][-1]
        hops = list(zip(packet.path, packet.path[1:]))
        estimate = sum(cycles[cycle][1][hop] for hop in hops)
        if not busy(packet.sent_at, packet.delivered_at) and not busy(at, at):
            idle += 1
            floor = path_floor(packet.path, packet.length, links, 0)
            if not packet.actual_delay == floor == estimate:
                problems.append(f"idle probe {packet.seq}: delay "
                                f"{packet.actual_delay}, link specs {floor}, "
                                f"estimate {estimate}")
        else:
            loaded += 1
            slack = sum(transmission_ns(packet.length, links[hop][0])
                        for hop in hops)
            if abs(packet.actual_delay - estimate) > slack:
                problems.append(f"loaded probe {packet.seq}: delay "
                                f"{packet.actual_delay}, estimate {estimate}, "
                                f"allowed difference {slack}")
    if idle == 0 or loaded == 0:
        problems.append(f"probe check saw {idle} idle and {loaded} loaded "
                        "probes; it needs both")
    return problems[:20]


# ---------------------------------------------------------------------------
# report files


def check_report_csvs(files: dict[str, str], summary_text: str) -> list[str]:
    """Every CSV cell equals the mean recomputed from summary.json."""
    summary = json.loads(summary_text)
    problems = []
    for name, (field, pattern, scale) in REPORT_FILES.items():
        rows = list(csv.reader(io.StringIO(files[name])))
        header, body = rows[0], rows[1:]
        values = list(summary["sweep"]["values"])
        if len(header) != len(values) + 1:
            problems.append(f"{name}: header {header} for values {values}")
            continue
        if sorted(row[0] for row in body) != sorted(summary["variants"]):
            problems.append(f"{name}: rows {[r[0] for r in body]}")
            continue
        for row in body:
            per_value = summary["variants"][row[0]]
            for value, cell in zip(values, row[1:]):
                seeds = [r[field] for r in per_value[str(value)]["per_seed"]]
                seeds = [v for v in seeds if v is not None]
                want = ("-" if not seeds
                        else pattern % (sum(seeds) / len(seeds) * scale))
                if cell != want:
                    problems.append(f"{name}: {row[0]} at {value} is {cell}, "
                                    f"summary.json gives {want}")
    return problems[:20]
