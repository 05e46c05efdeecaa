"""Benchmark inputs: every workload's scenarios as a pure function of a seed.

The program under test receives only scenario text (generated here, or the
bundled ``scenarios/industrial_ring_e1.scn``) plus the seeds and sweep that
``sdnsim run`` would pass to ``run_experiment``.  Nothing here imports
sdnsim, so the inputs stay independent of the code they exercise.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
from dataclasses import dataclass

from checks import transmission_ns

WORKLOADS = ("ring_sweep", "chain_line_rate", "mesh_control")
ALL_VARIANTS = ("woRM", "sRM", "pRM", "RM")

MS = 1_000_000
SECOND = 1_000_000_000
PACKET_BITS = 12_000  # 1500 B, the reference packet of every flow here


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call and the report directory it writes."""

    label: str
    text: str
    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    sweep: tuple[str, tuple[int, ...]] | None = None
    flow_count: int | None = None  # prefix of the scenario's flows

    @property
    def runs(self) -> int:
        values = 1 if self.sweep is None else len(self.sweep[1])
        return values * len(self.variants) * len(self.seeds)

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Plan:
    """What one round of a workload runs; rounds repeat it unchanged."""

    workload: str
    experiments: tuple[Experiment, ...]
    readback_timed: bool  # whether reading events.jsonl back is timed work


def build_plan(workload: str, seed: int, root: str) -> Plan:
    if workload == "ring_sweep":
        return ring_sweep(seed, root)
    if workload == "chain_line_rate":
        return chain_line_rate(seed)
    if workload == "mesh_control":
        return mesh_control(seed)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ring_sweep: the paper's event-count figure on the bundled ring


def ring_sweep(seed: int, root: str) -> Plan:
    path = os.path.join(root, "scenarios", "industrial_ring_e1.scn")
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    rng = random.Random(f"ring_sweep:{seed}")
    seeds = tuple(sorted(rng.sample(range(1, 1_000_000), 2)))
    experiment = Experiment(
        label="ring", text=text, variants=ALL_VARIANTS, seeds=seeds,
        sweep=("events", (1, 2, 3, 4, 5)), flow_count=6)
    return Plan("ring_sweep", (experiment,), readback_timed=False)


# ---------------------------------------------------------------------------
# chain_line_rate: estimator accuracy on a loaded 10-switch chain

CHAIN_SWITCHES = 10
CHAIN_TIERS = (1_000_000, 100_000_000, 1_000_000_000)


def chain_text(rng: random.Random, capacity_bps: int) -> str:
    """A chain with a sparse probe flow and a burst just under line rate.

    The burst spaces its packets by the transmission delay plus an eighth
    of it for 60 ms, so queues stay at most one packet deep; the estimation
    cycle at 10 s falls inside it.  The seed moves the burst and the probes
    and sets the propagation delays, not the amount of traffic.
    """
    td = transmission_ns(PACKET_BITS, capacity_bps)
    lines = ["[topology]",
             "switches " + " ".join(f"S{i}" for i in range(1, CHAIN_SWITCHES + 1)),
             "host H1 S1", f"host H{CHAIN_SWITCHES} S{CHAIN_SWITCHES}"]
    for i in range(1, CHAIN_SWITCHES):
        propagation = rng.randrange(5, 21) * 100_000  # 0.5..2 ms
        lines.append(f"link S{i} S{i + 1} capacity={capacity_bps}bps "
                     f"propagation={propagation}ns")
    probe_start = rng.randrange(500, 700) * MS
    probe_gap = rng.randrange(80, 121) * MS
    bg_gap = td + td // 8
    bg_start = rng.randrange(9_960, 9_990) * MS
    bg_packets = 60 * MS // bg_gap
    lines += ["", "[flows]",
              f"flow PROBE H1 H{CHAIN_SWITCHES} packet=1500B volume=1000000000b "
              f"start={probe_start}ns gap={probe_gap}ns",
              f"flow BG H1 H{CHAIN_SWITCHES} packet=1500B "
              f"volume={bg_packets * PACKET_BITS}b start={bg_start}ns gap={bg_gap}ns",
              "", "[contracts]",
              f"contract C1 S1 S{CHAIN_SWITCHES} strong={40 * td + 20 * MS}ns",
              "", "[run]",
              "emulation_time 12s",
              "estimation_interval 10s",
              "queue_limit 500ms",
              f"seed {rng.randrange(1, 1_000_000)}",
              "variant SDN-woRM", ""]
    return "\n".join(lines)


def chain_line_rate(seed: int) -> Plan:
    rng = random.Random(f"chain_line_rate:{seed}")
    experiments = []
    for capacity in CHAIN_TIERS:
        text = chain_text(rng, capacity)
        # Without injections the seed changes nothing, so extra seeds repeat
        # the 1 Gbps tier: the run-time median then falls on the runs that
        # take most of the round, not on short runs that noise moves most.
        count = 3 if capacity == CHAIN_TIERS[-1] else 1
        seeds = tuple(sorted(rng.sample(range(1, 1_000_000), count)))
        experiments.append(Experiment(
            label=f"chain_{capacity // 1_000_000}mbps", text=text,
            variants=("woRM",), seeds=seeds))
    return Plan("chain_line_rate", tuple(experiments), readback_timed=True)


# ---------------------------------------------------------------------------
# mesh_control: control-heavy mesh with seeded failures and bound changes

MESH_SWITCHES = 48
MESH_PAIRS = 16
MESH_CAPACITY = 1_000_000_000


def _shortest(n: int, links: dict[tuple[int, int], int], src: int,
              weight) -> dict[int, int]:
    """Single-source shortest distances; ``weight`` maps a propagation
    delay to the link's length."""
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for (a, b), propagation in links.items():
        adjacency[a].append((b, weight(propagation)))
        adjacency[b].append((a, weight(propagation)))
    best = {src: 0}
    heap = [(0, src)]
    while heap:
        cost, node = heapq.heappop(heap)
        if cost > best[node]:
            continue
        for neighbor, step in adjacency[node]:
            if neighbor not in best or cost + step < best[neighbor]:
                best[neighbor] = cost + step
                heapq.heappush(heap, (cost + step, neighbor))
    return best


def mesh_text(rng: random.Random) -> str:
    """A ring of switches with seeded chords, contract pairs and sparse flows.

    Each strong bound is the pair's idle minimum path cost times a seeded
    1.05..1.5, so detours after a failure or a tightened bound often break
    it and exercise RS1, RS2 and RS3.
    """
    n = MESH_SWITCHES
    links: dict[tuple[int, int], int] = {}

    def add(a: int, b: int) -> None:
        key = (min(a, b), max(a, b))
        if a != b and key not in links:
            links[key] = rng.randrange(2, 21) * 100_000  # 0.2..2 ms

    for i in range(n):
        add(i, (i + 1) % n)
    for i in range(0, n, 2):
        add(i, (i + rng.randrange(5, 12)) % n)

    td = transmission_ns(PACKET_BITS, MESH_CAPACITY)

    def hop(propagation: int) -> int:
        return 1

    def idle_cost(propagation: int) -> int:
        return td + propagation

    pairs: list[tuple[int, int]] = []
    while len(pairs) < MESH_PAIRS:
        src, dst = rng.sample(range(n), 2)
        if (src, dst) in pairs or _shortest(n, links, src, hop)[dst] < 4:
            continue
        pairs.append((src, dst))

    endpoints = sorted({s for pair in pairs for s in pair})
    lines = ["[topology]",
             "switches " + " ".join(f"S{i + 1}" for i in range(n))]
    lines += [f"host H{i + 1} S{i + 1}" for i in endpoints]
    lines += [f"link S{a + 1} S{b + 1} capacity={MESH_CAPACITY}bps "
              f"propagation={p}ns" for (a, b), p in sorted(links.items())]
    lines += ["", "[flows]"]
    for k, (src, dst) in enumerate(pairs, start=1):
        start = rng.randrange(200, 1_500) * MS
        gap = rng.randrange(400, 601) * MS
        lines.append(f"flow F{k} H{src + 1} H{dst + 1} packet=1500B "
                     f"volume={200 * PACKET_BITS}b start={start}ns gap={gap}ns")
    lines += ["", "[contracts]"]
    for k, (src, dst) in enumerate(pairs, start=1):
        idle = _shortest(n, links, src, idle_cost)[dst]
        strong = idle * rng.randrange(105, 151) // 100
        weak = strong * rng.randrange(150, 251) // 100
        lines.append(f"contract C{k} S{src + 1} S{dst + 1} "
                     f"strong={strong}ns weak={weak}ns")
    lines += ["", "[injections]",
              "auto_link_failures count=6 window=3s..38s",
              "auto_ped_changes count=2 window=3s..38s factor=0.7..0.95 per_pair",
              "", "[run]",
              "emulation_time 40s",
              "estimation_interval 1s",
              "control_latency 0.25ms",
              f"seed {rng.randrange(1, 1_000_000)}",
              "variant SDN-RM", ""]
    return "\n".join(lines)


def mesh_control(seed: int) -> Plan:
    """Two meshes per round, so one mesh's cost does not set the figures."""
    rng = random.Random(f"mesh_control:{seed}")
    experiments = []
    for label in ("mesh_a", "mesh_b"):
        text = mesh_text(rng)
        experiments.append(Experiment(
            label=label, text=text, variants=ALL_VARIANTS,
            seeds=(rng.randrange(1, 1_000_000),)))
    return Plan("mesh_control", tuple(experiments), readback_timed=False)
