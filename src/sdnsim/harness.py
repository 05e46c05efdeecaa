"""Experiment orchestration: runs, sweeps, metrics and report files.

A run is one kernel execution of a scenario under one mechanism variant and
one seed.  An experiment fans a scenario out over variants, seeds and an
optional swept parameter (flow count or event count), then aggregates the
three headline metrics: success rate, throughput and path restoration
delay.  Metrics are computed from the structured run log alone, so they
can be recomputed byte-identically from a serialized log.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from itertools import chain, zip_longest

from . import __version__
from .contracts import BoundTimeline
from .core import ControlChannel, SECOND, build_topology
from .injections import Injection, materialize_injections
from .kernel import DROP_REASONS, Kernel
from .resilience import (MechanismVariant, variant_by_name,
                         variants_by_name)
from .runlog import (Part, PartLog, RunLog, copy_texts, parts_of,
                     record_to_dict, templates)
from .scenario import Scenario


# ---------------------------------------------------------------------------
# metric computation (reads records by attribute: typed records of a live
# run, or the SimpleNamespace records RunLog.parse_jsonl gives back)


# A span no instant falls in: (change, lo, hi) with lo > hi.
_NO_SPAN = (None, math.inf, -math.inf)


def _score_packets(packets: PartLog | list, ped_changes: list,
                   ) -> tuple[int, int, float, float]:
    """(packets delivered, bits delivered, success rate, strong success
    rate) in one pass.

    A delivered covered packet is scored against the change in force for
    its pair when it arrived.  Consecutive deliveries of a pair mostly
    fall under one change, so each pair keeps the [lo, hi) span of the
    change it last found and bisects the timeline only for a delivery
    outside it.  A stepped part counts n times each template record whose
    first and last copies' deliveries fall in one span, as every copy's
    delivery lies between them; its other template records are scored
    copy by copy.  Packet parts step no other field that is scored.
    """
    timeline = BoundTimeline(ped_changes)
    spans: dict[tuple, tuple] = {}
    delivered = bits = covered = hits = strong_hits = 0
    # Scored record by record: the parts without steps, and the copies of
    # each template record whose copies a bound change falls among.
    listed = []
    for part in parts_of(packets):
        if not part.steps:
            listed.append(part)
            continue
        first, n = part.first, part.n
        shift = dict(part.steps).get("delivered_at", 0)
        for record in part.template:
            at = record.delivered_at
            if record.covered and at is not None:
                at += first * shift
                change, lo, hi = timeline.span(*record.pair, at)
                if not lo <= at + (n - 1) * shift < hi:
                    listed.append(Part((record,), first, n, part.steps))
                    continue
                if change is not None:
                    delay = record.actual_delay
                    hits += n * (delay <= change.active_ped)
                    strong_hits += n * (delay <= change.strong_ped)
            if at is not None:
                delivered += n
                bits += n * record.length
            covered += n * record.covered
    for packet in chain.from_iterable(listed):
        at = packet.delivered_at
        if at is not None:
            delivered += 1
            bits += packet.length
        if not packet.covered:
            continue
        covered += 1
        if at is None:
            continue
        pair = packet.pair  # a list when parsed back from JSON
        key = pair if type(pair) is tuple else tuple(pair)
        change, lo, hi = spans.get(key, _NO_SPAN)
        if not lo <= at < hi:
            change, lo, hi = spans[key] = timeline.span(key[0], key[1], at)
        if change is not None:
            delay = packet.actual_delay
            hits += delay <= change.active_ped
            strong_hits += delay <= change.strong_ped
    if not covered:
        return delivered, bits, 1.0, 1.0
    return delivered, bits, hits / covered, strong_hits / covered


def compute_restoration_stats(restorations: list,
                              ) -> tuple[float | None, list[int]]:
    """Arithmetic mean and full list of restoration totals; None if empty."""
    totals = [r.total for r in restorations]
    if not totals:
        return None, []
    return sum(totals) / len(totals), totals


# ---------------------------------------------------------------------------
# run results


@dataclass(frozen=True)
class MetricsReport:
    variant: str
    seed: int
    packets_sent: int
    packets_delivered: int
    packets_dropped: int
    success_rate: float
    success_rate_strong: float
    throughput_bps: float
    restoration_mean: float | None
    restoration_totals: tuple[int, ...]
    warning_count: int


@dataclass
class RunResult:
    variant: str
    seed: int
    metrics: MetricsReport
    log: RunLog | None = None


def metrics_from_streams(log: RunLog, variant: str, seed: int,
                         emulation_time: int) -> MetricsReport:
    """Headline metrics from a run's log, live or from RunLog.parse_jsonl.

    Throughput is the delivered bits across all flows divided by the
    emulation time.
    """
    if emulation_time <= 0:
        raise ValueError("emulation time must be positive")
    sent = len(log.packets)
    delivered, bits, success, success_strong = _score_packets(
        log.packets, log.ped_changes)
    mean, totals = compute_restoration_stats(log.restorations)
    return MetricsReport(
        variant=variant, seed=seed,
        packets_sent=sent,
        packets_delivered=delivered,
        packets_dropped=sent - delivered,
        success_rate=success,
        success_rate_strong=success_strong,
        throughput_bps=bits * SECOND / emulation_time,
        restoration_mean=mean,
        restoration_totals=tuple(totals),
        warning_count=len(log.warnings),
    )


def verify_conservation(log: RunLog) -> None:
    """Re-derive cost sums from logged components; raise on any mismatch.

    Every cost-matrix entry must equal its transmission plus link delay,
    with a non-negative link delay and a positive transmission delay, and
    every logged route's delay must equal the sum of its link costs.  A
    packet is delivered or dropped, not both: a delivered one's delay is
    its non-negative transit time, a dropped one has a known reason.
    Runs call this unconditionally, keeping the arithmetic honest.  A
    part's copies differ from their template records only in the fields
    its steps name, which none of these checks reads (seq, times, cycle
    index), so each template record is checked once.
    """
    for record in templates(log.estimation):
        if record.cost != record.transmission_delay + record.link_delay:
            raise AssertionError(f"cost entry violates additivity: {record}")
        if record.link_delay < 0 or record.transmission_delay <= 0:
            raise AssertionError(f"cost entry out of range: {record}")
    for route in templates(log.routes):
        if route.ed != sum(route.link_costs):
            raise AssertionError(f"route delay is not the cost sum: {route}")
    for record in log.restorations:
        expected = (record.detection_delay + record.recalculation_delay
                    + record.reassignment_delay)
        if record.total != expected:
            raise AssertionError(f"restoration total mismatch: {record}")
    for packet in templates(log.packets):
        delivered = packet.delivered_at is not None
        if delivered == (packet.drop_reason is not None):
            raise AssertionError(f"packet neither delivered nor dropped: {packet}")
        if delivered:
            if (packet.actual_delay != packet.delivered_at - packet.sent_at
                    or packet.actual_delay < 0):
                raise AssertionError(f"packet delay is not its transit time: "
                                     f"{packet}")
        elif packet.drop_reason not in DROP_REASONS:
            raise AssertionError(f"unknown drop reason: {packet}")


# ---------------------------------------------------------------------------
# runs and experiments


def _start_kernel(scenario: Scenario, variant: MechanismVariant,
                  injections: list[Injection],
                  memo: dict | None = None) -> Kernel:
    """A kernel for scenario under variant, set up but not yet run; memo
    is the network-state memo it shares with its siblings, if any."""
    control = ControlChannel(
        default_c2s=scenario.control.default_c2s,
        default_s2c=scenario.control.default_s2c,
        per_switch=dict(scenario.control.per_switch))
    kernel = Kernel(
        topology=build_topology(scenario.topology_spec),
        flows=list(scenario.flows),
        contract_pairs=[c.pair() for c in scenario.contracts],
        variant=variant,
        config=scenario.config,
        control=control,
        memo=memo)
    kernel.setup(scenario.emulation_time, injections)
    return kernel


def run_single(scenario: Scenario, variant_name: str | None = None,
               seed: int | None = None, keep_log: bool = True,
               injections: list[Injection] | None = None,
               kernel: Kernel | None = None) -> RunResult:
    """Execute one scenario under one variant and seed.

    injections are the scenario's materialized injections for that seed;
    they are materialized here when not given.  Injections are frozen, so
    one list can serve every variant of a seed.  kernel, when given, is
    this run's kernel already set up and possibly part-way or all the way
    through the run (a branch, or a finished kernel with the same
    injections); it must hold these injections and this variant.
    """
    variant: MechanismVariant = variant_by_name(variant_name or scenario.variant)
    run_seed = scenario.seed if seed is None else seed
    if injections is None:
        injections = materialize_injections(scenario, run_seed)
    if kernel is None:
        kernel = _start_kernel(scenario, variant, injections)
    elif (kernel.log.injections != injections
            or kernel.controller.variant != variant):
        raise ValueError("kernel was set up for other injections or "
                         "another variant than this run")
    kernel.run_until(scenario.emulation_time)
    verify_conservation(kernel.log)
    metrics = metrics_from_streams(
        kernel.log, variant.name, run_seed, scenario.emulation_time)
    return RunResult(variant=variant.name, seed=run_seed, metrics=metrics,
                     log=kernel.log if keep_log else None)


@dataclass
class ExperimentResult:
    scenario_name: str
    scenario_sha256: str
    sweep_param: str | None
    sweep_values: tuple
    variants: tuple[str, ...]
    seeds: tuple[int, ...]
    eq1_raw_mode: bool
    cells: dict = field(default_factory=dict)  # (variant, value) -> [MetricsReport]
    sample_log: RunLog | None = None  # first run's full log, for artifacts

    def reports(self, variant: str, value=None) -> list[MetricsReport]:
        return self.cells[(variant, value)]

    def mean(self, variant: str, value=None, metric: str = "success_rate",
             ) -> float | None:
        reports = self.reports(variant, value)
        values = [getattr(r, metric) for r in reports]
        values = [v for v in values if v is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def sweep_mean(self, variant: str, metric: str = "success_rate",
                   ) -> float | None:
        """Mean of the per-value means across the sweep."""
        means = [self.mean(variant, value, metric)
                 for value in self.sweep_values]
        means = [m for m in means if m is not None]
        if not means:
            return None
        return sum(means) / len(means)

    def pooled_restorations(self, variant: str) -> list[int]:
        totals: list[int] = []
        for value in self.sweep_values:
            for report in self.reports(variant, value):
                totals.extend(report.restoration_totals)
        return totals


def _scenario_digest(scenario: Scenario) -> str:
    text = scenario.source_text or repr(scenario)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _swept_scenario(scenario: Scenario, sweep_param: str | None, value):
    if sweep_param is None:
        return scenario
    if sweep_param == "flows":
        return scenario.with_flow_count(value)
    if sweep_param == "events":
        return scenario.with_event_count(value)
    raise ValueError(f"unknown sweep parameter {sweep_param!r}")


def _without_injections(scenario: Scenario) -> Scenario:
    return replace(scenario, explicit_injections=(), auto_link_failures=None,
                   auto_ped_changes=None)


def _diverge_at(ours: list[Injection], theirs: list[Injection]) -> int:
    """When two different time-sorted injection lists first differ."""
    i = next(i for i, (a, b) in enumerate(zip_longest(ours, theirs)) if a != b)
    return min(inj.at for inj in ours[i:i + 1] + theirs[i:i + 1])


def run_experiment(scenario: Scenario, variants: list[str], seeds: list[int],
                   sweep: tuple[str, list] | None = None) -> ExperimentResult:
    """One run per (variant, seed, sweep value); aggregated reports.

    Injections depend only on the scenario and the seed, so they are
    materialized once per (sweep value, seed) and shared by the variants.
    A kernel's history up to t depends only on the scenario without its
    injections, the variant and the injections before t, so one variant's
    cells that agree on the rest of the scenario share kernel work.  Their
    kernel holds their longest injection list, and a cell with an equal
    list reuses it.  The others are grouped by the time their list first
    differs from the kernel's; in time order, the kernel advances to each
    such time and the group goes on the same way from a branch.  A route
    depends only on the Down links, the costs and its ends, and an idle
    estimation cycle only on the Down links, so every kernel of the call,
    of any variant, seed or sweep value, shares one memo of both.  Each
    run's output is the same as a fresh run_single's.
    """
    if not variants or not seeds:
        raise ValueError("an experiment needs a variant and a seed")
    sweep_param, sweep_values = (None, (None,)) if sweep is None else (
        sweep[0], tuple(sweep[1]))
    full_names = tuple(variant.name
                       for variant in variants_by_name(variants))
    result = ExperimentResult(
        scenario_name=scenario.name,
        scenario_sha256=_scenario_digest(scenario),
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        variants=full_names,
        seeds=tuple(seeds),
        eq1_raw_mode=scenario.config.eq1_raw_mode)
    swept = {value: _swept_scenario(scenario, sweep_param, value)
             for value in sweep_values}
    diaries: dict = {}  # each master failure diary, drawn once per sweep
    memo: dict = {}  # every kernel's; see "Network-state memo" in resilience
    injections = {(value, seed): materialize_injections(swept[value], seed,
                                                        diaries)
                  for value in sweep_values for seed in seeds}
    groups: list[tuple[Scenario, list]] = []
    for cell in injections:
        base = _without_injections(swept[cell[0]])
        for other, cells in groups:
            if other == base:
                cells.append(cell)
                break
        else:
            groups.append((base, [cell]))

    first = (sweep_values[0], full_names[0], seeds[0])
    reports: dict[tuple, MetricsReport] = {}

    def split(cells: list, variant: str, horizon: int,
              parent: Kernel | None = None) -> None:
        """Run cells, whose injection lists agree before the time parent
        reached, off a kernel branched from parent or started afresh."""
        own = max(cells, key=lambda cell: len(injections[cell]))
        ours = injections[own]
        kernel = (_start_kernel(swept[own[0]], variant_by_name(variant), ours,
                                memo)
                  if parent is None else parent.branch(ours))
        apart: dict[int, list] = {}
        for cell in cells:
            if injections[cell] != ours:
                at = min(_diverge_at(ours, injections[cell]), horizon)
                apart.setdefault(at, []).append(cell)
        for at in sorted(apart):
            kernel.advance(at)
            split(apart[at], variant, horizon, kernel)
        for cell in cells:
            if injections[cell] == ours:
                value, seed = cell
                keep = (value, variant, seed) == first
                done = run_single(swept[value], variant, seed, keep_log=keep,
                                  injections=ours, kernel=kernel)
                if keep:
                    result.sample_log = done.log
                reports[(value, variant, seed)] = done.metrics

    for variant in full_names:
        for base, cells in groups:
            split(cells, variant, base.emulation_time + 1)

    for value in sweep_values:
        for variant in full_names:
            result.cells[(variant, value)] = [
                reports[(value, variant, seed)] for seed in seeds]
    return result


# ---------------------------------------------------------------------------
# report emission


def _format_cell(value: float | None, pattern: str) -> str:
    return "-" if value is None else pattern % value


def _metric_csv(result: ExperimentResult, metric: str, pattern: str,
                scale: float = 1.0) -> str:
    if result.sweep_param is None:
        header = ["variant", "value"]
    else:
        header = ["variant"] + [f"{result.sweep_param}={v}"
                                for v in result.sweep_values]
    lines = [",".join(header)]
    for variant in result.variants:
        cells = []
        for value in result.sweep_values:
            mean = result.mean(variant, value, metric)
            cells.append(_format_cell(
                None if mean is None else mean * scale, pattern))
        lines.append(",".join([variant] + cells))
    return "\n".join(lines) + "\n"


def emit_reports(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write one CSV per metric plus a summary and a run manifest.

    Output is byte-stable for identical results: fixed column order, fixed
    float formatting, sorted JSON keys.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    files = {
        "success_rate.csv": ("success_rate", "%.6f", 1.0),
        "success_rate_strong.csv": ("success_rate_strong", "%.6f", 1.0),
        "throughput_mbps.csv": ("throughput_bps", "%.3f", 1e-6),
        "restoration_ms.csv": ("restoration_mean", "%.6f", 1e-6),
        "warnings.csv": ("warning_count", "%.2f", 1.0),
    }
    for filename, (metric, pattern, scale) in files.items():
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_metric_csv(result, metric, pattern, scale))
        written.append(path)

    summary = {
        "scenario": result.scenario_name,
        "sweep": {"param": result.sweep_param,
                  "values": list(result.sweep_values)},
        "variants": {},
    }
    for variant in result.variants:
        per_value = {}
        for value in result.sweep_values:
            reports = result.reports(variant, value)
            per_value[str(value)] = {
                "per_seed": [record_to_dict(r) for r in reports],
                "mean_success_rate": result.mean(variant, value, "success_rate"),
                "mean_throughput_bps": result.mean(variant, value,
                                                   "throughput_bps"),
                "mean_restoration_ns": result.mean(variant, value,
                                                   "restoration_mean"),
            }
        summary["variants"][variant] = per_value
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")
    written.append(summary_path)

    manifest = {
        "scenario": result.scenario_name,
        "scenario_sha256": result.scenario_sha256,
        "variants": list(result.variants),
        "seeds": list(result.seeds),
        "sweep_param": result.sweep_param,
        "sweep_values": list(result.sweep_values),
        "eq1_raw_mode": result.eq1_raw_mode,
        "version": __version__,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    written.append(manifest_path)

    if result.sample_log is not None:
        cycles_path = os.path.join(out_dir, "llde_cycles.csv")
        with open(cycles_path, "w", encoding="utf-8") as handle:
            handle.write("cycle,src,dst,link_delay_ns,transmission_delay_ns,"
                         "cost_ns,at_ns\n")
            laid: dict[tuple, tuple] = {}  # see runlog.copy_texts
            entries: dict[tuple, str] = {}
            for part in result.sample_log.estimation.parts():
                handle.writelines(copy_texts(part, _cycle_row, laid,
                                             entries))
        written.append(cycles_path)
        events_path = os.path.join(out_dir, "events.jsonl")
        with open(events_path, "w", encoding="utf-8") as handle:
            handle.write(result.sample_log.to_jsonl())
        written.append(events_path)
    return written


_CYCLE_COLUMNS = ("cycle", "src", "dst", "link_delay", "transmission_delay",
                  "cost", "at")


def _cycle_row(record, stepped: dict[str, int]) -> str:
    """The llde_cycles.csv row of record as a str.format pattern, each
    field in stepped left as its slot."""
    return ",".join(
        "{%d}" % stepped[name] if name in stepped
        else str(getattr(record, name)).replace("{", "{{").replace("}", "}}")
        for name in _CYCLE_COLUMNS) + "\n"
