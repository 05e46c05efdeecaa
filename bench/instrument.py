"""Measure the program's layers from outside, by wrapping what they call.

``Instruments`` replaces public functions and methods of the sdnsim modules
with wrappers for the duration of a ``with`` block and restores them after.
Untraced, only ``harness.run_single`` is wrapped: each call is timed and
its log is handed to a check callback after the clock stops.  Traced, every
layer boundary below records a span (name, start, end, parent span, run
id) and the hot kernel calls are counted; spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import time
from collections import Counter

# (module or 'module:Class', attribute, span name).  Module-level functions are
# patched where their callers look them up.
SPANS = (
    ("sdnsim.harness", "run_experiment", "harness.run_experiment"),
    ("sdnsim.harness", "emit_reports", "harness.emit_reports"),
    ("sdnsim.harness", "materialize_injections", "scenario.materialize"),
    ("sdnsim.harness", "log_streams", "harness.log_streams"),
    ("sdnsim.harness", "metrics_from_streams", "harness.metrics"),
    ("sdnsim.harness", "verify_conservation", "harness.verify"),
    ("sdnsim.scenario", "parse_scenario", "scenario.parse"),
    ("sdnsim.resilience", "run_estimation_cycle", "delay_estimation.cycle"),
    ("sdnsim.resilience", "find_path", "routing.find_path"),
    ("sdnsim.runlog:RunLog", "to_jsonl", "runlog.to_jsonl"),
    ("sdnsim.runlog:RunLog", "parse_jsonl", "runlog.parse_jsonl"),
    ("sdnsim.kernel:Kernel", "run_until", "kernel.run_until"),
    # Controller handlers the kernel dispatches to.
    ("sdnsim.resilience:ResilienceManager", "on_cycle_boundary",
     "resilience.on_cycle_boundary"),
    ("sdnsim.resilience:ResilienceManager", "on_link_state_change",
     "resilience.on_link_state_change"),
    ("sdnsim.resilience:ResilienceManager", "_on_e1_delivered",
     "resilience.on_e1_delivered"),
    ("sdnsim.resilience:ResilienceManager", "on_contract_modified",
     "resilience.on_contract_modified"),
    ("sdnsim.resilience:ResilienceManager", "on_flow_arrival",
     "resilience.on_flow_arrival"),
)

COUNTS = (
    ("sdnsim.kernel:Kernel", "schedule_call", "kernel.events"),
    ("sdnsim.kernel:Kernel", "set_forwarding", "kernel.installs"),
)


def _resolve(path: str):
    """'package.module' or 'package.module:Class' to the object itself."""
    module, _, cls = path.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Instruments:
    """Wrappers around the program's layers, active inside ``with``."""

    def __init__(self, traced: bool, on_run) -> None:
        self.traced = traced
        self.on_run = on_run          # (args, kwargs, RunResult) -> None
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, run]
        self.counts: Counter = Counter()
        self.run_ms: list[float] = []
        self.check_s = 0.0            # time spent in on_run, not timed work
        self.run_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def __enter__(self) -> "Instruments":
        harness = _resolve("sdnsim.harness")
        self._patch(harness, "run_single", self._run_single(harness.run_single))
        if self.traced:
            for path, attr, name in SPANS:
                self._wrap(path, attr, name, self._span)
            for path, attr, name in COUNTS:
                self._wrap(path, attr, name, self._count)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, path: str, attr: str, name: str, make) -> None:
        owner = _resolve(path)
        raw = owner.__dict__.get(attr)
        if raw is None:
            return  # the layer no longer has this entry point
        if isinstance(raw, staticmethod):
            self._patch(owner, attr, staticmethod(make(name, raw.__func__)))
        else:
            self._patch(owner, attr, make(name, raw))

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else None,
                          self.run_id])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
        return wrapper

    def _count(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _run_single(self, func):
        """Time each run from outside; check its log with the clock off.

        The log is always kept so it can be checked, and dropped again
        when the caller did not ask for it.
        """
        run = self._span("harness.run_single", func) if self.traced else func

        def wrapper(*args, **kwargs):
            keep = kwargs.get("keep_log", True)
            kwargs["keep_log"] = True
            self.run_id = len(self.run_ms)
            started = time.perf_counter()
            result = run(*args, **kwargs)
            stopped = time.perf_counter()
            self.run_ms.append((stopped - started) * 1e3)
            self.on_run(args, kwargs, result)
            self.check_s += time.perf_counter() - stopped
            self.run_id = None
            return result if keep else dataclasses.replace(result, log=None)
        return wrapper

    # -- results ---------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "run": run}) + "\n")


def layer_metrics(inst: Instruments, runs: int, setups: int,
                  run_records: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans and counts, per run unless noted.

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    child_ns = [0] * len(inst.spans)
    for name, start, end, parent, _ in inst.spans:
        if parent is not None:
            child_ns[parent] += end - start
    find_path_us = []
    for index, (name, start, end, parent, _) in enumerate(inst.spans):
        total[name] += end - start
        own[name] += end - start - child_ns[index]
        calls[name] += 1
        if name == "routing.find_path":
            find_path_us.append((end - start) / 1e3)

    def per_run_ms(ns: float) -> float:
        return ns / 1e6 / runs

    resilience_self = sum(v for k, v in own.items()
                          if k.startswith("resilience."))
    kernel_self_s = own["kernel.run_until"] / 1e9
    routes = calls["routing.find_path"]
    metrics = {
        "harness.log_streams_ms": (per_run_ms(total["harness.log_streams"]), "ms"),
        "runlog.records": (run_records["records"] / runs, "count"),
        "kernel.run_until_ms": (per_run_ms(total["kernel.run_until"]), "ms"),
        "kernel.self_ms": (per_run_ms(own["kernel.run_until"]), "ms"),
        "kernel.events": (inst.counts["kernel.events"] / runs, "count"),
        "kernel.events_per_s": (
            inst.counts["kernel.events"] / kernel_self_s if kernel_self_s else 0.0,
            "1/s"),
        "kernel.packets": (run_records["packets"] / runs, "count"),
        "delay_estimation.cycle_ms": (
            per_run_ms(total["delay_estimation.cycle"]), "ms"),
        "delay_estimation.cycles": (calls["delay_estimation.cycle"] / runs, "count"),
        "delay_estimation.records": (run_records["estimation"] / runs, "count"),
        "routing.find_path_ms": (per_run_ms(total["routing.find_path"]), "ms"),
        "routing.find_path_calls": (routes / runs, "count"),
        "routing.find_path_us_p50": (
            statistics.median(find_path_us) if find_path_us else 0.0, "us"),
        "resilience.self_ms": (per_run_ms(resilience_self), "ms"),
        "resilience.installs_per_route": (
            inst.counts["kernel.installs"] / routes if routes else 0.0, "ratio"),
        "scenario.parse_ms": (total["scenario.parse"] / 1e6 / setups, "ms"),
        "scenario.materialize_ms": (
            per_run_ms(total["scenario.materialize"]), "ms"),
        "scenario.materialize_calls": (
            calls["scenario.materialize"] / runs, "count"),
        "harness.emit_reports_ms": (
            per_run_ms(total["harness.emit_reports"]), "ms"),
        "runlog.to_jsonl_ms": (per_run_ms(total["runlog.to_jsonl"]), "ms"),
        "runlog.parse_jsonl_ms": (per_run_ms(total["runlog.parse_jsonl"]), "ms"),
        "harness.metrics_ms": (per_run_ms(total["harness.metrics"]), "ms"),
        "harness.verify_ms": (per_run_ms(total["harness.verify"]), "ms"),
        "harness.run_single_ms": (per_run_ms(own["harness.run_single"]), "ms"),
    }
    return metrics
