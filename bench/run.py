"""sdnsim benchmark: host time and memory of the paper's experiment sweeps.

Run one workload (from the root of a checkout):

    python3 bench/run.py --workload ring_sweep --seed 1 --seconds 35 --trace 0

or every workload, each in a process of its own, one after another:

    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

A workload repeats whole rounds of ``run_experiment`` + ``emit_reports``
(closed loop: the next starts when the previous ends) for ``--seconds``
seconds, checks every run's outputs with the clock stopped, and prints its
inputs' SHA-256, then one JSON line: ``correct``, ``attempted`` and
``failed`` runs, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``, which also writes its
spans to ``.bench_out/``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from instrument import Instruments, layer_metrics  # noqa: E402

SETUP_PROBES = 5
# The reference loop's time at the host speed that time figures are scaled to.
REFERENCE_S = 0.0045
# A workload that runs longer is stopped and reported as failed; a run
# measures --seconds of rounds, so this leaves room for set-up and checks.
TIME_LIMIT_S = 150


class WorkloadTimeout(BaseException):
    """The workload ran past its time limit (not an Exception, so no
    handler on the way up can mistake it for a failed run)."""


def import_program():
    """Import sdnsim from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sdnsim", "__init__.py")):
        sys.exit(f"error: no sdnsim sources under {src}")
    sys.path.insert(0, src)
    from sdnsim import harness, runlog, scenario
    return harness, runlog, scenario


def load_inputs(plan, scenario_module):
    """Parse and validate every experiment's scenario text."""
    loaded = []
    for experiment in plan.experiments:
        parsed = scenario_module.parse_scenario(experiment.text,
                                                name=experiment.label)
        if experiment.flow_count is not None:
            parsed = parsed.with_flow_count(experiment.flow_count)
        loaded.append((experiment, parsed))
    return loaded


class HostSpeed:
    """How slow the shared host runs at the moment, as a factor.

    The host's speed drifts by 20 % and more over tens of seconds, and a
    fixed arithmetic loop slows down with the simulator (their ratio stays
    within about 3 % while both move by 15 %).  The loop is timed after
    each run and each set-up, outside the timed section, and each time is
    divided by the factor measured next to it.  The program cannot change
    the loop, so the factor shows the host, never the code under test.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []

    def sample(self) -> float:
        best = min(self._loop() for _ in range(2))  # a spike hits one loop
        self.factors.append(best / REFERENCE_S)
        return self.factors[-1]

    @staticmethod
    def _loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i % 7
        return time.perf_counter() - started


def measure_setup(args, speed: HostSpeed) -> tuple[float, float]:
    """Median wall time of fresh processes that import sdnsim and load the
    workload's inputs, started one after another: (raw, scaled)."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        # No timeout here: waiting with one polls in steps of up to 50 ms.
        # The workload's time limit still stops a probe that hangs.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - started)
        scaled.append(raw[-1] / speed.sample())
    return statistics.median(raw), statistics.median(scaled)


class RunChecks:
    """Checks each run's log as ``run_experiment`` produces it."""

    def __init__(self, workload: str, runlog_module, speed: HostSpeed) -> None:
        self.workload = workload
        self.speed = speed
        self.streams = runlog_module.RunLog.STREAMS
        self.problems: list[str] = []
        self.records: Counter = Counter()

    def __call__(self, args, kwargs, result) -> None:
        scenario = args[0]
        log, metrics = result.log, result.metrics
        spec = scenario.topology_spec
        links = checks.link_table(spec.links)
        control = scenario.control
        latency = max([control.default_c2s]
                      + [c2s for c2s, _ in control.per_switch.values()])
        found = checks.check_packets(
            scenario.flows, spec.hosts, scenario.contracts, links,
            scenario.config.host_link_delay, scenario.emulation_time,
            log.packets, metrics)
        found += checks.check_rates(log.packets, log.ped_changes,
                                    scenario.emulation_time, metrics)
        found += checks.check_restorations(
            result.variant, log.restorations,
            scenario.config.estimation_interval, latency,
            scenario.config.recalc_cost)
        found += checks.check_warnings(log.warnings)
        found += checks.check_routes(log.estimation, log.injections, log.routes)
        if self.workload == "chain_line_rate":
            found += checks.check_probe_accuracy(
                log.packets, log.estimation, links, "PROBE", "BG")
        where = f"{scenario.name} {result.variant} seed {result.seed}"
        self.problems += [f"{where}: {p}" for p in found]
        self.records["packets"] += len(log.packets)
        self.records["estimation"] += len(log.estimation)
        self.records["records"] += sum(len(getattr(log, s))
                                       for s in self.streams)
        self.speed.sample()


def check_reports(out_dir: str, result, parsed_log: dict, replay,
                  emulation_time: int) -> list[str]:
    """Report CSVs against summary.json, and metrics replayed from
    events.jsonl against the first run's online metrics."""
    files = {}
    for name in checks.REPORT_FILES:
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            files[name] = handle.read()
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as handle:
        problems = checks.check_report_csvs(files, handle.read())
    first = result.cells[(result.variants[0], result.sweep_values[0])][0]
    replayed = replay(parsed_log, first.variant, first.seed, emulation_time)
    if replayed != first:
        problems.append(f"metrics replayed from events.jsonl {replayed} "
                        f"differ from the first run's {first}")
    return problems


def run_workload(args, program, speed: HostSpeed, setup: tuple) -> dict:
    harness, runlog, scenario_module = program
    replay = harness.metrics_from_streams      # unwrapped: checks stay untraced
    traced = bool(args.trace)
    run_checks = RunChecks(args.workload, runlog, speed)
    attempted = failed = rounds = 0
    timed_s = scaled_s = 0.0
    problems = run_checks.problems
    with Instruments(traced, on_run=run_checks) as inst:
        plan = workloads.build_plan(args.workload, args.seed, ROOT)
        inputs = load_inputs(plan, scenario_module)
        for experiment, _ in inputs:
            print(f"input {args.workload}/{experiment.label} "
                  f"sha256={experiment.sha256}")
        started = time.perf_counter()
        while True:
            for experiment, scenario in inputs:
                out_dir = os.path.join(OUT, args.workload, experiment.label)
                sweep = (None if experiment.sweep is None
                         else (experiment.sweep[0], list(experiment.sweep[1])))
                attempted += experiment.runs
                runs_before, check_before = len(inst.run_ms), inst.check_s
                factors_before = len(speed.factors)
                began = time.perf_counter()
                try:
                    result = harness.run_experiment(
                        scenario, list(experiment.variants),
                        list(experiment.seeds), sweep=sweep)
                    harness.emit_reports(result, out_dir)
                    events = os.path.join(out_dir, "events.jsonl")
                    if plan.readback_timed:
                        with open(events, encoding="utf-8") as handle:
                            parsed = runlog.RunLog.parse_jsonl(handle.read())
                except Exception as exc:  # a failed run, reported by name
                    failed += experiment.runs
                    print(f"run failed: {args.workload}/{experiment.label}: "
                          f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                took = (time.perf_counter() - began
                        - (inst.check_s - check_before))
                timed_s += took
                scaled_s += took / statistics.median(
                    speed.factors[factors_before:] or [1.0])
                seen = len(inst.run_ms) - runs_before
                if seen != experiment.runs:
                    problems.append(f"{experiment.label}: saw {seen} runs, "
                                    f"expected {experiment.runs}")
                if not plan.readback_timed:
                    with open(events, encoding="utf-8") as handle:
                        parsed = runlog.RunLog.parse_jsonl(handle.read())
                problems += check_reports(out_dir, result, parsed, replay,
                                          scenario.emulation_time)
                # Start every experiment from the same heap: no earlier log
                # alive, no garbage pending collection.
                del result, parsed
                gc.collect()
            rounds += 1
            elapsed = time.perf_counter() - started
            # Stop at the round end nearest to --seconds.
            if elapsed + elapsed / rounds / 2 >= args.seconds:
                break
    done = attempted - failed
    if traced:
        os.makedirs(OUT, exist_ok=True)
        inst.write_spans(os.path.join(
            OUT, f"trace_{args.workload}_seed{args.seed}.jsonl"))
        metrics = layer_metrics(inst, max(done, 1), 1, run_checks.records)
        # Against the untraced runs_per_s, this gives the tracing overhead.
        print(f"{args.workload} runs_per_s with tracing on = "
              f"{done / timed_s if timed_s else 0.0:.6g} 1/s")
    else:
        # One host speed factor was sampled after each set-up and each run.
        run_factors = speed.factors[-len(inst.run_ms):] if inst.run_ms else []
        print(f"{args.workload} host speed factor median = "
              f"{statistics.median(speed.factors):.4f}; unscaled: setup_s "
              f"{setup[0]:.6g} s, runs_per_s {done / timed_s:.6g} 1/s, "
              f"run_ms_p50 {statistics.median(inst.run_ms):.6g} ms")
        metrics = {
            "setup_s": (setup[1], "s"),
            "runs_per_s": (done / scaled_s if scaled_s else 0.0, "1/s"),
            "run_ms_p50": (statistics.median(
                ms / f for ms, f in zip(inst.run_ms, run_factors))
                if inst.run_ms else 0.0, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    for problem in problems[:50]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} runs attempted={attempted} failed={failed} "
          f"checks={'ok' if not problems else f'{len(problems)} problems'}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for workload in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  timeout=TIME_LIMIT_S + 30)
        except subprocess.TimeoutExpired:
            print(f"workload {workload} FAILED: stopped after "
                  f"{TIME_LIMIT_S + 30} s")
            results[workload] = None
            continue
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"workload {workload} FAILED: exit code {done.returncode}")
            results[workload] = None
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    ok = all(r is not None and r["correct"] and not r["failed"]
             for r in results.values())
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def on_alarm(signum, frame):
    raise WorkloadTimeout


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, _, scenario_module = import_program()
        load_inputs(workloads.build_plan(args.workload, args.seed, ROOT),
                    scenario_module)
        return 0
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        program = import_program()
        speed = HostSpeed()
        setup = (0.0, 0.0) if args.trace else measure_setup(args, speed)
        result = run_workload(args, program, speed, setup)
    except WorkloadTimeout:
        print(f"workload {args.workload} FAILED: exceeded its time limit of "
              f"{TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
