"""Command-line front end: run a scenario across variants and seeds."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import ExperimentResult, emit_reports, run_experiment
from .resilience import VARIANT_ALIASES, variants_by_name
from .scenario import ScenarioError, load_scenario


def _parse_sweep(text: str) -> tuple[str, list[int]]:
    param, _, span = text.partition("=")
    if param not in ("flows", "events") or ".." not in span:
        raise argparse.ArgumentTypeError(
            "sweep must look like flows=2..10 or events=1..5")
    lo, _, hi = span.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad sweep bounds: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty sweep range")
    return param, values


def _parse_variants(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no variant given")
    try:
        variants_by_name(names)
    except ValueError as exc:  # an unknown name or a variant named twice
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnsim",
        description="Deterministic SDN delay-contract simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a .scn scenario file")
    run.add_argument("--variants", type=_parse_variants,
                     default=list(VARIANT_ALIASES),
                     help="comma-separated list, e.g. woRM,sRM,pRM,RM")
    run.add_argument("--seeds", type=int, default=10, metavar="N",
                     help="number of seeds, starting at the scenario seed "
                          "(default 10, matching the averaging convention)")
    run.add_argument("--sweep", type=_parse_sweep, default=None,
                     help="flows=LO..HI or events=LO..HI")
    run.add_argument("--out", default=None, metavar="DIR",
                     help="directory for CSV reports and the manifest")
    run.add_argument("--eq1-raw-mode", action="store_true",
                     help="use the undivided estimator residual")
    run.add_argument("--debug", action="store_true",
                     help="re-raise errors with their traceback instead of "
                          "printing a one-line message")
    return parser


def _print_table(result: ExperimentResult) -> None:
    header = f"{'variant':<10} {'success':>9} {'tput Mbps':>10} {'restore ms':>11} {'warn':>5}"
    print(header)
    print("-" * len(header))
    for variant in result.variants:
        success = result.sweep_mean(variant, "success_rate")
        tput = result.sweep_mean(variant, "throughput_bps")
        restore = result.sweep_mean(variant, "restoration_mean")
        warn = result.sweep_mean(variant, "warning_count")
        restore_text = "-" if restore is None else f"{restore / 1e6:.3f}"
        print(f"{variant:<10} {success:>9.4f} {tput / 1e6:>10.3f} "
              f"{restore_text:>11} {warn:>5.1f}")


def _error(args: argparse.Namespace, exc: Exception, code: int) -> int:
    """Print exc as one line and return code; re-raise it under --debug."""
    if args.debug:
        raise exc
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("at least one seed is needed")
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, ValueError) as exc:
        return _error(args, exc, 2)
    if args.eq1_raw_mode:
        scenario = replace(scenario, config=replace(scenario.config,
                                                    eq1_raw_mode=True))
    seeds = list(range(scenario.seed, scenario.seed + args.seeds))
    try:
        result = run_experiment(scenario, args.variants, seeds,
                                sweep=args.sweep)
    except ScenarioError as exc:  # a sweep value the scenario cannot take
        return _error(args, exc, 2)
    except Exception as exc:  # surface run failures as nonzero exit
        return _error(args, exc, 1)
    if args.out:
        for path in emit_reports(result, args.out):
            print(path)
    else:
        _print_table(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
