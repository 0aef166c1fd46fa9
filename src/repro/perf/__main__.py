"""CLI: ``python -m repro.perf`` — profile the hot loop, emit bench JSON.

Examples::

    python -m repro.perf                      # full bench, writes BENCH_simulator.json
    python -m repro.perf --quick              # CI smoke variant (~15 s)
    python -m repro.perf --quick --check-against BENCH_simulator.json
    python -m repro.perf --campaign           # fresh vs forked, writes BENCH_campaign.json
"""

from __future__ import annotations

import argparse
import sys

from repro.perf.bench import (
    check_obs_overhead,
    check_regression,
    format_report,
    run_bench,
    write_report,
)
from repro.perf.campaign_bench import format_campaign_report, run_campaign_bench


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Closed-loop simulator throughput bench and profile.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorter warmup/timed sections (CI smoke; noisier numbers)",
    )
    parser.add_argument(
        "--campaign",
        action="store_true",
        help="time fresh vs forked campaign cases on one mission slice "
        "instead of the stepping loop; exits 1 if their rows differ",
    )
    parser.add_argument(
        "--output",
        help="bench JSON path (default: BENCH_simulator.json, or "
        "BENCH_campaign.json with --campaign)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the report without writing the JSON",
    )
    parser.add_argument(
        "--check-against",
        metavar="BASELINE",
        help="committed bench JSON to compare against; exits 1 on "
        "throughput regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional throughput drop vs baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--check-obs-overhead",
        action="store_true",
        help="exit 1 when the obs-enabled rate is more than "
        "--obs-tolerance below the obs-disabled rate of the same run",
    )
    parser.add_argument(
        "--obs-tolerance",
        type=float,
        default=0.03,
        help="allowed fractional obs-enabled overhead (default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.campaign and (args.check_against or args.check_obs_overhead):
        parser.error("--campaign has no throughput gates")

    if args.campaign:
        report = run_campaign_bench(quick=args.quick)
        print(format_campaign_report(report))
        output = args.output or "BENCH_campaign.json"
    else:
        report = run_bench(quick=args.quick)
        print(format_report(report))
        output = args.output or "BENCH_simulator.json"

    if not args.no_write:
        write_report(report, output)
        print(f"wrote {output}")
    if args.campaign:
        return 0 if report["rows_equal"] else 1

    failed = False
    if args.check_against:
        ok, message = check_regression(report, args.check_against, args.tolerance)
        print(message)
        failed = failed or not ok
    if args.check_obs_overhead:
        ok, message = check_obs_overhead(report, args.obs_tolerance)
        print(message)
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
