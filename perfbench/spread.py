"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload paper_matrix --seeds 0-9 [--trace 0]

Runs ``run.py`` once per seed, one after another, and prints for every
metric its median, first and third quartile (``statistics.quantiles``
with ``n=4``) and the quartile distance as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. Raw (host-speed) and
normalised (reference-speed) throughput are printed side by side, which
shows what the normalisation buys and whether the calibration kernel
over- or under-corrects: over-correction reads higher normalised
throughput on slow runs than on fast ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first quartile, third quartile, and IQR over the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="Spread of benchmark metrics over seeds.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                args.workload,
                "--seed",
                str(seed),
                "--seconds",
                str(seconds),
                "--trace",
                str(args.trace),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
        runs.append((seed, result, detail))
        cps = detail["cases_per_s"]
        print(
            f"seed {seed:3d} correct={result['correct']} failed={result['failed']}"
            f" cases/s raw={detail['raw_cases_per_s']:.4f} norm={cps:.4f}"
            f" sim_s/s raw={detail['raw_sim_s_per_s']:.3f} norm={detail['sim_s_per_s']:.3f}"
            f" cal/s={detail['cal_per_s_median']:.0f}"
            f" gold_incomplete={detail['gold_incomplete']}",
            flush=True,
        )

    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    names = list(runs[0][1]["metrics"])
    rows = [(name, [r[1]["metrics"][name]["value"] for r in runs]) for name in names]
    for key in ("raw_cases_per_s", "raw_sim_s_per_s", "setup_raw_s"):
        if key in runs[0][2]:
            rows.append((f"({key})", [r[2][key] for r in runs]))
    for name, values in rows:
        median, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        print(
            f"{name:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f}"
            f" {bound if bound is not None else '':>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
