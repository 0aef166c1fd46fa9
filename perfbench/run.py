"""Campaign benchmark: the paper's fault-injection campaign, at reference speed.

Run from the repository root::

    python3 perfbench/run.py --workload paper_matrix --seed 0 --seconds 20 --trace 0

It drives the public campaign API (``run_campaign`` -> Tables II-IV)
serially in this process, checks every result row, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, taken from a
traced pass that follows an untraced pass of the same cases.

Host time is reported at reference speed (see ``refclock.py``). The
workload's slice is fixed (``workloads.py``); whole passes over it are
repeated while another pass fits in ``--seconds``, so every run measures
at least one pass. Scratch files go to ``.perfbench_tmp/`` and trace
files to ``.perfbench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402  (needs HERE on sys.path)

ROOT = Path.cwd()
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED_DIR = HERE / "expected"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5


def load_reference_rate() -> float:
    """The committed reference rate, refusing a kernel that has changed."""
    calibration = json.loads((HERE / "calibration.json").read_text())
    digest = hashlib.sha256((HERE / "refclock.py").read_bytes()).hexdigest()
    if digest != calibration["refclock_sha256"]:
        raise SystemExit(
            "perfbench: refclock.py does not match the SHA-256 in "
            "calibration.json; re-measure the reference rate with "
            "perfbench/calibrate.py and commit both"
        )
    return float(calibration["reference_rate"])


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))


# -- one pass over the workload's slice -------------------------------------


@dataclasses.dataclass
class PassResult:
    rows: list[dict[str, Any]]
    clock: refclock.RefClock | None  # None when nothing was timed
    reduce_s: float  # host seconds from the last case to the tables rendered
    tables_ok: bool
    blackbox_bytes: int = 0
    journal_bytes: int = 0


def result_row(result: Any) -> dict[str, Any]:
    """A result as plain JSON data, without the run's temporary paths."""
    row = dataclasses.asdict(result)
    row.pop("blackbox_path")
    row["outcome"] = result.outcome.value if result.outcome is not None else None
    return row


def render_tables(campaign: Any, observed: bool) -> list[str]:
    """Tables II-IV, plus the resilience comparison on observed workloads."""
    from repro.core import tables

    rendered = [
        tables.render_table(tables.table2_by_duration(campaign), "Table II"),
        tables.render_table(tables.table3_by_fault(campaign), "Table III"),
        tables.render_table(tables.table4_failure_analysis(campaign), "Table IV"),
    ]
    if observed:
        # The workload flies only the mitigated arm. The comparison
        # reduces it against itself: the reduction's cost is what is
        # timed, and a second arm would double the run.
        comparison = tables.resilience_comparison(campaign, campaign)
        rendered.append(tables.render_resilience_table(comparison, "Resilience"))
    return rendered


def run_pass(workload: Any, clock: refclock.RefClock | None) -> PassResult:
    """Run the slice once through ``run_campaign`` and render the tables.

    With ``clock`` the region from the first case dispatched to the last
    table rendered is timed on it. ``pin.py`` passes none, so the pinned
    rows come from a run without the timer probe.
    """
    from repro.core.campaign import run_campaign
    from repro.obs.observer import Observer
    from repro.obs.registry import MetricsRegistry

    config = workload.config
    obs = checkpoint = workdir = None
    if workload.observed:
        TMP_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=TMP_DIR))
        config = dataclasses.replace(config, obs_dir=str(workdir))
        obs = Observer(registry=MetricsRegistry())
        checkpoint = str(workdir / "journal.jsonl")
    now = clock.now if clock is not None else time.monotonic
    try:
        if clock is not None:
            clock.start()
        campaign = run_campaign(
            config, specs=list(workload.specs), obs=obs, checkpoint_path=checkpoint
        )
        cases_end = now()
        rendered = render_tables(campaign, workload.observed)
        reduce_s = now() - cases_end
        if clock is not None:
            clock.stop()
        result = PassResult(
            rows=[result_row(r) for r in campaign.results],
            clock=clock,
            reduce_s=reduce_s,
            tables_ok=all(text.count("\n") >= 2 for text in rendered),
        )
        if workdir is not None:
            result.blackbox_bytes = sum(
                os.path.getsize(r.blackbox_path)
                for r in campaign.results
                if r.blackbox_path is not None
            )
            result.journal_bytes = os.path.getsize(checkpoint)
        return result
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


# -- set-up time -------------------------------------------------------------


def measure_setup(workload: str, seed: int, reference_rate: float) -> tuple[float, float]:
    """Median (reference, raw) seconds from interpreter spawn to inputs built."""
    samples: list[tuple[float, float]] = []
    for _ in range(SETUP_SAMPLES):
        origin = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                workload,
                str(seed),
                repr(origin),
                repr(reference_rate),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["ref_s"], sample["raw_s"]))
    return (
        refclock.median([s[0] for s in samples]),
        refclock.median([s[1] for s in samples]),
    )


# -- checks ------------------------------------------------------------------


def expected_rows(workload: str, seed: int) -> list[dict[str, Any]] | None:
    """The pinned rows, when ``seed`` is the seed they were pinned at."""
    pinned = json.loads((EXPECTED_DIR / f"{workload}.json").read_text())
    return pinned["rows"] if pinned["seed"] == seed else None


def row_ok(row: dict[str, Any], expected: dict[str, Any] | None) -> bool:
    """Equal to the pinned row, or (no pin for this seed) a verdict row.

    A harness-error row (no outcome) is never ok.
    """
    if expected is not None:
        return row == expected
    return row["outcome"] is not None


def gold_incomplete(rows: list[dict[str, Any]]) -> int:
    """Gold runs that did not complete.

    Reported, not scored: at the seed commit the gyro-rate failure
    detector trips in nominal flight on some seeds (mission 3 at seeds
    3 and 5-8, mission 5 at seeds 4 and 8), so scoring it would fail the
    unmodified program on those seeds. At the default seed the pinned
    rows hold every gold run to its completed verdict.
    """
    return sum(
        1 for row in rows if row["fault_type"] is None and row["outcome"] != "completed"
    )


def rows_digest(rows: list[dict[str, Any]]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# -- metrics -----------------------------------------------------------------


def tail_index(count: int) -> int:
    """Index (ascending) of the highest percentile with 10 cases beyond it.

    Slices of fewer than 21 cases have no such percentile above the
    median; the median stands in for it there.
    """
    return max(count - 11, (count - 1) // 2)


def layer_metrics(
    tracer: Any, traced: PassResult, untraced: PassResult, cases: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass, at reference speed."""
    stats = tracer.stats
    factor = traced.clock.ref_s / traced.clock.raw_s
    steps = stats["system.step"].calls

    def per_step_us(*names: str) -> float:
        return sum(stats[n].total_s for n in names) * factor * 1e6 / steps

    def per_call_ms(name: str) -> float:
        s = stats[name]
        return s.total_s * factor * 1e3 / s.calls if s.calls else 0.0

    case_s = sorted(
        (span["end_s"] - span["start_s"]) * factor
        for span in tracer.spans
        if span["name"] == "campaign.case"
    )
    harness_s = traced.clock.raw_s - stats["campaign.case"].total_s
    return {
        "campaign.cases_per_s": (cases / untraced.clock.ref_s, "1/s"),
        "campaign.case_s_p50": (refclock.median(case_s), "s"),
        "campaign.case_s_tail": (case_s[tail_index(len(case_s))], "s"),
        "campaign.case_count": (float(len(case_s)), "count"),
        "campaign.harness_ms_per_case": (harness_s * factor * 1e3 / cases, "ms"),
        "system.steps_per_case": (steps / cases, "count"),
        "system.build_ms": (per_call_ms("system.build"), "ms"),
        "system.us_per_step": (per_step_us("system.step"), "us"),
        "system.step_self_us": (
            stats["system.step"].self_s * factor * 1e6 / steps,
            "us",
        ),
        "estimation.predict_us": (per_step_us("estimation.predict"), "us"),
        "estimation.update_us": (per_step_us("estimation.update"), "us"),
        "estimation.updates_per_step": (stats["estimation.update"].calls / steps, "count"),
        "control.position_us": (per_step_us("control.position"), "us"),
        "control.attitude_us": (per_step_us("control.attitude"), "us"),
        "control.rate_us": (per_step_us("control.rate"), "us"),
        "control.mixer_us": (per_step_us("control.mixer"), "us"),
        "sim.physics_us": (per_step_us("sim.physics"), "us"),
        "flightstack.us_per_step": (per_step_us("flightstack"), "us"),
        "sensors.us_per_step": (per_step_us("sensors"), "us"),
        "redundancy.us_per_step": (per_step_us("redundancy"), "us"),
        "redundancy.switchovers": (float(tracer.switchovers), "count"),
        "obs.on_step_us": (per_step_us("obs.on_step"), "us"),
        "obs.run_end_ms": (per_call_ms("obs.run_end"), "ms"),
        "obs.blackbox_bytes": (float(traced.blackbox_bytes), "bytes"),
        "telemetry.us_per_step": (per_step_us("telemetry"), "us"),
        "io.journal_append_ms": (per_call_ms("io.journal_append"), "ms"),
        "io.journal_bytes_per_case": (traced.journal_bytes / cases, "bytes"),
        "uspace.us_per_step": (per_step_us("uspace"), "us"),
        "tables.reduce_ms": (traced.reduce_s * factor * 1e3, "ms"),
        "machine.cal_per_s": (refclock.median(untraced.clock.rates), "1/s"),
        "machine.raw_cases_per_s": (cases / untraced.clock.raw_s, "1/s"),
        "trace.overhead_frac": (traced.clock.ref_s / untraced.clock.ref_s - 1.0, "fraction"),
    }


def sim_seconds(rows: list[dict[str, Any]]) -> float:
    return sum(row["flight_duration_s"] for row in rows)


# -- main --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    reference_rate = load_reference_rate()
    require_program()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload; choose from {', '.join(workloads.NAMES)}")

    setup = None
    if not args.trace:
        setup = measure_setup(args.workload, args.seed, reference_rate)
    workload = workloads.build(args.workload, args.seed)
    cases = len(workload.specs)

    passes = [run_pass(workload, refclock.RefClock(reference_rate))]
    if not args.trace:
        # Whole passes only, so the slice's mix is never cut short.
        per_pass = passes[0].clock.ref_s
        while per_pass * (len(passes) + 1) <= args.seconds:
            passes.append(run_pass(workload, refclock.RefClock(reference_rate)))

    traced = tracer = None
    restored_ok = True
    if args.trace:
        snapshot = Tracer.snapshot()
        clock = refclock.RefClock(reference_rate)
        with Tracer(clock.now) as tracer:
            traced = run_pass(workload, clock)
        restored_ok = not Tracer.verify_restored(snapshot)

    expected = expected_rows(args.workload, args.seed)
    if expected is not None and len(expected) != cases:
        raise SystemExit("perfbench: pinned rows do not match the slice; re-run pin.py")
    reference_rows = passes[0].rows
    measured = [traced] if traced is not None else passes
    attempted = failed = 0
    for result in measured:
        for i, row in enumerate(result.rows):
            attempted += 1
            ok = row_ok(row, expected[i] if expected is not None else None)
            ok = ok and row == reference_rows[i]  # passes and traced pass agree
            failed += not ok
    correct = (
        failed == 0
        and restored_ok
        and all(r.tables_ok and len(r.rows) == cases for r in passes + measured)
    )

    ref_s = sum(p.clock.ref_s for p in passes)
    raw_s = sum(p.clock.raw_s for p in passes)
    sim_s = sim_seconds(reference_rows) * len(passes)
    detail: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "cases": cases,
        "passes": len(passes),
        "pinned": expected is not None,
        "gold_incomplete": gold_incomplete(reference_rows),
        "rows_sha256": rows_digest(reference_rows),
        "ref_s": ref_s,
        "raw_s": raw_s,
        "cases_per_s": cases * len(passes) / ref_s,
        "raw_cases_per_s": cases * len(passes) / raw_s,
        "sim_s_per_s": sim_s / ref_s,
        "raw_sim_s_per_s": sim_s / raw_s,
        "cal_per_s_median": refclock.median([r for p in passes for r in p.clock.rates]),
    }
    if args.trace:
        assert traced is not None and tracer is not None
        detail["traced_rows_sha256"] = rows_digest(traced.rows)
        detail["wrappers_restored"] = restored_ok
        values = layer_metrics(tracer, traced, passes[0], cases)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "clock_factor": traced.clock.ref_s / traced.clock.raw_s,
                    "layers": {
                        name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                        for name, s in tracer.stats.items()
                    },
                    "spans": tracer.spans,
                },
                indent=1,
            )
        )
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        assert setup is not None
        detail["setup_raw_s"] = setup[1]
        values = {
            "sim_s_per_s": (detail["sim_s_per_s"], "s/s"),
            "setup_s": (setup[0], "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
            "case_ok_frac": ((attempted - failed) / attempted, "fraction"),
        }

    shown = dict(values)
    if not args.trace:
        # cases_per_s depends on each seed's verdict mix (a crash ends a
        # case early), so it is printed but kept out of the bounded metrics.
        shown = {"cases_per_s": (detail["cases_per_s"], "1/s"), **values}
    for name, (value, unit) in shown.items():
        print(f"{args.workload:15s} {name:32s} {value:14.6g} {unit}")
    if detail["gold_incomplete"]:
        print(f"note: {detail['gold_incomplete']} gold run(s) did not complete at this seed")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
