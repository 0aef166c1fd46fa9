"""Campaign bench: fresh vs forked cases per second on one mission slice.

``python -m repro.perf --campaign`` flies the same slice two ways and
times both in the same process:

* **fresh** -- every case built and flown anew,
  ``UavSystem(plan, vehicle_config(config), spec.fault).run()``;
* **forked** -- the slice as a campaign (:func:`repro.core.campaign.run_campaign`),
  whose cases fork from the mission's gold trunk. Each campaign flies
  its own trunk, so each forked pass pays for it.

Passes run in interleaved ABBA order (fresh, forked, forked, fresh,
then BAAB), so linear drift in host speed cancels within each quartet.
Every pass must return the same rows; the report says whether they
did, and the CLI exits 1 when they did not.

The slice is the paper's traffic on mission 3: the gold run plus one
case per fault type x target, the four injection durations assigned in
rotation. ``--quick`` keeps the gyro target only and flies at scale
0.1, for a smoke run of about a minute.

Harness-side tooling: wall-clock reads are fine here.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

from repro.core.campaign import (
    CampaignConfig,
    case_result,
    run_campaign,
    vehicle_config,
)
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultTarget
from repro.core.results import ExperimentResult
from repro.missions.valencia import valencia_missions
from repro.system import UavSystem

#: JSON schema tag of ``BENCH_campaign.json``.
CAMPAIGN_BENCH_SCHEMA = 1

MISSION_ID = 3


def campaign_slice(quick: bool) -> tuple[CampaignConfig, list[ExperimentSpec]]:
    """Mission 3: gold plus one case per type x target, durations rotating."""
    config = CampaignConfig(scale=0.1 if quick else 0.15, mission_ids=(MISSION_ID,))
    targets = (FaultTarget.GYRO,) if quick else tuple(FaultTarget)
    specs = build_experiment_matrix(
        mission_ids=[MISSION_ID],
        durations_s=config.durations_s,
        injection_time_s=config.effective_injection_time_s,
        base_seed=config.base_seed,
        targets=targets,
    )
    gold = [s for s in specs if s.is_gold]
    cells: dict[tuple[str, str], list[ExperimentSpec]] = {}
    for spec in specs:
        if spec.fault is not None:
            key = (spec.fault.target.value, spec.fault.fault_type.value)
            cells.setdefault(key, []).append(spec)
    chosen = [cell[k % len(cell)] for k, cell in enumerate(cells.values())]
    return config, gold + chosen


def _fresh_pass(config: CampaignConfig, specs: list[ExperimentSpec]) -> list[ExperimentResult]:
    plan = {p.mission_id: p for p in valencia_missions(scale=config.scale)}[MISSION_ID]
    return [
        case_result(spec, UavSystem(plan, vehicle_config(config), spec.fault).run())
        for spec in specs
    ]


def _forked_pass(config: CampaignConfig, specs: list[ExperimentSpec]) -> list[ExperimentResult]:
    return run_campaign(config, specs=specs).results


def run_campaign_bench(quick: bool = False) -> dict[str, Any]:
    """Time fresh and forked passes over the slice; return the report."""
    config, specs = campaign_slice(quick)
    quartets = 1 if quick else 2
    passes = {"fresh": _fresh_pass, "forked": _forked_pass}
    times: dict[str, list[float]] = {"fresh": [], "forked": []}
    rows: list[list[ExperimentResult]] = []
    for q in range(quartets):
        a, b = ("fresh", "forked") if q % 2 == 0 else ("forked", "fresh")
        for side in (a, b, b, a):
            start = time.perf_counter()
            rows.append(passes[side](config, specs))
            times[side].append(time.perf_counter() - start)
    cases = len(specs)
    fresh_s = max(statistics.median(times["fresh"]), 1e-12)
    forked_s = max(statistics.median(times["forked"]), 1e-12)
    sim_s = sum(r.flight_duration_s for r in rows[0])
    return {
        "schema": CAMPAIGN_BENCH_SCHEMA,
        "quick": quick,
        "mission_id": MISSION_ID,
        "scale": config.scale,
        "injection_time_s": config.effective_injection_time_s,
        "cases": cases,
        "simulated_s_per_pass": round(sim_s, 2),
        "order": "ABBA/BAAB quartets, fresh first",
        "quartets": quartets,
        "fresh_pass_s": [round(t, 3) for t in times["fresh"]],
        "forked_pass_s": [round(t, 3) for t in times["forked"]],
        "fresh_cases_per_s": round(cases / fresh_s, 4),
        "forked_cases_per_s": round(cases / forked_s, 4),
        "speedup": round(fresh_s / forked_s, 3),
        # Fresh over forked time within each quartet: the spread shows
        # how far host-speed drift moves the ratio.
        "quartet_speedups": [
            round(
                sum(times["fresh"][2 * q : 2 * q + 2])
                / max(sum(times["forked"][2 * q : 2 * q + 2]), 1e-12),
                3,
            )
            for q in range(quartets)
        ],
        "rows_equal": all(r == rows[0] for r in rows),
    }


def format_campaign_report(report: dict[str, Any]) -> str:
    """Human-readable summary for the CLI."""
    return "\n".join(
        [
            "campaign bench"
            + (" (quick)" if report["quick"] else "")
            + f" — mission {report['mission_id']}, scale {report['scale']}, "
            f"{report['cases']} cases, {report['quartets']} ABBA quartet(s)",
            f"  fresh cases/sec:   {report['fresh_cases_per_s']:>10.3f}",
            f"  forked cases/sec:  {report['forked_cases_per_s']:>10.3f}",
            f"  speedup:           {report['speedup']:>10.2f}x",
            f"  rows equal:        {report['rows_equal']!s:>10}",
        ]
    )
