"""Closed-loop throughput bench and per-subsystem profile.

``python -m repro.perf`` times the full ``UavSystem.step`` (physics +
wind + IMU bank + injector + EKF + control cascade + surveillance) in
steady-state cruise, compares it against the allocating reference twin,
attributes self-time to subsystems with :mod:`cProfile`, and emits
``BENCH_simulator.json``.

This is harness-side tooling: wall-clock reads are fine here (the
simulation itself remains deterministic; reprolint DET002 only fences
the sim/sensors/estimation/control/core layers).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from pathlib import Path
from typing import Any

from repro.core.atomicio import atomic_write_text
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.perf.reference import reference_twin
from repro.perf.trace import build_trace_system
from repro.system import UavSystem

#: Steps before any timed section, so every measurement sees the same
#: steady-state cruise regime (airborne, EKF converged, mission phase).
WARMUP_STEPS = 1000
QUICK_WARMUP_STEPS = 300

#: JSON schema tag so downstream regression checks can evolve safely.
BENCH_SCHEMA = 1


def _steps_per_sec(system: UavSystem, n_steps: int, rounds: int = 5) -> float:
    """Median step rate over ``rounds`` timed sections of ``n_steps``.

    The median (not the mean) so a scheduler hiccup in one section
    cannot drag the reported rate — the same policy the pytest bench
    asserts on.
    """
    rates = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(n_steps):
            system.step()
        elapsed = time.perf_counter() - t0
        rates.append(n_steps / max(elapsed, 1e-12))
    return _median(rates)


def _median(rates: list[float]) -> float:
    rates = sorted(rates)
    mid = len(rates) // 2
    if len(rates) % 2:
        return rates[mid]
    return 0.5 * (rates[mid - 1] + rates[mid])


def _section_time(system: UavSystem, n_steps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n_steps):
        system.step()
    return max(time.perf_counter() - t0, 1e-12)


def _paired_overhead(
    disabled: UavSystem, enabled: UavSystem, n_steps: int, quartets: int = 24
) -> tuple[float, float, float]:
    """Overhead of ``enabled`` over ``disabled`` from interleaved
    quartets; returns ``(disabled_rate, enabled_rate, overhead)``.

    A few-percent instrumentation cost is far below the CPU frequency
    and load drift between distant bench sections, so each quartet
    times the pair back to back in ABBA order (alternating with BAAB so
    neither system systematically owns the first, coldest slot): linear
    drift inside a quartet cancels exactly, and the interquartile mean
    over many short quartets discards scheduler bursts. Distant-section
    comparison (e.g. vs the gold section of the same bench run) would
    measure the machine, not the instrumentation.
    """
    overheads: list[float] = []
    dis_total = ena_total = 0.0
    for q in range(quartets):
        first, second = (disabled, enabled) if q % 2 == 0 else (enabled, disabled)
        t_f1 = _section_time(first, n_steps)
        t_s1 = _section_time(second, n_steps)
        t_s2 = _section_time(second, n_steps)
        t_f2 = _section_time(first, n_steps)
        if q % 2 == 0:
            t_dis, t_ena = t_f1 + t_f2, t_s1 + t_s2
        else:
            t_dis, t_ena = t_s1 + t_s2, t_f1 + t_f2
        dis_total += t_dis
        ena_total += t_ena
        overheads.append(t_ena / max(t_dis, 1e-12) - 1.0)
    overheads.sort()
    k = len(overheads) // 4
    core = overheads[k : len(overheads) - k] or overheads
    steps = 2 * quartets * n_steps
    return (
        steps / max(dis_total, 1e-12),
        steps / max(ena_total, 1e-12),
        sum(core) / len(core),
    )


def _subsystem_of(filename: str) -> str:
    """Map a profiled frame's file to its ``repro`` subpackage."""
    parts = Path(filename).parts
    try:
        i = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return "numpy/stdlib"
    if i + 2 < len(parts):
        return parts[i + 1]  # src/repro/<package>/module.py
    return "repro (top-level)"  # src/repro/system.py and friends


def _profile_breakdown(system: UavSystem, n_steps: int) -> dict[str, float]:
    """Fraction of profiled self-time per subsystem, largest first."""
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(n_steps):
        system.step()
    profiler.disable()
    totals: dict[str, float] = {}
    for (filename, _line, _func), entry in pstats.Stats(profiler).stats.items():
        tottime = entry[2]
        key = _subsystem_of(filename)
        totals[key] = totals.get(key, 0.0) + tottime
    grand = max(sum(totals.values()), 1e-12)
    ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
    return {name: t / grand for name, t in ranked}


def run_bench(quick: bool = False) -> dict[str, Any]:
    """Run the full bench suite and return the report dictionary."""
    warmup = QUICK_WARMUP_STEPS if quick else WARMUP_STEPS
    section = 200 if quick else 600
    rounds = 5
    ref_section = 100 if quick else 200
    profiled = 300 if quick else 1000

    # Gold-run throughput (the campaign's dominant regime).
    system = build_trace_system()
    for _ in range(warmup):
        system.step()
    gold_rate = _steps_per_sec(system, section, rounds)
    dt = system.config.physics_dt_s

    # Throughput during an active whole-IMU fault: the fault starts at
    # warmup end and the timed section is short enough (3 s) to stay
    # inside the violent-response window — a Random IMU fault drives the
    # vehicle terminal within ~4 s, and timing past that would measure
    # cheap post-crash idle steps instead of the injector, gated EKF
    # updates, failsafe, and desaturating mixer.
    fault = FaultSpec(
        FaultType.RANDOM, FaultTarget.IMU, start_time_s=warmup * dt, duration_s=1e6
    )
    faulted = build_trace_system(fault)
    for _ in range(warmup):
        faulted.step()
    fault_rate = _steps_per_sec(faulted, 100, rounds=3)

    # Gold cruise with the full observability plane on (metrics +
    # trace + black-box ring): the enabled-mode overhead that CI's obs
    # gate holds to <=5% of the disabled rate. Events are edge-triggered,
    # so in cruise the recurring cost is one black-box row per step. The
    # pair is timed in interleaved ABBA quartets (_paired_overhead).
    obs_disabled = build_trace_system()
    obs_enabled = build_trace_system(obs=Observer(registry=MetricsRegistry()))
    for _ in range(warmup):
        obs_disabled.step()
        obs_enabled.step()
    obs_disabled_rate, obs_rate, obs_overhead = _paired_overhead(
        obs_disabled, obs_enabled, 60, quartets=24 if quick else 48
    )

    # Reference twin from identical steady state: the before/after pair.
    baseline_system = build_trace_system()
    for _ in range(warmup):
        baseline_system.step()
    twin = reference_twin(baseline_system)
    ref_rate = _steps_per_sec(twin, ref_section, rounds)

    profile_system = build_trace_system()
    for _ in range(warmup):
        profile_system.step()
    breakdown = _profile_breakdown(profile_system, profiled)

    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "physics_dt_s": dt,
        "timed_steps": section * rounds,
        "steps_per_sec": round(gold_rate, 1),
        "realtime_factor": round(gold_rate * dt, 2),
        "steps_per_sec_under_fault": round(fault_rate, 1),
        "steps_per_sec_obs_disabled": round(obs_disabled_rate, 1),
        "steps_per_sec_obs_enabled": round(obs_rate, 1),
        "obs_overhead_frac": round(max(0.0, obs_overhead), 4),
        "reference_steps_per_sec": round(ref_rate, 1),
        "speedup_vs_reference": round(gold_rate / max(ref_rate, 1e-12), 2),
        "subsystem_self_time_fractions": {
            name: round(frac, 4) for name, frac in breakdown.items()
        },
    }


def format_report(report: dict[str, Any]) -> str:
    """Human-readable timing report for the CLI."""
    lines = [
        "closed-loop simulator bench"
        + (" (quick)" if report["quick"] else "")
        + f" — {report['timed_steps']} steps @ dt={report['physics_dt_s']}s",
        f"  steps/sec (gold cruise):   {report['steps_per_sec']:>10.1f}",
        f"  real-time factor:          {report['realtime_factor']:>10.2f}x",
        f"  steps/sec (IMU fault):     {report['steps_per_sec_under_fault']:>10.1f}",
        f"  steps/sec (obs enabled):   {report['steps_per_sec_obs_enabled']:>10.1f}"
        f"  ({report['obs_overhead_frac'] * 100:.1f}% overhead)",
        f"  steps/sec (reference):     {report['reference_steps_per_sec']:>10.1f}",
        f"  speedup vs reference:      {report['speedup_vs_reference']:>10.2f}x",
        "  self-time by subsystem:",
    ]
    for name, frac in report["subsystem_self_time_fractions"].items():
        lines.append(f"    {name:<20} {frac * 100:5.1f}%")
    return "\n".join(lines)


def write_report(report: dict[str, Any], path: str | Path) -> None:
    """Emit the bench JSON atomically (IO001 contract)."""
    atomic_write_text(path, json.dumps(report, indent=2) + "\n")


def check_regression(
    report: dict[str, Any], baseline_path: str | Path, tolerance: float = 0.2
) -> tuple[bool, str]:
    """Compare ``steps_per_sec`` against a committed baseline file.

    Returns ``(ok, message)``; ``ok`` is False when throughput dropped
    more than ``tolerance`` (fractional) below the baseline. Faster-
    than-baseline runs always pass — the gate is one-sided.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    floor = baseline["steps_per_sec"] * (1.0 - tolerance)
    current = report["steps_per_sec"]
    if current < floor:
        return False, (
            f"throughput regression: {current:.1f} steps/sec is below the "
            f"{floor:.1f} floor ({baseline['steps_per_sec']:.1f} baseline "
            f"- {tolerance:.0%} tolerance)"
        )
    return True, (
        f"throughput OK: {current:.1f} steps/sec vs {baseline['steps_per_sec']:.1f} "
        f"baseline (floor {floor:.1f})"
    )


def check_obs_overhead(
    report: dict[str, Any], tolerance: float = 0.03
) -> tuple[bool, str]:
    """Gate the enabled-observability cost against the disabled rate.

    Both rates come from interleaved sections of the *same* bench run
    (same machine, same load, alternating back-to-back), so the
    comparison is self-normalising — unlike the absolute baseline gate,
    it does not need a generous cross-machine tolerance.
    """
    overhead = report["obs_overhead_frac"]
    enabled = report["steps_per_sec_obs_enabled"]
    disabled = report.get("steps_per_sec_obs_disabled", report["steps_per_sec"])
    if overhead > tolerance:
        return False, (
            f"observability overhead {overhead:.1%} exceeds the "
            f"{tolerance:.0%} budget ({enabled:.1f} steps/sec enabled vs "
            f"{disabled:.1f} disabled)"
        )
    return True, (
        f"observability overhead OK: {overhead:.1%} "
        f"({enabled:.1f} steps/sec enabled vs {disabled:.1f} disabled, "
        f"budget {tolerance:.0%})"
    )
