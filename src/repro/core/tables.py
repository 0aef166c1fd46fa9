"""Generators for the paper's Tables II, III, and IV.

Each function reduces a :class:`~repro.core.results.CampaignResult`
into the same rows the paper prints, sorted the same way (descending
mission-completion percentage). :func:`render_table` turns rows into a
fixed-width text table for terminals and logs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.faults import FaultTarget, FaultType, fault_label
from repro.core.metrics import FailureRow, SummaryRow, failure_analysis, summarize
from repro.core.results import CampaignResult, ExperimentResult

_FAULT_LABEL_ORDER = [
    (target, fault_type) for target in FaultTarget for fault_type in FaultType
]


def harness_error_note(campaign: CampaignResult) -> str:
    """One-line annotation for table output when cases were excluded.

    Tables II-IV are computed over ``campaign.gold``/``campaign.faulty``
    which already exclude harness-error rows; this note makes the
    exclusion visible next to the rendered tables (empty string when
    every case produced a mission verdict). The detailed per-case list
    is :func:`repro.core.analysis.harness_error_report`.
    """
    n = len(campaign.harness_errors)
    if n == 0:
        return ""
    return f"(note: {n} harness-error case(s) excluded from this table)"


def table2_by_duration(campaign: CampaignResult) -> list[SummaryRow]:
    """Table II: averages of all missions/faults grouped by duration.

    The first row is the gold baseline; faulty rows are sorted by
    descending completion percentage (the paper's sort order).
    """
    rows = [summarize("Gold Run", campaign.gold)] if campaign.gold else []
    durations = sorted({r.injection_duration_s for r in campaign.faulty})
    fault_rows = [
        summarize(_duration_label(d), campaign.by_duration(d)) for d in durations
    ]
    fault_rows.sort(key=lambda row: -row.completed_pct)
    return rows + fault_rows


def table3_by_fault(campaign: CampaignResult) -> list[SummaryRow]:
    """Table III: averages over all durations grouped by fault type.

    Rows are grouped by component (Acc, Gyro, IMU) and sorted by
    descending completion within each component, as in the paper.
    """
    rows = [summarize("Gold Run", campaign.gold)] if campaign.gold else []
    for target in FaultTarget:
        target_rows = []
        for fault_type in FaultType:
            label = fault_label(target, fault_type)
            group = campaign.by_fault_label(label)
            if group:
                target_rows.append(summarize(label, group))
        target_rows.sort(key=lambda row: -row.completed_pct)
        rows.extend(target_rows)
    return rows


def table4_failure_analysis(campaign: CampaignResult) -> list[FailureRow]:
    """Table IV: failure/crash/failsafe rates by duration and component."""
    rows = []
    if campaign.gold:
        rows.append(failure_analysis("Gold Run", campaign.gold))
    for duration in sorted({r.injection_duration_s for r in campaign.faulty}):
        rows.append(failure_analysis(_duration_label(duration), campaign.by_duration(duration)))
    for target in FaultTarget:
        group = campaign.by_target(target.value)
        if group:
            rows.append(failure_analysis(target.label, group))
    return rows


@dataclass(frozen=True)
class ResilienceRow:
    """One row of the redundancy-comparison table.

    Compares outcome shares for the same fault group between a
    *baseline* campaign (no redundancy) and a *mitigated* one (IMU
    bank + voting/switchover), run with the same seeds and fault scope.
    """

    label: str
    runs: int
    baseline_completed_pct: float
    mitigated_completed_pct: float
    baseline_crashed_pct: float
    mitigated_crashed_pct: float
    switchovers: int
    isolations_succeeded: int

    @property
    def completed_delta_pct(self) -> float:
        """Completion points gained (positive = redundancy helped)."""
        return self.mitigated_completed_pct - self.baseline_completed_pct


def _resilience_row(
    label: str, base: list[ExperimentResult], mit: list[ExperimentResult]
) -> ResilienceRow:
    def pct(results: list[ExperimentResult], pred: str) -> float:
        if not results:
            return 0.0
        return 100.0 * sum(1 for r in results if getattr(r, pred)) / len(results)

    return ResilienceRow(
        label=label,
        runs=len(base),
        baseline_completed_pct=pct(base, "completed"),
        mitigated_completed_pct=pct(mit, "completed"),
        baseline_crashed_pct=pct(base, "crashed"),
        mitigated_crashed_pct=pct(mit, "crashed"),
        switchovers=sum(r.imu_switchovers for r in mit),
        isolations_succeeded=sum(1 for r in mit if r.isolation_succeeded),
    )


def resilience_comparison(
    baseline: CampaignResult, mitigated: CampaignResult
) -> list[ResilienceRow]:
    """Outcome shares with vs. without the redundant IMU bank.

    Both campaigns must cover the same faulty cases (same missions,
    durations, and fault scope); rows are emitted per fault label in
    the paper's component order, preceded by an overall row. Labels
    present in only one campaign are skipped — comparing them would be
    meaningless.
    """
    rows = [
        _resilience_row("All faults", baseline.faulty, mitigated.faulty)
    ]
    for target, fault_type in _FAULT_LABEL_ORDER:
        label = fault_label(target, fault_type)
        base_group = baseline.by_fault_label(label)
        mit_group = mitigated.by_fault_label(label)
        if base_group and mit_group:
            rows.append(_resilience_row(label, base_group, mit_group))
    return rows


def render_resilience_table(rows: list[ResilienceRow], title: str = "") -> str:
    """Fixed-width text rendering of the redundancy comparison."""
    if not rows:
        return f"{title}\n(empty)"
    lines = []
    if title:
        lines.append(title)
    header = (
        f"{'Fault':<18} {'Runs':>5} {'Base compl':>11} {'Mit compl':>10} "
        f"{'Delta':>7} {'Base crash':>11} {'Mit crash':>10} "
        f"{'Switch':>7} {'Isolated':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            f"{row.label:<18} {row.runs:>5} {row.baseline_completed_pct:>10.2f}% "
            f"{row.mitigated_completed_pct:>9.2f}% {row.completed_delta_pct:>+6.1f} "
            f"{row.baseline_crashed_pct:>10.2f}% {row.mitigated_crashed_pct:>9.2f}% "
            f"{row.switchovers:>7} {row.isolations_succeeded:>9}"
        )
    return "\n".join(lines)


def render_table(rows: list[SummaryRow] | list[FailureRow], title: str = "") -> str:
    """Fixed-width text rendering of summary or failure rows."""
    if not rows:
        return f"{title}\n(empty)"
    lines = []
    if title:
        lines.append(title)
    first = rows[0]
    if isinstance(first, SummaryRow):
        header = (
            f"{'Injection':<18} {'Inner (#)':>10} {'Outer (#)':>10} "
            f"{'Completed':>10} {'Duration (s)':>13} {'Distance (km)':>14}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            assert isinstance(row, SummaryRow)
            lines.append(
                f"{row.label:<18} {row.inner_violations_avg:>10.2f} "
                f"{row.outer_violations_avg:>10.2f} {row.completed_pct:>9.2f}% "
                f"{row.duration_avg_s:>13.2f} {row.distance_avg_km:>14.2f}"
            )
    else:
        header = (
            f"{'Injection':<18} {'Failed':>9} {'Crash':>9} {'Failsafe':>9}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows:
            assert isinstance(row, FailureRow)
            lines.append(
                f"{row.label:<18} {row.failed_pct:>8.2f}% "
                f"{row.crash_pct_of_failed:>8.2f}% {row.failsafe_pct_of_failed:>8.2f}%"
            )
    return "\n".join(lines)


def _duration_label(duration_s: float) -> str:
    if duration_s is None:
        return "unknown"
    if duration_s == int(duration_s):
        return f"{int(duration_s)} seconds"
    return f"{duration_s} seconds"
