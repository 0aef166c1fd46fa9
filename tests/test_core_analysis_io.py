"""Unit tests for analysis utilities, persistence, and paper reference data."""

import pytest

from repro.core.analysis import (
    by_mission,
    check_paper_shapes,
    duration_fault_grid,
    redundancy_rescues,
    render_rescues,
    render_shape_checks,
    severity_ranking,
)
from repro.core.io import export_csv, load_campaign, save_campaign
from repro.core.paper_reference import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    paper_component_order,
    paper_table3_row,
)
from repro.core.results import CampaignResult, ExperimentResult
from repro.core.tables import table3_by_fault
from repro.core.faults import FaultSpec, FaultTarget, FaultType, fault_label
from repro.flightstack.commander import MissionOutcome


def _label(target, fault):
    return fault_label(target, fault)


def synthetic_campaign():
    """A campaign whose shape mirrors the paper's qualitative findings."""
    results = []
    eid = 0
    for mission in (1, 2):
        results.append(
            ExperimentResult(eid, mission, "Gold Run", None, None, None,
                             MissionOutcome.COMPLETED, 400.0, 3.0, 0, 0, 0.5)
        )
        eid += 1
    # Completion recipe per fault family.
    complete_labels = {"Acc Zeros", "Acc Noise", "Gyro Zeros"}
    for duration in (2.0, 30.0):
        for target in FaultTarget:
            for fault in FaultType:
                label = _label(target, fault)
                for mission in (1, 2):
                    completes = label in complete_labels and duration == 2.0
                    outcome = (
                        MissionOutcome.COMPLETED if completes else (
                            MissionOutcome.CRASHED if mission == 1 else MissionOutcome.FAILSAFE
                        )
                    )
                    inner = 20 if target is FaultTarget.ACCEL else 10
                    inner += 5 if duration == 30.0 else 0
                    results.append(
                        ExperimentResult(
                            eid, mission, label, fault.value, target.value, duration,
                            outcome, 150.0, 0.8, inner, inner // 2, 30.0,
                        )
                    )
                    eid += 1
    return CampaignResult(results=results, scale=0.2, injection_time_s=20.0)


def test_by_mission_rows():
    rows = by_mission(synthetic_campaign())
    assert len(rows) == 2
    assert rows[0].label == "mission 1"
    assert rows[0].runs == 42  # 21 faults x 2 durations


def test_duration_fault_grid_complete():
    grid = duration_fault_grid(synthetic_campaign())
    assert len(grid) == 42  # 21 labels x 2 durations
    assert grid[("Acc Zeros", 2.0)] == 100.0
    assert grid[("Acc Zeros", 30.0)] == 0.0


def test_severity_ranking_sorted():
    rows = severity_ranking(synthetic_campaign())
    assert len(rows) == 21
    pcts = [r.completed_pct for r in rows]
    assert pcts == sorted(pcts)
    assert rows[-1].label in ("Acc Zeros", "Acc Noise", "Gyro Zeros")


def test_shape_checks_pass_on_paper_shaped_campaign():
    checks = check_paper_shapes(synthetic_campaign())
    names = {c.name for c in checks}
    assert "gold-baseline" in names
    assert "component-ordering" in names
    by_name = {c.name: c for c in checks}
    assert by_name["gold-baseline"].holds
    assert by_name["duration-severity"].holds
    assert by_name["acc-zeros-noise-survivable"].holds
    assert by_name["gyro-zeros-vs-min"].holds
    assert by_name["acc-heaviest-violations"].holds


def test_render_shape_checks():
    text = render_shape_checks(check_paper_shapes(synthetic_campaign()))
    assert "qualitative findings reproduced" in text
    assert "[PASS]" in text


# ---------------------------------------------------- redundancy rescues

C, X, F = MissionOutcome.COMPLETED, MissionOutcome.CRASHED, MissionOutcome.FAILSAFE

#: (baseline outcomes, mitigated outcomes) per fault group. Gyro Max and
#: Gyro Min tie on gain (the paper order puts Min first, the label
#: order Max); Gyro Random and IMU Noise each exist in one campaign only.
RESCUE_PAIR = {
    (FaultTarget.GYRO, FaultType.MAX): ([X, F], [C, X]),
    (FaultTarget.GYRO, FaultType.MIN): ([X, X], [C, F]),
    (FaultTarget.IMU, FaultType.FREEZE): ([C, X, X, F], [C, C, C, C]),
    (FaultTarget.GYRO, FaultType.ZEROS): ([C, C], [C, X]),
    (FaultTarget.ACCEL, FaultType.NOISE): ([C, X], [X, C]),
    (FaultTarget.GYRO, FaultType.RANDOM): ([], [C, C]),
    (FaultTarget.IMU, FaultType.NOISE): ([X, X], []),
}


def rescue_arm(mitigated):
    results = [
        ExperimentResult(0, 1, "Gold Run", None, None, None, C, 100.0, 1.0, 0, 0, 0.5,
                         mitigated=mitigated)
    ]
    for (target, fault), arms in RESCUE_PAIR.items():
        for outcome in arms[int(mitigated)]:
            results.append(
                ExperimentResult(
                    len(results), 1, _label(target, fault), fault.value, target.value, 10.0,
                    outcome, 50.0, 0.5, 3, 1, 20.0, mitigated=mitigated,
                    imu_switchovers=int(mitigated and outcome is C),
                )
            )
    return CampaignResult(results=results)


def test_redundancy_rescues_render_is_pinned():
    text = render_rescues(redundancy_rescues(rescue_arm(False), rescue_arm(True)))
    assert text == (
        "Redundancy rescues: 3 fault group(s) improved\n"
        "  IMU Freeze: completion 25.0% -> 100.0%, crashes 50.0% -> 0.0% (4 switchover(s))\n"
        "  Gyro Max: completion 0.0% -> 50.0%, crashes 50.0% -> 50.0% (1 switchover(s))\n"
        "  Gyro Min: completion 0.0% -> 50.0%, crashes 100.0% -> 0.0% (1 switchover(s))"
    )


def test_redundancy_rescues_none_when_nothing_improved():
    rescues = redundancy_rescues(rescue_arm(True), rescue_arm(False))
    assert [r.label for r in rescues] == ["Gyro Zeros"]
    assert render_rescues(redundancy_rescues(rescue_arm(False), rescue_arm(False))) == (
        "Redundancy rescues: none — no fault group completed more "
        "missions with the IMU bank than without"
    )


# ---------------------------------------------------------- fault labels


@pytest.mark.parametrize("target", list(FaultTarget))
@pytest.mark.parametrize("fault", list(FaultType))
def test_fault_label_is_one_string_everywhere(target, fault):
    label = FaultSpec(fault, target, start_time_s=0.0, duration_s=1.0).label
    assert label == fault_label(target, fault)
    campaign = CampaignResult(
        results=[
            ExperimentResult(0, 1, label, fault.value, target.value, 2.0,
                             MissionOutcome.COMPLETED, 50.0, 0.5, 0, 0, 1.0)
        ]
    )
    assert [row.label for row in table3_by_fault(campaign)] == [label]
    assert paper_table3_row(label).label == label


# ------------------------------------------------------------------ io


def test_save_load_round_trip(tmp_path):
    campaign = synthetic_campaign()
    path = tmp_path / "campaign.json"
    save_campaign(campaign, path)
    loaded = load_campaign(path)
    assert loaded.scale == campaign.scale
    assert loaded.injection_time_s == campaign.injection_time_s
    assert len(loaded.results) == len(campaign.results)
    for a, b in zip(loaded.results, campaign.results):
        assert a == b


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 99, "results": []}')
    with pytest.raises(ValueError):
        load_campaign(path)


def test_export_csv(tmp_path):
    campaign = synthetic_campaign()
    path = tmp_path / "campaign.csv"
    export_csv(campaign, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(campaign.results) + 1
    assert lines[0].startswith("experiment_id,mission_id")
    assert "Gold Run" in lines[1]


# -------------------------------------------------------- paper reference


def test_paper_tables_complete():
    assert len(PAPER_TABLE2) == 5  # gold + 4 durations
    assert len(PAPER_TABLE3) == 22  # gold + 21 faults
    assert len(PAPER_TABLE4) == 8  # gold + 4 durations + 3 components


def test_paper_table3_lookup():
    row = paper_table3_row("Gyro Zeros")
    assert row.completed_pct == 40.0
    with pytest.raises(KeyError):
        paper_table3_row("Nope")


def test_paper_component_order():
    assert paper_component_order() == ["Acc", "Gyro", "IMU"]


def test_paper_table4_splits_sum_to_100():
    for row in PAPER_TABLE4:
        if row.failed_pct > 0:
            assert row.crash_pct + row.failsafe_pct == pytest.approx(100.0)


def test_paper_table3_zero_rows():
    zero_rows = [r.label for r in PAPER_TABLE3 if r.completed_pct == 0.0]
    assert set(zero_rows) == {"Gyro Min", "IMU Min", "IMU Freeze"}
