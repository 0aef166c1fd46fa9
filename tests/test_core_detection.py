"""Detection-latency records: read from the run the campaign flies."""

import pytest

from repro.core.detection import DetectionRecord, measure_detection, render_detection_report
from repro.core.faults import FaultSpec, FaultTarget, FaultType
from repro.flightstack import MissionOutcome
from repro.missions import valencia_missions
from repro.obs import Observer
from repro.obs.registry import MetricsRegistry
from repro.system import MissionResult, UavSystem


def mission_result(label, outcome, detection=None, failsafe=None, crash=None, **extra):
    return MissionResult(
        mission_id=1,
        outcome=outcome,
        flight_duration_s=100.0,
        distance_km=1.0,
        inner_violations=0,
        outer_violations=0,
        tracking_instances=100,
        max_deviation_m=1.0,
        crash_time_s=crash,
        failsafe_time_s=failsafe,
        fault_label=label,
        detection_time_s=detection,
        **extra,
    )


def test_record_detected_property():
    hit = DetectionRecord.from_run(
        mission_result("Gyro Min", MissionOutcome.CRASHED, detection=20.6, crash=21.2),
        start_time_s=20.0,
    )
    miss = DetectionRecord.from_run(
        mission_result("Acc Freeze", MissionOutcome.COMPLETED), start_time_s=20.0
    )
    assert hit.detected
    assert not miss.detected


def test_from_run_latencies_are_relative_to_injection():
    result = mission_result(
        "Gyro Random",
        MissionOutcome.FAILSAFE,
        detection=20.5,
        failsafe=22.4,
        crash=23.25,
        detection_trigger="gyro_rate",
        failsafe_trigger="attitude",
        isolation_outcome="exhausted",
        isolation_succeeded=False,
    )
    record = DetectionRecord.from_run(result, start_time_s=20.0)
    assert record.fault_label == "Gyro Random"
    assert record.outcome == "failsafe"
    assert record.detection_latency_s == 0.5
    assert record.failsafe_latency_s == pytest.approx(2.4)
    assert record.loss_latency_s == 3.25
    # The trigger is the one that started isolation, not the latest one.
    assert record.trigger == "gyro_rate"
    assert record.isolation_outcome == "exhausted"
    assert record.isolation_succeeded is False


def test_from_run_without_events():
    record = DetectionRecord.from_run(
        mission_result("Acc Freeze", MissionOutcome.TIMEOUT), start_time_s=20.0
    )
    assert record.outcome == "timeout"
    assert not record.detected
    assert record.failsafe_latency_s is None and record.loss_latency_s is None
    assert record.trigger == "none"


def test_from_run_clamps_events_before_injection():
    record = DetectionRecord.from_run(
        mission_result("Gyro Min", MissionOutcome.CRASHED, detection=19.0),
        start_time_s=20.0,
    )
    assert record.detection_latency_s == 0.0


def test_render_report_columns():
    records = [
        DetectionRecord.from_run(
            mission_result("Gyro Min", MissionOutcome.CRASHED, detection=20.61, crash=21.25),
            start_time_s=20.0,
        ),
        DetectionRecord.from_run(
            mission_result("Gyro Random", MissionOutcome.FAILSAFE, detection=20.55, failsafe=22.51),
            start_time_s=20.0,
        ),
        DetectionRecord.from_run(
            mission_result("Acc Freeze", MissionOutcome.COMPLETED), start_time_s=20.0
        ),
    ]
    text = render_detection_report(records, "timeline")
    lines = text.split("\n")
    assert lines[0] == "timeline"
    assert "Gyro Min" in text and "Gyro Random" in text
    assert "0.61" in text and "2.51" in text
    # Missing events render as '-'.
    freeze_line = next(l for l in lines if "Acc Freeze" in l)
    assert freeze_line.count("-") >= 3


def test_detection_agrees_with_the_observed_run():
    """Detection analysis and the campaign read one and the same run."""
    plan = valencia_missions(scale=0.1)[3]
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.GYRO, start_time_s=20.0, duration_s=30.0)
    record = measure_detection(plan, fault)

    obs = Observer(registry=MetricsRegistry())
    result = UavSystem(plan, fault=fault, obs=obs).run()
    isolating = obs.trace.points("failsafe.isolating")
    assert isolating, "the fault never tripped failure detection"

    assert record.outcome == result.outcome.value
    assert record.detection_latency_s == isolating[0].time_s - fault.start_time_s
    assert record.trigger == isolating[0].attrs["trigger"]
    assert record == DetectionRecord.from_run(result, fault.start_time_s)
