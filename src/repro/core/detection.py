"""Fault-detection latency analysis.

The paper's discussion stresses "the importance of quick detection and
tolerance techniques" and observes that the failsafe takes a minimum of
~1900 ms after the failure condition appears (the redundant-sensor
isolation stage). This module reads, per fault, the timeline of the run
the campaign flies (:meth:`UavSystem.run`), so the two always agree:

* ``detection_time_s`` — when failure detection first debounced
  (isolation started, the ``failsafe.isolating`` event);
* ``failsafe_time_s`` — when the failsafe action engaged;
* ``loss_time_s`` — when the vehicle crashed, if it beat the failsafe.

Latencies are reported relative to the injection start.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.faults import FaultSpec
from repro.missions.plan import MissionPlan
from repro.system import MissionResult, SystemConfig, UavSystem


@dataclass(frozen=True)
class DetectionRecord:
    """Detection timeline of one faulty run (times relative to injection)."""

    fault_label: str
    outcome: str
    detection_latency_s: float | None
    failsafe_latency_s: float | None
    loss_latency_s: float | None
    #: Which failure-detection condition debounced first ("none" when
    #: detection never fired).
    trigger: str = "none"
    #: What the redundant-sensor isolation stage did.
    isolation_outcome: str = "not_attempted"
    #: Verdict of the last isolation episode (None: never resolved).
    isolation_succeeded: bool | None = None

    @property
    def detected(self) -> bool:
        """True when failure detection reacted to the fault at all."""
        return self.detection_latency_s is not None

    @classmethod
    def from_run(cls, result: MissionResult, start_time_s: float) -> "DetectionRecord":
        """The timeline of a finished run, relative to ``start_time_s``."""

        def latency(t: float | None) -> float | None:
            return None if t is None else max(0.0, t - start_time_s)

        return cls(
            fault_label=result.fault_label,
            outcome=result.outcome.value,
            detection_latency_s=latency(result.detection_time_s),
            failsafe_latency_s=latency(result.failsafe_time_s),
            loss_latency_s=latency(result.crash_time_s),
            trigger=result.detection_trigger,
            isolation_outcome=result.isolation_outcome,
            isolation_succeeded=result.isolation_succeeded,
        )


def measure_detection(
    plan: MissionPlan,
    fault: FaultSpec,
    config: SystemConfig | None = None,
) -> DetectionRecord:
    """Fly one faulty mission and read its detection timeline."""
    return DetectionRecord.from_run(
        UavSystem(plan, config, fault).run(), fault.start_time_s
    )


def render_detection_report(records: list[DetectionRecord], title: str) -> str:
    """Fixed-width rendering of detection timelines."""
    lines = [title]
    header = (
        f"{'fault':<18} {'outcome':<10} {'detect (s)':>11} "
        f"{'failsafe (s)':>13} {'loss (s)':>9} {'trigger':<10} "
        f"{'isolation':<13}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        det = f"{r.detection_latency_s:.2f}" if r.detection_latency_s is not None else "-"
        fs = f"{r.failsafe_latency_s:.2f}" if r.failsafe_latency_s is not None else "-"
        loss = f"{r.loss_latency_s:.2f}" if r.loss_latency_s is not None else "-"
        if r.isolation_succeeded is None:
            isolation = r.isolation_outcome
        else:
            isolation = "succeeded" if r.isolation_succeeded else "failed"
        lines.append(
            f"{r.fault_label:<18} {r.outcome:<10} {det:>11} {fs:>13} "
            f"{loss:>9} {r.trigger:<10} {isolation:<13}"
        )
    return "\n".join(lines)
