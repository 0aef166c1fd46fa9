"""The :class:`Observer` facade: one object the vehicle reports into.

``UavSystem`` holds exactly one observer attribute. In disabled mode it
is :data:`NULL_OBSERVER`, whose hooks are empty methods — the hot loop
pays one attribute lookup and a no-op call per step, nothing else. In
enabled mode the observer:

* begins a ``run`` span (and, via the sinks it installs on the
  commander / failsafe engine / redundancy manager, nested
  flight-phase spans and transition point events);
* detects injection-window edges and bubble-violation increments each
  step and emits them as point events;
* records every step into the :class:`~repro.obs.blackbox.BlackBox`;
* mirrors every point event into the metrics registry (and, when a
  telemetry broker is attached, onto the broker's ``event/<id>``
  topic, where the existing :class:`~repro.telemetry.tracker.Tracker`
  picks it up);
* on run end, dumps the black box for CRASHED / FAILSAFE / TIMEOUT
  outcomes.

The contract (enforced by tests and reprolint OBS001): hooks *read*
the system and never mutate it, draw no randomness, and therefore
cannot change a single bit of any run.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.blackbox import BlackBox
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_default_registry,
)
from repro.obs.trace import NULL_SINK, TraceCollector, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.system import UavSystem
    from repro.telemetry.broker import Broker


class Observer:
    """Instrumentation plane for one vehicle run."""

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        trace: TraceCollector | None = None,
        blackbox: BlackBox | None = None,
        blackbox_dir: str | Path | None = None,
        blackbox_name: str | None = None,
    ) -> None:
        self.metrics = registry if registry is not None else get_default_registry()
        self.trace = trace if trace is not None else TraceCollector()
        self.blackbox = blackbox if blackbox is not None else BlackBox()
        self.blackbox_dir = Path(blackbox_dir) if blackbox_dir is not None else None
        self.blackbox_name = blackbox_name
        self.trace.on_point = self._on_point
        self._events_total = self.metrics.counter(
            "obs_events_total",
            "Point events observed, by event name.",
            labels=("event",),
        )
        self._runs_total = self.metrics.counter(
            "runs_total", "Vehicle runs finished, by outcome.", labels=("outcome",)
        )
        self._flight_seconds = self.metrics.histogram(
            "run_flight_duration_seconds", "Flight duration per finished run."
        )
        self._broker: "Broker | None" = None
        self._broker_drone_id = 0
        # Edge-detection state (observer-internal; never read by the sim).
        self._fault_active = False
        self._inner = 0
        self._outer = 0
        self._run_span_id = 0

    # -- wiring --------------------------------------------------------

    def attach_broker(self, broker: "Broker", drone_id: int) -> None:
        """Mirror point events onto ``event/<drone_id>`` for the tracker."""
        self._broker = broker
        self._broker_drone_id = drone_id

    def _on_point(self, event: TraceEvent) -> None:
        self._events_total.labels(event=event.name).inc()
        if self._broker is not None:
            from repro.telemetry.messages import FlightEvent

            self._broker.publish(
                f"event/{self._broker_drone_id}",
                FlightEvent(
                    drone_id=self._broker_drone_id,
                    time_s=event.time_s,
                    kind=event.name,
                    data=dict(event.attrs),
                ),
            )

    # -- vehicle hooks (called by UavSystem) ---------------------------

    def on_run_start(self, system: "UavSystem") -> None:
        self._run_span_id = self.trace.begin_span(
            "run",
            system.physics.time_s,
            mission_id=system.plan.mission_id,
            fault=system.fault.label if system.fault else "Gold Run",
        )

    def on_fork(self, system: "UavSystem", blackbox_name: str | None) -> None:
        """Re-target a copied trunk observer at the case forked from it.

        The trunk flew as the gold run, so its ``run`` span names no
        fault; everything else it recorded before the fork point is
        what the case itself would have recorded.
        """
        label = system.fault.label if system.fault else "Gold Run"
        for event in self.trace.events:
            if event.kind == "B" and event.span_id == self._run_span_id:
                event.attrs["fault"] = label
        self.blackbox_name = blackbox_name

    def on_step(self, system: "UavSystem") -> None:
        """Per-tick hook: black-box row plus edge-triggered events.

        This runs every simulation step, so the injector's activity
        check is inlined (spec window compare) rather than routed
        through ``injector.is_active``.
        """
        t = system.physics.time_s
        spec = system.injector.spec
        active = spec is not None and spec.is_active(t)
        self.blackbox.record(system, active)
        if active != self._fault_active:
            self._fault_active = active
            if active:
                self.trace.emit(
                    "injection.start",
                    t,
                    fault=system.fault.label if system.fault else "?",
                )
            else:
                self.trace.emit("injection.stop", t)
        counts = system.bubble_monitor.counts
        if counts.inner != self._inner:
            self._inner = counts.inner
            self.trace.emit("bubble.inner_violation", t, total=counts.inner)
        if counts.outer != self._outer:
            self._outer = counts.outer
            self.trace.emit("bubble.outer_violation", t, total=counts.outer)

    def on_run_end(self, system: "UavSystem") -> str | None:
        """Close spans, bump outcome metrics, dump the FDR if warranted.

        Returns the black-box artifact path for non-completed runs with
        a configured ``blackbox_dir`` (``None`` otherwise); the caller
        carries it into the :class:`~repro.system.MissionResult`.
        """
        t = system.physics.time_s
        outcome = system.commander.outcome
        outcome_value = outcome.value if outcome is not None else "unknown"
        self.trace.emit("mission.outcome", t, outcome=outcome_value)
        self.trace.end_all(t)
        self._runs_total.labels(outcome=outcome_value).inc()
        takeoff = system.commander.takeoff_time_s or 0.0
        end = system.commander.end_time_s or t
        self._flight_seconds.default.observe(end - takeoff)
        # String compare, not MissionOutcome identity: importing the
        # flightstack here would cycle (commander imports obs.trace).
        if self.blackbox_dir is None or (outcome is not None and outcome.value == "completed"):
            return None
        name = self.blackbox_name or (
            f"blackbox_mission{system.plan.mission_id:02d}.json"
        )
        return self.blackbox.dump(
            self.blackbox_dir / name,
            metadata=run_metadata(system),
            events=[e.to_dict() for e in self.trace.events],
        )


def run_metadata(system: "UavSystem") -> dict[str, Any]:
    """Post-mortem header: everything needed to identify the run."""
    return {
        "mission_id": system.plan.mission_id,
        "fault": system.fault.label if system.fault else "Gold Run",
        "outcome": (
            system.commander.outcome.value
            if system.commander.outcome is not None
            else "unknown"
        ),
        "failsafe_trigger": system.failsafe.trigger.value,
        "isolation_outcome": system.failsafe.isolation_outcome.value,
        "imu_switchovers": len(system.redundancy.events),
        "seed": system.config.seed,
        "end_time_s": system.physics.time_s,
    }


class _NullObserver(Observer):
    """Disabled mode: every hook is an immediate return.

    A singleton (:data:`NULL_OBSERVER`) shared by every uninstrumented
    vehicle; it owns no buffers and installs :data:`NULL_SINK` — using
    it costs the hot loop one no-op method call per step.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = NULL_REGISTRY
        self.trace = NULL_SINK  # type: ignore[assignment]
        self.blackbox = None  # type: ignore[assignment]
        self.blackbox_dir = None
        self.blackbox_name = None

    def attach_broker(self, broker: "Broker", drone_id: int) -> None:
        pass

    def on_run_start(self, system: "UavSystem") -> None:
        pass

    def on_fork(self, system: "UavSystem", blackbox_name: str | None) -> None:
        pass

    def on_step(self, system: "UavSystem") -> None:
        pass

    def on_run_end(self, system: "UavSystem") -> str | None:
        return None


#: The shared disabled-mode observer.
NULL_OBSERVER = _NullObserver()
