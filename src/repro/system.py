"""`UavSystem`: one simulated vehicle with its full PX4-like stack.

Wires together, in the paper's architecture (Fig. 1):

    physics (truth) -> sensors -> **fault injector** -> EKF -> outer
    control loops -> attitude loop -> rate loop (raw gyro!) -> mixer ->
    physics

plus the commander/navigator/failsafe vehicle management, the bubble
monitor fed at U-space tracking instances, the flight recorder, and an
optional telemetry broker.

The loop runs at a fixed 100 Hz physics/control rate with GPS at 5 Hz,
baro/mag at 20 Hz, and tracking at 1 Hz.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from repro.control import (
    AttitudeController,
    Mixer,
    PositionController,
    PositionControllerParams,
    RateController,
)
from repro.core.faults import FaultSpec
from repro.estimation import Ekf, EkfParams, EstimatorHealth
from repro.flightstack import (
    Commander,
    CrashDetector,
    FailsafeEngine,
    FailsafeState,
    FlightParams,
    FlightPhase,
    IsolationOutcome,
    MissionOutcome,
)
from repro.missions.plan import MissionPlan
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.redundancy import ImuBank, RedundancyConfig, RedundancyManager
from repro.sensors import Barometer, GpsModel, Magnetometer
from repro.sim import (
    AirframeParams,
    Environment,
    QuadrotorAirframe,
    QuadrotorPhysics,
    RigidBodyState,
    WindModel,
)
from repro.telemetry import Broker, FlightRecorder, TrackMessage
from repro.uspace import BubbleMonitor


@dataclass
class SystemConfig:
    """Rates, seeds, and parameter overrides for one vehicle run."""

    physics_dt_s: float = 0.01
    tracking_interval_s: float = 1.0
    recorder_rate_hz: float = 5.0
    risk_factor: float = 1.0
    seed: int = 0
    wind_gust_sigma_m_s: float = 0.25
    flight_params: FlightParams = field(default_factory=FlightParams)
    ekf_params: EkfParams = field(default_factory=EkfParams)
    #: Ablation switch: when False the attitude loop always runs at full
    #: gain, ignoring the estimator's attitude confidence.
    confidence_scheduling: bool = True
    #: Redundant IMU bank + voter; disabled = the paper's single-IMU
    #: vehicle, bit-identical to the pre-redundancy pipeline.
    redundancy: RedundancyConfig = field(default_factory=RedundancyConfig)

    def __post_init__(self) -> None:
        if self.physics_dt_s <= 0.0:
            raise ValueError("physics_dt_s must be positive")


@dataclass
class MissionResult:
    """Everything the paper's metrics need from one run."""

    mission_id: int
    outcome: MissionOutcome
    flight_duration_s: float
    distance_km: float
    inner_violations: int
    outer_violations: int
    tracking_instances: int
    max_deviation_m: float
    crash_time_s: float | None
    failsafe_time_s: float | None
    fault_label: str
    failsafe_trigger: str = "none"
    #: First debounce of failure detection (isolation start) and the
    #: condition that tripped it; None / "none" when it never fired.
    detection_time_s: float | None = None
    detection_trigger: str = "none"
    isolation_outcome: str = "not_attempted"
    isolation_succeeded: bool | None = None
    imu_switchovers: int = 0
    #: Path of the black-box dump written by the observer when the run
    #: did not complete (None when obs is off or the run completed).
    blackbox_path: str | None = None

    @property
    def completed(self) -> bool:
        return self.outcome == MissionOutcome.COMPLETED


class UavSystem:
    """One vehicle, one mission, one (optional) fault injection."""

    def __init__(
        self,
        plan: MissionPlan,
        config: SystemConfig | None = None,
        fault: FaultSpec | None = None,
        broker: Broker | None = None,
        obs: Observer | None = None,
    ):
        self.plan = plan
        self.config = config or SystemConfig()
        cfg = self.config
        seed = cfg.seed + plan.mission_id * 1009

        airframe = QuadrotorAirframe(AirframeParams(mass_kg=plan.drone.mass_kg))
        environment = Environment(
            wind=WindModel(gust_sigma_m_s=cfg.wind_gust_sigma_m_s, seed=seed + 1)
        )
        initial_yaw = self._initial_yaw(plan)
        initial = RigidBodyState()
        initial.position_ned = plan.home_ned.copy()
        from repro.mathutils import quat_from_euler

        initial.quaternion = quat_from_euler(0.0, 0.0, initial_yaw)
        self.physics = QuadrotorPhysics(airframe, environment, initial)

        # Member 0 of the bank reuses the historical IMU seed, so a
        # disabled-redundancy vehicle (bank of one) is bit-identical to
        # the original single-IMU pipeline.
        red = cfg.redundancy
        self.imu_bank = ImuBank(
            fault,
            num_members=red.num_members if red.enabled else 1,
            base_seed=seed + 2,
        )
        self.imu = self.imu_bank.members[0]
        self.injector = self.imu_bank.injectors[0]
        self.redundancy = RedundancyManager(
            red.voter, self.imu_bank.num_members, enabled=red.enabled
        )
        self.gps = GpsModel(seed=seed + 3)
        self.baro = Barometer(seed=seed + 4)
        self.mag = Magnetometer(seed=seed + 5)
        self.fault = fault

        self.ekf = Ekf(
            params=cfg.ekf_params,
            initial_position_ned=plan.home_ned,
            initial_yaw_rad=initial_yaw,
        )

        pos_params = PositionControllerParams(
            max_speed_xy_m_s=plan.drone.top_speed_m_s,
        )
        self.position_controller = PositionController(
            params=pos_params,
            mass_kg=plan.drone.mass_kg,
            max_total_thrust_n=4.0 * airframe.params.motor.max_thrust_n,
        )
        self.attitude_controller = AttitudeController()
        self.rate_controller = RateController()
        self.mixer = Mixer()

        self.commander = Commander(plan, cfg.flight_params)
        self.failsafe = FailsafeEngine(cfg.flight_params)
        self.crash_detector = CrashDetector()
        self.bubble_monitor = BubbleMonitor(
            plan, tracking_interval_s=cfg.tracking_interval_s, risk_factor=cfg.risk_factor
        )
        # Observability plane: NULL_OBSERVER's hooks and sinks are all
        # no-ops, so an uninstrumented vehicle pays one empty call per
        # step and zero branches. The commander/failsafe/redundancy
        # modules emit into the observer's trace at their transitions;
        # the flight recorder feeds its registry.
        self.obs = obs if obs is not None else NULL_OBSERVER
        self.commander.obs = self.obs.trace
        self.failsafe.obs = self.obs.trace
        self.redundancy.obs = self.obs.trace
        if broker is not None:
            self.obs.attach_broker(broker, plan.mission_id)
        self.recorder = FlightRecorder(
            rate_hz=cfg.recorder_rate_hz, registry=self.obs.metrics
        )
        self.broker = broker
        self._last_gyro = np.zeros(3)
        # Idle motor command, shared read-only (MotorBank clips into its
        # own buffer).
        self._idle_motors = np.zeros(4)
        #: Set by :meth:`start`; a fork of a started trunk inherits it.
        self.started = False

    @staticmethod
    def _initial_yaw(plan: MissionPlan) -> float:
        """Face the first leg before takeoff, like a pre-armed PX4 vehicle."""
        first = plan.waypoints[0].array
        second = plan.waypoints[1].array
        return math.atan2(second[1] - first[1], second[0] - first[0])

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the whole system by one physics tick."""
        cfg = self.config
        dt = cfg.physics_dt_s
        t = self.physics.time_s
        truth = self.physics.state

        # 1. Sensing (+ fault injection on the IMU path). The redundancy
        # manager picks which bank member feeds the stack; switchover is
        # only allowed while the failsafe is isolating.
        samples = self.imu_bank.sample(
            t, self.physics.specific_force_body, truth.angular_rate_body, dt
        )
        selection = self.redundancy.select(
            t, samples, dt, isolating=self.failsafe.state == FailsafeState.ISOLATING
        )
        imu_sample = selection.sample
        if selection.switched:
            # New physical sensor: re-seed the estimator's delta-state
            # and give the failsafe a fresh isolation window.
            self.ekf.reseed_after_imu_switch()
            self.failsafe.report_isolation(t, IsolationOutcome.SWITCHED)
        elif selection.exhausted:
            self.failsafe.report_isolation(t, IsolationOutcome.EXHAUSTED)
        self._last_gyro = imu_sample.gyro

        # 2. Estimation.
        self.ekf.predict(imu_sample, dt)
        fix = self.gps.maybe_sample(t, truth.position_ned, truth.velocity_ned)
        if fix is not None:
            self.ekf.update_gps(fix)
        alt = self.baro.maybe_sample(t, truth.altitude_m)
        if alt is not None:
            self.ekf.update_baro(alt)
        yaw = self.mag.maybe_sample(t, truth.quaternion)
        if yaw is not None:
            self.ekf.update_mag_yaw(yaw)
            self.ekf.update_gravity_tilt(imu_sample.accel, imu_sample.gyro)
        elif self.redundancy.degraded:
            # No healthy bank member left: the gyro-integrated attitude
            # is drifting on faulty data, so run the complementary
            # gravity-tilt blend every tick instead of at the mag rate.
            self.ekf.update_gravity_tilt(imu_sample.accel, imu_sample.gyro, dt)

        ekf = self.ekf
        est_tilt = self._estimated_tilt()

        # 3. Vehicle management.
        health = EstimatorHealth.from_monitor(
            self.ekf.monitor,
            attitude_std_rad=self.ekf.attitude_std_rad,
            imu_stale=self.ekf.imu_stale_latched,
        )
        # Failure detection arms only clear of the ground: takeoff and
        # touchdown transients produce legitimate rate spikes (PX4
        # equally suppresses failure detection while landed).
        airborne = not self.physics.on_ground and truth.altitude_m > 2.0
        self.failsafe.update(
            t,
            imu_sample.gyro,
            est_tilt,
            health,
            in_flight=self.commander.in_flight and airborne,
        )
        landing_expected = self.commander.phase in (
            FlightPhase.LANDING,
            FlightPhase.FAILSAFE_LAND,
        )
        self.crash_detector.assess_contact(self.physics.last_contact, landing_expected)
        out = self.commander.update(
            t,
            ekf.position_ned,
            on_ground=self.physics.on_ground,
            failsafe_engaged=self.failsafe.engaged,
            crashed=self.crash_detector.crashed,
        )

        # 4. Control cascade.
        if out.thrust_idle:
            motors = self._idle_motors
        else:
            vel_sp = self.position_controller.velocity_setpoint(
                out.position_sp_ned,
                ekf.position_ned,
                feedforward_ned=out.velocity_ff_ned,
                cruise_speed_m_s=out.cruise_speed_m_s or None,
            )
            accel_sp = self.position_controller.acceleration_setpoint(
                vel_sp, ekf.velocity_ned, dt
            )
            collective, q_sp = self.position_controller.thrust_and_attitude(
                accel_sp, out.yaw_sp_rad
            )
            confidence = (
                self.ekf.attitude_confidence if cfg.confidence_scheduling else 1.0
            )
            rate_sp = self.attitude_controller.rate_setpoint(
                ekf.quaternion, q_sp, confidence=confidence
            )
            torque = self.rate_controller.torque_command(rate_sp, imu_sample.gyro, dt)
            motors = self.mixer.mix(collective, torque)

        # 5. Physics.
        self.physics.step(motors, dt)

        # 6. Surveillance and logging (reported = estimated state). The
        # airspeed and true tilt are only computed on the ticks where the
        # 1 Hz tracker / 5 Hz recorder actually consume them.
        if self.bubble_monitor.due(t):
            airspeed = float(np.linalg.norm(ekf.velocity_ned))
            point = self.bubble_monitor.maybe_track(t, ekf.position_ned, airspeed)
            if point is not None and self.broker is not None:
                self.broker.publish(
                    f"track/{self.plan.mission_id}",
                    TrackMessage(
                        drone_id=self.plan.mission_id,
                        time_s=t,
                        position_ned=tuple(ekf.position_ned),
                        velocity_ned=tuple(ekf.velocity_ned),
                        airspeed_m_s=airspeed,
                    ),
                )
        if self.recorder.due(t):
            self.recorder.maybe_record(
                t,
                truth.position_ned,
                ekf.position_ned,
                truth.velocity_ned,
                ekf.velocity_ned,
                truth.tilt_rad,
                self.commander.phase.value,
                self.injector.is_active(t),
            )
        self.obs.on_step(self)

    def _estimated_tilt(self) -> float:
        """Tilt angle of the EKF attitude estimate."""
        w, x, y, z = self.ekf.quaternion
        cos_tilt = 1.0 - 2.0 * (x * x + y * y)
        return math.acos(min(1.0, max(-1.0, cos_tilt)))

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Open the run: begin its trace span, arm and take off."""
        self.obs.on_run_start(self)
        self.commander.arm_and_takeoff(self.physics.time_s)
        self.started = True

    def time_cap_s(self) -> float:
        """Simulated time at which an unfinished flight is a timeout."""
        params = self.config.flight_params
        return max(
            params.mission_timeout_min_s + 60.0,
            self.plan.estimated_duration_s() * (params.mission_timeout_factor + 0.5),
        )

    def advance(self, until_s: float) -> None:
        """Step until the mission is terminal or the clock reaches ``until_s``.

        The one stepping loop: a fresh run and a forked case both finish
        their flight here.
        """
        while not self.commander.terminal and self.physics.time_s < until_s:
            self.step()

    def run(self, max_time_s: float | None = None) -> MissionResult:
        """Fly the mission to a terminal verdict and compute the metrics.

        A vehicle forked from a trunk (:meth:`fork`) is already started,
        so its run resumes the flight where the trunk stopped.
        """
        if not self.started:
            self.start()
        self.advance(max_time_s or self.time_cap_s())
        return self.finish()

    def fork(self, fault: FaultSpec | None, blackbox_name: str | None = None) -> UavSystem:
        """A copy of this vehicle that will fly on with ``fault`` injected.

        Meant for a fault-free trunk stopped before the fault's onset:
        every component ahead of the injector is copied as it stands
        (RNG positions included), and only the injectors, ``fault`` and
        the observer's per-case labels are replaced. The trunk itself is
        left untouched, so one trunk serves any number of forks.
        """
        # The injector has seen every pre-step time and the observer
        # every post-step time, the latest of which is the clock now; a
        # vehicle that has not stepped (clock still 0) has seen nothing.
        now = self.physics.time_s
        for spec in (self.fault, fault):
            if spec is not None and now > 0.0 and now >= spec.start_time_s:
                raise ValueError(
                    f"cannot fork at t={now} s: a fault window starting at "
                    f"{spec.start_time_s} s may already have been seen"
                )
        if self.broker is not None:
            raise ValueError("cannot fork a vehicle attached to a telemetry broker")
        child = copy.deepcopy(self)
        child.fault = fault
        child.imu_bank.set_fault(fault)
        child.injector = child.imu_bank.injectors[0]
        child.obs.on_fork(child, blackbox_name)
        return child

    def finish(self) -> MissionResult:
        """Close the run and reduce it to the paper's metrics."""
        if not self.commander.terminal:
            self.commander.outcome = MissionOutcome.TIMEOUT
            self.commander.end_time_s = self.physics.time_s

        blackbox_path = self.obs.on_run_end(self)
        takeoff = self.commander.takeoff_time_s or 0.0
        end = self.commander.end_time_s or self.physics.time_s
        counts = self.bubble_monitor.counts
        return MissionResult(
            mission_id=self.plan.mission_id,
            outcome=self.commander.outcome,
            flight_duration_s=end - takeoff,
            distance_km=self.recorder.estimated_distance_m / 1000.0,
            inner_violations=counts.inner,
            outer_violations=counts.outer,
            tracking_instances=counts.tracking_instances,
            max_deviation_m=counts.max_deviation_m,
            crash_time_s=(
                self.crash_detector.report.time_s if self.crash_detector.report else None
            ),
            failsafe_time_s=self.failsafe.engaged_time_s,
            fault_label=self.fault.label if self.fault else "Gold Run",
            failsafe_trigger=self.failsafe.trigger.value,
            detection_time_s=self.failsafe.detection_time_s,
            detection_trigger=self.failsafe.detection_trigger.value,
            isolation_outcome=self.failsafe.isolation_outcome.value,
            isolation_succeeded=self.failsafe.isolation_succeeded,
            imu_switchovers=len(self.redundancy.events),
            blackbox_path=blackbox_path,
        )
