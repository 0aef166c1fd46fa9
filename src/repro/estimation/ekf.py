"""Error-state extended Kalman filter for multirotor navigation.

State layout (nominal):
    quaternion (body->world), velocity NED, position NED,
    gyro bias, accel bias.

Error state (15): ``[d_theta(3), d_vel(3), d_pos(3), d_bias_gyro(3),
d_bias_accel(3)]`` with the attitude error defined in the body frame,
``q_true = q_nominal * exp(d_theta)``.

The filter predicts at the IMU rate and applies GPS position/velocity,
barometric height, and magnetometer yaw updates with chi-square
innovation gating. Gated (rejected) innovations are reported through
:class:`~repro.estimation.health.InnovationMonitor`, which is what the
failsafe engine watches — mirroring PX4's EKF health flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mathutils import (
    quat_from_axis_angle,
    quat_from_axis_angle_into,
    quat_integrate,
    quat_integrate_into,
    quat_multiply,
    quat_multiply_into,
    quat_normalize,
    quat_normalize_into,
    quat_rotate,
    quat_to_euler,
    quat_to_rotation_matrix,
    quat_to_rotation_matrix_into,
    skew,
    wrap_angle,
)
from repro.sensors.imu import ImuSample
from repro.sensors.gps import GpsSample
from repro.estimation.health import InnovationMonitor

# Error-state block indices.
_TH = slice(0, 3)
_V = slice(3, 6)
_P = slice(6, 9)
_BG = slice(9, 12)
_BA = slice(12, 15)


@dataclass
class EkfParams:
    """Noise densities, bias limits, and innovation gates.

    The gates are expressed as sigma multiples; an innovation whose
    normalised squared magnitude exceeds ``gate**2`` is rejected and
    counted by the health monitor.
    """

    gyro_noise: float = 0.03
    accel_noise: float = 0.2
    gyro_bias_walk: float = 5e-4
    accel_bias_walk: float = 3e-3
    gyro_bias_limit: float = 0.4
    accel_bias_limit: float = 1.0
    gps_pos_gate: float = 5.0
    gps_vel_gate: float = 5.0
    baro_gate: float = 5.0
    mag_gate: float = 4.0
    baro_noise_m: float = 0.3
    mag_noise_rad: float = 0.05
    #: Ablation switch: disable the PX4-style fusion-timeout hard reset
    #: (the mechanism that lets the filter recover after divergence).
    enable_fusion_reset: bool = True


@dataclass(slots=True)
class EkfState:
    """Nominal state snapshot (arrays are views; copy before storing)."""

    quaternion: np.ndarray
    velocity_ned: np.ndarray
    position_ned: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray

    @property
    def yaw_rad(self) -> float:
        return quat_to_euler(self.quaternion)[2]

    def copy(self) -> "EkfState":
        return EkfState(
            self.quaternion.copy(),
            self.velocity_ned.copy(),
            self.position_ned.copy(),
            self.gyro_bias.copy(),
            self.accel_bias.copy(),
        )


class Ekf:
    """The estimator: IMU-driven prediction plus gated aiding updates."""

    #: Consecutive per-axis GPS rejections before the corresponding state
    #: block is hard-reset to the measurement (PX4's fusion-timeout
    #: reset). At the 5 Hz GPS rate this is ~1.6 s of disagreement.
    RESET_REJECTION_COUNT = 8

    def __init__(
        self,
        params: EkfParams | None = None,
        gravity_m_s2: float = 9.80665,
        initial_position_ned: np.ndarray | None = None,
        initial_yaw_rad: float = 0.0,
    ):
        self.params = params or EkfParams()
        self._gravity_ned = np.array([0.0, 0.0, gravity_m_s2])
        self.quaternion = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), initial_yaw_rad)
        self.velocity_ned = np.zeros(3)
        self.position_ned = (
            np.zeros(3)
            if initial_position_ned is None
            else np.array(initial_position_ned, dtype=float)
        )
        self.gyro_bias = np.zeros(3)
        self.accel_bias = np.zeros(3)

        # Initial uncertainty: well-initialised SITL vehicle on the pad.
        self.covariance = np.diag(
            [0.01] * 3 + [0.1] * 3 + [0.25] * 3 + [1e-4] * 3 + [1e-2] * 3
        )
        self.monitor = InnovationMonitor()
        self.time_s = 0.0
        # Angular rate after bias removal; the rate controller consumes
        # the raw gyro, but logging and failsafe use this too.
        self.rate_body = np.zeros(3)
        # Stuck-sensor (flatline) detection: a real MEMS gyro never emits
        # bit-identical samples (thermal noise), so an exactly-constant
        # triad means the data stream is dead or frozen. The last raw
        # triads are kept as scalars (element-wise `==` has exactly
        # `np.array_equal` semantics for fixed-shape triads, including
        # NaN) so the check allocates nothing.
        self._lg0 = 0.0
        self._lg1 = 0.0
        self._lg2 = 0.0
        self._have_lg = False
        self._gyro_flatline_count = 0
        self._la0 = 0.0
        self._la1 = 0.0
        self._la2 = 0.0
        self._have_la = False
        self._accel_flatline_count = 0
        # Array form of the flatline memory, maintained only by the naive
        # reference implementation (repro.perf.reference) which shares
        # this class's state via deepcopy.
        self._last_raw_gyro: np.ndarray | None = None
        self._last_raw_accel: np.ndarray | None = None
        # Latched filter fault: a full-IMU dropout (both triads
        # flatlined) means the inertial solution integrity is gone; like
        # PX4's EKF failure handling, the fault latches until landing.
        self.imu_stale_latched = False

        # -- Hot-loop work buffers ------------------------------------
        # Every in-place expression below mirrors its allocating
        # original operation-for-operation (same order, same rounding);
        # the differential and golden-trace tests pin this.
        self._omega = np.zeros(3)
        self._accel = np.zeros(3)
        self._rot = np.zeros((3, 3))
        self._neg_rot = np.zeros((3, 3))
        self._accel_world = np.zeros(3)
        self._phi = np.eye(15)
        self._eye15 = np.eye(15)
        self._skew = np.zeros((3, 3))
        self._neg_eye3 = -np.eye(3)
        self._I3 = np.eye(3)
        self._t33 = np.zeros((3, 3))
        self._t33b = np.zeros((3, 3))
        self._cov_tmp = np.zeros((15, 15))
        self._sym = np.zeros((15, 15))
        # The diagonal view stays valid because the covariance array is
        # only ever written in place after construction.
        self._diag = self.covariance.ravel()[::16]
        self._ph = np.zeros(15)
        self._k = np.zeros(15)
        self._dx = np.zeros(15)
        self._outer = np.zeros((15, 15))
        self._dq4 = np.zeros(4)
        self._bias_tmp = np.zeros(3)
        self._innov3 = np.zeros(3)
        self._pos_var = np.zeros(3)
        self._vel_var = np.full(3, 0.15**2)
        self._h_baro = np.zeros(15)
        self._h_baro[8] = -1.0  # d(alt)/d(p_down)
        self._h_mag = np.zeros(15)
        self._unit_h: dict[int, np.ndarray] = {}
        self._axis_names: dict[str, tuple[str, str, str]] = {}
        self._neg_ez = np.array([0.0, 0.0, -1.0])
        self._expected = np.zeros(3)
        self._measured = np.zeros(3)
        self._err = np.zeros(3)

    # Snapshot contract (deepcopy and pickle): a copy of ``_diag`` would
    # be a detached array, so process noise added through it would stop
    # reaching the covariance. Drop the view and re-derive it from the
    # copied covariance instead.
    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        del state["_diag"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._diag = self.covariance.ravel()[::16]

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, imu: ImuSample, dt: float) -> None:
        """Propagate nominal state and covariance with one IMU sample."""
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        p = self.params
        omega = self._omega
        accel = self._accel
        np.subtract(imu.gyro, self.gyro_bias, out=omega)
        np.subtract(imu.accel, self.accel_bias, out=accel)
        self.rate_body = omega

        # Flatline detection: with the gyro stream dead (zeros or frozen)
        # the attitude is no longer measured, only *dead-reckoned*, so the
        # attitude process noise must grow accordingly. The inflated
        # covariance lets GPS-velocity innovations correct the attitude
        # through the velocity/attitude cross-covariance — without this,
        # the filter keeps trusting a sensor that has stopped reporting.
        g0 = imu.gyro[0]
        g1 = imu.gyro[1]
        g2 = imu.gyro[2]
        if self._have_lg and g0 == self._lg0 and g1 == self._lg1 and g2 == self._lg2:
            self._gyro_flatline_count += 1
        else:
            self._gyro_flatline_count = 0
        self._lg0 = g0
        self._lg1 = g1
        self._lg2 = g2
        self._have_lg = True
        gyro_noise = p.gyro_noise if self._gyro_flatline_count < 20 else 0.8

        a0 = imu.accel[0]
        a1 = imu.accel[1]
        a2 = imu.accel[2]
        if self._have_la and a0 == self._la0 and a1 == self._la1 and a2 == self._la2:
            self._accel_flatline_count += 1
        else:
            self._accel_flatline_count = 0
        self._la0 = a0
        self._la1 = a1
        self._la2 = a2
        self._have_la = True
        if self._gyro_flatline_count >= 50 and self._accel_flatline_count >= 50:
            self.imu_stale_latched = True

        rot = self._rot
        quat_to_rotation_matrix_into(self.quaternion, rot)
        accel_world = self._accel_world
        np.matmul(rot, accel, out=accel_world)
        accel_world += self._gravity_ned

        # Nominal propagation: `p + v dt + 0.5 a dt^2` and `v + a dt`,
        # scalarised with the exact grouping of the vector originals.
        pos = self.position_ned
        vel = self.velocity_ned
        pos[0] = pos[0] + vel[0] * dt + 0.5 * accel_world[0] * dt * dt
        pos[1] = pos[1] + vel[1] * dt + 0.5 * accel_world[1] * dt * dt
        pos[2] = pos[2] + vel[2] * dt + 0.5 * accel_world[2] * dt * dt
        vel[0] = vel[0] + accel_world[0] * dt
        vel[1] = vel[1] + accel_world[1] * dt
        vel[2] = vel[2] + accel_world[2] * dt
        quat_integrate_into(self.quaternion, omega, dt, out=self.quaternion)

        # Covariance propagation: Phi = I + F dt (adequate at IMU rate).
        phi = self._phi
        np.copyto(phi, self._eye15)
        s33 = self._skew
        s33[0, 1] = -omega[2]
        s33[0, 2] = omega[1]
        s33[1, 0] = omega[2]
        s33[1, 2] = -omega[0]
        s33[2, 0] = -omega[1]
        s33[2, 1] = omega[0]
        np.multiply(s33, dt, out=self._t33)
        phi[0:3, 0:3] -= self._t33
        np.multiply(self._neg_eye3, dt, out=self._t33)
        phi[0:3, 9:12] = self._t33
        s33[0, 1] = -accel[2]
        s33[0, 2] = accel[1]
        s33[1, 0] = accel[2]
        s33[1, 2] = -accel[0]
        s33[2, 0] = -accel[1]
        s33[2, 1] = accel[0]
        np.negative(rot, out=self._neg_rot)
        np.matmul(self._neg_rot, s33, out=self._t33b)
        np.multiply(self._t33b, dt, out=self._t33b)
        phi[3:6, 0:3] = self._t33b
        np.multiply(rot, dt, out=self._t33)
        np.negative(self._t33, out=self._t33)
        phi[3:6, 12:15] = self._t33
        np.multiply(self._I3, dt, out=self._t33)
        phi[6:9, 3:6] = self._t33

        np.matmul(phi, self.covariance, out=self._cov_tmp)
        np.matmul(self._cov_tmp, phi.T, out=self.covariance)
        diag = self._diag
        diag[_TH] += (gyro_noise**2) * dt
        diag[_V] += (p.accel_noise**2) * dt
        diag[_BG] += (p.gyro_bias_walk**2) * dt
        diag[_BA] += (p.accel_bias_walk**2) * dt
        self.time_s = imu.time_s

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update_gps(self, fix: GpsSample) -> None:
        """Apply GPS position and velocity aiding.

        If a channel has been in sustained rejection (the filter diverged
        from reality, e.g. because an IMU fault dragged the prediction
        away), the corresponding state block is hard-reset to the fix —
        PX4's fusion-timeout behaviour, and the mechanism that lets
        vehicles recover once a short injection ends.
        """
        if self.params.enable_fusion_reset:
            if self.monitor.group_max_consecutive("gps_vel") >= self.RESET_REJECTION_COUNT:
                self._reset_block(_V, fix.velocity_ned, 1.0, "gps_vel")
            if self.monitor.group_max_consecutive("gps_pos") >= self.RESET_REJECTION_COUNT:
                self._reset_block(_P, fix.position_ned, 4.0, "gps_pos")

        p = self.params
        pos_var = self._pos_var
        pos_var[0] = fix.horizontal_accuracy_m**2
        pos_var[1] = fix.horizontal_accuracy_m**2
        pos_var[2] = fix.vertical_accuracy_m**2
        innov = self._innov3
        np.subtract(fix.position_ned, self.position_ned, out=innov)
        self._vector_update(innov, _P, pos_var, p.gps_pos_gate, "gps_pos")

        np.subtract(fix.velocity_ned, self.velocity_ned, out=innov)
        self._vector_update(innov, _V, self._vel_var, p.gps_vel_gate, "gps_vel")

    def update_baro(self, altitude_m: float) -> None:
        """Apply barometric height aiding (altitude positive up)."""
        innov = altitude_m - (-self.position_ned[2])
        self._scalar_update(
            innov, self._h_baro, self.params.baro_noise_m**2, self.params.baro_gate, "baro"
        )

    def update_mag_yaw(self, yaw_meas_rad: float) -> None:
        """Apply magnetometer yaw aiding."""
        yaw_est = quat_to_euler(self.quaternion)[2]
        innov = wrap_angle(yaw_meas_rad - yaw_est)
        rot = quat_to_rotation_matrix_into(self.quaternion, self._rot)
        h = self._h_mag
        # Small body-frame attitude errors map to world-frame errors via R;
        # yaw error is the world-z component. Entries outside [0:3] stay 0.
        h[_TH] = rot[2, :]
        self._scalar_update(innov, h, self.params.mag_noise_rad**2, self.params.mag_gate, "mag")

    #: Gain (1/s) of the complementary gravity-tilt correction.
    GRAVITY_AIDING_GAIN = 3.0

    def update_gravity_tilt(
        self, accel_body: np.ndarray, gyro_body: np.ndarray, dt: float = 0.05
    ) -> None:
        """Quasi-static tilt aiding from the accelerometer's gravity vector.

        When the specific force is close to 1 g and the measured rates are
        small, the accelerometer direction observes roll/pitch. The
        correction is applied as a Mahony-style complementary blend,
        ``q <- q * exp(k * err * dt)``, rather than a gated Kalman update:
        its authority must scale with the error so the filter can re-level
        after (or during) a gyro fault window, when the gyro-trusting
        covariance would otherwise gate the information out exactly when
        it is needed. During violent motion or accelerometer faults the
        quasi-static check keeps it out of the loop.
        """
        g = self._gravity_ned[2]
        # math.sqrt(float(v @ v)) == np.linalg.norm(v) bit-for-bit (same
        # BLAS dot) without the linalg wrapper cost; used on every hot
        # norm in the loop.
        norm = math.sqrt(float(accel_body @ accel_body))
        quasi_static = (
            abs(norm - g) <= 0.12 * g and math.sqrt(float(gyro_body @ gyro_body)) <= 0.25
        )
        if not quasi_static:
            return
        rot = quat_to_rotation_matrix_into(self.quaternion, self._rot)
        expected = self._expected
        np.matmul(rot.T, self._neg_ez, out=expected)
        measured = self._measured
        np.divide(accel_body, norm, out=measured)
        # Small-angle attitude error (body frame); z component excluded —
        # gravity says nothing about yaw.
        err = self._err
        err[0] = measured[1] * expected[2] - measured[2] * expected[1]
        err[1] = measured[2] * expected[0] - measured[0] * expected[2]
        err[2] = 0.0
        err_norm = math.sqrt(float(err @ err))
        self.monitor.record("grav", self.time_s, err_norm, True)
        if err_norm < 1e-9:
            return
        angle = self.GRAVITY_AIDING_GAIN * dt * err_norm
        quat_from_axis_angle_into(err, min(angle, 0.3), self._dq4)
        quat_multiply_into(self.quaternion, self._dq4, self.quaternion)
        quat_normalize_into(self.quaternion, self.quaternion)

    # ------------------------------------------------------------------
    # Sensor switchover
    # ------------------------------------------------------------------

    def reseed_after_imu_switch(self) -> None:
        """Re-seed the delta-state after the primary IMU is replaced.

        The bias estimates, flatline trackers, and innovation history
        all describe the *retired* sensor: the new member has its own
        turn-on biases, and the rejection windows accumulated while
        flying corrupted data would keep the failsafe's EKF-health
        trigger latched long after the data went clean. Position is
        kept (GPS-derived, sensor-independent); attitude and velocity
        covariance are inflated so the aiding updates can pull the
        nominal state back from wherever the fault dragged it.
        """
        diag = self.covariance.ravel()[::16]
        for block, variance in ((_BG, 1e-4), (_BA, 1e-2)):
            self.covariance[block, :] = 0.0
            self.covariance[:, block] = 0.0
            diag[block] = variance
        self.gyro_bias[:] = 0.0
        self.accel_bias[:] = 0.0
        diag[_TH] += 0.02
        diag[_V] += 0.25
        self.monitor.reset_all_windows()
        self._have_lg = False
        self._last_raw_gyro = None
        self._gyro_flatline_count = 0
        self._have_la = False
        self._last_raw_accel = None
        self._accel_flatline_count = 0
        self.imu_stale_latched = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reset_block(self, block: slice, value: np.ndarray, variance: float, channel: str) -> None:
        """Hard-reset one state block to a measurement and re-open gates."""
        if block == _V:
            self.velocity_ned = np.asarray(value, float).copy()
        elif block == _P:
            self.position_ned = np.asarray(value, float).copy()
        else:  # pragma: no cover - only vel/pos resets are defined
            raise ValueError("only velocity/position blocks can be reset")
        self.covariance[block, :] = 0.0
        self.covariance[:, block] = 0.0
        diag = self.covariance.ravel()[:: 16]
        diag[block] = variance
        self.monitor.clear_group_streaks(channel)

    def _vector_update(
        self,
        innovation: np.ndarray,
        block: slice,
        meas_var: np.ndarray,
        gate: float,
        name: str,
    ) -> None:
        """Sequential per-axis scalar updates for a direct-observation block."""
        start = block.start
        names = self._axis_names.get(name)
        if names is None:
            names = (f"{name}_0", f"{name}_1", f"{name}_2")
            self._axis_names[name] = names
        for axis in range(3):
            h = self._unit_h.get(start + axis)
            if h is None:
                h = np.zeros(15)
                h[start + axis] = 1.0
                self._unit_h[start + axis] = h
            self._scalar_update(
                float(innovation[axis]), h, float(meas_var[axis]), gate, names[axis]
            )

    def _scalar_update(
        self, innovation: float, h: np.ndarray, meas_var: float, gate: float, name: str
    ) -> None:
        """One gated scalar Kalman update."""
        ph = self._ph
        np.matmul(self.covariance, h, out=ph)
        # Covariance is PSD and meas_var > 0, but a fault window can
        # collapse both toward zero; the floor keeps the gain finite.
        s = max(float(h @ ph) + meas_var, 1e-12)
        test_ratio = (innovation * innovation) / (gate * gate * s)
        accepted = test_ratio <= 1.0
        self.monitor.record(name, self.time_s, test_ratio, accepted)
        if not accepted:
            return
        k = self._k
        np.divide(ph, s, out=k)
        np.multiply(k, innovation, out=self._dx)
        self._inject_error(self._dx)
        # Joseph-lite: symmetric covariance decrement, written in place
        # (`k[:, None] * ph` is bit-identical to `np.outer(k, ph)`).
        np.multiply(k[:, None], ph, out=self._outer)
        np.subtract(self.covariance, self._outer, out=self.covariance)
        np.add(self.covariance, self.covariance.T, out=self._sym)
        np.multiply(self._sym, 0.5, out=self.covariance)

    def _inject_error(self, dx: np.ndarray) -> None:
        """Fold an error-state correction into the nominal state."""
        p = self.params
        th = dx[_TH]
        quat_from_axis_angle_into(th, math.sqrt(float(th @ th)), self._dq4)
        quat_multiply_into(self.quaternion, self._dq4, self.quaternion)
        quat_normalize_into(self.quaternion, self.quaternion)
        self.velocity_ned += dx[_V]
        self.position_ned += dx[_P]
        np.add(self.gyro_bias, dx[_BG], out=self._bias_tmp)
        np.maximum(self._bias_tmp, -p.gyro_bias_limit, out=self.gyro_bias)
        np.minimum(self.gyro_bias, p.gyro_bias_limit, out=self.gyro_bias)
        np.add(self.accel_bias, dx[_BA], out=self._bias_tmp)
        np.maximum(self._bias_tmp, -p.accel_bias_limit, out=self.accel_bias)
        np.minimum(self.accel_bias, p.accel_bias_limit, out=self.accel_bias)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def attitude_std_rad(self) -> float:
        """1-sigma tilt uncertainty (worst roll/pitch axis)."""
        return float(np.sqrt(max(self.covariance[0, 0], self.covariance[1, 1])))

    @property
    def attitude_confidence(self) -> float:
        """Confidence factor in (0, 1] for gain scheduling.

        1.0 while the attitude is known to better than ~3 degrees,
        decaying toward a floor as the uncertainty grows (gyro flatline,
        violent fault transients).
        """
        sigma = self.attitude_std_rad
        reference = 0.06
        if sigma <= reference:
            return 1.0
        return max(0.12, reference / sigma)

    @property
    def state(self) -> EkfState:
        """Current nominal state (live views; copy before storing)."""
        return EkfState(
            self.quaternion,
            self.velocity_ned,
            self.position_ned,
            self.gyro_bias,
            self.accel_bias,
        )

    def rotate_body_to_world(self, v: np.ndarray) -> np.ndarray:
        """Rotate a body-frame vector into the world frame with q_hat."""
        return quat_rotate(self.quaternion, v)
