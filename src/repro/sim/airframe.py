"""Quadrotor airframe: geometry, mass properties, and force/torque map."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mathutils import quat_rotate_into
from repro.sim.environment import Environment
from repro.sim.motors import MotorBank, MotorModel


@dataclass
class AirframeParams:
    """Physical parameters of a quad-X multirotor.

    The defaults model a ~1.5 kg, 0.45 m-class delivery quad, which is in
    the weight/speed class of the paper's Valencia scenario drones. The
    ``dimension_m`` and ``safety_distance_m`` fields feed the inner-bubble
    formula (Eq. 1 of the paper): ``dimension_m`` is ``D_o`` (wingspan)
    and ``safety_distance_m`` is the manufacturer-recommended ``D_s``.
    """

    mass_kg: float = 1.5
    inertia_diag: tuple[float, float, float] = (0.029, 0.029, 0.055)
    arm_length_m: float = 0.25
    drag_area_m2: float = 0.05
    linear_drag_coeff: float = 0.25
    angular_damping: float = 0.008
    angular_damping_linear: float = 0.12
    motor: MotorModel = field(default_factory=MotorModel)
    dimension_m: float = 0.6
    safety_distance_m: float = 1.5

    def __post_init__(self) -> None:
        if self.mass_kg <= 0.0:
            raise ValueError("mass_kg must be positive")
        if any(i <= 0.0 for i in self.inertia_diag):
            raise ValueError("inertia must be positive definite")
        if self.arm_length_m <= 0.0:
            raise ValueError("arm_length_m must be positive")

    @property
    def hover_thrust_fraction(self) -> float:
        """Normalised per-motor command fraction that balances gravity.

        With the quadratic rotor map, hover needs
        ``command = sqrt(m*g / (n * T_max))``.
        """
        from repro.sim.environment import GRAVITY_M_S2

        weight = self.mass_kg * GRAVITY_M_S2
        return float(np.sqrt(weight / (4.0 * self.motor.max_thrust_n)))


class QuadrotorAirframe:
    """Maps per-motor thrusts to net body force and torque.

    Motor layout (quad-X, FRD body frame, index / position / spin):

    ==  ============  ====
    0   front-right   CCW
    1   back-left     CCW
    2   front-left    CW
    3   back-right    CW
    ==  ============  ====

    CCW rotors (viewed from above) exert a positive-yaw reaction torque
    on the body in the FRD/NED convention used here.
    """

    #: Per-motor (x, y) lever arms as multiples of arm_length, and spin sign.
    _LAYOUT = (
        (+0.7071, +0.7071, +1.0),
        (-0.7071, -0.7071, +1.0),
        (+0.7071, -0.7071, -1.0),
        (-0.7071, +0.7071, -1.0),
    )

    def __init__(self, params: AirframeParams | None = None):
        self.params = params or AirframeParams()
        self.motors = MotorBank(self.params.motor, count=4)
        self.inertia = np.diag(self.params.inertia_diag)
        self.inertia_inv = np.diag([1.0 / i for i in self.params.inertia_diag])
        arm = self.params.arm_length_m
        self._positions = np.array([(x * arm, y * arm) for x, y, _ in self._LAYOUT])
        self._spins = np.array([s for _, _, s in self._LAYOUT])
        # Column views reused every tick (same strides as slicing fresh,
        # so the BLAS dot products round identically).
        self._lever_x = self._positions[:, 0]
        self._lever_y = self._positions[:, 1]
        # Hot-loop work buffers. `forces_and_torques` returns `_force`
        # and `_torque` without copying; they are valid until the next
        # call (the physics step consumes them immediately).
        self._thrust_body = np.zeros(3)
        self._thrust_world = np.zeros(3)
        self._v_rel = np.zeros(3)
        self._mg = np.zeros(3)
        self._force = np.zeros(3)
        self._torque = np.zeros(3)

    # Snapshot contract (deepcopy and pickle): copied column views come
    # back contiguous, and ``np.dot`` rounds differently on a contiguous
    # operand. Drop them and re-slice the copied ``_positions``.
    def __getstate__(self) -> dict[str, object]:
        state = self.__dict__.copy()
        del state["_lever_x"], state["_lever_y"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lever_x = self._positions[:, 0]
        self._lever_y = self._positions[:, 1]

    def forces_and_torques(
        self,
        thrusts_n: np.ndarray,
        quaternion: np.ndarray,
        velocity_ned: np.ndarray,
        angular_rate_body: np.ndarray,
        env: Environment,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (world-frame force, body-frame torque).

        Force includes gravity, rotor thrust, and aerodynamic drag against
        the wind-relative velocity. Torque includes thrust lever arms, yaw
        reaction, and rotational damping.
        """
        p = self.params
        total_thrust = float(np.sum(thrusts_n))

        # Thrust acts along -z body (upward for a level vehicle).
        tb = self._thrust_body
        tb[2] = -total_thrust
        quat_rotate_into(quaternion, tb, self._thrust_world)

        v_rel = self._v_rel
        np.subtract(velocity_ned, env.wind.current_wind_ned, out=v_rel)
        speed = float(np.sqrt(v_rel @ v_rel))
        # drag = -(0.5 * rho * A * speed + c_lin) * v_rel, folded in place.
        np.multiply(
            v_rel,
            -(0.5 * env.air_density_kg_m3 * p.drag_area_m2 * speed + p.linear_drag_coeff),
            out=v_rel,
        )

        force = self._force
        np.add(self._thrust_world, v_rel, out=force)
        np.multiply(env.gravity_ned, p.mass_kg, out=self._mg)
        np.add(force, self._mg, out=force)

        # Torque from thrust lever arms: r x F with F = (0, 0, -T).
        tau_x = float(-np.dot(self._lever_y, thrusts_n))
        tau_y = float(np.dot(self._lever_x, thrusts_n))
        tau_z = float(np.dot(self._spins, thrusts_n)) * p.motor.torque_ratio_m

        w = angular_rate_body
        w0 = w[0]
        w1 = w[1]
        w2 = w[2]
        neg_ad = -p.angular_damping
        adl = p.angular_damping_linear
        torque = self._torque
        torque[0] = tau_x + ((neg_ad * w0) * abs(w0) - adl * w0)
        torque[1] = tau_y + ((neg_ad * w1) * abs(w1) - adl * w1)
        torque[2] = tau_z + ((neg_ad * w2) * abs(w2) - adl * w2)
        return force, torque
