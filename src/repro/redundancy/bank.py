"""A bank of redundant IMUs with per-member fault injection.

The paper's vehicle carries a single IMU (its campaigns corrupt the
stream *after* the driver, so redundancy could never help — see
DESIGN.md section 10). The bank generalises that: N `Imu` instances
with independent noise/bias seeds, each behind its own
:class:`~repro.core.injector.SensorFaultInjector` so a
:class:`~repro.core.faults.FaultScope` can corrupt any subset of
members. A bank of one member with the default ALL scope is
bit-identical to the pre-redundancy single-IMU pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.faults import FaultSpec
from repro.core.injector import SensorFaultInjector
from repro.redundancy.voter import VoterParams
from repro.sensors.imu import Imu, ImuParams, ImuSample

#: Seed stride between bank members. Member 0 keeps the base seed
#: exactly (baseline bit-identity); a large prime stride keeps the
#: other members' streams far from every seed the campaign derives
#: (mission seeds advance by 1009, sensor seeds by 1).
MEMBER_SEED_STRIDE = 100_003


@dataclass(frozen=True)
class RedundancyConfig:
    """Vehicle-level redundancy settings.

    Disabled by default: the stock vehicle is the paper's single-IMU
    platform and produces bit-identical results to the pre-redundancy
    code. Enabling it instantiates ``num_members`` IMUs plus the voter
    and switchover machinery.
    """

    enabled: bool = False
    num_members: int = 3
    voter: VoterParams = field(default_factory=VoterParams)

    def __post_init__(self) -> None:
        if self.num_members < 1:
            raise ValueError("num_members must be >= 1")
        if self.enabled and self.num_members < 2:
            raise ValueError("redundancy needs at least 2 bank members")


class ImuBank:
    """``num_members`` independently seeded IMUs, each with its own injector."""

    def __init__(
        self,
        fault: FaultSpec | None,
        num_members: int,
        base_seed: int,
        params: ImuParams | None = None,
    ) -> None:
        if num_members < 1:
            raise ValueError("num_members must be >= 1")
        self.num_members = num_members
        self.members: list[Imu] = [
            Imu(params, seed=base_seed + k * MEMBER_SEED_STRIDE)
            for k in range(num_members)
        ]
        self.set_fault(fault)

    def set_fault(self, fault: FaultSpec | None) -> None:
        """Put a fresh injector for ``fault`` in front of every member.

        The members (and their noise generators) are untouched, so a
        vehicle forked before the fault's onset keeps the trunk's sensor
        streams and only swaps what will corrupt them.
        """
        self.injectors: list[SensorFaultInjector] = [
            SensorFaultInjector(
                fault, imu.accel_range, imu.gyro_range, member_index=k
            )
            for k, imu in enumerate(self.members)
        ]

    @property
    def accel_range(self) -> float:
        return self.members[0].accel_range

    @property
    def gyro_range(self) -> float:
        return self.members[0].gyro_range

    def sample(
        self,
        time_s: float,
        specific_force_body: np.ndarray,
        angular_rate_body: np.ndarray,
        dt: float,
    ) -> list[ImuSample]:
        """One measurement per member, each through its own injector."""
        return [
            injector.apply(
                imu.sample(time_s, specific_force_body, angular_rate_body, dt)
            )
            for imu, injector in zip(self.members, self.injectors)
        ]

    def corrupted_members(self, time_s: float) -> tuple[int, ...]:
        """Indices whose stream is corrupted at ``time_s`` (ground truth,
        for tests and analysis — the flight stack never sees this)."""
        return tuple(
            k
            for k, injector in enumerate(self.injectors)
            if injector.corrupts(time_s)
        )
