"""Reference-speed clock: host time rescaled by a frozen calibration kernel.

The host this benchmark runs on changes speed from second to second
(other tenants, frequency scaling), and by far more than the effects a
performance change wants to show. :class:`RefClock` measures that speed
while the workload runs: a ``SIGALRM`` interval timer fires
:func:`calibration_kernel` every :data:`INTERVAL_S` seconds inside the
benchmark process, and each interval's host seconds are scaled by the
kernel's rate at both ends of the interval (their mean) over the
committed reference rate. The kernel's own time is excluded.

The host's speed changes within a fraction of a second, so the probes
are short and frequent: on a 2-vCPU Xeon VM, 1 ms probes every 20 ms
tracked the simulator's step rate with a correlation of 0.99 over
0.5 s windows (ratio CV 3 %, against 20 % for the raw step rate), while
10 ms probes every 0.5 s reached only 0.6. The
program under test uses no signals, so the probe needs no hook inside
it and cannot be bypassed by a change to how the program runs.

This file is frozen: ``run.py`` refuses to run when its SHA-256 differs
from the one committed in ``calibration.json``, so a change to the
normaliser cannot pass silently. Changing it means re-measuring the
reference rate and committing both.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: Kernel iterations per probe (about 1 ms on the reference host).
ITERATIONS = 100

#: Seconds between probes.
INTERVAL_S = 0.02


def calibration_kernel(iterations: int = ITERATIONS) -> float:
    """Fixed work with the simulator's mix: scalar math and tiny NumPy ops.

    Each iteration integrates a quaternion by a body rate in Python
    floats (as the attitude and rate loops do) and runs a handful of
    3-vector ufuncs with ``out=`` buffers, a dot product and a clamp (as
    the EKF, mixer and physics do). Returns a checksum so the work
    cannot be skipped.
    """
    qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0
    vel = np.zeros(3)
    acc = np.array([0.02, -0.01, 9.81])
    tmp = np.empty(3)
    lo = np.full(3, -5.0)
    hi = np.full(3, 5.0)
    checksum = 0.0
    dt = 0.01
    for i in range(iterations):
        wx = 0.3 * math.sin(0.01 * i)
        wy = 0.2 * math.cos(0.013 * i)
        wz = 0.1
        dw = 0.5 * dt * (-qx * wx - qy * wy - qz * wz)
        dx = 0.5 * dt * (qw * wx + qy * wz - qz * wy)
        dy = 0.5 * dt * (qw * wy - qx * wz + qz * wx)
        dz = 0.5 * dt * (qw * wz + qx * wy - qy * wx)
        qw, qx, qy, qz = qw + dw, qx + dx, qy + dy, qz + dz
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
        qw, qx, qy, qz = qw / norm, qx / norm, qy / norm, qz / norm
        tilt = math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * (qx * qx + qy * qy))))
        np.multiply(acc, dt, out=tmp)
        np.add(vel, tmp, out=vel)
        np.maximum(vel, lo, out=vel)
        np.minimum(vel, hi, out=vel)
        speed = math.sqrt(float(vel @ vel))
        checksum += tilt + speed
    return checksum


class RefClock:
    """Host seconds between ``start`` and ``stop``, at reference speed.

    ``ref_s`` is the normalised time, ``raw_s`` the host time with the
    probes taken out, and ``rates`` the kernel rates (iterations per
    host second) the probes measured. ``origin`` (a ``time.monotonic``
    reading, possibly taken by another process) starts the first
    interval before ``start`` is called; that interval is scaled by the
    first probe's rate alone.
    """

    def __init__(self, reference_rate: float) -> None:
        if reference_rate <= 0.0:
            raise ValueError("reference_rate must be positive")
        self.reference_rate = reference_rate
        self.ref_s = 0.0
        self.raw_s = 0.0
        self.probe_s = 0.0
        self.rates: list[float] = []
        self._last_end = 0.0
        self._last_rate = 0.0
        self._running = False
        self._busy = False
        self._previous_handler = None

    def now(self) -> float:
        """Monotonic host seconds with every probe so far taken out."""
        return time.monotonic() - self.probe_s

    def start(self, origin: float | None = None) -> None:
        if self._running:
            raise RuntimeError("RefClock already running")
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        start, end, rate = self._measure()
        if origin is not None:
            head = start - origin
            self.raw_s += head
            self.ref_s += head * rate / self.reference_rate
        self._last_rate = rate
        self._last_end = end
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if not self._running:
            raise RuntimeError("RefClock not running")
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False
        self._probe()

    def _on_alarm(self, signum: int, frame: object) -> None:
        if not self._busy:
            self._probe()

    def _measure(self) -> tuple[float, float, float]:
        """Run the kernel once: its start and end time, and its rate.

        Only the kernel's own interval counts as probe time, so that
        ``raw_s`` and :meth:`now` agree on every other instant.
        """
        start = time.monotonic()
        calibration_kernel()
        end = time.monotonic()
        self.probe_s += end - start
        rate = ITERATIONS / (end - start)
        self.rates.append(rate)
        return start, end, rate

    def _probe(self) -> None:
        self._busy = True
        try:
            start, end, rate = self._measure()
            host = start - self._last_end
            self.raw_s += host
            self.ref_s += host * 0.5 * (self._last_rate + rate) / self.reference_rate
            self._last_rate = rate
            self._last_end = end
        finally:
            self._busy = False


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
