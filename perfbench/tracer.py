"""Per-layer tracing from outside the program: class-level method wrappers.

:class:`Tracer` replaces public methods on the program's classes (and
``repro.core.campaign.run_experiment``) with timing wrappers for the
duration of a ``with`` block, then puts the original objects back.
Nothing inside ``repro`` knows it is traced, so the traced run flies the
same code; ``run.py`` checks that its result rows are bit-identical to
the untraced run's.

Each wrapper records, per layer name, the call count, the inclusive
time and the time its child spans covered (self time = inclusive minus
children). Per-step stages are kept as these aggregates only; coarse
spans (one per case, vehicle build and vehicle run) are also kept whole,
with their parent and case id, and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from typing import Any, Callable

#: (layer name, import path of the owner, attribute names). The owner is
#: a class, or the ``repro.core.campaign`` module for ``run_experiment``
#: (``run_campaign`` looks it up there on every call).
LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("campaign.case", "repro.core.campaign", ("run_experiment",)),
    ("system.build", "repro.system.UavSystem", ("__init__",)),
    ("system.run", "repro.system.UavSystem", ("run",)),
    ("system.step", "repro.system.UavSystem", ("step",)),
    ("sensors", "repro.redundancy.bank.ImuBank", ("sample",)),
    ("sensors", "repro.sensors.gps.GpsModel", ("maybe_sample",)),
    ("sensors", "repro.sensors.barometer.Barometer", ("maybe_sample",)),
    ("sensors", "repro.sensors.magnetometer.Magnetometer", ("maybe_sample",)),
    ("redundancy", "repro.redundancy.recovery.RedundancyManager", ("select",)),
    ("estimation.predict", "repro.estimation.ekf.Ekf", ("predict",)),
    (
        "estimation.update",
        "repro.estimation.ekf.Ekf",
        ("update_gps", "update_baro", "update_mag_yaw", "update_gravity_tilt"),
    ),
    ("flightstack", "repro.flightstack.failsafe.FailsafeEngine", ("update",)),
    ("flightstack", "repro.flightstack.commander.Commander", ("update",)),
    ("flightstack", "repro.flightstack.crash.CrashDetector", ("assess_contact",)),
    (
        "control.position",
        "repro.control.position.PositionController",
        ("velocity_setpoint", "acceleration_setpoint", "thrust_and_attitude"),
    ),
    ("control.attitude", "repro.control.attitude.AttitudeController", ("rate_setpoint",)),
    ("control.rate", "repro.control.rate.RateController", ("torque_command",)),
    ("control.mixer", "repro.control.mixer.Mixer", ("mix",)),
    ("sim.physics", "repro.sim.dynamics.QuadrotorPhysics", ("step",)),
    ("uspace", "repro.uspace.monitor.BubbleMonitor", ("due", "maybe_track")),
    ("telemetry", "repro.telemetry.recorder.FlightRecorder", ("due", "maybe_record")),
    ("obs.on_step", "repro.obs.observer.Observer", ("on_step",)),
    ("obs.run_end", "repro.obs.observer.Observer", ("on_run_end",)),
    ("io.journal_append", "repro.core.io.CampaignJournal", ("append",)),
)

#: Layers whose every span is kept (not only aggregated).
COARSE = frozenset({"campaign.case", "system.build", "system.run"})

#: Stands for "no attribute of that name on the owner" in snapshots.
_MISSING = object()


def _resolve(path: str) -> Any:
    """The module or class named by a dotted import path."""
    module_path, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module_path), attr)


class LayerStats:
    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Install the wrappers on enter, restore the originals on exit.

    ``clock`` returns host seconds; pass :meth:`RefClock.now` so that
    calibration probes firing inside a span are not charged to it.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name, _, _ in LAYERS}
        self.spans: list[dict[str, Any]] = []
        self.switchovers = 0
        self._stack: list[list[float]] = []
        self._span_ids: list[int] = []
        self._case_id: int | None = None
        self._originals: list[tuple[Any, str, Any, bool]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, owner_path, attrs in LAYERS:
                owner = _resolve(owner_path)
                for attr in attrs:
                    own = attr in vars(owner)
                    original = getattr(owner, attr) if not own else vars(owner)[attr]
                    self._originals.append((owner, attr, original, own))
                    setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attr, original, own in reversed(self._originals):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._originals.clear()

    @staticmethod
    def verify_restored(snapshot: dict[tuple[str, str], Any]) -> list[str]:
        """Names whose current object is not the one in ``snapshot``."""
        return [
            f"{path}.{attr}"
            for (path, attr), original in snapshot.items()
            if vars(_resolve(path)).get(attr, _MISSING) is not original
        ]

    @staticmethod
    def snapshot() -> dict[tuple[str, str], Any]:
        """The objects the wrappers will replace, for :meth:`verify_restored`."""
        return {
            (path, attr): vars(_resolve(path)).get(attr, _MISSING)
            for _, path, attrs in LAYERS
            for attr in attrs
        }

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stats = self.stats[name]
        stack = self._stack
        clock = self.clock
        if name == "redundancy":

            @functools.wraps(fn)
            def select(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                stack.append([0.0])
                try:
                    selection = fn(*args, **kwargs)
                finally:
                    self._close(stats, start, stack.pop()[0])
                if selection.switched:
                    self.switchovers += 1
                return selection

            return select
        if name in COARSE:

            @functools.wraps(fn)
            def coarse(*args: Any, **kwargs: Any) -> Any:
                if name == "campaign.case":
                    self._case_id = args[0].experiment_id
                span_id = len(self.spans)
                parent = self._span_ids[-1] if self._span_ids else None
                self._span_ids.append(span_id)
                self.spans.append(
                    {"name": name, "id": span_id, "parent": parent, "case": self._case_id}
                )
                start = clock()
                stack.append([0.0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = self._close(stats, start, stack.pop()[0])
                    self._span_ids.pop()
                    self.spans[span_id].update(start_s=start, end_s=end)

            return coarse

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append([0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stats, start, stack.pop()[0])

        return span

    def _close(self, stats: LayerStats, start: float, child_s: float) -> float:
        end = self.clock()
        elapsed = end - start
        stats.calls += 1
        stats.total_s += elapsed
        stats.child_s += child_s
        if self._stack:
            self._stack[-1][0] += elapsed
        return end

