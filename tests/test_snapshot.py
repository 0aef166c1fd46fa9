"""Snapshots of a flying vehicle are faithful, and the pre-fault prefix is shared.

Forked campaign execution rests on two facts, both checked here:

* a ``deepcopy`` or pickle round-trip of a mid-flight ``UavSystem``
  flies on bit for bit like the original (numpy views that the hot loop
  writes through must come back as views with the same layout);
* every case of a campaign cell flies the gold run's trajectory up to
  the split point: same per-step fingerprints, same generator states,
  and (with obs on) the same black-box rows and trace events.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, trunk, vehicle_config
from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.core.injector import SensorFaultInjector
from repro.missions.valencia import valencia_missions
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.perf.trace import run_traced, step_fingerprint
from repro.redundancy import RedundancyConfig
from repro.system import SystemConfig, UavSystem

_LEAVES = (int, float, str, bytes, bool, type(None), np.random.Generator)


def walk(obj, path="system", seen=None):
    """Yield ``(path, value)`` for every object reachable from ``obj``."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield path, obj
    if isinstance(obj, (np.ndarray, *_LEAVES)):
        return
    if isinstance(obj, dict):
        items = ((f"{path}[{k!r}]", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        attrs = dict(getattr(obj, "__dict__", {}))
        for name in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, name):
                attrs[name] = getattr(obj, name)
        items = ((f"{path}.{k}", v) for k, v in attrs.items())
    for sub_path, value in items:
        yield from walk(value, sub_path, seen)


def arrays(system):
    return {p: v for p, v in walk(system) if isinstance(v, np.ndarray)}


def generator_states(system):
    return {
        p: v.bit_generator.state
        for p, v in walk(system)
        if isinstance(v, np.random.Generator)
    }


def mid_flight(kind, steps=800):
    """A started vehicle ``steps`` ticks into mission 4 at scale 0.1."""
    plan = valencia_missions(scale=0.1)[3]
    config, obs = SystemConfig(seed=0), None
    if kind == "bank":
        config = SystemConfig(seed=0, redundancy=RedundancyConfig(enabled=True))
    if kind == "obs":
        obs = Observer(registry=MetricsRegistry())
    # The fault opens after the snapshot, so the copies also have to
    # carry the injectors' generators faithfully.
    fault = FaultSpec(FaultType.NOISE, FaultTarget.IMU, 10.0, 2.0, seed=5)
    system = UavSystem(plan, config, fault, obs=obs)
    system.start()
    system.advance(steps * system.config.physics_dt_s)
    return system


COPIES = {
    "deepcopy": copy.deepcopy,
    "pickle": lambda s: pickle.loads(pickle.dumps(s)),
}


@pytest.mark.parametrize("kind", ["single", "bank", "obs"])
def test_copies_fly_on_bit_for_bit(kind):
    system = mid_flight(kind)
    copies = {name: make(system) for name, make in COPIES.items()}
    expected = run_traced(system, n_steps=1000)["final_digest"]
    for name, twin in copies.items():
        assert run_traced(twin, n_steps=1000)["final_digest"] == expected, name


@pytest.mark.parametrize("kind", ["single", "bank", "obs"])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_keep_every_view_a_view(kind, how):
    """A view in the original is a view with the same strides in the copy,
    and still shares memory with the copy of the array it views."""
    system = mid_flight(kind, steps=200)
    twin = COPIES[how](system)
    original, copied = arrays(system), arrays(twin)
    path_of = {id(a): p for p, a in original.items()}
    views = {p: a for p, a in original.items() if a.base is not None}
    assert views, "the vehicle holds no views; the test checks nothing"
    for path, view in views.items():
        assert path in copied, path
        twin_view = copied[path]
        assert twin_view.base is not None, f"{path} lost its base"
        assert twin_view.strides == view.strides, path
        base_path = path_of.get(id(view.base))
        if base_path is not None:
            assert np.shares_memory(twin_view, copied[base_path]), path


# -- prefix identity ---------------------------------------------------

ALL_FAULTS = [
    (fault_type, target) for fault_type in FaultType for target in FaultTarget
]


def stepped_prefix(system, until_s):
    """Start ``system`` and step it to ``until_s``; SHA-256 of its steps."""
    hasher = hashlib.sha256()
    system.start()
    while system.physics.time_s < until_s:
        system.step()
        hasher.update(step_fingerprint(system))
    return hasher.hexdigest()


def fresh_injector_states(system):
    """Generator states of injectors built for the same fault, unused."""
    states = {}
    for k, imu in enumerate(system.imu_bank.members):
        unused = SensorFaultInjector(
            system.fault, imu.accel_range, imu.gyro_range, member_index=k
        )
        for path, state in generator_states(unused).items():
            states[path.replace("system", f"system.imu_bank.injectors[{k}]", 1)] = state
    return states


PREFIX_CELLS = {
    # Single IMU, the paper's ALL scope.
    "single_all": (CampaignConfig(scale=0.1, injection_time_s=6.0), 3, FaultScope.ALL),
    # Mitigated 3-IMU bank, primary-only faults, black box and trace on.
    "bank_primary_obs": (
        CampaignConfig(
            scale=0.1,
            injection_time_s=6.0,
            mitigation=True,
            fault_scope=FaultScope.PRIMARY_ONLY,
            obs_dir="unused",
        ),
        3,
        FaultScope.PRIMARY_ONLY,
    ),
    # Seed 3, where the gold run trips the gyro-rate detector in nominal
    # flight (isolation starts at 11.34 s at this scale): the prefix
    # includes the failsafe's isolation window.
    "seed3_detector": (
        CampaignConfig(scale=0.02, injection_time_s=12.0, base_seed=3),
        3,
        FaultScope.ALL,
    ),
}


@pytest.mark.parametrize("cell", sorted(PREFIX_CELLS))
def test_every_case_shares_the_gold_prefix(cell):
    config, mission_id, scope = PREFIX_CELLS[cell]
    onset = config.effective_injection_time_s
    stem = trunk(config, mission_id, onset)
    split = stem.physics.time_s
    plan = stem.plan

    def fresh(fault):
        obs = None
        if config.obs_dir is not None:
            obs = Observer(registry=MetricsRegistry(), blackbox_dir=config.obs_dir)
        return UavSystem(plan, vehicle_config(config), fault, obs=obs)

    gold = fresh(None)
    gold_digest = stepped_prefix(gold, split)
    assert gold.physics.time_s == split
    assert step_fingerprint(gold) == step_fingerprint(stem)
    gold_states = generator_states(gold)
    assert gold_states == generator_states(stem)
    if cell == "seed3_detector":
        assert stem.failsafe.detection_time_s is not None

    for fault_type, target in ALL_FAULTS:
        fault = FaultSpec(fault_type, target, onset, 30.0, seed=11, scope=scope)
        case = fresh(fault)
        label = fault.label
        assert stepped_prefix(case, split) == gold_digest, label
        states = generator_states(case)
        injector_paths = {p for p in states if ".injectors[" in p}
        assert {p: s for p, s in states.items() if p not in injector_paths} == (
            gold_states
        ), label
        assert {p: states[p] for p in injector_paths} == fresh_injector_states(
            case
        ), label
        if config.obs_dir is not None:
            forked = stem.fork(fault)
            assert [e.to_dict() for e in case.obs.trace.events] == [
                e.to_dict() for e in forked.obs.trace.events
            ], label
            assert np.array_equal(case.obs.blackbox._data, forked.obs.blackbox._data)
            assert case.obs.blackbox.total_recorded == forked.obs.blackbox.total_recorded
