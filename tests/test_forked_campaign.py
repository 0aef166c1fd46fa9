"""Forked campaign execution equals fresh execution, case for case.

``run_experiment`` forks every case from its cell's cached gold trunk.
The oracle is the vehicle flown anew:
``UavSystem(plan, vehicle_config(config), spec.fault).run()``. Rows must
be equal field for field, and with ``obs_dir`` the black-box files must
be equal byte for byte.
"""

import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.campaign import (
    CampaignConfig,
    case_result,
    run_campaign,
    trunk,
    vehicle_config,
)
from repro.core.experiments import build_experiment_matrix
from repro.core.faults import FaultScope, FaultSpec, FaultTarget, FaultType
from repro.missions.valencia import valencia_missions
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.system import UavSystem


def fresh_row(config, spec, obs_dir=None):
    """One case flown anew, as a campaign row."""
    plan = {p.mission_id: p for p in valencia_missions(scale=config.scale)}[
        spec.mission_id
    ]
    obs = None
    if obs_dir is not None:
        obs = Observer(
            registry=MetricsRegistry(),
            blackbox_dir=obs_dir,
            blackbox_name=f"blackbox_exp{spec.experiment_id:04d}.json",
        )
    system = UavSystem(plan, vehicle_config(config), spec.fault, obs=obs)
    return case_result(spec, system.run(), mitigated=config.mitigation)


def fresh_rows(config, specs, obs_dir=None, workers=1):
    if workers == 1:
        return [fresh_row(config, spec, obs_dir) for spec in specs]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fresh_row, [config] * len(specs), specs))


def matrix(config):
    return build_experiment_matrix(
        mission_ids=list(config.mission_ids),
        durations_s=config.durations_s,
        injection_time_s=config.effective_injection_time_s,
        base_seed=config.base_seed,
        include_gold=config.include_gold,
        scope=config.fault_scope,
    )


def test_every_case_of_a_mission_matches_fresh():
    """Gold plus 7 types x 3 targets x 4 durations on one mission.

    Both sides fly on two worker processes to keep the 85 fresh flights
    within a minute; each forked worker builds its own trunk.
    """
    config = CampaignConfig(
        scale=0.01, mission_ids=(2,), injection_time_s=12.0, workers=2
    )
    specs = matrix(config)
    assert len(specs) == 85
    forked = run_campaign(config, specs=specs).results
    assert forked == fresh_rows(config, specs, workers=2)
    # The slice exercises more than one verdict.
    assert len({r.outcome for r in forked}) >= 2


def test_resume_test_config_matches_fresh():
    """The injection_time_s=15 config the checkpoint/resume tests fly."""
    config = CampaignConfig(
        scale=0.1, mission_ids=(2,), durations_s=(2.0,), injection_time_s=15.0
    )
    specs = build_experiment_matrix(
        mission_ids=[2],
        durations_s=(2.0,),
        injection_time_s=15.0,
        fault_types=(FaultType.ZEROS, FaultType.MIN),
        targets=(FaultTarget.GYRO,),
        include_gold=True,
    )
    assert run_campaign(config, specs=specs).results == fresh_rows(config, specs)


def test_injection_at_takeoff_matches_fresh():
    """Onset 0: the trunk is the unstepped vehicle, forked at t = 0."""
    config = CampaignConfig(
        scale=0.01, mission_ids=(1,), durations_s=(2.0,), injection_time_s=0.0
    )
    specs = build_experiment_matrix(
        mission_ids=[1],
        durations_s=(2.0,),
        injection_time_s=0.0,
        fault_types=(FaultType.MAX,),
        targets=(FaultTarget.ACCEL,),
        include_gold=False,
    )
    assert run_campaign(config, specs=specs).results == fresh_rows(config, specs)


def test_observed_mitigated_slice_matches_fresh_byte_for_byte(tmp_path):
    config = CampaignConfig(
        scale=0.02,
        mission_ids=(2,),
        durations_s=(5.0,),
        injection_time_s=8.0,
        fault_scope=FaultScope.PRIMARY_ONLY,
        mitigation=True,
    )
    specs = build_experiment_matrix(
        mission_ids=[2],
        durations_s=(5.0,),
        injection_time_s=8.0,
        fault_types=(FaultType.MAX, FaultType.RANDOM, FaultType.FREEZE),
        targets=(FaultTarget.GYRO, FaultTarget.IMU),
        include_gold=True,
        scope=FaultScope.PRIMARY_ONLY,
    )
    forked_dir, fresh_dir = tmp_path / "forked", tmp_path / "fresh"
    forked = run_campaign(
        dataclasses.replace(config, obs_dir=str(forked_dir)), specs=specs
    ).results
    fresh = fresh_rows(config, specs, obs_dir=fresh_dir)
    strip = [dataclasses.replace(r, blackbox_path=None) for r in forked]
    assert strip == [dataclasses.replace(r, blackbox_path=None) for r in fresh]
    dumped = sorted(p.name for p in forked_dir.iterdir())
    assert dumped, "slice needs at least one non-completed case"
    assert dumped == sorted(p.name for p in fresh_dir.iterdir())
    for name in dumped:
        assert (forked_dir / name).read_bytes() == (fresh_dir / name).read_bytes()
    for row in forked:
        if row.blackbox_path is not None:
            assert Path(row.blackbox_path).parent == forked_dir


def test_trunk_is_cached_and_left_untouched_by_forks():
    config = CampaignConfig(scale=0.01, mission_ids=(1,), injection_time_s=5.0)
    first = trunk(config, 1, 5.0)
    assert trunk(config, 1, 5.0) is first
    before = first.physics.time_s
    fault = FaultSpec(FaultType.RANDOM, FaultTarget.IMU, 5.0, 2.0, seed=7)
    first.fork(fault).run()
    assert first.physics.time_s == before
    assert first.fault is None and first.injector.spec is None
    # Another onset is another trunk.
    assert trunk(config, 1, 6.0) is not first


def test_fork_refuses_a_trunk_that_has_reached_the_onset():
    config = CampaignConfig(scale=0.01, mission_ids=(1,), injection_time_s=5.0)
    stem = trunk(config, 1, 5.0)
    late = FaultSpec(FaultType.ZEROS, FaultTarget.GYRO, stem.physics.time_s, 2.0)
    with pytest.raises(ValueError, match="already have been seen"):
        stem.fork(late)
