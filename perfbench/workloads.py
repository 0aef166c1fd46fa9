"""The benchmark's workloads: campaign configs and case slices from a seed.

Every workload runs serially (``workers=1``) at scale 0.15 through the
public campaign API. The seed becomes ``CampaignConfig.base_seed``; the
program sees only the generated specs. Building a workload is the set-up
that ``setup_s`` times: ``import repro``, ``build_experiment_matrix`` and
``valencia_missions``.

Why each workload, and which layers it loads:

* ``paper_matrix`` -- the paper's own traffic: mission 3, gold plus every
  FaultType x FaultTarget once, the paper's four durations assigned in
  rotation. All three verdict regimes appear, and every faulty case
  shares the bit-identical 20 s pre-fault prefix of the gold run, so a
  snapshot-and-fork engine shows here. Single IMU, obs off.
* ``gold_fleet`` -- gold runs of three missions: the slowest (5 km/h,
  straight), a zig-zag (12 km/h) and the fastest (25 km/h, with a turn).
  Pure nominal cruise with no shared prefix between cases: per-stage
  speed-ups show undiluted, and snapshot-and-fork must show no change.
* ``redundancy_obs`` -- mission 2, faults on the primary IMU only, with
  the 3-IMU bank and voter, per-case black boxes (``obs_dir``), a
  campaign-level Observer and an fsync'd checkpoint journal; every 16th
  faulty case of the matrix (16 is coprime to the 7 fault types and 3
  targets, so the slice mixes them). The only workload where the
  redundancy, obs and core.io layers do real work.

The slices keep the benchmark's 70 runs (4 + 22 per workload) within
3420 s when the host runs at its slowest seen speed (about 1700
simulation steps per second). One pass then takes about 60, 15 and 25
host seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.campaign import CampaignConfig
from repro.core.experiments import ExperimentSpec, build_experiment_matrix
from repro.core.faults import FaultScope
from repro.missions.valencia import valencia_missions

#: Geometry scale of every workload (gold runs last about 85 simulated s).
SCALE = 0.15

#: Missions of ``gold_fleet``: 5, 12 and 25 km/h; straight, zig-zag and
#: turning geometry.
GOLD_MISSIONS = (1, 5, 10)

#: Every n-th case of mission 2's 84 faulty cases for ``redundancy_obs``.
REDUNDANCY_STRIDE = 16

NAMES = ("paper_matrix", "gold_fleet", "redundancy_obs")


@dataclass(frozen=True)
class Workload:
    name: str
    config: CampaignConfig
    specs: list[ExperimentSpec]
    #: Fly with black boxes, a campaign Observer and a checkpoint journal.
    observed: bool = False


def build(name: str, seed: int) -> Workload:
    """The workload's campaign config and case list for ``seed``."""
    if name == "paper_matrix":
        config = CampaignConfig(scale=SCALE, mission_ids=(3,), base_seed=seed)
        specs = _matrix(config)
        gold = [s for s in specs if s.is_gold]
        by_cell: dict[tuple, list[ExperimentSpec]] = {}
        for spec in specs:
            if not spec.is_gold:
                by_cell.setdefault((spec.fault.target, spec.fault.fault_type), []).append(spec)
        # One case per type x target; durations rotate 2/5/10/30 s.
        chosen = [cell[k % len(cell)] for k, cell in enumerate(by_cell.values())]
        specs = gold + chosen
        observed = False
    elif name == "gold_fleet":
        config = CampaignConfig(scale=SCALE, mission_ids=GOLD_MISSIONS, base_seed=seed)
        specs = [s for s in _matrix(config) if s.is_gold]
        observed = False
    elif name == "redundancy_obs":
        config = CampaignConfig(
            scale=SCALE,
            mission_ids=(2,),
            base_seed=seed,
            include_gold=False,
            fault_scope=FaultScope.PRIMARY_ONLY,
            mitigation=True,
        )
        specs = _matrix(config)[REDUNDANCY_STRIDE - 1 :: REDUNDANCY_STRIDE]
        observed = True
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    # The mission plans are the rest of the inputs set-up builds.
    # run_experiment builds its own per case, so only set-up time needs this.
    valencia_missions(scale=SCALE)
    return Workload(name=name, config=config, specs=specs, observed=observed)


def _matrix(config: CampaignConfig) -> list[ExperimentSpec]:
    """The full case matrix ``run_campaign`` would build for ``config``."""
    return build_experiment_matrix(
        mission_ids=list(config.mission_ids),
        durations_s=config.durations_s,
        injection_time_s=config.effective_injection_time_s,
        base_seed=config.base_seed,
        include_gold=config.include_gold,
        scope=config.fault_scope,
    )
