"""Campaign execution: run experiment matrices over the simulator.

A campaign is configured once (:class:`CampaignConfig`), after which
:func:`run_campaign` executes every case — serially or across worker
processes (each case is fully independent and deterministically
seeded, so parallelism cannot change results).

The runner is *resilient*: a case that raises, hangs past its
wall-clock budget, or loses its worker process is retried under a
:class:`~repro.core.resilience.RetryPolicy` and, once retries are
exhausted, degrades to a structured harness-error record instead of
aborting the matrix. With ``checkpoint_path`` every completed case is
journalled to a crash-safe JSONL file that ``resume=True`` picks up
after a crash or kill; a resumed campaign is bit-identical to an
uninterrupted one with the same config and seed.

The ``scale`` knob shrinks mission geometry (and proportionally the
injection time) so the full 850-case matrix can run in CI-sized time
budgets; ``scale=1.0`` is the paper-scale scenario with ~491 s gold
runs and injection at 90 s.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.core.experiments import (
    PAPER_DURATIONS_S,
    PAPER_INJECTION_TIME_S,
    ExperimentSpec,
    build_experiment_matrix,
)
from repro.core.faults import FaultScope
from repro.core.io import CampaignJournal
from repro.core.resilience import (
    NO_RETRY,
    CaseTimeoutError,
    EtaEstimator,
    RetryPolicy,
    campaign_fingerprint,
    run_with_timeout,
)
from repro.core.results import CampaignResult, ExperimentResult, harness_error_result
from repro.missions.valencia import valencia_missions
from repro.obs.observer import Observer
from repro.obs.registry import MetricsRegistry
from repro.redundancy import RedundancyConfig
from repro.system import MissionResult, SystemConfig, UavSystem

Runner = Callable[["ExperimentSpec", "CampaignConfig"], ExperimentResult]


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of one fault-injection campaign.

    Attributes:
        scale: horizontal geometry multiplier for the Valencia missions.
        injection_time_s: fault start time; ``None`` scales the paper's
            90 s mark by ``scale`` (with a floor that keeps the
            injection safely after the takeoff transient).
        durations_s: injection durations to sweep (paper: 2/5/10/30 s).
        mission_ids: subset of missions to run (default: all ten).
        base_seed: root seed; campaigns with equal configs are
            bit-identical.
        workers: process count for parallel execution (1 = serial).
        fault_scope: which bank members the injected faults corrupt.
            The default ``ALL`` is the paper's model (every redundant
            sensor sees the fault) and keeps results bit-identical to
            the pre-redundancy code.
        mitigation: fly every case with the redundant IMU bank enabled
            (voting + switchover + degraded fallback).
        imu_redundancy: bank size when ``mitigation`` is on.
        obs_dir: directory for per-case black-box dumps. When set, every
            case flies with an :class:`~repro.obs.observer.Observer` and
            non-completed runs leave a ``blackbox_exp<id>.json`` post
            mortem there (the path rides on the result row). A plain
            string so the config pickles to worker processes; excluded
            from the campaign fingerprint because observability cannot
            change results.
    """

    scale: float = 1.0
    injection_time_s: float | None = None
    durations_s: tuple[float, ...] = PAPER_DURATIONS_S
    mission_ids: tuple[int, ...] = tuple(range(1, 11))
    base_seed: int = 0
    include_gold: bool = True
    workers: int = 1
    fault_scope: FaultScope = FaultScope.ALL
    mitigation: bool = False
    imu_redundancy: int = 3
    obs_dir: str | None = None

    def __post_init__(self) -> None:
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.imu_redundancy < 1:
            raise ValueError("imu_redundancy must be >= 1")
        if self.mitigation and self.imu_redundancy < 2:
            raise ValueError("mitigation requires imu_redundancy >= 2")
        if not self.durations_s:
            raise ValueError("durations_s must not be empty")
        for duration in self.durations_s:
            if duration <= 0.0:
                raise ValueError(
                    f"durations_s must be positive, got {duration!r}"
                )
        if not self.mission_ids:
            raise ValueError("mission_ids must not be empty")
        for mission_id in self.mission_ids:
            if not 1 <= mission_id <= 10:
                raise ValueError(
                    f"mission_ids must be within 1-10 (the Valencia "
                    f"scenario has ten missions), got {mission_id!r}"
                )
        if self.injection_time_s is not None and self.injection_time_s < 0.0:
            raise ValueError(
                f"injection_time_s must be non-negative, got "
                f"{self.injection_time_s!r}"
            )

    @property
    def effective_injection_time_s(self) -> float:
        """Injection time after scaling (never inside the takeoff)."""
        if self.injection_time_s is not None:
            return self.injection_time_s
        return max(20.0, PAPER_INJECTION_TIME_S * self.scale)


def vehicle_config(config: CampaignConfig) -> SystemConfig:
    """The vehicle every case of ``config`` flies (faults aside)."""
    return SystemConfig(
        seed=config.base_seed,
        redundancy=RedundancyConfig(
            enabled=config.mitigation, num_members=config.imu_redundancy
        ),
    )


#: Trunks kept per process. The matrix cycles through the missions
#: case by case, so a campaign needs one trunk per mission at once (ten
#: for the Valencia scenario). A trunk holds a few hundred KB.
TRUNK_CACHE_SIZE = 16

_trunks: OrderedDict[tuple, UavSystem] = OrderedDict()
# Serial runs with a timeout fly each case on a watchdog thread, and an
# abandoned case may still be building a trunk when the next one starts.
_trunks_lock = threading.Lock()


def trunk(config: CampaignConfig, mission_id: int, onset_s: float) -> UavSystem:
    """The fault-free flight of ``mission_id``, stopped just before ``onset_s``.

    Every case of a campaign cell flies this prefix bit for bit: the
    vehicle is seeded from ``base_seed`` alone and an injector draws
    nothing before its window opens. So a campaign flies it once per
    process and caches it; cases fork from it (:meth:`UavSystem.fork`).
    The key holds everything that shapes the prefix.
    """
    key = (
        config.scale,
        mission_id,
        config.base_seed,
        config.mitigation,
        config.imu_redundancy,
        onset_s,
        config.obs_dir,
    )
    with _trunks_lock:
        cached = _trunks.get(key)
        if cached is not None:
            _trunks.move_to_end(key)
            return cached
    plan = {p.mission_id: p for p in valencia_missions(scale=config.scale)}[mission_id]
    obs = None
    if config.obs_dir is not None:
        # Every fork copies this private registry: cases may run in
        # worker processes, so per-case metrics cannot meaningfully
        # aggregate into the parent's registry anyway.
        obs = Observer(registry=MetricsRegistry(), blackbox_dir=config.obs_dir)
    system = UavSystem(plan, config=vehicle_config(config), obs=obs)
    system.start()
    # Split rule: the injector reads the window at a step's pre-step
    # time t and the observer at its post-step time t + dt. Stopping a
    # tick and a half short of the onset keeps both strictly outside it.
    dt = system.config.physics_dt_s
    system.advance(min(onset_s - 1.5 * dt, system.time_cap_s()))
    with _trunks_lock:
        _trunks[key] = system
        while len(_trunks) > TRUNK_CACHE_SIZE:
            _trunks.popitem(last=False)
    return system


def run_experiment(spec: ExperimentSpec, config: CampaignConfig) -> ExperimentResult:
    """Execute a single experiment case and reduce it to its metrics.

    The case forks from its cell's trunk and flies on from just before
    the injection; the result is bit-identical to flying it fresh
    (``UavSystem(plan, vehicle_config(config), spec.fault).run()``).
    The gold case forks at the campaign's injection time with no fault.
    """
    onset = (
        spec.fault.start_time_s
        if spec.fault is not None
        else config.effective_injection_time_s
    )
    system = trunk(config, spec.mission_id, onset).fork(
        spec.fault, blackbox_name=f"blackbox_exp{spec.experiment_id:04d}.json"
    )
    return case_result(spec, system.run(), mitigated=config.mitigation)


def case_result(
    spec: ExperimentSpec, mission: MissionResult, mitigated: bool = False
) -> ExperimentResult:
    """Reduce one flown case to its campaign row."""
    return ExperimentResult(
        experiment_id=spec.experiment_id,
        mission_id=spec.mission_id,
        fault_label=spec.label,
        fault_type=spec.fault.fault_type.value if spec.fault else None,
        target=spec.fault.target.value if spec.fault else None,
        injection_duration_s=spec.fault.duration_s if spec.fault else None,
        outcome=mission.outcome,
        flight_duration_s=mission.flight_duration_s,
        distance_km=mission.distance_km,
        inner_violations=mission.inner_violations,
        outer_violations=mission.outer_violations,
        max_deviation_m=mission.max_deviation_m,
        fault_scope=spec.fault.scope.value if spec.fault else None,
        mitigated=mitigated,
        imu_switchovers=mission.imu_switchovers,
        isolation_succeeded=mission.isolation_succeeded,
        blackbox_path=mission.blackbox_path,
    )


@dataclass
class _PendingCase:
    """One not-yet-completed case plus its retry bookkeeping."""

    spec: ExperimentSpec
    attempt: int = 1
    ready_time: float = 0.0  # monotonic time before which we must not run
    suspect: bool = False  # was in flight when a process pool broke


class _Recorder:
    """Collects finished cases: journal append, progress tick, stash.

    With an observer attached, every completed case also ticks the
    ``campaign_cases_total`` counter and emits a ``case.done`` /
    ``case.harness_error`` point event on the campaign trace (timed in
    campaign-relative wall seconds). Without one, the progress ticker
    still prints — plain text with the same ETA — so long campaigns
    stay watchable with observability off.
    """

    def __init__(
        self,
        journal: CampaignJournal | None,
        progress: bool,
        total: int,
        already_done: int,
        obs: Observer | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.journal = journal
        self.progress = progress
        self.total = total
        self.count = already_done
        self.by_id: dict[int, ExperimentResult] = {}
        self.obs = obs
        self.clock = clock or (lambda: 0.0)
        self.eta = EtaEstimator(total=total, already_done=already_done)
        self._cases_total = (
            obs.metrics.counter(
                "campaign_cases_total",
                "Campaign cases finished, by status.",
                labels=("status",),
            )
            if obs is not None
            else None
        )

    def record(self, result: ExperimentResult) -> None:
        self.by_id[result.experiment_id] = result
        if self.journal is not None:
            self.journal.append(result)
        self.count += 1
        self.eta.update(self.count)
        status = "harness_error" if result.is_harness_error else "ok"
        if self._cases_total is not None:
            self._cases_total.labels(status=status).inc()
        if self.obs is not None:
            name = "case.harness_error" if result.is_harness_error else "case.done"
            attrs = {
                "experiment_id": result.experiment_id,
                "attempts": result.attempts,
            }
            if result.is_harness_error:
                attrs["error"] = result.error or ""
            else:
                attrs["outcome"] = result.outcome.value if result.outcome else ""
            self.obs.trace.emit(name, self.clock(), **attrs)
        if self.progress and self.count % 10 == 0:
            print(
                f"  ... {self.count}/{self.total} experiments done "
                f"({self.eta.format()})",
                flush=True,
            )


def run_campaign(
    config: CampaignConfig | None = None,
    specs: list[ExperimentSpec] | None = None,
    progress: bool = False,
    *,
    retry_policy: RetryPolicy | None = None,
    checkpoint_path: str | None = None,
    resume: bool = False,
    runner: Runner | None = None,
    obs: Observer | None = None,
) -> CampaignResult:
    """Run a whole experiment matrix, resiliently.

    Args:
        config: campaign configuration (default: paper-scale, all cases).
        specs: explicit case list; by default the full matrix for
            ``config`` is built.
        progress: print a one-line progress ticker (useful for the
            multi-minute full campaign). In parallel mode the ticker
            advances in completion order, so one slow early case cannot
            stall it.
        retry_policy: retries / backoff / per-case timeout. The default
            (:data:`~repro.core.resilience.NO_RETRY`) makes one attempt
            with no timeout; either way a case that exhausts its
            attempts becomes a harness-error record, never an abort.
        checkpoint_path: JSONL journal file; every completed case is
            appended and fsync'd, and the file is atomically marked
            complete when the campaign finishes.
        resume: load ``checkpoint_path`` (validating its campaign
            fingerprint) and skip already-completed cases. Previously
            harness-errored cases are re-run — resume is the recovery
            path for transient infrastructure failures.
        runner: the per-case callable (default :func:`run_experiment`);
            injectable for harness tests. Must be picklable when
            ``config.workers > 1``.
        obs: harness-level observer. The campaign runs inside a
            ``campaign`` span (timestamps are campaign-relative wall
            seconds); serial execution nests a ``case`` span per case,
            parallel execution emits ``case.done`` point events instead
            (spans from concurrent workers would interleave). Case
            *black boxes* are controlled separately by
            ``config.obs_dir``, which works across worker processes.

    Results are always returned in spec order regardless of worker
    count, retries, or resume — parallelism and harness faults cannot
    change the output.
    """
    config = config or CampaignConfig()
    if specs is None:
        specs = build_experiment_matrix(
            mission_ids=list(config.mission_ids),
            durations_s=config.durations_s,
            injection_time_s=config.effective_injection_time_s,
            base_seed=config.base_seed,
            include_gold=config.include_gold,
            scope=config.fault_scope,
        )
    policy = retry_policy or NO_RETRY
    runner = runner or run_experiment
    # Trunks live for one campaign: it flies every trunk it forks from,
    # and worker processes start from the emptied cache.
    with _trunks_lock:
        _trunks.clear()

    journal: CampaignJournal | None = None
    done: dict[int, ExperimentResult] = {}
    if checkpoint_path is not None:
        journal = CampaignJournal(checkpoint_path)
        fingerprint = campaign_fingerprint(config, specs)
        if resume and journal.exists():
            _, loaded = journal.load(expected_fingerprint=fingerprint)
            # Keep only verdict rows: harness errors get another chance.
            done = {
                eid: r for eid, r in loaded.items() if not r.is_harness_error
            }
            if progress and done:
                print(
                    f"  resuming: {len(done)}/{len(specs)} cases already "
                    "complete in checkpoint",
                    flush=True,
                )
            journal.open_for_append()
        else:
            journal.create(
                fingerprint=fingerprint,
                scale=config.scale,
                injection_time_s=config.effective_injection_time_s,
                total_cases=len(specs),
            )

    pending = deque(
        _PendingCase(spec) for spec in specs if spec.experiment_id not in done
    )
    # Campaign-relative wall clock for harness spans (the vehicle's own
    # spans use simulated time; the harness genuinely runs in wall time).
    start_monotonic = time.monotonic()

    def clock() -> float:
        return time.monotonic() - start_monotonic

    recorder = _Recorder(
        journal,
        progress,
        total=len(specs),
        already_done=len(done),
        obs=obs,
        clock=clock,
    )
    if obs is not None:
        obs.trace.begin_span(
            "campaign",
            clock(),
            total_cases=len(specs),
            already_done=len(done),
            workers=config.workers,
            scale=config.scale,
        )

    try:
        if config.workers == 1:
            _execute_serial(pending, config, runner, policy, recorder)
        else:
            _execute_parallel(pending, config, runner, policy, recorder)
        if journal is not None:
            journal.finalize()
    finally:
        if obs is not None:
            obs.trace.end_all(clock())
        if journal is not None:
            journal.close()

    merged = {**done, **recorder.by_id}
    return CampaignResult(
        results=[merged[spec.experiment_id] for spec in specs],
        specs=list(specs),
        scale=config.scale,
        injection_time_s=config.effective_injection_time_s,
    )


def _execute_serial(
    pending: deque[_PendingCase],
    config: CampaignConfig,
    runner: Runner,
    policy: RetryPolicy,
    recorder: _Recorder,
) -> None:
    """In-process execution; timeouts enforced via a watchdog thread."""
    obs = recorder.obs
    while pending:
        case = pending.popleft()
        delay = case.ready_time - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if obs is not None:
            obs.trace.begin_span(
                "case",
                recorder.clock(),
                experiment_id=case.spec.experiment_id,
                label=case.spec.label,
                attempt=case.attempt,
            )
        try:
            result = run_with_timeout(
                runner, (case.spec, config), policy.timeout_s
            )
        except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
            _retry_or_fail(case, exc, policy, pending, recorder, front=True)
        else:
            recorder.record(_stamp_attempts(result, case.attempt))
        finally:
            if obs is not None:
                obs.trace.end_span(recorder.clock())


def _execute_parallel(
    pending: deque[_PendingCase],
    config: CampaignConfig,
    runner: Runner,
    policy: RetryPolicy,
    recorder: _Recorder,
) -> None:
    """Process-pool execution with timeout and broken-pool recovery.

    Progress advances in completion order (``wait(FIRST_COMPLETED)``),
    not submission order, so one slow early case cannot stall the
    ticker. A case that exceeds ``policy.timeout_s`` forces a pool
    teardown (the only way to reclaim a wedged worker); the timed-out
    case is charged an attempt while innocent in-flight cases are
    resubmitted for free. A :class:`BrokenProcessPool` (worker died)
    cannot be attributed to a single future, so every in-flight case is
    requeued uncharged as a *suspect* and re-run one at a time: the
    case that breaks the pool while running alone is the offender, and
    its attempt counter advances until it is excluded as a harness
    error.
    """
    pool: ProcessPoolExecutor | None = None
    active: dict[Future, _PendingCase] = {}
    deadlines: dict[Future, float] = {}

    def submit(case: _PendingCase, now: float) -> bool:
        nonlocal pool
        assert pool is not None
        try:
            future = pool.submit(runner, case.spec, config)
        except BrokenProcessPool:
            # Pool died between iterations; the case never ran, so
            # requeue it without spending an attempt.
            pending.appendleft(case)
            _kill_pool(pool)
            pool = None
            return False
        active[future] = case
        if policy.timeout_s is not None:
            deadlines[future] = now + policy.timeout_s
        return True

    try:
        while pending or active:
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=config.workers)
            now = time.monotonic()

            # Dispatch. Suspects (in flight during a pool break) run in
            # isolation for blame attribution; otherwise fill every
            # free worker slot with a ready case.
            if not any(case.suspect for case in active.values()):
                if any(case.suspect for case in pending):
                    if not active:
                        ready = next(
                            (
                                c
                                for c in pending
                                if c.suspect and c.ready_time <= now
                            ),
                            None,
                        )
                        if ready is not None:
                            pending.remove(ready)
                            submit(ready, now)
                    # else: drain current actives before isolating.
                else:
                    still_waiting: list[_PendingCase] = []
                    while pending and len(active) < config.workers:
                        case = pending.popleft()
                        if case.ready_time > now:
                            still_waiting.append(case)
                            continue
                        if not submit(case, now):
                            break
                    pending.extendleft(reversed(still_waiting))
                    if pool is None:
                        continue

            if not active:
                # Nothing dispatchable right now: either everything is
                # backing off, or suspects-in-backoff block the queue.
                waiting = [c for c in pending if c.suspect] or list(pending)
                time.sleep(max(0.0, min(c.ready_time for c in waiting) - now))
                continue

            timeout = None
            wake_times = list(deadlines.values()) + [
                c.ready_time for c in pending if c.ready_time > now
            ]
            if wake_times:
                timeout = max(0.0, min(wake_times) - now)
            finished, _ = wait(set(active), timeout=timeout, return_when=FIRST_COMPLETED)

            pool_broken = False
            for future in finished:
                case = active.pop(future)
                deadlines.pop(future, None)
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    pool_broken = True
                    if case.suspect:
                        # Running alone when the pool broke: guilty.
                        _retry_or_fail(
                            case, exc, policy, pending, recorder, suspect=True
                        )
                    else:
                        pending.append(
                            _PendingCase(
                                spec=case.spec,
                                attempt=case.attempt,
                                suspect=True,
                            )
                        )
                except Exception as exc:
                    _retry_or_fail(case, exc, policy, pending, recorder)
                else:
                    recorder.record(_stamp_attempts(result, case.attempt))

            # Wall-clock enforcement: a future past its deadline means a
            # wedged worker — tear the pool down to reclaim it.
            now = time.monotonic()
            expired = [f for f, d in deadlines.items() if d <= now]
            if expired or pool_broken:
                for future in expired:
                    case = active.pop(future)
                    deadlines.pop(future, None)
                    timeout_exc = CaseTimeoutError(
                        f"case exceeded wall-clock budget of {policy.timeout_s} s"
                    )
                    _retry_or_fail(case, timeout_exc, policy, pending, recorder)
                # Innocent in-flight cases: resubmit, same attempt count.
                for case in active.values():
                    pending.append(case)
                active.clear()
                deadlines.clear()
                _kill_pool(pool)
                pool = None
    except BaseException:
        if pool is not None:
            _kill_pool(pool)
        raise
    else:
        if pool is not None:
            pool.shutdown(wait=True)


def _retry_or_fail(
    case: _PendingCase,
    exc: BaseException,
    policy: RetryPolicy,
    pending: deque[_PendingCase],
    recorder: _Recorder,
    front: bool = False,
    suspect: bool = False,
) -> None:
    """Requeue a failed case with backoff, or record its harness error."""
    if recorder.obs is not None:
        recorder.obs.trace.emit(
            "harness.case_failed",
            recorder.clock(),
            experiment_id=case.spec.experiment_id,
            attempt=case.attempt,
            will_retry=case.attempt < policy.max_attempts,
            error=f"{type(exc).__name__}: {exc}",
        )
    if case.attempt < policy.max_attempts:
        delay = policy.delay_s(case.attempt, key=case.spec.experiment_id)
        retried = _PendingCase(
            spec=case.spec,
            attempt=case.attempt + 1,
            ready_time=time.monotonic() + delay,
            suspect=suspect,
        )
        if front:
            pending.appendleft(retried)
        else:
            pending.append(retried)
    else:
        recorder.record(harness_error_result(case.spec, exc, case.attempt))


def _stamp_attempts(result: ExperimentResult, attempt: int) -> ExperimentResult:
    """Carry the attempt count on retried-then-successful cases."""
    if attempt == 1:
        return result
    return dataclasses.replace(result, attempts=attempt)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly reclaim a pool that may contain wedged or dead workers."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def quick_config(workers: int = 1, base_seed: int = 0) -> CampaignConfig:
    """A CI-sized campaign: same matrix shape, 1/5-scale geometry."""
    return CampaignConfig(scale=0.2, workers=workers, base_seed=base_seed)
