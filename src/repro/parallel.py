"""Campaign cell execution: one attempt body and one supervisor.

A *cell* is one (mix, config, quanta, variant) simulation together with the
recipes for its slowdown models and memory scheduler. Every campaign cell
goes through the same two pieces:

* :func:`attempt_cell` runs a cell once: ``run_analytic`` or
  ``run_workload`` by ``config.engine``, plus profile timing and metrics
  snapshots when the campaign profiles. It returns the result or the
  exception's type/message/traceback/diagnosis.
* :func:`supervise` does the rest: resume from the checkpoint store, the
  replayable :class:`~repro.resilience.faults.RunFailure`, the circuit
  breaker, retries under the campaign's
  :class:`~repro.durability.retry.RetryPolicy` with deterministic backoff
  between rounds, the give-up record (failure plus
  :class:`~repro.durability.retry.DegradedCell`; with ``keep_going`` the
  cell yields ``None``) and the commit to the store.

Serial and parallel campaigns differ only in how a round is attempted.
With ``workers=1``, :func:`run_cells` calls :meth:`Campaign.run_mix` per
cell, which supervises that one cell with in-process attempts; a give-up
without ``keep_going`` re-raises the cell's own exception. With more
workers, each round attempts all pending cells in a process pool. Before
the first round, the alone-run profiles the cells need are deduplicated,
computed once each in the pool, persisted through the campaign's alone-run
cache and shipped to the workers; a profile that fails there is not
shipped, so the cell's worker recomputes it and the failure is supervised
like any other. A pool give-up without ``keep_going`` raises
:class:`WorkerRunError` with the worker's traceback. A worker that dies
outright is a ``WorkerCrash`` failure; the pool is rebuilt and the other
cells resubmitted.

Each round commits in submission order, so a parallel sweep commits the
same records, and surveys accumulate floats in the same order, as a serial
one: ``workers=N`` is bit-identical to ``workers=1``. A retried cell
commits in a later round than its neighbours, so with retries the store
*append order* can differ from a serial sweep; the store is keyed
last-record-wins, and returned results stay bit-identical.

Model/scheduler recipes must be **module-level callables** (pickled by
reference): ``model_builder(*model_builder_args)`` must return the
``{name: factory}`` dict ``run_workload`` expects, and
``scheduler_builder(*scheduler_builder_args)`` a Scheduler instance.
"""

from __future__ import annotations

import dataclasses
import time
import traceback as _traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.analytic.runner import run_analytic
from repro.config import SystemConfig
from repro.harness.runner import (
    AloneProfile,
    AloneRunCache,
    ModelFactory,
    RunProfile,
    RunResult,
    run_alone,
    run_workload,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.campaign import result_from_json, result_to_json
from repro.resilience.faults import RunFailure, config_fingerprint
from repro.telemetry.spec import TelemetrySpec
from repro.workloads.mixes import WorkloadMix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign

#: An alone-run cache key (see AloneRunCache._key) and one worker task.
ProfileKey = Tuple[Any, ...]
ProfileTask = Tuple[WorkloadMix, int, SystemConfig, int]
#: What one cell attempt reports (see :func:`attempt_cell`).
Payload = Dict[str, Any]


@dataclass(frozen=True)
class CellSpec:
    """One independent unit of campaign work (a single shared run)."""

    mix: WorkloadMix
    config: SystemConfig
    quanta: int = 1
    variant: str = ""
    model_builder: Optional[Callable[..., Dict[str, ModelFactory]]] = None
    model_builder_args: Tuple[Any, ...] = ()
    scheduler_builder: Optional[Callable[..., Any]] = None
    scheduler_builder_args: Tuple[Any, ...] = ()
    telemetry: Optional[TelemetrySpec] = None


class WorkerRunError(RuntimeError):
    """A cell failed in a worker process while ``keep_going`` was off."""

    def __init__(self, failure: RunFailure) -> None:
        super().__init__(
            f"{failure.error_type} in worker for mix '{failure.mix_name}': "
            f"{failure.message}\n{failure.traceback}"
        )
        self.failure = failure


def build_model_factories(spec: CellSpec) -> Optional[Dict[str, ModelFactory]]:
    if spec.model_builder is None:
        return None
    return spec.model_builder(*spec.model_builder_args)


def build_scheduler_factory(spec: CellSpec) -> Optional[Callable[[], Any]]:
    builder = spec.scheduler_builder
    if builder is None:
        return None
    args = spec.scheduler_builder_args
    return lambda: builder(*args)


# ----------------------------------------------------------------------
# The attempt body (also the pool workers' entry points, module-level so
# they pickle by reference).

def attempt_cell(
    cell: CellSpec,
    *,
    check_invariants: bool,
    wall_clock_budget_s: Optional[float],
    profile: bool,
    **run_kwargs: Any,
) -> Payload:
    """Run ``cell`` once: ``{"ok": True, "result": ...}``, or ``{"ok":
    False, "exc": ...}`` plus the error fields a ``RunFailure`` records.

    ``run_kwargs`` (``run_workload`` keywords) override what the cell's
    recipes and telemetry spec supply. With ``profile`` set the payload
    also carries wall seconds, engine events and metrics snapshots, unless
    the caller brought its own ``profile_sink`` / ``run_metrics``. The
    sinks are fresh per call: a failed attempt leaks nothing into a retry.
    """
    captured: List[RunProfile] = []
    run_metrics: Optional[MetricsRegistry] = None
    if profile:
        run_kwargs.setdefault("profile_sink", captured.append)
        if "run_metrics" not in run_kwargs:
            run_metrics = run_kwargs["run_metrics"] = MetricsRegistry()
    try:
        if cell.config.engine == "analytic":
            # Closed-form surrogate: no System, no scheduler, no telemetry,
            # no alone profiles; only the profile sink carries over.
            result = run_analytic(
                cell.mix,
                cell.config,
                quanta=cell.quanta,
                profile_sink=run_kwargs.get("profile_sink"),
            )
        else:
            kwargs: Dict[str, Any] = {
                "model_factories": build_model_factories(cell),
                "scheduler_factory": build_scheduler_factory(cell),
                "telemetry": cell.telemetry,
                **run_kwargs,
            }
            result = run_workload(
                cell.mix,
                cell.config,
                quanta=cell.quanta,
                check_invariants=check_invariants,
                wall_clock_budget_s=wall_clock_budget_s,
                **kwargs,
            )
    except Exception as exc:  # noqa: BLE001 - isolated and reported
        diagnosis = getattr(exc, "diagnosis", None)
        return {
            "ok": False,
            "exc": exc,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            "diagnosis": dict(diagnosis) if isinstance(diagnosis, dict) else {},
        }
    payload: Payload = {"ok": True, "result": result}
    if captured:
        payload["wall_s"] = captured[0].wall_time_s
        payload["events"] = captured[0].events_executed
    if run_metrics is not None:
        # Snapshots are plain dicts: picklable as-is.
        payload["metrics"] = run_metrics.snapshots
    return payload


def _profile_worker(task: ProfileTask) -> Optional[AloneProfile]:
    """Compute one alone-run profile: (mix, core, config, cycles).

    ``None`` on failure: the cell that needs the profile recomputes it in
    its own worker, where the failure is supervised like any other.
    """
    mix, core, config, cycles = task
    try:
        return run_alone(mix.trace_for_core(core), config, cycles)
    except Exception:  # noqa: BLE001 - reported by the cell phase
        return None


@dataclass(frozen=True)
class _CellTask:
    """Everything a worker needs to run one cell, fully picklable."""

    spec: CellSpec
    profiles: Tuple[Tuple[ProfileKey, AloneProfile], ...]
    check_invariants: bool
    wall_clock_budget_s: Optional[float]
    profile: bool = False


def _cell_worker(task: _CellTask) -> Payload:
    cache = AloneRunCache()
    cache.absorb(task.profiles)
    payload = attempt_cell(
        task.spec,
        check_invariants=task.check_invariants,
        wall_clock_budget_s=task.wall_clock_budget_s,
        profile=task.profile,
        alone_cache=cache,
    )
    # The parent raises WorkerRunError from the error fields; the
    # exception itself stays here (not every exception pickles).
    payload.pop("exc", None)
    return payload


# ----------------------------------------------------------------------
# The supervisor.

def supervise(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    attempt: Callable[[List[int]], List[Payload]],
) -> List[Optional[RunResult]]:
    """Run ``cells`` under ``campaign``'s fault/checkpoint discipline.

    ``attempt`` takes the indices of the cells to try this round (the
    first round is every cell not resumed) and returns one
    :func:`attempt_cell` payload per index, in order. Returns one entry
    per cell: the :class:`RunResult`, or ``None`` for a failure that
    ``keep_going`` captured.
    """
    results: List[Optional[RunResult]] = [None] * len(cells)
    keys = [
        campaign.run_key(
            cell.mix, cell.config, cell.quanta, cell.variant,
            telemetry=cell.telemetry,
        )
        for cell in cells
    ]
    store = campaign.store
    active: List[int] = []
    for i, cell in enumerate(cells):
        cached = (
            store.get_run(keys[i])
            if campaign.resume and store is not None else None
        )
        if cached is None:
            active.append(i)
        else:
            results[i] = result_from_json(cached, cell.config)
            campaign.resumed += 1
    attempts = dict.fromkeys(active, 0)
    started: Dict[int, float] = {}
    fingerprints: Dict[int, str] = {}
    while active:
        now = time.monotonic()
        for i in active:
            started.setdefault(i, now)
        retry: List[int] = []
        backoff = 0.0
        for i, payload in zip(active, attempt(active)):
            cell = cells[i]
            attempts[i] += 1
            if payload["ok"]:
                if attempts[i] > 1:
                    campaign.note_retry_success(fingerprints[i])
                result = results[i] = payload["result"]
                if store is not None:
                    store.put_run(keys[i], result_to_json(result))
                campaign.computed += 1
                if "wall_s" in payload:
                    campaign.record_timing(
                        cell.mix.name, cell.variant, cell.quanta,
                        payload["wall_s"], payload["events"],
                    )
                if store is not None and payload.get("metrics"):
                    store.put_metrics(keys[i], payload["metrics"])
                continue
            failure = RunFailure(
                experiment=campaign.experiment,
                variant=cell.variant,
                mix_name=cell.mix.name,
                mix_seed=cell.mix.seed,
                specs=[dataclasses.asdict(spec) for spec in cell.mix.specs],
                config_fingerprint=config_fingerprint(cell.config),
                quanta=cell.quanta,
                error_type=payload["error_type"],
                message=payload["message"],
                traceback=payload.get("traceback", ""),
                diagnosis=payload.get("diagnosis") or {},
                telemetry=(
                    cell.telemetry.to_json()
                    if cell.telemetry is not None else None
                ),
            )
            fingerprint = fingerprints[i] = failure.fingerprint()
            campaign.breaker.record_failure(
                fingerprint, failure.error_type, failure.message
            )
            elapsed = time.monotonic() - started[i]
            if campaign.may_retry(fingerprint, attempts[i], elapsed):
                campaign.note_retry(fingerprint)
                backoff = max(
                    backoff,
                    campaign.retry_policy.delay_s(attempts[i], fingerprint),
                )
                retry.append(i)
                continue
            campaign.record_give_up(failure, attempts[i], elapsed)
            if not campaign.keep_going:
                exc = payload.get("exc")
                raise exc if exc is not None else WorkerRunError(failure)
        if retry and backoff > 0:
            time.sleep(backoff)
        active = retry
    return results


# ----------------------------------------------------------------------
# The process pool.

def _run_tasks(
    fn: Callable[[Any], Any], payloads: Sequence[Any], workers: int
) -> List[Tuple[str, Any]]:
    """Run ``payloads`` through a process pool, surviving hard crashes.

    Returns one ``("ok", value)`` or ``("crash", message)`` per payload, in
    order. When a worker dies outright the pool breaks and every
    unfinished future raises; the first one (in submission order) is
    attributed as the crash, the pool is rebuilt, and the rest are
    resubmitted. Each rebuild permanently consumes at least one payload,
    so a poisoned payload cannot wedge the sweep. Attribution is
    best-effort: with several payloads in flight the recorded cell may be
    an innocent neighbour of the one that actually died.
    """
    outcomes: List[Optional[Tuple[str, Any]]] = [None] * len(payloads)
    pending = list(range(len(payloads)))
    while pending:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending))
        ) as pool:
            futures = [(i, pool.submit(fn, payloads[i])) for i in pending]
            crash_attributed = False
            retry: List[int] = []
            for i, future in futures:
                try:
                    outcomes[i] = ("ok", future.result())
                except (BrokenExecutor, EOFError, OSError) as exc:
                    if crash_attributed:
                        retry.append(i)
                    else:
                        crash_attributed = True
                        outcomes[i] = (
                            "crash",
                            "worker process died before returning a result "
                            f"({type(exc).__name__}: {exc})",
                        )
        pending = retry
    # Every index was either completed or attributed as a crash above.
    return cast(List[Tuple[str, Any]], outcomes)


def _alone_tasks(cell: CellSpec) -> List[Tuple[ProfileKey, ProfileTask]]:
    """The alone profiles ``cell`` looks up, keyed as the cache keys them."""
    if cell.config.engine == "analytic":
        return []  # closed form: no alone profiles to collect
    # Must match run_workload: profiles cover one quantum beyond the run.
    cycles = (cell.quanta + 1) * cell.config.quantum_cycles
    return [
        (
            AloneRunCache._key(cell.mix, core, cell.config, cycles),
            (cell.mix, core, cell.config, cycles),
        )
        for core in range(cell.mix.num_cores)
    ]


def _collect_alone_profiles(
    campaign: "Campaign", cells: Sequence[CellSpec], workers: int
) -> Dict[ProfileKey, AloneProfile]:
    """The alone profiles ``cells`` need, from the campaign's cache or
    computed once each in the pool; a profile that fails is left out.

    The cache counts one lookup per (cell, core), as a serial sweep does:
    a key's first lookup is a hit, store hit or miss, each repeat a hit.
    """
    cache = campaign.alone_cache()
    needed: Dict[ProfileKey, ProfileTask] = {}
    lookups: Dict[ProfileKey, int] = {}
    for cell in cells:
        for key, task in _alone_tasks(cell):
            needed.setdefault(key, task)
            lookups[key] = lookups.get(key, 0) + 1

    have: Dict[ProfileKey, AloneProfile] = {}
    missing: List[ProfileKey] = []
    for key, task in needed.items():
        store_hits_before = cache.store_hits
        profile = cache.peek(*task)
        if profile is not None:
            have[key] = profile
            if cache.store_hits == store_hits_before:
                cache.hits += 1  # persistent peek counts store hits itself
        else:
            missing.append(key)
    if missing:
        outcomes = _run_tasks(
            _profile_worker, [needed[key] for key in missing], workers
        )
        for key, (kind, profile) in zip(missing, outcomes):
            if kind == "ok" and profile is not None:
                have[key] = profile
                cache.misses += 1
                cache.seed_profile(*needed[key], profile)
    cache.hits += sum(lookups[key] - 1 for key in have)
    return have


def run_cells(
    campaign: "Campaign",
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
) -> List[Optional[RunResult]]:
    """Run ``cells`` under ``campaign``'s fault/checkpoint discipline.

    Returns one entry per cell, in order: the :class:`RunResult`, or
    ``None`` for cells whose failure was captured by ``keep_going``.
    ``workers=1`` calls :meth:`Campaign.run_mix` cell by cell; more
    workers :func:`supervise` all cells at once, attempting each round in
    a process pool. Results are identical either way.

    A cell's fidelity tier is its ``config.engine`` (see
    :func:`~repro.analytic.runner.resolve_fidelity`). Analytic cells need
    no alone profiles: the alone fixed point is part of the closed form
    (see :mod:`repro.analytic`).
    """
    if workers <= 1:
        cache = campaign.alone_cache()
        return [
            campaign.run_mix(
                cell.mix,
                cell.config,
                quanta=cell.quanta,
                variant=cell.variant,
                model_factories=build_model_factories(cell),
                scheduler_factory=build_scheduler_factory(cell),
                alone_cache=cache,
                telemetry=cell.telemetry,
            )
            for cell in cells
        ]

    shipped: Optional[Dict[ProfileKey, AloneProfile]] = None
    pool_s = 0.0

    def attempt_round(indices: List[int]) -> List[Payload]:
        nonlocal shipped, pool_s
        if shipped is None:
            # The first round holds every cell the supervisor did not resume.
            shipped = _collect_alone_profiles(
                campaign, [cells[i] for i in indices], workers
            )
        profiles = shipped
        tasks = [
            _CellTask(
                spec=cells[i],
                profiles=tuple(
                    (key, profiles[key])
                    for key, _ in _alone_tasks(cells[i])
                    if key in profiles
                ),
                check_invariants=campaign.check_invariants,
                wall_clock_budget_s=campaign.wall_clock_budget_s,
                profile=campaign.profile,
            )
            for i in indices
        ]
        round_start = perf_counter()
        outcomes = _run_tasks(_cell_worker, tasks, workers)
        pool_s += perf_counter() - round_start
        return [
            value if kind == "ok"
            else {"ok": False, "error_type": "WorkerCrash", "message": value}
            for kind, value in outcomes
        ]

    timed = len(campaign.cell_timings)
    results = supervise(campaign, cells, attempt_round)
    # Cell timings exist only when profiling.
    busy_s = sum(t.wall_s for t in campaign.cell_timings[timed:])
    if pool_s > 0 and busy_s > 0:
        # Busy fraction of the pool during the cell rounds: 1.0 means
        # every worker simulated for the whole time.
        campaign.pool_utilization = min(1.0, busy_s / (pool_s * workers))
    return results


__all__ = [
    "CellSpec",
    "WorkerRunError",
    "attempt_cell",
    "build_model_factories",
    "build_scheduler_factory",
    "run_cells",
    "supervise",
]
