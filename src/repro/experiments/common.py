"""Shared machinery for the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.analytic.runner import resolve_fidelity, run_analytic
from repro.config import SystemConfig, scaled_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.resilience.campaign import Campaign
    from repro.telemetry.spec import TelemetrySpec
from repro.harness import metrics
from repro.harness.runner import AloneRunCache, ModelFactory, RunResult, run_workload
from repro.models.asm import AsmModel
from repro.models.fst import FstModel
from repro.models.mise import MiseModel
from repro.models.ptca import PtcaModel
from repro.workloads.mixes import WorkloadMix, random_mixes

# Pollution-filter size matching the overhead of a 16-set x 16-way sampled
# ATS (256 entries); the Bloom filter gets 4x counters, as in FST [15].
EQUAL_OVERHEAD_FILTER_COUNTERS = 1024


def unsampled_models() -> Dict[str, ModelFactory]:
    """Figure 2 configuration: exact/full structures for every model."""
    return {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=None),
    }


def sampled_models(config: SystemConfig) -> Dict[str, ModelFactory]:
    """Figure 3 configuration: sampled ATS and equal-size pollution filter."""
    sets = config.ats_sampled_sets
    return {
        "fst": lambda: FstModel(filter_counters=EQUAL_OVERHEAD_FILTER_COUNTERS),
        "ptca": lambda: PtcaModel(sampled_sets=sets),
        "asm": lambda: AsmModel(sampled_sets=sets),
    }


def headline_models(config: SystemConfig) -> Dict[str, ModelFactory]:
    """The paper's headline comparison: unsampled FST/PTCA (their best
    configuration) against sampled (practical) ASM."""
    return {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=config.ats_sampled_sets),
        "mise": lambda: MiseModel(),
    }


@dataclass
class ErrorSurvey:
    """Per-application and overall slowdown-estimation errors."""

    model_names: List[str]
    # model -> app name -> list of per-quantum errors across all instances
    per_app: Dict[str, Dict[str, List[float]]] = field(default_factory=dict)
    # model -> flat error list
    overall: Dict[str, List[float]] = field(default_factory=dict)
    # model -> per-workload mean errors (for stdev-across-workloads bars)
    per_workload: Dict[str, List[float]] = field(default_factory=dict)

    def add_run(self, result: RunResult) -> None:
        for model in self.model_names:
            per_core = result.errors_for(model)
            workload_errors: List[float] = []
            for core, errors in enumerate(per_core):
                app = result.mix.specs[core].name
                self.per_app.setdefault(model, {}).setdefault(app, []).extend(errors)
                self.overall.setdefault(model, []).extend(errors)
                workload_errors.extend(errors)
            if workload_errors:
                self.per_workload.setdefault(model, []).append(
                    metrics.mean(workload_errors)
                )

    def mean_error(self, model: str) -> float:
        errors = self.overall.get(model, [])
        return metrics.mean(errors) if errors else float("nan")

    def stdev_across_workloads(self, model: str) -> float:
        return metrics.stdev(self.per_workload.get(model, []))

    def app_means(self, model: str) -> Dict[str, float]:
        return {
            app: metrics.mean(errors)
            for app, errors in self.per_app.get(model, {}).items()
            if errors
        }


def survey_errors(
    mixes: Sequence[WorkloadMix],
    config: SystemConfig,
    model_factories: Optional[Dict[str, ModelFactory]] = None,
    quanta: int = 2,
    alone_cache: Optional[AloneRunCache] = None,
    scheduler_factory: Optional[Callable] = None,
    campaign: Optional["Campaign"] = None,
    variant: str = "",
    *,
    workers: int = 1,
    model_builder: Optional[Callable[..., Dict[str, ModelFactory]]] = None,
    model_builder_args: Sequence = (),
    scheduler_builder: Optional[Callable] = None,
    scheduler_builder_args: Sequence = (),
    telemetry: Optional["TelemetrySpec"] = None,
    fidelity: str = "",
) -> ErrorSurvey:
    """Run every mix and collect estimation errors for every model.

    ``telemetry`` injects deterministic counter faults into every model's
    counter bank (see :mod:`repro.telemetry`); ``None`` means perfect
    telemetry.

    ``fidelity`` selects the execution tier ("analytical" | "event", see
    docs/fidelity.md); empty leaves ``config.engine`` in charge. At the
    analytical tier the per-estimator machinery does not run — only the
    closed-form "asm"/"analytic" estimates exist, and other requested
    models simply collect no errors. An analytical
    survey under a campaign with a store additionally cross-validates a
    seeded sample of its cells against the event oracle and persists the
    divergence report (:mod:`repro.analytic.crossval`).

    With a :class:`repro.resilience.campaign.Campaign`, each mix runs under
    its fault-isolation/checkpoint discipline: previously completed mixes
    are resumed from the store, failing mixes are captured (and skipped
    when the campaign keeps going) instead of aborting the survey, and
    ``variant`` disambiguates multiple surveys within one experiment.

    ``workers > 1`` fans the mixes out across worker processes (see
    :mod:`repro.parallel`); results are identical to a serial survey. The
    parallel path needs picklable recipes instead of closures: a
    module-level ``model_builder`` called as
    ``model_builder(*model_builder_args)`` (and likewise for the
    scheduler). When only a builder is given, the serial path uses it too.
    """
    config = resolve_fidelity(config, fidelity)
    if model_factories is None:
        if model_builder is None:
            raise ValueError(
                "survey_errors needs model_factories or a model_builder"
            )
        model_factories = model_builder(*model_builder_args)
    survey = ErrorSurvey(model_names=list(model_factories))
    if workers > 1:
        if model_builder is None:
            raise ValueError(
                "workers > 1 requires a picklable module-level model_builder"
            )
        if scheduler_factory is not None and scheduler_builder is None:
            raise ValueError(
                "workers > 1 requires a picklable scheduler_builder "
                "instead of scheduler_factory"
            )
        from repro.parallel import CellSpec
        from repro.resilience.campaign import Campaign

        camp = campaign if campaign is not None else Campaign("adhoc-survey")
        cells = [
            CellSpec(
                mix=mix,
                config=config,
                quanta=quanta,
                variant=variant,
                model_builder=model_builder,
                model_builder_args=tuple(model_builder_args),
                scheduler_builder=scheduler_builder,
                scheduler_builder_args=tuple(scheduler_builder_args),
                telemetry=telemetry,
            )
            for mix in mixes
        ]
        for result in camp.run_cells(cells, workers=workers):
            if result is not None:
                survey.add_run(result)
        _crossval_if_analytic(campaign, mixes, config, quanta, variant, fidelity)
        return survey
    # Explicit None check: an empty AloneRunCache is falsy (len == 0).
    if alone_cache is not None:
        cache = alone_cache
    elif campaign is not None:
        cache = campaign.alone_cache()
    else:
        cache = AloneRunCache()
    for mix in mixes:
        if campaign is not None:
            result = campaign.run_mix(
                mix,
                config,
                quanta=quanta,
                variant=variant,
                model_factories=model_factories,
                scheduler_factory=scheduler_factory,
                alone_cache=cache,
                telemetry=telemetry,
            )
            if result is None:
                continue
        elif config.engine == "analytic":
            result = run_analytic(mix, config, quanta=quanta)
        else:
            result = run_workload(
                mix,
                config,
                model_factories=model_factories,
                scheduler_factory=scheduler_factory,
                quanta=quanta,
                alone_cache=cache,
                telemetry=telemetry,
            )
        survey.add_run(result)
    _crossval_if_analytic(campaign, mixes, config, quanta, variant, fidelity)
    return survey


def _crossval_if_analytic(
    campaign: Optional["Campaign"],
    mixes: Sequence[WorkloadMix],
    config: SystemConfig,
    quanta: int,
    variant: str,
    fidelity: str,
) -> None:
    """After an analytical survey under a stored campaign, cross-validate a
    seeded one-cell sample against the event oracle and persist the
    divergence report next to the campaign's other records."""
    if fidelity != "analytical" or campaign is None or campaign.store is None:
        return
    from repro.analytic.crossval import cross_validate

    cross_validate(
        campaign, mixes, config, quanta=quanta, variant=variant, sample_size=1
    )


def default_mixes(count: int, num_cores: int, seed: int = 42) -> List[WorkloadMix]:
    return random_mixes(count, num_cores, seed=seed)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(value: object) -> str:
        if isinstance(value, float):
            return "nan" if math.isnan(value) else f"{value:.2f}"
        return str(value)

    text_rows = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def fairness_of_runs(results: Sequence[Optional[RunResult]]) -> Dict[str, float]:
    """Average unfairness (max slowdown) and harmonic speedup over runs.

    ``None`` entries (mixes a campaign captured as failures) are skipped;
    all-failed cells report NaN rather than aborting the sweep."""
    results = [r for r in results if r is not None]
    if not results:
        return {
            "max_slowdown": float("nan"),
            "harmonic_speedup": float("nan"),
        }
    return {
        "max_slowdown": metrics.mean(r.max_slowdown() for r in results),
        "harmonic_speedup": metrics.mean(r.harmonic_speedup() for r in results),
    }


__all__ = [
    "EQUAL_OVERHEAD_FILTER_COUNTERS",
    "unsampled_models",
    "sampled_models",
    "headline_models",
    "ErrorSurvey",
    "survey_errors",
    "default_mixes",
    "format_table",
    "fairness_of_runs",
    "scaled_config",
]
