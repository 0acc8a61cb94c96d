"""The benchmark's workloads: seeded inputs, one timed operation each, and
the checks applied to every operation's outputs.

Every input derives from ``(seed, index)`` alone, so the same seed gives
the same inputs and operation ``i`` does not depend on how many
operations a run manages. Every operation starts cold: a fresh
``AloneRunCache``, a fresh store directory, and mixes whose trace seeds
were never seen before in the process (so the analytic tier's per-process
reuse-profile memo cannot hit). Modelled caches start empty at quantum 0,
as in every experiment driver.

Mixes are stratified by memory intensity: the catalog is sorted by APKI
and cut into one group per core, and each mix takes one application from
each group, so every mix spans low to high intensity (the paper's
"varying memory intensity"). Each group is walked in rotation from an
offset the seed picks, so consecutive operations cover every application
of the catalog once per cycle: the seed decides which applications share
a mix and every trace's random stream, while a run's total work hardly
depends on the seed. Fleet tenants are drawn by the program itself, so
the benchmark picks fleet seeds whose tenant stream holds the same number
of tenants from every group.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analytic.runner import run_analytic
from repro.cloud.fleet import FleetSupervisor
from repro.cloud.spec import FleetSpec
from repro.cloud.tenants import tenant_stream
from repro.config import SystemConfig, scaled_config
from repro.durability.store import read_payloads
from repro.experiments.common import (
    headline_models,
    sampled_models,
    survey_errors,
    unsampled_models,
)
from repro.harness import runner
from repro.harness.runner import AloneRunCache, RunResult
from repro.mem.schedulers import TcmScheduler
from repro.models.asm import AsmModel
from repro.policies.asm_cache import AsmCachePolicy
from repro.resilience.campaign import Campaign, result_from_json
from repro.workloads.catalog import CATALOG
from repro.workloads.mixes import WorkloadMix


@dataclass(frozen=True)
class Size:
    """How big one operation is. ``Size()`` is the benchmark's size; the
    tests run every workload at a tiny one."""

    cores: int = 4
    quantum_cycles: int = 250_000
    epoch_cycles: int = 5_000
    quanta: int = 2
    analytic_quanta: int = 4
    analytic_mixes: int = 2
    fleet_nodes: int = 4
    fleet_cores: int = 2
    fleet_rounds: int = 4
    fleet_tenants: int = 8

    def config(self, cores: int) -> SystemConfig:
        """The scaled platform with this size's quantum and epoch."""
        return scaled_config(cores).with_quantum(self.quantum_cycles, self.epoch_cycles)


TINY = Size(quantum_cycles=20_000, epoch_cycles=5_000, quanta=2,
            analytic_quanta=2, analytic_mixes=1, fleet_rounds=2, fleet_tenants=4)


@dataclass
class Outcome:
    """What one operation produced, as the checks and metrics see it."""

    units: int = 0
    failures: List[str] = field(default_factory=list)
    failed_units: int = 0
    cells: List[RunResult] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    fleet: Optional[Dict[str, Any]] = None

    @property
    def kinst(self) -> float:
        """Kilo-instructions committed in the shared/estimated runs."""
        return sum(sum(cell.records[-1].instructions) for cell in self.cells
                   if cell.records) / 1000.0


def _intensity_groups(count: int) -> List[List[Any]]:
    specs = sorted(CATALOG.values(), key=lambda spec: (spec.apki, spec.name))
    return [specs[i * len(specs) // count:(i + 1) * len(specs) // count]
            for i in range(count)]


def _group_of(cores: int) -> Dict[str, int]:
    return {spec.name: g for g, group in enumerate(_intensity_groups(cores))
            for spec in group}


def stratified_mix(seed: int, index: int, cores: int) -> WorkloadMix:
    """Mix ``index`` of ``seed``: the next app of every intensity group's
    rotation, in a seeded core order, with its own trace seed."""
    groups = _intensity_groups(cores)
    offsets = random.Random(seed).sample(range(1000), len(groups))
    specs = [group[(offset + index) % len(group)]
             for group, offset in zip(groups, offsets)]
    random.Random(seed * 1_000_003 + index).shuffle(specs)
    return WorkloadMix(name=f"s{seed}-{index:03d}", specs=tuple(specs),
                       seed=seed * 100_003 + index)


def check_cell(result: RunResult, quanta: int) -> List[str]:
    """Why ``result`` is wrong: quanta count, non-finite or non-positive
    slowdowns or estimates (empty when it is right)."""
    problems = []
    if len(result.records) != quanta:
        problems.append(f"{result.mix.name}: {len(result.records)} quanta, want {quanta}")
    for record in result.records:
        values = list(record.actual_slowdowns)
        for estimates in record.estimates.values():
            values.extend(estimates)
        if any(not math.isfinite(v) or v <= 0 for v in values):
            problems.append(
                f"{result.mix.name} q{record.index}: bad slowdown/estimate {values}"
            )
    return problems


def cell_record(label: str, result: RunResult) -> Dict[str, Any]:
    """The modelled outputs of one cell that ``sim_digest`` covers."""
    return {
        "label": label,
        "mix": [spec.name for spec in result.mix.specs],
        "seed": result.mix.seed,
        "instructions": [r.instructions for r in result.records],
        "actual": [r.actual_slowdowns for r in result.records],
        "estimates": [
            {name: r.estimates[name] for name in sorted(r.estimates)}
            for r in result.records
        ],
    }


class Workload:
    """One named workload: inputs, the timed operation, and its checks."""

    name = ""
    #: Operations every run completes, whatever ``--seconds`` says. The
    #: modelled metrics and ``sim_digest`` cover exactly these, and the
    #: traced run traces exactly these.
    min_ops = 1

    def __init__(self, size: Size = Size()) -> None:
        self.size = size

    def make_input(self, seed: int, index: int) -> Any:
        """Operation ``index``'s input."""
        raise NotImplementedError

    def fresh(self, op_input: Any) -> Any:
        """An input of the same cost that starts cold in this process
        again (the traced run's untraced comparison pass)."""
        return op_input

    def expected_units(self, op_input: Any) -> int:
        """Units (cells, mixes, node-rounds) one operation attempts."""
        return 1

    def run(self, op_input: Any, workdir: str, check_invariants: bool) -> Any:
        """The timed operation."""
        raise NotImplementedError

    def check(self, op_input: Any, raw: Any, workdir: str) -> Outcome:
        """Untimed: turn the operation's raw output into a checked Outcome."""
        raise NotImplementedError


class EventCell(Workload):
    """One 4-core fig02-style cell with the headline models."""

    name = "event-cell"
    min_ops = 7

    def make_input(self, seed: int, index: int) -> WorkloadMix:
        return stratified_mix(seed, index, self.size.cores)

    def run(self, mix: WorkloadMix, workdir: str, check_invariants: bool) -> RunResult:
        config = self.size.config(self.size.cores)
        return runner.run_workload(
            mix, config, model_factories=headline_models(config),
            quanta=self.size.quanta, alone_cache=AloneRunCache(),
            check_invariants=check_invariants,
        )

    def check(self, mix: WorkloadMix, raw: RunResult, workdir: str) -> Outcome:
        problems = check_cell(raw, self.size.quanta)
        return Outcome(units=1, failures=problems, failed_units=int(bool(problems)),
                       cells=[raw], labels=["headline"])


def _variants(config: SystemConfig) -> Dict[str, Dict[str, Any]]:
    sets = config.ats_sampled_sets
    cores = config.num_cores
    return {
        "fig02-unsampled": dict(model_factories=unsampled_models()),
        "fig03-sampled": dict(model_factories=sampled_models(config)),
        "fig09-asm-cache": dict(
            model_factories={"asm": lambda: AsmModel(sampled_sets=sets)},
            policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
        ),
        "fig10-tcm": dict(scheduler_factory=lambda: TcmScheduler(cores)),
    }


class VariantSweep(Workload):
    """One mix under four variants sharing an alone cache and a store."""

    name = "variant-sweep"
    min_ops = 7

    def make_input(self, seed: int, index: int) -> WorkloadMix:
        return stratified_mix(seed, index, self.size.cores)

    def expected_units(self, mix: WorkloadMix) -> int:
        return 4

    def run(self, mix: WorkloadMix, workdir: str, check_invariants: bool) -> List[Any]:
        config = self.size.config(self.size.cores)
        campaign = Campaign("variant-sweep", store_dir=workdir,
                            check_invariants=check_invariants)
        cache = campaign.alone_cache()
        results: List[Any] = []
        for variant, kwargs in _variants(config).items():
            try:
                result = campaign.run_mix(
                    mix, config, quanta=self.size.quanta, variant=variant,
                    alone_cache=cache, **kwargs,
                )
            except Exception as exc:  # one failed cell must not hide the rest
                result = exc
            results.append((variant, result))
        return results

    def check(self, mix: WorkloadMix, raw: List[Any], workdir: str) -> Outcome:
        outcome = Outcome(units=len(raw))
        for variant, result in raw:
            problems = (
                [f"{variant}: {result!r}"] if isinstance(result, Exception)
                else check_cell(result, self.size.quanta)
            )
            outcome.failures.extend(problems)
            outcome.failed_units += int(bool(problems))
            if not isinstance(result, Exception):
                outcome.cells.append(result)
                outcome.labels.append(variant)
        return outcome


class AnalyticSweep(Workload):
    """Several mixes through the analytical tier of ``survey_errors``."""

    name = "analytic-sweep"
    min_ops = 7

    def make_input(self, seed: int, index: int) -> List[WorkloadMix]:
        per_op = self.size.analytic_mixes
        return [stratified_mix(seed, index * per_op + k, self.size.cores)
                for k in range(per_op)]

    def fresh(self, mixes: List[WorkloadMix]) -> List[WorkloadMix]:
        # Trace seeds of one run are 100_003 apart per seed and advance by
        # one per mix, so +50_000 meets no other mix of the run.
        return [dataclasses.replace(mix, seed=mix.seed + 50_000) for mix in mixes]

    def expected_units(self, mixes: List[WorkloadMix]) -> int:
        return len(mixes)

    def run(self, mixes: List[WorkloadMix], workdir: str, check_invariants: bool) -> Any:
        config = self.size.config(self.size.cores)
        return survey_errors(mixes, config, model_factories=headline_models(config),
                             quanta=self.size.analytic_quanta, fidelity="analytical")

    def check(self, mixes: List[WorkloadMix], survey: Any, workdir: str) -> Outcome:
        quanta = self.size.analytic_quanta
        config = self.size.config(self.size.cores)
        outcome = Outcome(units=len(mixes))
        errors = survey.overall.get("asm", [])
        survey_ok = len(errors) == len(mixes) * self.size.cores * quanta and all(
            math.isfinite(e) for e in errors
        )
        if not survey_ok:
            outcome.failures.append(f"survey holds {len(errors)} asm errors")
        # The survey keeps only errors; the per-quantum records come from
        # the same closed form again (its reuse profiles are memoised now).
        for mix in mixes:
            result = run_analytic(mix, config, quanta=quanta)
            problems = check_cell(result, quanta)
            outcome.failures.extend(problems)
            outcome.failed_units += int(bool(problems) or not survey_ok)
            outcome.cells.append(result)
            outcome.labels.append("analytical")
        return outcome


class FleetRounds(Workload):
    """A small event-fidelity fleet with a store, chaos off."""

    name = "fleet-rounds"
    min_ops = 7

    def make_input(self, seed: int, index: int) -> FleetSpec:
        """The first fleet seed drawn for ``(seed, index)`` whose tenants
        spread evenly over the four intensity groups."""
        size = self.size
        group_of = _group_of(4)
        rng = random.Random(seed * 1_000_003 + index)
        while True:
            spec = FleetSpec(
                name="bench", num_nodes=size.fleet_nodes,
                cores_per_node=size.fleet_cores, rounds=size.fleet_rounds,
                seed=rng.randrange(1 << 30), num_tenants=size.fleet_tenants,
                arrivals_per_round=size.fleet_tenants // 2, tenant_quanta=2,
                fidelity="event",
            )
            per_group = [0] * 4
            for tenant in tenant_stream(spec):
                per_group[group_of[tenant.spec.name]] += 1
            if max(per_group) - min(per_group) <= 1:
                return spec

    def expected_units(self, spec: FleetSpec) -> int:
        return spec.rounds * spec.num_nodes

    def run(self, spec: FleetSpec, workdir: str, check_invariants: bool) -> Any:
        campaign = Campaign("fleet-rounds", store_dir=workdir,
                            check_invariants=check_invariants)
        return FleetSupervisor(spec, self.size.config(spec.cores_per_node),
                               campaign).run()

    def check(self, spec: FleetSpec, result: Any, workdir: str) -> Outcome:
        config = self.size.config(spec.cores_per_node)
        outcome = Outcome(fleet=result.digest())
        for payload in read_payloads(os.path.join(workdir, "runs.jsonl")):
            cell = result_from_json(payload["result"], config)
            outcome.cells.append(cell)
            outcome.labels.append(cell.mix.name)
            problems = check_cell(cell, spec.quanta_per_round)
            outcome.failures.extend(problems)
            outcome.failed_units += int(bool(problems))
        outcome.units = len(outcome.cells) + result.node_cell_failures
        outcome.failed_units += result.node_cell_failures
        accounted = len(result.completed) + len(result.shed) + len(result.unserved)
        if accounted != spec.num_tenants:
            outcome.failures.append(
                f"tenants accounted {accounted} != {spec.num_tenants}"
            )
            outcome.failed_units = outcome.units
        return outcome


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (EventCell, VariantSweep, AnalyticSweep, FleetRounds)
}


def digest_payload(outcomes: Sequence[Outcome]) -> List[Dict[str, Any]]:
    """The modelled outputs ``sim_digest`` hashes, one entry per operation."""
    return [
        {
            "cells": [cell_record(label, cell)
                      for label, cell in zip(outcome.labels, outcome.cells)],
            "fleet": outcome.fleet,
        }
        for outcome in outcomes
    ]


def modelled_metrics(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Modelled (simulated, not host-time) metrics over ``outcomes``."""
    cells = [cell for outcome in outcomes for cell in outcome.cells]
    metrics: Dict[str, float] = {
        "max_slowdown": sum(c.max_slowdown() for c in cells) / len(cells)
        if cells else 0.0,
    }
    for model in ("asm", "fst", "ptca"):
        errors = [e for c in cells for core in c.errors_for(model) for e in core]
        metrics[f"models.{model}_error_pct"] = (
            sum(errors) / len(errors) if errors else 0.0
        )
    fleets = [o.fleet for o in outcomes if o.fleet is not None]
    metrics["cloud.sla_violations"] = float(
        sum(f["counters"]["sla_violations"] for f in fleets)
    )
    metrics["cloud.migrations"] = float(
        sum(f["counters"]["migrations"] for f in fleets)
    )
    metrics["cloud.rounds"] = float(sum(len(f["rounds"]) for f in fleets))
    return metrics
