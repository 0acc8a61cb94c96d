"""Figure 1: shared-cache access rate is a proxy for performance.

Each application of interest runs alongside a cache/bandwidth hog whose
intensity and cache pressure are swept. For every run we record the
application's performance (IPC) and shared-cache access rate (CAR), both
normalised to its alone run. The paper's claim: the points lie on the
y = x diagonal, i.e. performance is proportional to CAR.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.config import SystemConfig, scaled_config
from repro.experiments.common import format_table
from repro.harness.system import System
from repro.workloads.catalog import spec_by_name
from repro.workloads.hog import hog_spec
from repro.workloads.synthetic import SyntheticTrace

DEFAULT_APPS = ("bzip2", "xalancbmk", "soplex")


def _measure(config: SystemConfig, specs, cycles: int, seed: int) -> Tuple[float, float]:
    """Run the workload and return (IPC, CAR) of core 0."""
    traces = [
        SyntheticTrace(spec, seed=seed + core, base_line=(core + 1) << 28)
        for core, spec in enumerate(specs)
    ]
    system = System(
        dataclasses.replace(config, num_cores=len(specs)),
        traces,
        enable_epochs=len(specs) > 1,
    )
    system.run_until(cycles)
    instructions = system.cores[0].committed_instructions(cycles)
    accesses = system.hierarchy.demand_accesses(0)
    return instructions / cycles, accesses / cycles


@dataclass
class CarProxyResult:
    # app -> list of (normalised CAR, normalised performance)
    points: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)

    def correlation(self, app: str) -> float:
        """Pearson correlation between normalised CAR and performance."""
        pts = self.points[app]
        n = len(pts)
        mean_x = sum(p[0] for p in pts) / n
        mean_y = sum(p[1] for p in pts) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in pts)
        var_x = sum((x - mean_x) ** 2 for x, _ in pts)
        var_y = sum((y - mean_y) ** 2 for _, y in pts)
        if var_x <= 0 or var_y <= 0:
            return float("nan")
        return cov / math.sqrt(var_x * var_y)

    def proportionality_error(self, app: str) -> float:
        """Mean |performance - CAR| over the sweep (distance from y=x)."""
        pts = self.points[app]
        return sum(abs(y - x) for x, y in pts) / len(pts)

    def format_table(self) -> str:
        rows = []
        for app, pts in self.points.items():
            rows.append(
                [
                    app,
                    len(pts),
                    self.correlation(app),
                    self.proportionality_error(app),
                ]
            )
        table = format_table(
            ["app", "points", "pearson_r", "mean |perf-CAR|"], rows
        )
        detail = ["", "points (normalised CAR -> normalised performance):"]
        for app, pts in self.points.items():
            listing = ", ".join(f"({x:.2f},{y:.2f})" for x, y in pts)
            detail.append(f"  {app}: {listing}")
        return table + "\n" + "\n".join(detail)


def run(
    apps: Sequence[str] = DEFAULT_APPS,
    intensities: Sequence[float] = (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0),
    cache_pressures: Sequence[float] = (0.2, 0.8),
    cycles: int = 400_000,
    config: SystemConfig = None,
    seed: int = 5,
) -> CarProxyResult:
    config = config or scaled_config()
    result = CarProxyResult()
    for app in apps:
        spec = spec_by_name(app)
        ipc_alone, car_alone = _measure(config, [spec], cycles, seed)
        points = []
        for pressure in cache_pressures:
            for intensity in intensities:
                hog = hog_spec(intensity, cache_pressure=pressure)
                ipc, car = _measure(config, [spec, hog], cycles, seed)
                points.append((car / car_alone, ipc / ipc_alone))
        result.points[app] = points
    return result
