"""Fleet-scale ASM-QoS experiments (paper Section 7 at fleet scale).

Three questions, each one fleet run under the same campaign:

* **placement** — does ASM-aware placement beat naive bin-packing on
  SLA violations and mean slowdown? (``asm`` vs ``naive`` variants on a
  clean fleet.)
* **robustness** — under fleet chaos (node kills, stragglers,
  telemetry-degraded nodes) does the scheduler keep serving: how many
  rounds degrade to naive placement, how many SLA decisions fall back
  to the Yun-style worst-case bound, and does the tenant stream still
  finish? (``chaos`` variant.)
* **pricing fairness** — with hog tenants in the stream, how does
  slowdown-fair billing (Section 7.3) change what interference victims
  pay versus flat occupancy billing? (``hog-fair`` vs ``hog-flat``.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cloud.fleet import FleetResult, FleetSupervisor
from repro.cloud.spec import FleetChaosSpec, FleetSpec
from repro.cloud.tenants import tenant_stream
from repro.config import SystemConfig, scaled_config
from repro.experiments.common import format_table


@dataclass
class FleetRow:
    """Summary of one fleet variant."""

    variant: str
    placement: str
    completed: int
    shed: int
    unserved: int
    sla_violations: int
    oracle_violations: int
    bound_decisions: int
    degraded_rounds: int
    migrations: int
    node_kills: int
    hog_charge_per_quantum: float
    other_charge_per_quantum: float


@dataclass
class FleetQosResult:
    rows: List[FleetRow] = field(default_factory=list)
    results: Dict[str, FleetResult] = field(default_factory=dict)

    def row(self, variant: str) -> FleetRow:
        """The summary row for ``variant`` (KeyError if absent)."""
        for row in self.rows:
            if row.variant == variant:
                return row
        raise KeyError(variant)

    def format_table(self) -> str:
        header = (
            "Fleet tier (ASM-QoS at scale): placement policy, chaos "
            "robustness, and slowdown-fair pricing"
        )
        rows = [
            [
                r.variant,
                r.placement,
                r.completed,
                r.shed,
                r.unserved,
                r.sla_violations,
                r.oracle_violations,
                r.bound_decisions,
                r.degraded_rounds,
                r.migrations,
                r.node_kills,
                r.hog_charge_per_quantum,
                r.other_charge_per_quantum,
            ]
            for r in self.rows
        ]
        return header + "\n" + format_table(
            [
                "variant",
                "policy",
                "done",
                "shed",
                "unserved",
                "sla-viol",
                "oracle",
                "bound",
                "degraded",
                "migr",
                "kills",
                "hog$/q",
                "other$/q",
            ],
            rows,
        )


def _charge_per_quantum(result: FleetResult, spec: FleetSpec) -> Dict[str, float]:
    """Mean charge per served quantum, split hog vs non-hog tenants."""
    hog_ids = {t.tenant_id for t in tenant_stream(spec) if t.is_hog}
    totals = {"hog": 0.0, "other": 0.0}
    quanta = {"hog": 0, "other": 0}
    for record in result.billing:
        kind = "hog" if record.tenant_id in hog_ids else "other"
        totals[kind] += record.charge
        quanta[kind] += record.quanta
    return {
        kind: (totals[kind] / quanta[kind] if quanta[kind] else 0.0)
        for kind in ("hog", "other")
    }


def run(
    rounds: int = 6,
    quanta: int = 1,
    config: Optional[SystemConfig] = None,
    seed: int = 42,
    num_nodes: int = 3,
    cores_per_node: int = 2,
    num_tenants: int = 6,
    campaign=None,
    workers: int = 1,
) -> FleetQosResult:
    """Run the three fleet comparisons; see the module docstring."""
    from repro.resilience.campaign import Campaign

    if config is None:
        # The fleet sweep runs many small cells; short quanta keep the
        # whole experiment interactive without changing the story.
        config = scaled_config().with_quantum(200_000, 5_000)
    camp = campaign if campaign is not None else Campaign("fleet")

    base = dict(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        rounds=rounds,
        quanta_per_round=quanta,
        seed=seed,
        num_tenants=num_tenants,
        arrivals_per_round=max(1, num_tenants // 2),
    )
    chaos = FleetChaosSpec(
        node_kill_rate=0.15,
        straggler_rate=0.1,
        telemetry_rate=0.25,
        telemetry_class="dropped_read",
        telemetry_fault_rate=0.3,
        seed=seed,
    )
    specs = [
        FleetSpec(name="asm", placement="asm", **base),
        FleetSpec(name="naive", placement="naive", **base),
        FleetSpec(
            name="chaos", placement="asm", chaos=chaos,
            rounds=rounds * 3, **{k: v for k, v in base.items()
                                  if k != "rounds"},
        ),
        FleetSpec(name="hog-fair", placement="asm", hog_fraction=0.5,
                  billing="fair", **base),
        FleetSpec(name="hog-flat", placement="asm", hog_fraction=0.5,
                  billing="flat", **base),
    ]

    out = FleetQosResult()
    for spec in specs:
        supervisor = FleetSupervisor(spec, config, camp, workers=workers)
        result = supervisor.run()
        out.results[spec.name] = result
        charges = _charge_per_quantum(result, spec)
        out.rows.append(
            FleetRow(
                variant=spec.name,
                placement=spec.placement,
                completed=len(result.completed),
                shed=len(result.shed),
                unserved=len(result.unserved),
                sla_violations=result.sla_violations,
                oracle_violations=result.oracle_violations,
                bound_decisions=result.bound_decisions,
                degraded_rounds=(
                    result.naive_rounds if spec.placement == "asm" else 0
                ),
                migrations=result.migrations,
                node_kills=result.node_kills,
                hog_charge_per_quantum=charges["hog"],
                other_charge_per_quantum=charges["other"],
            )
        )
    return out


__all__ = ["FleetQosResult", "FleetRow", "run"]
