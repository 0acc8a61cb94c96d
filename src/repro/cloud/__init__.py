"""Fault-tolerant slowdown-aware fleet tier (the paper at fleet scale).

The paper's deployment story is datacenter-scale: ASM slowdown
estimates driving fair co-location and pricing across many tenants
(ASM-QoS, Section 7). This package composes every robustness layer the
repo has built into that system: a fleet of simulated multi-core nodes
(each node is one campaign cell running the existing simulator or the
analytic surrogate), a deterministic tenant job stream, and a
slowdown-aware scheduler that places, migrates, and bills tenants from
per-node ASM estimates.

Modules:

* :mod:`repro.cloud.spec` — :class:`FleetSpec` / :class:`FleetChaosSpec`,
  the frozen configuration of one fleet run;
* :mod:`repro.cloud.tenants` — the deterministic tenant stream drawn
  from the workload generators;
* :mod:`repro.cloud.chaos` — the fleet-level chaos plane: seeded node
  crash/restart, stragglers, telemetry-degraded nodes;
* :mod:`repro.cloud.node` — node state, the node model builder, and the
  Yun-style worst-case slowdown bound;
* :mod:`repro.cloud.sla` — SLA tracking: effective slowdowns that fall
  back to the worst-case bound when estimate confidence degrades;
* :mod:`repro.cloud.admission` — admission control that sheds load when
  fleet confidence drops;
* :mod:`repro.cloud.scheduler` — ASM-aware placement with graceful
  degradation to naive bin-packing, violation-triggered migration under
  :class:`~repro.durability.retry.RetryPolicy` backoff, and per-node
  circuit breakers;
* :mod:`repro.cloud.billing` — slowdown-fair pricing records;
* :mod:`repro.cloud.fleet` — the crash-resumable fleet supervisor;
* :mod:`repro.cloud.cli` — ``repro cloud run|report``.
"""

from __future__ import annotations

from repro.cloud.spec import FleetChaosSpec, FleetSpec
from repro.cloud.fleet import FleetResult, FleetSupervisor

__all__ = [
    "FleetChaosSpec",
    "FleetResult",
    "FleetSpec",
    "FleetSupervisor",
]
