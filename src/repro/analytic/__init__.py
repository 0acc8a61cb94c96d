"""Analytical fast-path surrogates: closed-form slowdown estimates.

The fast execution tier. Where the event loop (:mod:`repro.harness`)
simulates every access, :mod:`repro.analytic` replaces per-access
simulation with per-phase math:

1. :mod:`repro.analytic.reuse` samples each core's deterministic trace
   generator and extracts a joint reuse-distance / time-distance
   histogram (Fenwick-tree stack distances, geometric buckets);
2. :mod:`repro.analytic.llc` composes the per-core histograms into
   shared-LLC hit rates under interleaving (Barai-style distance
   inflation: a reuse at stack distance ``d`` separated by ``Δt``
   cycles survives iff ``d`` plus every co-runner's distinct-line
   insertions over ``Δt`` still fits in the cache);
3. :mod:`repro.analytic.cpi` turns hit rates plus a DRAM service-time
   and queueing-delay model into per-core CPI via a PPT-style interval
   core model, iterated to a damped fixed point;
4. :mod:`repro.analytic.runner` packages the converged rates as a
   :class:`~repro.harness.runner.RunResult` so campaigns, surveys and
   the fleet tier consume analytic cells unchanged, and
   :mod:`repro.analytic.crossval` cross-validates the tier against the
   event oracle, persisting a divergence report into the campaign
   store.

Cells opt in by declaring ``fidelity: analytical`` (CLI ``--fidelity``),
which maps onto ``config.engine == "analytic"``; see ``docs/fidelity.md``
for the tier decision table and the regimes where the surrogate is
known to be inaccurate.
"""

from repro.analytic.crossval import (
    ASM_DIVERGENCE_TOLERANCE_PCT,
    DivergenceReport,
    cross_validate,
)
from repro.analytic.runner import (
    ENGINE_FOR_FIDELITY,
    FIDELITY_TIERS,
    resolve_fidelity,
    run_analytic,
)

__all__ = [
    "ASM_DIVERGENCE_TOLERANCE_PCT",
    "DivergenceReport",
    "ENGINE_FOR_FIDELITY",
    "FIDELITY_TIERS",
    "cross_validate",
    "resolve_fidelity",
    "run_analytic",
]
