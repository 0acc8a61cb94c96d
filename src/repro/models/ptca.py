"""PTCA [14]: per-thread cycle accounting.

Like FST, PTCA subtracts per-request interference cycles from the shared
execution time, but identifies contention misses with a per-application
auxiliary tag store instead of a pollution filter. With a *sampled* ATS
(the practical configuration), contention misses and their latencies are
observed only on requests mapping to sampled sets and scaled up — the
scaling of noisy per-request latencies is what makes sampled PTCA the least
accurate model in the paper's Figure 3 (40.4% error).

The sampled counters are registered as ``kind="ats"`` in the model's
:class:`~repro.telemetry.counters.CounterBank`, making them eligible for
set-sample corruption faults; implausible samples (contention exceeding
sampled accesses, more sampled than total accesses) trip the hard
degradation path of :class:`~repro.models.base.EstimateGuard`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.auxtag import AuxiliaryTagStore
from repro.harness.system import System
from repro.mem.request import MemRequest
from repro.models.base import SlowdownModel
from repro.models.perrequest import PerRequestAccounting


class PtcaModel(SlowdownModel):
    """PTCA prior-work baseline: per-request delay + cache-aware ATS."""

    name = "ptca"
    uses_epochs = False

    def __init__(self, sampled_sets: Optional[int] = None) -> None:
        super().__init__()
        self.sampled_sets = sampled_sets
        self.ats: List[AuxiliaryTagStore] = []
        # Per-core alone miss latency estimated in the last quantum (the
        # Fig 6 latency-distribution study reads this after the run).
        self.last_alone_miss_latency: List[float] = []

    def attach(self, system: System) -> None:
        """Hook the ATS and per-request accounting into ``system``."""
        super().attach(system)
        n = system.config.num_cores
        bank = self.bank
        assert bank is not None
        self.ats = [
            AuxiliaryTagStore(system.config.llc, self.sampled_sets) for _ in range(n)
        ]
        self._sampled_contention = bank.vec("sampled_contention", kind="ats")
        self._sampled_accesses = bank.vec("sampled_accesses", kind="ats")
        self._total_accesses = bank.vec("total_accesses")
        # With sampling, PTCA can only observe requests to sampled sets:
        # both their latencies and their interference cycles are measured
        # on the sample and scaled up (Section 2.2).
        latency_filter = self._request_is_sampled if self.sampled_sets else None
        acct = PerRequestAccounting(
            system, latency_filter, filter_interference=True
        )
        self._accounting = acct
        self._interference = bank.external(
            "interference_cycles", lambda core: acct.interference_cycles[core]
        )
        self._miss_busy = bank.external(
            "miss_busy", lambda core: acct.miss_busy_cycles(core)
        )
        system.hierarchy.access_listeners.append(self._on_access)

    def _request_is_sampled(self, request: MemRequest) -> bool:
        ats = self.ats[request.core]
        set_index = request.line_addr % ats.num_sets
        return set_index % ats.sample_stride == 0

    def _on_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        self._total_accesses.add(core)
        outcome = self.ats[core].access(line_addr)
        if not outcome.sampled:
            return
        self._sampled_accesses.add(core)
        if not hit and outcome.hit:
            self._sampled_contention.add(core)

    def estimate_slowdowns(self) -> List[float]:
        """Per-core PTCA slowdown from cache- and memory-delay cycles."""
        assert self.system is not None
        assert self.bank is not None and self.guard is not None
        bank = self.bank
        guard = self.guard
        quantum = self.system.config.quantum_cycles
        hit_latency = float(self.system.config.llc.latency)
        estimates: List[float] = []
        self.last_alone_miss_latency = [
            self._accounting.avg_alone_miss_latency(core, default=float("nan"))
            for core in range(self.num_cores)
        ]
        for core in range(self.num_cores):
            sampled_contention = self._sampled_contention.read(core)
            sampled_accesses = self._sampled_accesses.read(core)
            total_accesses = self._total_accesses.read(core)
            interference_raw = self._interference.read(core)
            miss_busy = self._miss_busy.read(core)

            if sampled_accesses:
                scale = total_accesses / sampled_accesses
            else:
                scale = 1.0
            contention = sampled_contention * scale
            avg_alone_miss = self._accounting.avg_alone_miss_latency(
                core, default=hit_latency
            )
            cache_excess = (
                contention
                * max(0.0, avg_alone_miss - hit_latency)
                / self._accounting.parallelism(core)
            )
            # Interference cycles were observed only on sampled-set
            # requests; scale them to the full request stream.
            memory_interference = interference_raw
            if self.sampled_sets:
                memory_interference *= scale
            interference = memory_interference + cache_excess
            # A hardware interference counter increments at most once per
            # cycle with an outstanding miss.
            interference = min(interference, miss_busy)

            soft: List[str] = []
            alone_time = quantum - interference
            if alone_time <= 0:
                alone_time = max(1.0, 0.02 * quantum)
                soft.append("degenerate-denominator")
            estimate = self.clamp_slowdown(quantum / alone_time)

            hard: List[str] = []
            if (
                sampled_contention > sampled_accesses
                or sampled_accesses > total_accesses
            ):
                hard.append("ats-sample-implausible")
            if interference_raw < 0 or miss_busy < 0:
                hard.append("negative-interference")
            hard.extend(bank.collect_flags(core))
            estimates.append(guard.resolve(core, estimate, soft, hard))
        return estimates

    def reset_quantum(self) -> None:
        """Reset counters and accounting; the ATS keeps its learned tags."""
        assert self.bank is not None
        self.bank.reset()
        self._accounting.reset()
        for ats in self.ats:
            ats.reset_stats()
