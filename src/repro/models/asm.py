"""The Application Slowdown Model (Sections 3 and 4 of the paper).

Per quantum (Q cycles), for each application:

* ``CAR_shared`` is measured directly: shared-cache accesses / Q.
* ``CAR_alone`` is estimated from the epochs (E cycles) assigned to the
  application, during which its requests had highest memory priority:

  ::

      CAR_alone = (epoch-hits + epoch-misses) /
                  (epoch-count*E - epoch-excess-cycles
                                 - epoch-ATS-misses * avg-queueing-delay)

      epoch-excess-cycles = contention-misses * (avg-miss-time - avg-hit-time)
      contention-misses   = epoch-ATS-hits - epoch-hits

* slowdown = CAR_alone / CAR_shared.

The auxiliary tag store is optionally set-sampled (Section 4.4), in which
case ``epoch-ATS-hits`` is the sampled hit *fraction* scaled by the epoch
access count. Memory queueing residue is corrected per Section 4.3 using
the controller's queueing-cycle counters.

Every counter feeding the estimate is read through the model's
:class:`~repro.telemetry.counters.CounterBank` and validated against
physical invariants (hits <= accesses, non-negative queueing deltas, a
positive CAR_alone denominator). Violations possible in a healthy run are
clamped exactly as before but flagged with reduced confidence; violations
only counter faults can produce fall back to the last good quantum's
estimate (see :class:`~repro.models.base.EstimateGuard`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.auxtag import AuxiliaryTagStore
from repro.harness.system import System
from repro.models.base import OutstandingTracker, SlowdownModel


@dataclass
class AsmQuantumStats:
    """Snapshot of one application's ASM-visible behaviour for a quantum.

    Exposed so the resource-management policies built on ASM (ASM-Cache,
    ASM-Mem, ASM-QoS) can re-derive slowdowns for hypothetical cache
    allocations (Section 7.1's ``CAR_n``). ``confidence``/
    ``degraded_reason`` report the telemetry health of the quantum:
    policies skip reallocation decisions when confidence drops below
    :data:`~repro.models.base.POLICY_CONFIDENCE_FLOOR`.
    """

    slowdown: float = 1.0
    car_alone: float = 0.0
    car_shared: float = 0.0
    quantum_hits: int = 0
    quantum_misses: int = 0
    avg_hit_time: float = 0.0
    avg_miss_time: float = 0.0
    alone_avg_miss_time: float = 0.0
    utility_curve: List[float] = field(default_factory=list)
    quantum_cycles: int = 0
    confidence: float = 1.0
    degraded_reason: Optional[str] = None

    @property
    def quantum_accesses(self) -> int:
        """Total LLC accesses this quantum (conservation witness)."""
        return self.quantum_hits + self.quantum_misses


class AsmModel(SlowdownModel):
    """Online ASM estimator for every core of a system."""

    name = "asm"
    uses_epochs = True

    def __init__(
        self,
        sampled_sets: Optional[int] = None,
        queueing_correction: bool = True,
    ) -> None:
        """``sampled_sets=None`` keeps a full (unsampled) auxiliary tag
        store; the paper's practical configuration is 64 sampled sets.
        ``queueing_correction=False`` disables the Section 4.3 residual
        memory-queueing correction (ablation)."""
        super().__init__()
        self.sampled_sets = sampled_sets
        self.queueing_correction = queueing_correction
        self.ats: List[AuxiliaryTagStore] = []
        self.last_quantum: List[AsmQuantumStats] = []

    # ------------------------------------------------------------------
    def attach(self, system: System) -> None:
        """Hook the ATS and the ASM counters into ``system``'s streams."""
        super().attach(system)
        n = system.config.num_cores
        bank = self.bank
        assert bank is not None
        self.ats = [
            AuxiliaryTagStore(system.config.llc, self.sampled_sets)
            for _ in range(n)
        ]
        # Per-quantum counters, held by the model's telemetry bank. The
        # write path increments the raw values; the estimate reads them
        # back through the bank's guarded accessors.
        self._accesses = bank.vec("accesses")
        self._hits = bank.vec("hits")
        self._misses = bank.vec("misses")
        self._epoch_count = bank.vec("epoch_count")
        self._epoch_hits = bank.vec("epoch_hits")
        self._epoch_misses = bank.vec("epoch_misses")
        self._epoch_sampled_ats_hits = bank.vec("epoch_sampled_ats_hits", kind="ats")
        self._epoch_sampled_shared_hits = bank.vec(
            "epoch_sampled_shared_hits", kind="ats"
        )
        self._epoch_sampled_ats_accesses = bank.vec(
            "epoch_sampled_ats_accesses", kind="ats"
        )
        # Core currently being measured (its epoch is past warm-up).
        self._measuring = -1
        # (true owner, telemetry-attributed owner) of the current epoch.
        self._epoch_owners: Tuple[int, int] = (-1, -1)
        self._epoch_hit_time = [OutstandingTracker(gate_open=False) for _ in range(n)]
        self._epoch_miss_time = [OutstandingTracker(gate_open=False) for _ in range(n)]
        self._quantum_hit_time = [OutstandingTracker() for _ in range(n)]
        self._quantum_miss_time = [OutstandingTracker() for _ in range(n)]
        # Simulator-owned counters are sampled through the bank too.
        controller = system.controller
        self._queueing = bank.external(
            "queueing_cycles", lambda core: controller.queueing_cycles[core]
        )
        self._queueing.rebase()
        self._epoch_hit_sample = bank.external(
            "epoch_hit_time", lambda core: self._epoch_hit_time[core].read(self.now)
        )
        self._epoch_miss_sample = bank.external(
            "epoch_miss_time", lambda core: self._epoch_miss_time[core].read(self.now)
        )
        self._quantum_hit_sample = bank.external(
            "quantum_hit_time",
            lambda core: self._quantum_hit_time[core].read(self.now),
        )
        self._quantum_miss_sample = bank.external(
            "quantum_miss_time",
            lambda core: self._quantum_miss_time[core].read(self.now),
        )
        self.last_quantum = [AsmQuantumStats() for _ in range(n)]
        system.hierarchy.access_listeners.append(self._on_access)
        system.hierarchy.service_listeners.append(self._on_service)
        system.epoch_listeners.append(self._on_epoch)
        system.measure_listeners.append(self._on_measure)

    # ------------------------------------------------------------------
    def _on_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        self._accesses.add(core)
        if hit:
            self._hits.add(core)
        else:
            self._misses.add(core)
        outcome = self.ats[core].access(line_addr)
        if self._measuring == core:
            if hit:
                self._epoch_hits.add(core)
            else:
                self._epoch_misses.add(core)
            if outcome.sampled:
                self._epoch_sampled_ats_accesses.add(core)
                if outcome.hit:
                    self._epoch_sampled_ats_hits.add(core)
                if hit:
                    self._epoch_sampled_shared_hits.add(core)

    def _on_service(self, core: int, is_hit: bool, is_start: bool, now: int) -> None:
        epoch = self._epoch_hit_time[core] if is_hit else self._epoch_miss_time[core]
        quantum = (
            self._quantum_hit_time[core] if is_hit else self._quantum_miss_time[core]
        )
        if is_start:
            epoch.start(now)
            quantum.start(now)
        else:
            epoch.end(now)
            quantum.end(now)

    def _on_epoch(self, owner: int) -> None:
        now = self.now
        assert self.bank is not None
        # An epoch-ownership glitch credits the epoch to the wrong core in
        # the model's counters; the controller still prioritises ``owner``.
        attributed = self.bank.attribute_epoch(owner)
        self._epoch_owners = (owner, attributed)
        self._epoch_count.add(attributed)
        self._measuring = -1
        for core in range(self.num_cores):
            self._epoch_hit_time[core].set_gate(False, now)
            self._epoch_miss_time[core].set_gate(False, now)

    def _on_measure(self, owner: int) -> None:
        now = self.now
        true_owner, attributed = self._epoch_owners
        if owner == true_owner:
            owner = attributed
        self._measuring = owner
        self._epoch_hit_time[owner].set_gate(True, now)
        self._epoch_miss_time[owner].set_gate(True, now)

    # ------------------------------------------------------------------
    def estimate_slowdowns(self) -> List[float]:
        """Per-core ASM slowdown (CAR-alone over CAR-shared) estimates."""
        assert self.system is not None
        assert self.bank is not None and self.guard is not None
        bank = self.bank
        guard = self.guard
        config = self.system.config
        quantum = config.quantum_cycles
        # Only the post-warm-up portion of each epoch is measured.
        epoch_len = config.epoch_cycles - config.epoch_warmup_cycles
        epochs_on = self.system.epochs_enabled
        estimates: List[float] = []
        llc_latency = config.llc.latency

        for core in range(self.num_cores):
            stats = AsmQuantumStats()
            stats.quantum_cycles = quantum
            # One guarded read per counter per quantum; all reads happen
            # up front so every telemetry sample is taken (and every read
            # fault fires) regardless of which estimate path runs.
            accesses = self._accesses.read(core)
            hits = self._hits.read(core)
            misses = self._misses.read(core)
            q_hit_time = self._quantum_hit_sample.read(core)
            q_miss_time = self._quantum_miss_sample.read(core)
            epoch_count = self._epoch_count.read(core)
            epoch_hits = self._epoch_hits.read(core)
            epoch_misses = self._epoch_misses.read(core)
            hit_time = self._epoch_hit_sample.read(core)
            miss_time = self._epoch_miss_sample.read(core)
            sampled_acc = self._epoch_sampled_ats_accesses.read(core)
            sampled_ats_hits = self._epoch_sampled_ats_hits.read(core)
            sampled_shared_hits = self._epoch_sampled_shared_hits.read(core)
            if self.queueing_correction:
                queueing = self._queueing.delta(core)
            else:
                queueing = 0

            stats.quantum_hits = hits
            stats.quantum_misses = misses
            stats.avg_hit_time = q_hit_time / hits if hits else float(llc_latency)
            stats.avg_miss_time = q_miss_time / misses if misses else 0.0
            stats.utility_curve = self.ats[core].utility_curve()
            stats.car_shared = accesses / quantum

            epoch_accesses = epoch_hits + epoch_misses
            prioritized = epoch_count * epoch_len

            soft: List[str] = []
            if prioritized <= 0 or epoch_accesses == 0 or stats.car_shared == 0:
                if epochs_on and accesses > 0:
                    soft.append("no-epoch-signal")
                estimate = 1.0
            else:
                # Epoch-scoped service times (alone-like, thanks to priority).
                avg_hit = hit_time / epoch_hits if epoch_hits else float(llc_latency)
                avg_miss = miss_time / epoch_misses if epoch_misses else 0.0
                stats.alone_avg_miss_time = avg_miss

                if sampled_acc:
                    hit_fraction = sampled_ats_hits / sampled_acc
                    # Contention misses (Section 4.4): estimate the ATS-vs-
                    # shared hit *difference* on the sampled sets and scale it.
                    # Differencing on the same sampled subset cancels the
                    # correlated sampling noise that differencing a sampled
                    # count against an exact count would amplify.
                    contention_fraction = max(
                        0.0,
                        (sampled_ats_hits - sampled_shared_hits) / sampled_acc,
                    )
                else:
                    hit_fraction = 0.0
                    contention_fraction = 0.0
                ats_hits = hit_fraction * epoch_accesses
                ats_misses = epoch_accesses - ats_hits

                contention_misses = contention_fraction * epoch_accesses
                excess = contention_misses * max(0.0, avg_miss - avg_hit)

                avg_queueing_delay = queueing / epoch_misses if epoch_misses else 0.0

                denom = prioritized - excess - ats_misses * avg_queueing_delay
                if denom <= 0:
                    denom = max(1.0, 0.05 * prioritized)
                    soft.append("degenerate-denominator")
                stats.car_alone = epoch_accesses / denom
                estimate = self.clamp_slowdown(stats.car_alone / stats.car_shared)

            # Hard violations: impossible without counter faults.
            hard: List[str] = []
            if hits + misses != accesses:
                hard.append("counter-conservation")
            if epoch_hits > hits or epoch_misses > misses:
                hard.append("epoch-exceeds-quantum")
            if (
                sampled_ats_hits > sampled_acc
                or sampled_shared_hits > sampled_acc
            ):
                hard.append("ats-sample-implausible")
            if queueing < 0:
                hard.append("negative-queueing")
            hard.extend(bank.collect_flags(core))

            stats.slowdown = guard.resolve(core, estimate, soft, hard)
            stats.confidence = guard.confidence[core]
            stats.degraded_reason = guard.reasons[core]
            estimates.append(stats.slowdown)
            self.last_quantum[core] = stats
        return estimates

    def reset_quantum(self) -> None:
        """Reset per-quantum counters; the ATS keeps its learned tags."""
        assert self.system is not None and self.bank is not None
        now = self.now
        n = self.num_cores
        self.bank.reset()
        self._queueing.rebase()
        for core in range(n):
            self._epoch_hit_time[core].reset(now)
            self._epoch_miss_time[core].reset(now)
            self._quantum_hit_time[core].reset(now)
            self._quantum_miss_time[core].reset(now)
            self.ats[core].reset_stats()

    def trace_stats(self) -> Optional[List[Dict[str, float]]]:
        """Per-core :class:`AsmQuantumStats` projection for the MODEL
        trace event — exactly the numbers the model itself used, so the
        trace inspector's CAR columns match ``last_quantum`` by
        construction."""
        return [
            {
                "car_alone": s.car_alone,
                "car_shared": s.car_shared,
                "quantum_hits": float(s.quantum_hits),
                "quantum_misses": float(s.quantum_misses),
                "avg_hit_time": s.avg_hit_time,
                "avg_miss_time": s.avg_miss_time,
            }
            for s in self.last_quantum
        ]

    # ------------------------------------------------------------------
    def car_for_ways(self, core: int, ways: int) -> float:
        """Section 7.1's ``CAR_n``: estimated cache access rate of ``core``
        had it been allocated ``ways`` LLC ways during the last quantum."""
        stats = self.last_quantum[core]
        accesses = stats.quantum_accesses
        if accesses == 0 or not stats.utility_curve:
            return 0.0
        hits_n = stats.utility_curve[min(ways, len(stats.utility_curve) - 1)]
        delta_hits = hits_n - stats.quantum_hits
        service_gap = max(0.0, stats.avg_miss_time - stats.avg_hit_time)
        cycles_n = stats.quantum_cycles - delta_hits * service_gap
        if cycles_n <= 0:
            cycles_n = max(1.0, 0.05 * stats.quantum_cycles)
        return accesses / cycles_n

    def slowdown_for_ways(self, core: int, ways: int) -> float:
        """Estimated slowdown of ``core`` with an allocation of ``ways``."""
        car_n = self.car_for_ways(core, ways)
        if car_n <= 0:
            return self.clamp_slowdown(float("inf"))
        return self.clamp_slowdown(self.last_quantum[core].car_alone / car_n)
