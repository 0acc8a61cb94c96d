"""Platform wiring: cores + shared LLC + memory controller + epoch driver.

:class:`MemoryHierarchy` glues the functional shared cache to the timing
model (MSHR coalescing, writebacks, prefetch issue) and exposes the two
event streams every slowdown model consumes:

* ``access_listeners(core, line_addr, is_write, hit, now)`` — one call per
  demand access at access time (secondary MSHR misses report ``hit=False``);
* ``service_listeners(core, is_hit, is_start, now)`` — service-interval
  edges: hits span the LLC latency, misses span access-to-fill. Models use
  these to maintain "cycles with at least one outstanding hit/miss"
  counters (Table 1's epoch-hit-time / epoch-miss-time).

:class:`System` adds the epoch driver (Section 4.2): every E cycles one
application is chosen — by default uniformly at random, or according to
``epoch_weights`` installed by a bandwidth-partitioning policy (ASM-Mem) —
and its requests get highest priority at the memory controller.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig
from repro.cpu.core import Core
from repro.cpu.prefetcher import StridePrefetcher
from repro.cpu.trace import TraceIterator
from repro.engine import Engine
from repro.cache.shared_cache import SharedCache
from repro.mem.controller import MemoryController
from repro.mem.request import MemRequest
from repro.mem.schedulers import Scheduler
from repro.obs.bus import TraceBus
from repro.obs.events import CACHE, EPOCH
from repro.telemetry.spec import TelemetrySpec

AccessListener = Callable[[int, int, bool, bool, int], None]
ServiceListener = Callable[[int, bool, bool, int], None]


class _MshrEntry:
    __slots__ = ("waiters", "primary_core")

    def __init__(self, primary_core: Optional[int] = None) -> None:
        # Core whose demand access created the entry; None for prefetches.
        # Only the primary access is visible to slowdown models.
        self.primary_core = primary_core
        self.waiters: List[Callable[[int], None]] = []


class MemoryHierarchy:
    """Shared LLC + MSHRs + writeback path + optional prefetchers."""

    def __init__(
        self,
        engine: Engine,
        config: SystemConfig,
        controller: MemoryController,
    ) -> None:
        self.engine = engine
        self.config = config
        self.controller = controller
        self.llc = SharedCache(config.llc, config.num_cores)
        self._llc_latency = config.llc.latency
        self.mshr: Dict[int, _MshrEntry] = {}
        self.access_listeners: List[AccessListener] = []
        self.service_listeners: List[ServiceListener] = []
        self.prefetchers: List[Optional[StridePrefetcher]] = [
            StridePrefetcher(config.core.prefetch_degree, config.core.prefetch_distance)
            if config.core.prefetcher_enabled
            else None
            for _ in range(config.num_cores)
        ]
        self.demand_hits = [0] * config.num_cores
        self.demand_misses = [0] * config.num_cores
        self.secondary_misses = [0] * config.num_cores
        # Per-access trace bus (repro.obs). System.__init__ sets this only
        # when the bus has the CACHE category enabled, so the hot path
        # pays a single attribute-load + None check per access.
        self.obs: Optional[TraceBus] = None

    def demand_accesses(self, core: int) -> int:
        """Primary demand accesses of ``core``: hits + misses by
        construction, so the Table 1 conservation law cannot drift."""
        return self.demand_hits[core] + self.demand_misses[core]

    # ------------------------------------------------------------------
    def access(
        self,
        core: int,
        line_addr: int,
        is_write: bool,
        on_complete: Optional[Callable[[int], None]],
    ) -> Optional[int]:
        """Demand access from ``core``; returns the completion time when it
        is known immediately (hit), else ``None`` (``on_complete`` fires)."""
        now = self.engine.now
        latency = self._llc_latency

        entry = self.mshr.get(line_addr)
        if entry is not None:
            # Line allocated but fill still in flight: MSHR secondary miss.
            # Timing-wise the access waits for the fill; statistically it is
            # invisible to the slowdown models (an alone run would merge it
            # into the same MSHR entry, so it carries no interference
            # information — exposing it would create phantom contention
            # misses: the ATS calls it a hit while the cache calls it a
            # miss even under zero interference).
            self.llc.access(core, line_addr, is_write)
            self.secondary_misses[core] += 1
            if on_complete is not None and not is_write:
                entry.waiters.append(on_complete)
            return None

        result = self.llc.access(core, line_addr, is_write)
        if result.hit:
            self.demand_hits[core] += 1
            if self.obs is not None:
                self.obs.emit(now, CACHE, "access", core=core, hit=True)
            completion = now + latency
            if self.access_listeners:
                self._notify_access(core, line_addr, is_write, True, now)
            if self.service_listeners:
                self._notify_service(core, True, True, now)
                self.engine.schedule_at(
                    completion,
                    lambda c=core: self._notify_service(c, True, False, completion),
                )
            self._maybe_prefetch(core, line_addr)
            return completion

        # Primary miss: allocate happened functionally; now the timing path.
        self.demand_misses[core] += 1
        if self.obs is not None:
            self.obs.emit(now, CACHE, "access", core=core, hit=False)
        if result.writeback_line_addr is not None:
            self._enqueue_writeback(result.victim_owner, result.writeback_line_addr)
        entry = _MshrEntry(primary_core=core)
        if on_complete is not None and not is_write:
            entry.waiters.append(on_complete)
        self.mshr[line_addr] = entry
        self._notify_access(core, line_addr, is_write, False, now)
        self._notify_service(core, False, True, now)
        request = MemRequest(
            core,
            line_addr,
            is_write=False,
            arrival_time=now + latency,
            callback=self._fill,
        )
        # The miss is only known after the tag lookup.
        self.engine.schedule(latency, lambda r=request: self.controller.enqueue(r))
        self._maybe_prefetch(core, line_addr)
        return None

    # ------------------------------------------------------------------
    def _fill(self, request: MemRequest) -> None:
        entry = self.mshr.pop(request.line_addr, None)
        if entry is None:  # pragma: no cover - defensive
            return
        time = request.completion_time
        assert time is not None
        if entry.primary_core is not None:
            self._notify_service(entry.primary_core, False, False, time)
        for waiter in entry.waiters:
            waiter(time)

    def _enqueue_writeback(self, owner: int, line_addr: int) -> None:
        request = MemRequest(
            owner, line_addr, is_write=True, arrival_time=self.engine.now
        )
        self.controller.enqueue(request)

    def _maybe_prefetch(self, core: int, line_addr: int) -> None:
        prefetcher = self.prefetchers[core]
        if prefetcher is None:
            return
        for target in prefetcher.observe(line_addr):
            if target in self.mshr or self.llc.contains(target):
                continue
            self.llc.allocate(core, target)
            self.mshr[target] = _MshrEntry()  # no demanders: pure prefetch
            request = MemRequest(
                core,
                target,
                is_write=False,
                is_prefetch=True,
                arrival_time=self.engine.now,
                callback=self._prefetch_fill,
            )
            self.controller.enqueue(request)

    def _prefetch_fill(self, request: MemRequest) -> None:
        entry = self.mshr.pop(request.line_addr, None)
        if entry is not None:
            # Demand accesses that arrived while the prefetch was in flight
            # wait for this fill (they were secondary misses).
            time = request.completion_time
            assert time is not None
            for waiter in entry.waiters:
                waiter(time)

    def _notify_access(
        self, core: int, line_addr: int, is_write: bool, hit: bool, now: int
    ) -> None:
        for listener in self.access_listeners:
            listener(core, line_addr, is_write, hit, now)

    def _notify_service(self, core: int, is_hit: bool, is_start: bool, now: int) -> None:
        for listener in self.service_listeners:
            listener(core, is_hit, is_start, now)


class System:
    """A complete simulated platform for one multiprogrammed run."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[TraceIterator],
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        enable_epochs: bool = True,
        epoch_assignment: str = "random",
        telemetry: Optional[TelemetrySpec] = None,
        obs: Optional[TraceBus] = None,
    ) -> None:
        """``epoch_assignment`` is "random" (the paper's probabilistic
        policy, required for ASM-Mem's weighted assignment) or
        "round_robin" (the alternative Section 4.2 mentions).
        ``telemetry`` attaches a deterministic counter-fault injector
        (see :mod:`repro.telemetry`) that every model's counter bank
        picks up when it attaches; ``None`` means perfect telemetry.
        ``obs`` is an optional :class:`~repro.obs.bus.TraceBus`; models
        and policies pick it up when they attach, the epoch driver emits
        ownership events through it, and — only when its CACHE category
        is enabled — the memory hierarchy traces individual accesses."""
        if epoch_assignment not in ("random", "round_robin"):
            raise ValueError("epoch_assignment must be 'random' or 'round_robin'")
        config.validate()
        if len(traces) != config.num_cores:
            raise ValueError(
                f"need {config.num_cores} traces, got {len(traces)}"
            )
        self.config = config
        self.telemetry = telemetry
        self.obs = obs
        if config.engine == "analytic":
            # The analytic tier has no event loop at all; silently falling
            # through to the scalar engine would simulate a cell the caller
            # asked to estimate in closed form.
            raise ValueError(
                "engine 'analytic' cells never construct a System; run them "
                "through repro.analytic (Campaign.run_mix / run_cells "
                "dispatch on config.engine)"
            )
        self.engine = Engine()
        self.controller = MemoryController(
            self.engine, config.dram, config.num_cores, scheduler
        )
        self.hierarchy = MemoryHierarchy(self.engine, config, self.controller)
        if obs is not None and obs.mask & CACHE:
            self.hierarchy.obs = obs
        self.cores = [
            Core(self.engine, i, config.core, trace, self.hierarchy.access)
            for i, trace in enumerate(traces)
        ]
        self.epoch_listeners: List[Callable[[int], None]] = []
        # Fired once the epoch's warm-up window (if any) has elapsed: the
        # owner's alone-like behaviour is now measurable.
        self.measure_listeners: List[Callable[[int], None]] = []
        self.quantum_listeners: List[Callable[[], None]] = []
        self.epoch_weights: Optional[List[float]] = None
        self.current_epoch_owner = -1
        self._epoch_rng = random.Random(seed ^ 0x5EED)
        self._epochs_enabled = enable_epochs and config.num_cores > 1
        self._epoch_assignment = epoch_assignment
        self._next_round_robin = 0
        self._started = False

    @property
    def epochs_enabled(self) -> bool:
        """Whether the epoch driver runs (multi-core with epochs on).

        Models consult this to distinguish "no epoch signal although there
        should be one" (a degradation worth flagging) from single-core /
        epochs-off runs where the absence is structural."""
        return self._epochs_enabled

    # ------------------------------------------------------------------
    def set_epoch_weights(self, weights: Optional[Sequence[float]]) -> None:
        """Install epoch-assignment probabilities (ASM-Mem). ``None`` means
        uniform. Weights are normalised at draw time."""
        if weights is not None:
            if len(weights) != self.config.num_cores:
                raise ValueError("one weight per core required")
            if min(weights) < 0 or sum(weights) <= 0:
                raise ValueError("weights must be non-negative, sum positive")
            self.epoch_weights = list(weights)
        else:
            self.epoch_weights = None

    def _start_epoch(self) -> None:
        cores = range(self.config.num_cores)
        if self._epoch_assignment == "round_robin":
            owner = self._next_round_robin
            self._next_round_robin = (owner + 1) % self.config.num_cores
        elif self.epoch_weights is None:
            owner = self._epoch_rng.randrange(self.config.num_cores)
        else:
            owner = self._epoch_rng.choices(cores, weights=self.epoch_weights)[0]
        self.current_epoch_owner = owner
        self.controller.set_priority_core(owner)
        obs = self.obs
        if obs is not None and obs.mask & EPOCH:
            obs.emit(self.engine.now, EPOCH, "epoch", owner=owner)
        for listener in self.epoch_listeners:
            listener(owner)
        warmup = self.config.epoch_warmup_cycles
        if warmup:
            self.controller.set_accounting_core(-1)
            self.engine.schedule(warmup, lambda o=owner: self._begin_measurement(o))
        else:
            self._begin_measurement(owner)
        self.engine.schedule(self.config.epoch_cycles, self._start_epoch)

    def _begin_measurement(self, owner: int) -> None:
        if owner != self.current_epoch_owner:  # pragma: no cover - defensive
            return
        self.controller.set_accounting_core(owner)
        obs = self.obs
        if obs is not None and obs.mask & EPOCH:
            obs.emit(self.engine.now, EPOCH, "measure", owner=owner)
        for listener in self.measure_listeners:
            listener(owner)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for core in self.cores:
            core.start()
        if self._epochs_enabled:
            self._start_epoch()

    def run_until(self, time: int, wall_deadline: Optional[float] = None) -> None:
        self.start()
        self.engine.run(until=time, wall_deadline=wall_deadline)

    def run_quantum(self, wall_deadline: Optional[float] = None) -> None:
        """Advance exactly one quantum and fire quantum listeners.

        ``wall_deadline`` (absolute ``time.monotonic`` seconds) bounds the
        real time the quantum may take; see :meth:`repro.engine.Engine.run`.
        """
        self.run_until(
            self.engine.now + self.config.quantum_cycles,
            wall_deadline=wall_deadline,
        )
        for listener in self.quantum_listeners:
            listener()

    def committed_instructions(self) -> List[int]:
        return [core.committed_instructions(self.engine.now) for core in self.cores]
