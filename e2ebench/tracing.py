"""Span tracer and the traced run's instrumentation of the public layer API.

The traced run measures every layer *from outside*: it wraps public
functions and methods of each ``repro`` layer (and the engine's public
scheduling API) for the duration of the run, then restores them. Nothing
inside ``repro`` knows it is being traced, and the untimed runs install
nothing.

Two kinds of boundary share one frame stack, so self time is consistent
across them:

* **recorded spans** — one record per call (cell, alone collection,
  quantum, store write), kept in memory and written out when the run ends.
  Spans of one cell share that cell's id.
* **aggregated boundaries** — per-access calls (hierarchy access, LLC
  access, controller enqueue, scheduler pick, trace ``__next__``, engine
  callbacks) keep only a call count and summed inclusive/self time, so
  memory stays bounded however long the run is.

A frame's self time is its duration minus the durations of the frames
directly nested in it.
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Any, Callable, Dict, List, Tuple

#: Frame key of the per-cell container span. Its self time is glue no
#: layer owns, so it counts as unattributed rather than as a layer.
CELL = "cell"


class Acc:
    """Call count, inclusive seconds and self seconds of one frame key."""

    __slots__ = ("calls", "total", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0


class Tracer:
    """A frame stack with per-key accumulators and recorded spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Frame: [acc, start, child_seconds, span_index or -1]
        self._stack: List[list] = []
        self._open_spans: List[int] = []
        self.accs: Dict[str, Acc] = {}
        self.counts: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []
        self.cell_id = -1

    def acc(self, key: str) -> Acc:
        """The accumulator for ``key``, created on first use."""
        found = self.accs.get(key)
        if found is None:
            found = self.accs[key] = Acc()
        return found

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- frames ---------------------------------------------------------
    def enter(self, key: str, span: str = "") -> None:
        """Open a frame; a non-empty ``span`` also records it."""
        index = -1
        if span:
            index = len(self.spans)
            self.spans.append({
                "name": span,
                "cell": self.cell_id,
                "parent": self._open_spans[-1] if self._open_spans else -1,
            })
            self._open_spans.append(index)
        self._stack.append([self.acc(key), self.clock(), 0.0, index])

    def exit(self) -> None:
        """Close the innermost frame."""
        acc, start, child, index = self._stack.pop()
        end = self.clock()
        duration = end - start
        own = duration - child
        acc.calls += 1
        acc.total += duration
        acc.self_s += own
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self._open_spans.pop()
            record = self.spans[index]
            record["start"] = start
            record["end"] = end
            record["self_s"] = own

    def timed(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in an aggregated frame (the hot-path form)."""
        acc = self.acc(key)
        stack = self._stack
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [acc, clock(), 0.0, -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[1]
                acc.calls += 1
                acc.total += duration
                acc.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def spanned(self, key: str, span: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped in a recorded span."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.enter(key, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def in_cell(self) -> bool:
        """Whether a cell span is open."""
        return any(self.spans[i]["name"] == CELL for i in self._open_spans)

    def begin_cell(self) -> None:
        """Open a cell span under a fresh cell id."""
        self.cell_id += 1
        self.enter(CELL, CELL)

    def self_seconds(self, key: str) -> float:
        """Summed self time of ``key`` (0 when never entered)."""
        acc = self.accs.get(key)
        return acc.self_s if acc is not None else 0.0

    def total_seconds(self, key: str) -> float:
        """Summed inclusive time of ``key``."""
        acc = self.accs.get(key)
        return acc.total if acc is not None else 0.0

    def calls(self, key: str) -> int:
        """How many frames of ``key`` closed."""
        acc = self.accs.get(key)
        return acc.calls if acc is not None else 0


# ----------------------------------------------------------------------
# Instrumentation of the repro layers
# ----------------------------------------------------------------------

def _layer_of_module(module: str) -> str:
    """``repro.mem.controller`` -> ``mem``; non-repro code -> ``other``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    return parts[1]


def _layer_of_file(filename: str, package_dir: str) -> str:
    """The layer owning a code object, from the file it was compiled from
    (``package_dir`` is the ``repro`` package directory)."""
    if not filename.startswith(package_dir + os.sep):
        return "other"
    rel = os.path.relpath(filename, package_dir)
    head = rel.split(os.sep)[0]
    return head[:-3] if head.endswith(".py") else head


class Instrumentation:
    """Installs the traced run's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[Any, str, Any]] = []
        self._keys: Dict[Any, str] = {}
        self._model_cls: Any = None
        self._policy_cls: Any = None
        self._package_dir = ""
        self._started: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._quantum_prev: "weakref.WeakKeyDictionary[Any, Tuple[int, ...]]" = (
            weakref.WeakKeyDictionary()
        )

    # -- patching helpers -----------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _counting(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.tracer.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def owner_key(self, callback: Callable[..., Any]) -> str:
        """Frame key of an engine callback or listener: ``models.<name>``
        for a slowdown model, ``policies`` for a policy, else the layer of
        the module that defines the bound method's class or the closure."""
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            if isinstance(owner, self._model_cls):
                return f"models.{owner.name}"
            cls = type(owner)
            key = self._keys.get(cls)
            if key is None:
                key = "policies" if isinstance(owner, self._policy_cls) else (
                    _layer_of_module(cls.__module__)
                )
                self._keys[cls] = key
            return key
        code = getattr(callback, "__code__", None)
        key = self._keys.get(code)
        if key is None:
            key = (
                _layer_of_file(code.co_filename, self._package_dir)
                if code is not None else "other"
            )
            self._keys[code] = key
        return key

    def _wrap_listener(self, listener: Callable[..., Any]) -> Callable[..., Any]:
        return self.tracer.timed(self.owner_key(listener), listener)

    def cell(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` as one cell span, unless a cell span is already open."""
        tracer = self.tracer

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.in_cell():
                return fn(*args, **kwargs)
            tracer.begin_cell()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    # -- install ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics are taken at."""
        import repro
        from repro.models.base import SlowdownModel
        from repro.policies.base import Policy

        self._package_dir = os.path.dirname(os.path.abspath(repro.__file__))
        self._model_cls = SlowdownModel
        self._policy_cls = Policy
        try:
            self._install_simulator()
            self._install_runner()
            self._install_store()
            self._install_analytic()
            self._install_cloud()
        except BaseException:
            self.uninstall()
            raise

    def _install_simulator(self) -> None:
        from repro.cache.auxtag import AuxiliaryTagStore
        from repro.cache.shared_cache import SharedCache
        from repro.engine import Engine
        from repro.harness.system import MemoryHierarchy, System
        from repro.mem.controller import MemoryController
        from repro.mem.schedulers import Scheduler
        from repro.workloads.synthetic import SyntheticTrace

        tracer = self.tracer
        counts = tracer.counts
        self._patch(SyntheticTrace, "__next__",
                    tracer.timed("workloads.next", SyntheticTrace.__next__))
        # Cores capture ``hierarchy.access`` when the System is built, so
        # the class attribute must be wrapped before any System exists.
        self._patch(MemoryHierarchy, "access",
                    tracer.timed("harness.hierarchy", MemoryHierarchy.access))

        llc_access = tracer.timed("cache.llc", SharedCache.access)

        def counted_llc_access(*args: Any, **kwargs: Any) -> Any:
            result = llc_access(*args, **kwargs)
            if result.hit:
                counts["cache.llc_hits"] = counts.get("cache.llc_hits", 0) + 1
            return result

        self._patch(SharedCache, "access", counted_llc_access)
        self._patch(MemoryController, "enqueue", tracer.timed(
            "mem", self._counting("mem.requests", MemoryController.enqueue)
        ))
        pending = [Scheduler]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "pick" in cls.__dict__:
                self._patch(cls, "pick", tracer.timed("mem.pick", cls.__dict__["pick"]))
        self._patch(AuxiliaryTagStore, "access", self._counting(
            "models.ats_accesses", AuxiliaryTagStore.access
        ))
        # Reallocations: the policy layer's only writes into the platform.
        self._patch(SharedCache, "set_partition", self._counting(
            "policies.reallocations", SharedCache.set_partition
        ))
        self._patch(System, "set_epoch_weights", self._counting(
            "policies.reallocations", System.set_epoch_weights
        ))
        original_add_eviction = SharedCache.add_eviction_listener

        def add_eviction_listener(cache: Any, listener: Any) -> None:
            original_add_eviction(cache, self._wrap_listener(listener))

        self._patch(SharedCache, "add_eviction_listener", add_eviction_listener)
        self._install_engine(Engine)
        self._install_system(System)

    def _install_engine(self, engine_cls: Any) -> None:
        """Dispatch every scheduled callback through a timed frame keyed by
        the module that owns it (the engine's public scheduling API)."""
        tracer = self.tracer
        timed = tracer.timed
        owner_key = self.owner_key
        original_schedule = engine_cls.schedule
        original_schedule_at = engine_cls.schedule_at

        def schedule(engine: Any, delay: int, callback: Callable[[], None]) -> None:
            original_schedule(engine, delay, timed(owner_key(callback), callback))

        def schedule_at(engine: Any, when: int, callback: Callable[[], None]) -> None:
            original_schedule_at(engine, when, timed(owner_key(callback), callback))

        self._patch(engine_cls, "schedule", schedule)
        self._patch(engine_cls, "schedule_at", schedule_at)
        original_run = tracer.timed("engine", engine_cls.run)

        def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return original_run(engine, *args, **kwargs)
            finally:
                tracer.count("engine.events", engine.events_executed)

        self._patch(engine_cls, "run", run)

    def _install_system(self, system_cls: Any) -> None:
        """By the first ``System.start`` every model, policy and checker is
        attached: wrap their listeners so each owner's time lands in its
        own frame. Each quantum is a recorded span, and the controller's
        counters are folded in at every quantum boundary."""
        original_start = system_cls.start
        original_quantum = system_cls.run_quantum

        def start(system: Any) -> None:
            if system not in self._started:
                self._started.add(system)
                for listeners in (
                    system.hierarchy.access_listeners,
                    system.hierarchy.service_listeners,
                    system.epoch_listeners,
                    system.measure_listeners,
                    system.quantum_listeners,
                    system.controller.completion_listeners,
                ):
                    listeners[:] = [self._wrap_listener(fn) for fn in listeners]
            original_start(system)

        quantum = self.tracer.spanned("runner", "quantum", original_quantum)

        def run_quantum(system: Any, *args: Any, **kwargs: Any) -> None:
            quantum(system, *args, **kwargs)
            self._fold_controller(system)

        self._patch(system_cls, "start", start)
        self._patch(system_cls, "run_quantum", run_quantum)

    def _fold_controller(self, system: Any) -> None:
        controller = system.controller
        now = (
            sum(controller.row_hits),
            sum(controller.row_misses),
            sum(controller.queueing_cycles),
            sum(controller.reads_issued),
        )
        prev = self._quantum_prev.get(system, (0, 0, 0, 0))
        self._quantum_prev[system] = now
        for name, value, before in zip(
            ("mem.row_hits", "mem.row_misses", "mem.queueing_cycles", "mem.reads"),
            now,
            prev,
        ):
            self.tracer.count(name, value - before)

    def _install_runner(self) -> None:
        import repro.harness.runner as runner
        import repro.resilience.campaign as campaign
        from repro.harness.runner import AloneRunCache
        from repro.resilience.campaign import Campaign, PersistentAloneRunCache

        alone = self.tracer.spanned("runner.alone", "run_alone", runner.run_alone)
        self._patch(runner, "run_alone", alone)
        self._patch(campaign, "run_alone", alone)
        for cls in (AloneRunCache, PersistentAloneRunCache):
            self._patch(cls, "get",
                        self._counting("runner.alone_lookups", cls.__dict__["get"]))
        self._patch(runner, "run_workload", self.cell(runner.run_workload))
        self._patch(Campaign, "run_mix", self.cell(Campaign.run_mix))

    def _install_store(self) -> None:
        from repro.durability.store import ChecksummedLog

        tracer = self.tracer
        write = tracer.spanned("store", "store_write", ChecksummedLog.append)

        def append(log: Any, payload: Any) -> int:
            before = os.path.getsize(log.path) if os.path.exists(log.path) else 0
            seq = write(log, payload)
            tracer.count("store.bytes", os.path.getsize(log.path) - before)
            return seq

        self._patch(ChecksummedLog, "append", append)
        self._patch(os, "fsync", self._counting("store.fsyncs", os.fsync))

    def _install_analytic(self) -> None:
        import repro.analytic.reuse as reuse
        import repro.analytic.runner as analytic_runner
        import repro.experiments.common as common

        tracer = self.tracer
        extract = tracer.timed("analytic.profile", reuse.extract_profile)

        def extract_profile(*args: Any, **kwargs: Any) -> Any:
            drawn_before = tracer.calls("workloads.next")
            profile = extract(*args, **kwargs)
            drawn = tracer.calls("workloads.next") - drawn_before
            tracer.count("analytic.sampled_accesses", drawn)
            tracer.count("analytic.lookups")
            if drawn == 0:
                tracer.count("analytic.memo_hits")
            return profile

        self._patch(reuse, "extract_profile", extract_profile)
        for name in ("solve_shared", "solve_alone"):
            self._patch(analytic_runner, name,
                        tracer.timed("analytic.solve", getattr(analytic_runner, name)))
        self._patch(common, "run_analytic", self.cell(common.run_analytic))

    def _install_cloud(self) -> None:
        from repro.cloud.fleet import FleetSupervisor

        self._patch(FleetSupervisor, "run",
                    self.tracer.timed("cloud", FleetSupervisor.run))


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics the traced run reports, from ``tracer``."""
    t = tracer
    counts = t.counts

    def count(name: str) -> float:
        return float(counts.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    lookups = count("runner.alone_lookups")
    alone_runs = float(t.calls("runner.alone"))
    cell_spans = [s for s in t.spans if s["name"] == CELL]
    fleet_cells_s = 0.0
    if t.calls("cloud"):
        fleet_cells_s = sum(s["end"] - s["start"] for s in cell_spans)
    layer_self = sum(acc.self_s for key, acc in t.accs.items() if key != CELL)
    analytic_lookups = count("analytic.lookups")
    return {
        "workloads.next_calls": float(t.calls("workloads.next")),
        "workloads.next_s": t.self_seconds("workloads.next"),
        "runner.alone_runs": alone_runs,
        "runner.alone_s": t.total_seconds("runner.alone"),
        "runner.alone_hit_ratio": ratio(lookups - alone_runs, lookups),
        "runner.alone_share": ratio(t.total_seconds("runner.alone"), traced_wall_s),
        "runner.self_s": t.self_seconds("runner") + t.self_seconds("runner.alone"),
        "engine.events": count("engine.events"),
        "engine.self_s": t.self_seconds("engine"),
        "cpu.events": float(t.calls("cpu")),
        "cpu.self_s": t.self_seconds("cpu"),
        "harness.hierarchy_calls": float(t.calls("harness.hierarchy")),
        "harness.hierarchy_self_s": t.self_seconds("harness.hierarchy"),
        "harness.self_s": t.self_seconds("harness"),
        "cache.llc_accesses": float(t.calls("cache.llc")),
        "cache.llc_s": t.self_seconds("cache.llc"),
        "cache.llc_hit_ratio": ratio(count("cache.llc_hits"), float(t.calls("cache.llc"))),
        "mem.requests": count("mem.requests"),
        "mem.self_s": t.self_seconds("mem"),
        "mem.pick_calls": float(t.calls("mem.pick")),
        "mem.pick_s": t.self_seconds("mem.pick"),
        "mem.row_hit_ratio": ratio(
            count("mem.row_hits"), count("mem.row_hits") + count("mem.row_misses")
        ),
        "mem.queueing_cycles_per_read": ratio(
            count("mem.queueing_cycles"), count("mem.reads")
        ),
        "models.fst_s": t.self_seconds("models.fst"),
        "models.ptca_s": t.self_seconds("models.ptca"),
        "models.asm_s": t.self_seconds("models.asm"),
        "models.mise_s": t.self_seconds("models.mise"),
        "models.ats_accesses": count("models.ats_accesses"),
        "policies.s": t.self_seconds("policies"),
        "policies.reallocations": count("policies.reallocations"),
        "resilience.self_s": t.self_seconds("resilience"),
        "store.writes": float(t.calls("store")),
        "store.fsyncs": count("store.fsyncs"),
        "store.bytes": count("store.bytes"),
        "store.write_s": t.self_seconds("store"),
        "analytic.profile_s": t.total_seconds("analytic.profile"),
        "analytic.sampled_accesses": count("analytic.sampled_accesses"),
        "analytic.solve_s": t.total_seconds("analytic.solve"),
        "analytic.memo_hit_ratio": ratio(count("analytic.memo_hits"), analytic_lookups),
        "cloud.cells": float(len(cell_spans)) if t.calls("cloud") else 0.0,
        "cloud.cell_s": fleet_cells_s,
        "cloud.supervise_s": t.total_seconds("cloud") - fleet_cells_s,
        "trace.unattributed_s": traced_wall_s - layer_self,
    }
