"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 e2ebench/run.py --workload event-cell --seed 1 --seconds 25 --trace 0

``--trace 0`` runs operations back to back, untraced, for ``--seconds``
seconds (and at least the workload's ``min_ops``) while a host-speed
sampler runs beside them, and prints the end-to-end metrics.
``--trace 1`` traces exactly ``min_ops`` operations, re-runs them
untraced for the overhead ratio, and prints the per-layer metrics. Either way the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
and the line before it is the run's ``sim_digest``. ``BENCHMARK.md``
explains the workloads and metrics.

The benchmark imports ``repro`` from this checkout's ``src`` and nowhere
else, and writes only below ``.e2ebench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".e2ebench_work")

#: Extra processes that each measure set-up once; with the run's own
#: set-up, setup_s is the median of SETUP_PROBES + 1 samples, each scaled
#: to the reference host speed (``hostspeed.KERNEL_NOMINAL_S``).
SETUP_PROBES = 6

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_ref": "ref",
    "sim_kinst_per_ref": "kinst/ref",
    "peak_rss_mb": "MB",
    "max_slowdown": "x",
}

PER_LAYER: Dict[str, str] = {
    "workloads.next_calls": "count",
    "workloads.next_s": "s",
    "runner.alone_runs": "count",
    "runner.alone_s": "s",
    "runner.alone_hit_ratio": "ratio",
    "runner.alone_share": "ratio",
    "runner.self_s": "s",
    "engine.events": "count",
    "engine.self_s": "s",
    "cpu.events": "count",
    "cpu.self_s": "s",
    "harness.hierarchy_calls": "count",
    "harness.hierarchy_self_s": "s",
    "harness.self_s": "s",
    "cache.llc_accesses": "count",
    "cache.llc_s": "s",
    "cache.llc_hit_ratio": "ratio",
    "mem.requests": "count",
    "mem.self_s": "s",
    "mem.pick_calls": "count",
    "mem.pick_s": "s",
    "mem.row_hit_ratio": "ratio",
    "mem.queueing_cycles_per_read": "cycles",
    "models.fst_s": "s",
    "models.ptca_s": "s",
    "models.asm_s": "s",
    "models.mise_s": "s",
    "models.ats_accesses": "count",
    "models.asm_error_pct": "%",
    "models.fst_error_pct": "%",
    "models.ptca_error_pct": "%",
    "policies.s": "s",
    "policies.reallocations": "count",
    "resilience.self_s": "s",
    "store.writes": "count",
    "store.fsyncs": "count",
    "store.bytes": "bytes",
    "store.write_s": "s",
    "analytic.profile_s": "s",
    "analytic.sampled_accesses": "count",
    "analytic.solve_s": "s",
    "analytic.memo_hit_ratio": "ratio",
    "cloud.rounds": "count",
    "cloud.cells": "count",
    "cloud.cell_s": "s",
    "cloud.supervise_s": "s",
    "cloud.migrations": "count",
    "cloud.sla_violations": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}

#: The traced run fails when a workload drifts from its stated purpose:
#: (metric, comparison, value) must hold on the named workload.
BYPASS_CHECKS: Dict[str, List[Tuple[str, str, float]]] = {
    "event-cell": [
        ("engine.events", ">", 0), ("runner.alone_runs", ">", 0),
        ("runner.alone_hit_ratio", "==", 0), ("store.writes", "==", 0),
        ("policies.s", "==", 0), ("policies.reallocations", "==", 0),
        ("analytic.sampled_accesses", "==", 0), ("cloud.cells", "==", 0),
    ],
    "variant-sweep": [
        ("runner.alone_hit_ratio", ">", 0.5), ("store.writes", ">", 0),
        ("policies.reallocations", ">", 0), ("mem.pick_calls", ">", 0),
        ("analytic.sampled_accesses", "==", 0), ("cloud.cells", "==", 0),
    ],
    "analytic-sweep": [
        ("engine.events", "==", 0), ("cpu.events", "==", 0),
        ("cache.llc_accesses", "==", 0), ("mem.requests", "==", 0),
        ("runner.alone_runs", "==", 0), ("models.ats_accesses", "==", 0),
        ("store.writes", "==", 0), ("analytic.sampled_accesses", ">", 0),
        ("cloud.cells", "==", 0),
    ],
    "fleet-rounds": [
        ("cloud.cells", ">", 0), ("cloud.rounds", ">", 0),
        ("store.writes", ">", 0), ("engine.events", ">", 0),
        ("analytic.sampled_accesses", "==", 0),
        ("policies.reallocations", "==", 0),
    ],
}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_repro() -> None:
    """Import ``repro`` from this checkout, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"e2ebench: no repro package under {SRC}")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _log(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")
        sys.exit(2)


def setup(name: str, seed: int) -> Tuple[float, Any]:
    """Imports, config, input generation and work-dir creation, timed and
    scaled to the reference host: seconds x KERNEL_NOMINAL_S / the
    reference kernel's time measured right after."""
    start = time.perf_counter()
    load_repro()
    from e2ebench.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.size.config(workload.size.cores)  # timed, not kept: ops rebuild it
    for index in range(workload.min_ops):
        workload.make_input(seed, index)
    os.makedirs(WORK, exist_ok=True)
    shutil.rmtree(tempfile.mkdtemp(dir=WORK))
    seconds = time.perf_counter() - start
    from e2ebench.hostspeed import KERNEL_NOMINAL_S, kernel_seconds

    return seconds * KERNEL_NOMINAL_S / kernel_seconds(), workload


def probe_setup(name: str, seed: int) -> List[float]:
    """Set-up time measured in SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_op(workload: Any, op_input: Any, check_invariants: bool,
           sampler: Any = None) -> Tuple[float, Any, str]:
    """Run one operation in a fresh work dir: (seconds, raw output or the
    exception it raised, work dir). The caller checks and removes it.
    Time spent in ``sampler``'s handler is not the operation's."""
    workdir = tempfile.mkdtemp(dir=WORK)
    handler_s = sampler.handler_s if sampler else 0.0
    start = time.perf_counter()
    try:
        raw = workload.run(op_input, workdir, check_invariants)
    except Exception as exc:  # a failed operation is counted, not fatal
        raw = exc
    elapsed = time.perf_counter() - start
    if sampler:
        elapsed -= sampler.handler_s - handler_s
    return elapsed, raw, workdir


def check_op(workload: Any, op_input: Any, raw: Any, workdir: str) -> Any:
    """The checked Outcome of one operation; removes its work dir."""
    from e2ebench.workloads import Outcome

    units = workload.expected_units(op_input)
    try:
        if isinstance(raw, Exception):
            return Outcome(units=units, failures=[repr(raw)], failed_units=units)
        return workload.check(op_input, raw, workdir)
    except Exception as exc:  # a check that cannot run is a failed check
        return Outcome(units=units, failures=[f"check: {exc!r}"], failed_units=units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sim_digest(outcomes: List[Any]) -> str:
    """sha256 of the modelled outputs of ``outcomes``."""
    from e2ebench.workloads import digest_payload

    text = json.dumps(digest_payload(outcomes), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def untraced_run(workload: Any, seed: int, seconds: float,
                 setup_samples: List[float]) -> Tuple[Dict[str, Any], List[Any]]:
    """Operations back to back for ``seconds``; the end-to-end metrics.

    Host time is counted in reference-kernel times (``hostspeed``): the
    kernel is sampled all through the operations, and only samples taken
    during an operation count, so both sides see the same host."""
    from e2ebench.hostspeed import HostSampler
    from e2ebench.workloads import modelled_metrics

    outcomes: List[Any] = []
    times: List[float] = []
    kernel_s, samples = 0.0, 0
    start = time.perf_counter()
    index = 0
    with HostSampler() as sampler:
        while index < workload.min_ops or time.perf_counter() - start < seconds:
            op_input = workload.make_input(seed, index)
            before = (sampler.kernel_s, sampler.samples)
            elapsed, raw, workdir = run_op(workload, op_input,
                                           check_invariants=False, sampler=sampler)
            kernel_s += sampler.kernel_s - before[0]
            samples += sampler.samples - before[1]
            outcomes.append(check_op(workload, op_input, raw, workdir))
            times.append(elapsed)
            index += 1
    if samples == 0:  # every operation was shorter than the interval
        sampler.sample()
        kernel_s, samples = sampler.kernel_s, sampler.samples
    ref_s = kernel_s / samples
    values = {
        "setup_s": statistics.median(setup_samples),
        # Mean op time over mean kernel time: both are means over the same
        # stretch of host time, so the host's drift cancels.
        "wall_ref": statistics.fmean(times) / ref_s,
        "sim_kinst_per_ref": sum(o.kinst for o in outcomes) / (sum(times) / ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_slowdown": modelled_metrics(outcomes[:workload.min_ops])["max_slowdown"],
    }
    _log(f"{workload.name}: {len(times)} ops, mean op {statistics.fmean(times):.3f} s, "
         f"kernel {ref_s * 1e3:.3f} ms over {samples} samples, op seconds "
         f"{[round(t, 3) for t in times]}, "
         f"setup samples {[round(s, 3) for s in setup_samples]}")
    return _metric_block(values, END_TO_END), outcomes


def bypass_failures(name: str, values: Dict[str, float]) -> List[str]:
    """The bypass self-check: every BYPASS_CHECKS entry that does not hold."""
    failures = []
    for metric, op, bound in BYPASS_CHECKS[name]:
        value = values[metric]
        held = value > bound if op == ">" else value == bound
        if not held:
            failures.append(f"bypass check {metric} {op} {bound} failed: {value}")
    return failures


def traced_run(workload: Any, seed: int) -> Tuple[Dict[str, Any], List[Any], List[str]]:
    """Trace ``min_ops`` operations (invariant checks on), then re-run them
    untraced; the per-layer metrics and the bypass self-check."""
    from e2ebench.tracing import Instrumentation, Tracer, layer_metrics
    from e2ebench.workloads import modelled_metrics

    inputs = [workload.make_input(seed, i) for i in range(workload.min_ops)]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    raws = []
    traced_s = 0.0
    instrumentation.install()
    try:
        for op_input in inputs:
            elapsed, raw, workdir = run_op(workload, op_input, check_invariants=True)
            traced_s += elapsed
            raws.append((op_input, raw, workdir))
    finally:
        instrumentation.uninstall()
    outcomes = [check_op(workload, *entry) for entry in raws]
    untraced_s = 0.0
    for op_input in inputs:
        fresh = workload.fresh(op_input)
        elapsed, raw, workdir = run_op(workload, fresh, check_invariants=True)
        untraced_s += elapsed
        outcomes.append(check_op(workload, fresh, raw, workdir))
    values = layer_metrics(tracer, traced_s)
    modelled = modelled_metrics(outcomes[:workload.min_ops])
    values.update({k: v for k, v in modelled.items() if k in PER_LAYER})
    values["trace.overhead_ratio"] = traced_s / untraced_s
    with open(os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json"), "w") as out:
        json.dump({
            "workload": workload.name, "seed": seed, "spans": tracer.spans,
            "frames": {key: [acc.calls, acc.total, acc.self_s]
                       for key, acc in sorted(tracer.accs.items())},
            "counts": tracer.counts,
        }, out)
    _log(f"{workload.name}: traced {traced_s:.2f}s, untraced {untraced_s:.2f}s, "
         f"{len(tracer.spans)} spans")
    return (_metric_block(values, PER_LAYER), outcomes,
            bypass_failures(workload.name, values))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(BYPASS_CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    setup_s, workload = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        metrics, outcomes, problems = traced_run(workload, args.seed)
    else:
        setup_samples = [setup_s] + probe_setup(args.workload, args.seed)
        metrics, outcomes = untraced_run(workload, args.seed, args.seconds,
                                         setup_samples)
        problems = []
    for outcome in outcomes:
        problems.extend(outcome.failures)
    for problem in problems:
        _log(f"{workload.name}: FAILED {problem}")
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed_units for o in outcomes)
    print(f"sim_digest {workload.name} seed={args.seed} "
          f"ops={workload.min_ops} {sim_digest(outcomes[:workload.min_ops])}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
