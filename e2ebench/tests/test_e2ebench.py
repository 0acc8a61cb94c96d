"""Tests of the benchmark itself: metric names, every workload at a tiny
size (untraced and traced), the tracer's self-time arithmetic, the
host-speed sampler, and ``sim_digest`` determinism.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from e2ebench import run as bench  # noqa: E402
from e2ebench.tracing import Tracer, layer_metrics  # noqa: E402
from e2ebench.workloads import TINY, WORKLOADS, modelled_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def work(tmp_path, monkeypatch):
    """Point the benchmark's work directory at a test-private one."""
    monkeypatch.setattr(bench, "WORK", str(tmp_path))
    return tmp_path


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _tiny(name, min_ops=1):
    workload = WORKLOADS[name](TINY)
    workload.min_ops = min_ops
    return workload


def test_metric_names_follow_the_grammar_and_match_benchmark_json():
    spec = _spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert sorted(bench.BYPASS_CHECKS) == sorted(WORKLOADS)
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(end_to_end.values()) + list(per_layer.values()):
        assert UNIT.match(unit), unit
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_traced_run_computes_every_per_layer_metric():
    produced = set(layer_metrics(Tracer(), 1.0)) | set(modelled_metrics([]))
    produced.add("trace.overhead_ratio")
    assert set(bench.PER_LAYER) <= produced


def test_self_time_on_a_hand_built_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def quantum():
        tracer.enter("mem")        # 2.0  aggregated, not recorded
        tracer.exit()              # 2.5

    tracer.enter("cell", "cell")   # 0.0  recorded span
    tracer.timed("runner", quantum)()  # 1.0 .. 3.0, the hot-path wrapper
    tracer.enter("store", "write")     # 4.0
    tracer.exit()                  # 5.0
    tracer.exit()                  # 10.0
    cell, write = tracer.spans
    assert (cell["parent"], write["parent"]) == (-1, 0)
    assert cell["self_s"] == tracer.self_seconds("cell") == 10.0 - 2.0 - 1.0
    assert write["self_s"] == 1.0
    assert tracer.self_seconds("runner") == 2.0 - 0.5
    assert tracer.total_seconds("runner") == 2.0
    assert tracer.self_seconds("mem") == 0.5
    # Layer self times partition the covered wall; only the cell's own
    # self time is unattributed.
    assert layer_metrics(tracer, 10.0)["trace.unattributed_s"] == 7.0


def test_host_sampler_samples_and_is_taken_off_the_operation():
    import gc
    import signal

    from e2ebench.hostspeed import HostSampler, reference_kernel

    assert reference_kernel() == reference_kernel()
    previous = signal.getsignal(signal.SIGALRM)
    with HostSampler(interval=0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples > 0
    assert 0 < sampler.kernel_s <= sampler.handler_s < 0.3
    assert gc.isenabled()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_untraced_at_tiny_size(name, work):
    workload = _tiny(name)
    metrics, outcomes = bench.untraced_run(workload, seed=3, seconds=0,
                                           setup_samples=[0.2])
    assert [o.failures for o in outcomes] == [[]]
    assert outcomes[0].units > 0 and outcomes[0].failed_units == 0
    assert set(metrics) == set(bench.END_TO_END)
    for name_, block in metrics.items():
        assert block["value"] > 0, name_


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_the_bypass_self_check(name, work):
    from repro.engine import Engine

    schedule = Engine.schedule
    # A seed no other test uses: the analytic reuse memo lives as long as
    # the process, and the traced run must start cold.
    metrics, outcomes, problems = bench.traced_run(_tiny(name), seed=4)
    assert problems == []
    assert all(o.failures == [] for o in outcomes)
    assert set(metrics) == set(bench.PER_LAYER)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert Engine.schedule is schedule  # instrumentation was removed
    assert os.path.exists(os.path.join(str(work), f"trace-{name}-seed4.json"))


def test_bypass_check_reports_a_drifted_workload():
    values = dict.fromkeys(bench.PER_LAYER, 0.0)
    values["engine.events"] = 5.0
    failures = bench.bypass_failures("analytic-sweep", values)
    assert any("engine.events" in f for f in failures)


def test_tracing_does_not_change_the_simulation(work):
    workload = _tiny("event-cell", min_ops=2)
    _, traced, _ = bench.traced_run(workload, seed=5)
    _, untraced = bench.untraced_run(workload, seed=5, seconds=0, setup_samples=[0.2])
    assert bench.sim_digest(traced[:2]) == bench.sim_digest(untraced[:2])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sim_digest_repeats_for_a_seed_and_differs_across_seeds(name, work):
    workload = _tiny(name)

    def digest(seed):
        _, outcomes = bench.untraced_run(workload, seed=seed, seconds=0,
                                         setup_samples=[0.2])
        return bench.sim_digest(outcomes)

    first = digest(11)
    assert digest(11) == first
    assert digest(12) != first


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "e2ebench"), tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "event-cell",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
