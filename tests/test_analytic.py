"""Tests for the closed-form fidelity tier (repro.analytic)."""

import filecmp
import time as _time
from pathlib import Path

import pytest

from repro.analytic.cpi import solve_alone, solve_shared
from repro.analytic.crossval import (
    ASM_DIVERGENCE_TOLERANCE_PCT,
    DivergenceReport,
    compare_results,
    cross_validate,
)
from repro.analytic.reuse import _PROFILE_CACHE, extract_profile, profile_mix
from repro.analytic.runner import (
    ENGINE_FOR_FIDELITY,
    FIDELITY_TIERS,
    resolve_fidelity,
    run_analytic,
)
from repro.config import SystemConfig, scaled_config
from repro.experiments import fidelity_sweep
from repro.experiments.common import (
    default_mixes,
    survey_errors,
    unsampled_models,
)
from repro.harness.system import System
from repro.lintkit import lint_paths
from repro.parallel import CellSpec, run_cells
from repro.resilience.campaign import Campaign
from repro.workloads.mixes import make_mix

REPO_ROOT = Path(__file__).resolve().parent.parent

# Small platform so the event-oracle legs simulate quickly.
CONFIG = scaled_config().with_quantum(50_000, 5_000)


def _mix(seed=1):
    return make_mix(["mcf", "bzip2", "libquantum", "h264ref"], seed=seed)


# ----------------------------------------------------------------------
# Profiles and the closed-form solve.

def test_profile_measures_the_generator():
    profile = extract_profile(_mix(), 0, sample_accesses=4096)
    assert profile.accesses == 4096
    assert 0.0 <= profile.cold_frac <= 1.0
    assert 0.0 <= profile.write_frac <= 1.0
    assert profile.reuse_frac == pytest.approx(1.0 - profile.cold_frac)
    assert profile.instructions_per_access() >= 1.0
    # D(n) is increasing, concave-ish, and bounded by n.
    assert profile.distinct_lines(0) == 0.0
    d1, d100 = profile.distinct_lines(1), profile.distinct_lines(100)
    assert 0.0 < d1 <= 1.0
    assert d1 <= d100 <= 100.0


def test_profile_memoised_per_process():
    mix = _mix(3)
    first = extract_profile(mix, 1, sample_accesses=2048)
    assert extract_profile(mix, 1, sample_accesses=2048) is first


def test_shared_solve_never_beats_alone():
    mix = _mix(2)
    profiles = profile_mix(mix, sample_accesses=4096)
    shared = solve_shared(profiles, CONFIG)
    for profile, rates in zip(profiles, shared):
        alone = solve_alone(profile, CONFIG)
        # Interference can only slow a core down.
        assert rates.cpi >= alone.cpi - 1e-9
        assert rates.hit_rate <= alone.hit_rate + 1e-9


# ----------------------------------------------------------------------
# The runner: RunResult shape, determinism, dispatch guards.

def test_run_analytic_result_shape():
    result = run_analytic(_mix(), CONFIG, quanta=3)
    assert len(result.records) == 3
    for record in result.records:
        assert set(record.estimates) == {"analytic", "asm"}
        assert record.estimates["asm"] == record.actual_slowdowns
        assert record.confidence["asm"] == [1.0] * 4
        assert all(s >= 1.0 - 1e-6 for s in record.actual_slowdowns)
    # Estimating its own ground truth, the survey error is exactly zero.
    assert result.mean_error("asm") == 0.0


def test_run_analytic_deterministic():
    a = run_analytic(_mix(5), CONFIG, quanta=2)
    _PROFILE_CACHE.clear()
    b = run_analytic(_mix(5), CONFIG, quanta=2)
    assert a.records == b.records


def test_resolve_fidelity_mapping():
    assert resolve_fidelity(CONFIG, "") is CONFIG
    for fidelity in FIDELITY_TIERS:
        assert (
            resolve_fidelity(CONFIG, fidelity).engine
            == ENGINE_FOR_FIDELITY[fidelity]
        )
    with pytest.raises(ValueError, match="unknown fidelity"):
        resolve_fidelity(CONFIG, "approximate")


def test_system_rejects_analytic_engine():
    config = CONFIG.with_engine("analytic")
    config.validate()  # the config itself is legal...
    with pytest.raises(ValueError, match="never construct a System"):
        System(config, traces=[iter(())] * config.num_cores)


# ----------------------------------------------------------------------
# Fidelity dispatch through campaigns and the pool.

def test_cellspec_fidelity_parallel_matches_serial():
    mixes = default_mixes(2, CONFIG.num_cores, seed=9)
    cells = [
        CellSpec(mix=mix, config=CONFIG, quanta=2, fidelity="analytical")
        for mix in mixes
    ]
    serial = run_cells(Campaign("t", None), cells, workers=1)
    parallel = run_cells(Campaign("t", None), cells, workers=2)
    assert [r.records for r in serial] == [r.records for r in parallel]
    for result in serial:
        assert result.config.engine == "analytic"


def test_survey_at_analytical_fidelity():
    mixes = default_mixes(2, CONFIG.num_cores, seed=4)
    survey = survey_errors(
        mixes, CONFIG, quanta=2, fidelity="analytical",
        model_builder=unsampled_models,
    )
    # The surrogate's estimate IS its ground truth; models it did not
    # run simply collect no errors instead of poisoning the survey.
    assert survey.mean_error("asm") == 0.0
    assert survey.overall.get("fst", []) == []


# ----------------------------------------------------------------------
# Cross-validation against the event oracle.

def test_crossval_within_documented_tolerance(tmp_path):
    campaign = Campaign("xval", str(tmp_path / "camp"))
    mixes = default_mixes(2, CONFIG.num_cores, seed=42)
    report = cross_validate(
        campaign, mixes, CONFIG, quanta=1, sample_size=2
    )
    assert report is not None
    assert report.mean_abs_pct("asm") < ASM_DIVERGENCE_TOLERANCE_PCT
    # The report also landed in the store, next to the other records.
    records = campaign.store.load_divergence()
    assert len(records) == 1
    assert records[0]["key"] == "xval:"
    assert records[0]["summary"]["asm"]["count"] == float(
        2 * CONFIG.num_cores
    )


def test_divergence_report_byte_equal_across_runs(tmp_path):
    mixes = default_mixes(1, CONFIG.num_cores, seed=11)
    paths = []
    for name in ("a", "b"):
        campaign = Campaign("xval", str(tmp_path / name))
        _PROFILE_CACHE.clear()
        cross_validate(campaign, mixes, CONFIG, quanta=1, sample_size=1)
        paths.append(tmp_path / name / "divergence.jsonl")
    assert filecmp.cmp(paths[0], paths[1], shallow=False)


def test_compare_results_self_is_zero():
    # The analytic tier's estimate IS its measured slowdown, so a run
    # compared against itself diverges by exactly zero everywhere.
    result = run_analytic(_mix(8), CONFIG, quanta=2)
    entries = compare_results(result, result)
    assert entries
    assert all(entry.abs_pct == 0.0 for entry in entries)
    report = DivergenceReport(fidelity="analytical", entries=entries)
    assert report.mean_abs_pct("asm") == 0.0


def test_fidelity_sweep_persists_one_analytical_report(tmp_path):
    campaign = Campaign("fidelity", str(tmp_path / "camp"))
    result = fidelity_sweep.run(
        num_mixes=1, quanta=1, config=CONFIG, campaign=campaign
    )
    table = result.format_table()
    assert "analytical" in table and "event" in table
    analytic = result.tiers["analytical"].report
    assert analytic.mean_abs_pct("asm") < ASM_DIVERGENCE_TOLERANCE_PCT
    # One persisted report: the analytical tier against the event oracle.
    records = campaign.store.load_divergence()
    assert len(records) == 1
    assert records[0]["fidelity"] == "analytical"


# ----------------------------------------------------------------------
# Documentation and speed acceptance.

def test_doc001_clean_on_analytic_package():
    findings = lint_paths(
        [str(REPO_ROOT / "src" / "repro" / "analytic")], select=["DOC001"]
    )
    assert findings == []


def test_paper_scale_cell_under_ten_seconds():
    # Acceptance bound: a 4-core, 100M-cycle analytic cell in < 10 s
    # (the archived BENCH_perf.json run measures ~0.5 s cold).
    config = SystemConfig()  # paper-scale platform, 5M-cycle quanta
    mix = default_mixes(1, config.num_cores, seed=42)[0]
    _PROFILE_CACHE.clear()
    start = _time.perf_counter()
    result = run_analytic(mix, config, quanta=20)  # 20 x 5M cycles
    wall = _time.perf_counter() - start
    assert len(result.records) == 20
    assert wall < 10.0
