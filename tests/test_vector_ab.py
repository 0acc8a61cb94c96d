"""``repro bench`` run / compare / merge verbs and the removed ``--engine`` flag.

The gate tests for ``compare --min-ratio`` and for unparsable results
files live in ``tests/test_perfbench.py``.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.perfbench import bench_main, merge_results


def test_cli_engine_flag_validates_choices(capsys):
    # Fidelity is the one tier selector; there is no --engine flag.
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["fig02", "--engine", "event"])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_mentions_bench(capsys):
    assert cli_main(["list"]) == 0
    assert "bench" in capsys.readouterr().out


def test_bench_run_micro_only_captures_json(capsys, tmp_path):
    out = tmp_path / "bench.json"
    code = bench_main([
        "run", "--micro-only", "--micro-events", "2000",
        "--label", "test", "--notes", "test-host",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["notes"]["test"] == "test-host"
    assert "python" in data["platform"]
    assert data["engine_microbench"]["test"]["events_per_s"] > 0
    assert data["analytic_bench"]["test"]["wall_s"] > 0


def test_bench_compare_reports_ratio(capsys, tmp_path):
    out = tmp_path / "bench.json"
    merge_results(out, "engine_microbench", {"events_per_s": 100.0}, "old")
    merge_results(out, "engine_microbench", {"events_per_s": 300.0}, "new")

    assert bench_main(["compare", "old", "new", "--json", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["events_per_s"]["ratio"] == 3.0

    # Regression gate: after/before below --min-ratio fails.
    assert bench_main([
        "compare", "old", "new", "--json", str(out), "--min-ratio", "5.0",
    ]) == 1
    # Missing labels are a usage error, not a crash.
    assert bench_main(["compare", "old", "nope", "--json", str(out)]) == 2


def test_bench_merge_folds_files(capsys, tmp_path):
    a, b, dest = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "all.json"
    merge_results(a, "engine_microbench", {"events_per_s": 1.0}, "hostA")
    merge_results(b, "engine_microbench", {"events_per_s": 2.0}, "hostB")
    merge_results(b, "sweep", {"serial_wall_s": 3.0}, "hostB")
    assert bench_main(["merge", str(a), str(b), "--into", str(dest)]) == 0
    merged = json.loads(dest.read_text())
    assert set(merged["engine_microbench"]) == {"hostA", "hostB"}
    assert "sweep" in merged
