"""``repro bench`` gates that must be able to fail.

The run / compare / merge happy paths live in ``tests/test_vector_ab.py``.
"""

import pytest

from repro.perfbench import bench_main, merge_results


def test_bench_compare_min_ratio_needs_a_ratio(capsys, tmp_path):
    # A section without events_per_s has nothing for --min-ratio to gate
    # on; passing silently would make the gate unable to fail.
    out = tmp_path / "bench.json"
    merge_results(out, "sweep", {"serial_wall_s": 3.0}, "old")
    merge_results(out, "sweep", {"serial_wall_s": 1.0}, "new")
    args = ["compare", "old", "new", "--json", str(out), "--section", "sweep"]
    assert bench_main(args) == 0
    assert bench_main([*args, "--min-ratio", "5.0"]) == 2
    assert "no events_per_s" in capsys.readouterr().err


def test_corrupt_results_file_is_never_overwritten(capsys, tmp_path):
    out = tmp_path / "bench.json"
    merge_results(out, "engine_microbench", {"events_per_s": 1.0}, "kept")
    truncated = out.read_text()[:-10]
    out.write_text(truncated)
    with pytest.raises(ValueError, match="not valid benchmark JSON"):
        merge_results(out, "sweep", {"serial_wall_s": 1.0}, "new")
    assert out.read_text() == truncated
    # The CLI verbs report it as a usage error instead.
    other = tmp_path / "other.json"
    merge_results(other, "sweep", {"serial_wall_s": 1.0}, "new")
    assert bench_main(["merge", str(other), "--into", str(out)]) == 2
    assert bench_main(["compare", "kept", "kept", "--json", str(out)]) == 2
    assert bench_main(["run", "--micro-only", "--out", str(out)]) == 2
    assert out.read_text() == truncated
