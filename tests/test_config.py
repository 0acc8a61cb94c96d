"""Unit tests for configuration objects."""

import pytest

from repro.config import (
    CacheConfig,
    DramConfig,
    SystemConfig,
    DEFAULT_CONFIG,
    scaled_config,
)


def test_cache_geometry():
    config = CacheConfig(size_bytes=2 * 1024 * 1024, associativity=16, latency=20)
    assert config.num_lines == 32768
    assert config.num_sets == 2048
    config.validate()


def test_cache_set_index_wraps():
    config = CacheConfig(size_bytes=16 * 1024, associativity=4, latency=1)
    assert config.num_sets == 64
    assert config.set_index(0) == 0
    assert config.set_index(64) == 0
    assert config.set_index(65) == 1


def test_cache_validate_rejects_non_power_of_two_sets():
    config = CacheConfig(size_bytes=3 * 64 * 4, associativity=4, latency=1)
    with pytest.raises(ValueError):
        config.validate()


def test_dram_timing_in_cpu_cycles():
    dram = DramConfig()
    # DDR3-1333 (10-10-10) at 8 CPU cycles per DRAM cycle.
    assert dram.cas_latency == 80
    assert dram.trcd == 80
    assert dram.trp == 80
    assert dram.burst_time == 32
    assert dram.total_banks == 8


def test_default_config_matches_paper_table2():
    config = DEFAULT_CONFIG
    assert config.num_cores == 4
    assert config.core.issue_width == 3
    assert config.core.window_size == 128
    assert config.llc.size_bytes == 2 * 1024 * 1024
    assert config.llc.associativity == 16
    assert config.quantum_cycles == 5_000_000
    assert config.epoch_cycles == 10_000
    config.validate()


def test_scaled_config_preserves_ratios():
    config = scaled_config()
    config.validate()
    # 8x smaller cache, same associativity.
    assert config.llc.size_bytes == 256 * 1024
    assert config.llc.associativity == 16
    # Quantum is a whole number of epochs.
    assert config.quantum_cycles % config.epoch_cycles == 0


def test_with_helpers_return_new_configs():
    config = scaled_config()
    bigger = config.with_llc_size(512 * 1024)
    assert bigger.llc.size_bytes == 512 * 1024
    assert config.llc.size_bytes == 256 * 1024
    more_cores = config.with_cores(8)
    assert more_cores.num_cores == 8
    pref = config.with_prefetcher(True)
    assert pref.core.prefetcher_enabled and not config.core.prefetcher_enabled


def test_validate_rejects_fractional_epochs():
    config = scaled_config().with_quantum(100_000, 30_000)
    with pytest.raises(ValueError):
        config.validate()

