"""Tests for the ``SystemConfig.engine`` field and the default DRAM timing.

``engine`` selects the fidelity tier (``event`` or ``analytic``). It must
not disturb the keys of existing campaign stores or the alone-run cache.
"""

import pytest

from repro.config import DramConfig, SystemConfig, scaled_config


def test_replay_assumption_holds_for_ddr3_timing():
    """tRAS never binds back-to-back: tRCD + CL + burst >= tRAS."""
    dram = DramConfig()
    assert dram.trcd + dram.cas_latency + dram.burst_time >= dram.tras


def test_engine_field_validates():
    SystemConfig(engine="analytic").validate()
    assert scaled_config().with_engine("analytic").engine == "analytic"
    for engine in ("columnar", "gpu"):
        with pytest.raises(ValueError, match="engine must be"):
            SystemConfig(engine=engine).validate()


def test_config_fingerprint_unchanged_by_engine_field():
    """The engine field must not invalidate pre-existing campaign stores:
    default-engine configs fingerprint exactly as before the field existed
    (digests captured on the pre-field tree), and the analytic tier gets
    its own key."""
    from repro.resilience.faults import config_fingerprint

    assert config_fingerprint(SystemConfig()) == "cd734d0265708e27"
    assert config_fingerprint(scaled_config()) == "80f750177cde756e"
    assert config_fingerprint(scaled_config(8)) == "c7608857799a8f65"
    analytic = scaled_config().with_engine("analytic")
    assert config_fingerprint(analytic) == "4cbf092cf2453142"


def test_alone_cache_key_excludes_engine():
    """Alone profiles are engine-independent: an analytic config keys the
    alone cache exactly as its event twin does."""
    from repro.harness.runner import AloneRunCache

    cache = AloneRunCache()
    event_key = cache._config_key(scaled_config())
    analytic_key = cache._config_key(scaled_config().with_engine("analytic"))
    assert event_key == analytic_key
