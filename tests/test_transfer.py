import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from splitsim import (
    TransferConfig,
    TransferPlan,
    ValidationError,
    default_transfer_config,
    get_calibration,
    plan_transfer,
    raw_transfer_time,
    select_mode,
)
from splitsim.transfer import LAYERWISE, SERIALIZED

H100_CFG = TransferConfig(400e9, 512, 5.0, 80)
A100_CFG = TransferConfig(200e9, 1024, 8.0, 80)


class TestRawTime:
    def test_llama_1500_oracle(self):
        # 1500 tokens -> 3,932,160,000 bytes; at 400 Gb/s:
        # 8000 * 3.93216e9 / 400e9 = 78.6432 ms
        kv = get_calibration("llama2-70b", "H100").kv_cache_bytes(1500)
        assert raw_transfer_time(kv, H100_CFG) == pytest.approx(78.6432)

    def test_half_bandwidth_doubles_time(self):
        assert raw_transfer_time(1e9, A100_CFG) == \
            pytest.approx(2 * raw_transfer_time(1e9, H100_CFG))

    def test_zero_bytes(self):
        assert raw_transfer_time(0.0, H100_CFG) == 0.0

    def test_negative_bytes(self):
        with pytest.raises(ValidationError):
            raw_transfer_time(-1.0, H100_CFG)


class TestModeSelect:
    def test_below_threshold_serialized(self):
        assert select_mode(511, H100_CFG) == SERIALIZED

    def test_at_threshold_layerwise(self):
        assert select_mode(512, H100_CFG) == LAYERWISE

    def test_a100_threshold(self):
        assert select_mode(1023, A100_CFG) == SERIALIZED
        assert select_mode(1024, A100_CFG) == LAYERWISE

    def test_bad_tokens(self):
        with pytest.raises(ValidationError):
            select_mode(0, H100_CFG)


class TestPlan:
    def test_layerwise_fully_hidden(self):
        # 1500-token prompt on H100: raw 78.6432 ms, overlap window
        # 95 * 79/80 = 93.8 ms > raw, so only the 5 ms floor is visible
        m = get_calibration("llama2-70b", "H100")
        plan = plan_transfer(1500, m.kv_cache_bytes(1500), m.prompt_time(1500), H100_CFG)
        assert plan.mode == LAYERWISE
        assert plan.visible_latency == 5.0
        assert plan.raw_time == pytest.approx(78.6432)

    def test_serialized_visible_is_raw(self):
        m = get_calibration("llama2-70b", "H100")
        kv = m.kv_cache_bytes(256)
        plan = plan_transfer(256, kv, m.prompt_time(256), H100_CFG)
        assert plan.mode == SERIALIZED
        assert plan.visible_latency == plan.raw_time

    def test_forced_mode_override(self):
        m = get_calibration("llama2-70b", "H100")
        kv = m.kv_cache_bytes(1500)
        serialized = dataclasses.replace(H100_CFG, mode_threshold_tokens=1501)
        plan = plan_transfer(1500, kv, m.prompt_time(1500), serialized)
        assert plan.visible_latency == plan.raw_time

    def test_partial_overlap(self):
        # raw larger than the window: visible = raw - window
        cfg = TransferConfig(1e9, 1, 5.0, 80)
        raw = raw_transfer_time(1e9, cfg)  # 8000 ms
        plan = plan_transfer(1000, 1e9, 1000.0, cfg)
        window = 1000.0 * (1 - 1 / 80)
        assert plan.visible_latency == pytest.approx(raw - window)

    def test_visible_never_exceeds_raw(self):
        # tiny transfer: the constant floor must not push visible above raw
        plan = plan_transfer(600, 1000.0, 50.0, H100_CFG)
        assert plan.visible_latency == plan.raw_time < 5.0

    def test_negative_compute_rejected(self):
        with pytest.raises(ValidationError):
            plan_transfer(100, 1e6, -1.0, H100_CFG)

    @given(tokens=st.integers(1, 8192), compute=st.floats(0.0, 2000.0))
    @settings(max_examples=100, deadline=None)
    def test_plan_inequalities(self, tokens, compute):
        m = get_calibration("llama2-70b", "H100")
        kv = m.kv_cache_bytes(tokens)
        plan = plan_transfer(tokens, kv, compute, H100_CFG)
        assert 0.0 <= plan.visible_latency <= plan.raw_time + 1e-9
        serial = plan_transfer(tokens, kv, compute,
                               dataclasses.replace(H100_CFG, mode_threshold_tokens=tokens + 1))
        assert plan.visible_latency <= serial.visible_latency + 1e-9


class TestDefaults:
    def test_h100_pair(self):
        cfg = default_transfer_config("H100", "H100", 80)
        assert cfg.bandwidth == 400e9
        assert cfg.mode_threshold_tokens == 512
        assert cfg.layerwise_constant_ms == 5.0

    def test_h100cap_counts_as_fast(self):
        assert default_transfer_config("H100", "H100cap", 80).bandwidth == 400e9

    def test_mixed_pair_uses_slow_link(self):
        cfg = default_transfer_config("H100", "A100", 80)
        assert cfg.bandwidth == 200e9
        assert cfg.mode_threshold_tokens == 1024
        assert cfg.layerwise_constant_ms == 8.0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            TransferConfig(0.0, 512, 5.0, 80)
        with pytest.raises(ValidationError):
            TransferConfig(1e9, 512, 5.0, 0)

    def test_plan_invariant_enforced(self):
        with pytest.raises(ValidationError):
            TransferPlan(LAYERWISE, 1.0, 2.0)
