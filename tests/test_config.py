"""Tests for the configuration dataclasses."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    NetworkConfig,
    PrivacyConfig,
    SamplingConfig,
    SMCConfig,
    SystemConfig,
)
from repro.errors import ConfigurationError


class TestPrivacyConfig:
    def test_default_split_matches_paper(self):
        privacy = PrivacyConfig()
        assert privacy.hp_allocation == pytest.approx(0.1)
        assert privacy.hp_sampling == pytest.approx(0.1)
        assert privacy.hp_estimation == pytest.approx(0.8)

    def test_phase_budgets_sum_to_epsilon(self):
        privacy = PrivacyConfig(epsilon=2.5)
        total = (
            privacy.epsilon_allocation
            + privacy.epsilon_sampling
            + privacy.epsilon_estimation
        )
        assert total == pytest.approx(2.5)

    def test_split_mapping_contains_all_phases(self):
        split = PrivacyConfig(epsilon=1.0).split()
        assert set(split) == {"allocation", "sampling", "estimation"}
        assert sum(split.values()) == pytest.approx(1.0)

    def test_with_epsilon_preserves_split(self):
        privacy = PrivacyConfig(epsilon=1.0).with_epsilon(0.4)
        assert privacy.epsilon == pytest.approx(0.4)
        assert privacy.epsilon_estimation == pytest.approx(0.32)

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(epsilon=0.0)

    def test_rejects_delta_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(delta=1.0)

    def test_rejects_split_not_summing_to_one(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(hp_allocation=0.5, hp_sampling=0.5, hp_estimation=0.5)


class TestSamplingConfig:
    def test_defaults_are_valid(self):
        sampling = SamplingConfig()
        assert 0 < sampling.sampling_rate < 1
        assert sampling.min_clusters_for_approximation >= 1

    def test_with_rate(self):
        assert SamplingConfig().with_rate(0.33).sampling_rate == pytest.approx(0.33)

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_invalid_rate(self, rate):
        with pytest.raises(ConfigurationError):
            SamplingConfig(sampling_rate=rate)

    def test_rejects_zero_threshold(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(min_clusters_for_approximation=0)


class TestNetworkConfig:
    def test_transfer_cost_includes_latency_and_bandwidth(self):
        network = NetworkConfig(latency_seconds=0.01, bandwidth_bytes_per_second=1000)
        assert network.transfer_cost(500) == pytest.approx(0.01 + 0.5)

    def test_disabled_network_costs_nothing(self):
        network = NetworkConfig(enabled=False)
        assert network.transfer_cost(10**9) == 0.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(latency_seconds=-1.0)


class TestSMCConfig:
    def test_defaults_valid(self):
        smc = SMCConfig()
        assert smc.bytes_per_share > 0
        assert smc.field_bits <= 63

    def test_rejects_fraction_bits_wider_than_field(self):
        with pytest.raises(ConfigurationError):
            SMCConfig(field_bits=16, fixed_point_fraction_bits=20)


class TestSystemConfig:
    def test_defaults(self):
        config = SystemConfig()
        assert config.num_providers == 4
        assert config.cluster_size >= 1

    def test_with_privacy_and_sampling(self):
        config = SystemConfig()
        updated = config.with_privacy(PrivacyConfig(epsilon=0.5)).with_sampling(
            SamplingConfig(sampling_rate=0.05)
        )
        assert updated.privacy.epsilon == pytest.approx(0.5)
        assert updated.sampling.sampling_rate == pytest.approx(0.05)
        # originals untouched (frozen dataclasses)
        assert config.privacy.epsilon == pytest.approx(1.0)

    def test_rejects_invalid_provider_count(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_providers=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(seed=-1)

    def test_injected_faults_must_be_a_schedule(self):
        from repro.testing import FaultSchedule

        assert SystemConfig().injected_faults is None
        schedule = FaultSchedule.from_seed(1, num_providers=2)
        assert SystemConfig(injected_faults=schedule).injected_faults is schedule
        with pytest.raises(ConfigurationError, match="FaultSchedule"):
            SystemConfig(injected_faults=[("drop_provider", 0)])
