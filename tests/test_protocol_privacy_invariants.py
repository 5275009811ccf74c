"""Protocol-level privacy and consistency invariants.

These tests assert the properties Section 5.4 argues for: what leaves a
provider is never the raw local answer, the per-query charge matches the
``hp`` split regardless of the number of providers, repeated executions of
the same query produce different randomness (the mechanisms are actually
random), and the SMC path injects exactly one noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PrivacyConfig, SamplingConfig, SystemConfig
from repro.core.accounting import QueryBudget, query_spend
from repro.core.system import FederatedAQPSystem
from repro.query.model import RangeQuery


@pytest.fixture
def system(small_table):
    config = SystemConfig(
        cluster_size=100,
        num_providers=4,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.3, min_clusters_for_approximation=3),
        seed=101,
    )
    return FederatedAQPSystem.from_table(small_table, config=config)


QUERY = RangeQuery.count({"age": (10, 80)})


class TestReleasesAreNoised:
    def test_released_values_differ_from_local_exact_answers(self, system):
        result = system.execute(QUERY)
        for provider, release in zip(system.providers, result.provider_releases):
            local_exact = provider.exact_answer(QUERY).value
            # The value put on the wire is the noised estimate, which should
            # essentially never equal the exact local answer.
            assert release.released_value != local_exact

    def test_approximated_providers_do_not_scan_everything(self, system):
        result = system.execute(QUERY, sampling_rate=0.2)
        for release, local in zip(result.provider_releases, result.provider_diagnostics):
            if release.approximated:
                assert local.rows_scanned < local.rows_available

    def test_randomness_differs_across_repetitions(self, system):
        values = {round(system.execute(QUERY, compute_exact=False).value, 6) for _ in range(5)}
        assert len(values) > 1

    def test_noise_scale_grows_when_epsilon_shrinks(self, system):
        small_eps = [
            abs(system.execute(QUERY, epsilon=0.05, compute_exact=False).noise_injected)
            for _ in range(6)
        ]
        large_eps = [
            abs(system.execute(QUERY, epsilon=5.0, compute_exact=False).noise_injected)
            for _ in range(6)
        ]
        assert np.mean(large_eps) < np.mean(small_eps)


class TestBudgetAccounting:
    def test_query_charge_is_independent_of_provider_count(self):
        budget = QueryBudget(0.1, 0.1, 0.8, 1e-3)
        assert query_spend(budget, 1).epsilon == pytest.approx(query_spend(budget, 8).epsilon)

    def test_epsilon_override_is_reflected_in_result(self, system):
        result = system.execute(QUERY, epsilon=0.3, compute_exact=False)
        assert result.epsilon_spent == pytest.approx(0.3)
        assert result.delta_spent == pytest.approx(1e-3)

    def test_each_execution_charges_the_end_user_once(self, small_table):
        config = SystemConfig(
            cluster_size=100,
            num_providers=4,
            privacy=PrivacyConfig(epsilon=0.5, delta=1e-3),
            sampling=SamplingConfig(sampling_rate=0.3, min_clusters_for_approximation=3),
            seed=5,
        )
        system = FederatedAQPSystem.from_table(
            small_table, config=config, total_epsilon=5.0, total_delta=1.0
        )
        for expected_remaining in (4.5, 4.0, 3.5):
            system.execute(QUERY, compute_exact=False)
            assert system.remaining_budget()[0] == pytest.approx(expected_remaining)


class TestSMCPath:
    def test_smc_injects_single_noise_at_aggregator(self, system):
        result = system.execute(QUERY, use_smc=True, compute_exact=False)
        assert result.used_smc
        # Providers do not add local noise in the SMC configuration.
        assert all(local.local_noise == 0.0 for local in result.provider_diagnostics)
        assert result.noise_injected != 0.0

    def test_smc_and_plain_paths_agree_up_to_noise(self, system):
        plain = system.execute(QUERY, use_smc=False)
        smc = system.execute(QUERY, use_smc=True)
        exact = plain.exact_value
        assert smc.exact_value == exact
        # Both estimates should live in the same neighbourhood of the truth.
        assert abs(plain.value - exact) < 1.5 * exact + 2000
        assert abs(smc.value - exact) < 1.5 * exact + 2000

    def test_smc_noise_variance_not_larger_than_sum_of_provider_noises(self, system):
        """The point of the SMC option: one calibrated noise instead of four."""
        smc_noise = [
            abs(system.execute(QUERY, use_smc=True, compute_exact=False).noise_injected)
            for _ in range(8)
        ]
        plain_noise = [
            abs(system.execute(QUERY, use_smc=False, compute_exact=False).noise_injected)
            for _ in range(8)
        ]
        assert np.mean(smc_noise) <= 2.0 * np.mean(plain_noise)


class TestTraceConsistency:
    def test_rows_scanned_bounded_by_rows_available(self, system):
        for sampling_rate in (0.1, 0.3, 0.6):
            result = system.execute(QUERY, sampling_rate=sampling_rate, compute_exact=False)
            assert result.trace.rows_scanned <= result.trace.rows_available
            assert result.trace.clusters_scanned <= result.trace.clusters_available

    def test_message_count_matches_protocol_shape(self, system):
        result = system.execute(QUERY, compute_exact=False)
        providers = system.num_providers
        # 1 broadcast (per provider) + summary + allocation + estimate per
        # provider = 4 messages per provider for the plain path.
        assert result.trace.messages_sent == 4 * providers

    def test_provider_reports_cover_every_provider(self, system):
        result = system.execute(QUERY, compute_exact=False)
        assert {release.provider_id for release in result.provider_releases} == {
            provider.provider_id for provider in system.providers
        }
        assert [local.provider_id for local in result.provider_diagnostics] == [
            release.provider_id for release in result.provider_releases
        ]
