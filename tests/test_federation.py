"""Tests for providers, the aggregator, partitioning, network and SMC."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkConfig, SMCConfig, SystemConfig
from repro.core.accounting import QueryBudget
from repro.errors import FederationError, ProtocolError, SMCError
from repro.federation.aggregator import Aggregator
from repro.federation.messages import AllocationMessage, QueryRequest
from repro.federation.network import SimulatedNetwork
from repro.federation.partitioning import (
    partition_by_dimension,
    partition_equal,
    partition_skewed,
)
from repro.federation.provider import DataProvider
from repro.federation.smc import SMCSimulator
from repro.query.model import RangeQuery


class TestPartitioning:
    def test_equal_partition_preserves_rows(self, small_table):
        parts = partition_equal(small_table, 4, rng=0)
        assert len(parts) == 4
        assert sum(part.num_rows for part in parts) == small_table.num_rows
        sizes = [part.num_rows for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_skewed_partition_follows_weights(self, small_table):
        parts = partition_skewed(small_table, [3, 1], rng=0)
        assert len(parts) == 2
        assert sum(part.num_rows for part in parts) == small_table.num_rows
        assert parts[0].num_rows > 2 * parts[1].num_rows

    def test_partition_by_dimension_is_range_disjoint(self, small_table):
        parts = partition_by_dimension(small_table, "age", 4)
        maxima = [int(part.column("age").max()) for part in parts]
        minima = [int(part.column("age").min()) for part in parts]
        for i in range(3):
            assert maxima[i] <= minima[i + 1]

    def test_invalid_inputs(self, small_table):
        with pytest.raises(FederationError):
            partition_equal(small_table, 0)
        with pytest.raises(FederationError):
            partition_skewed(small_table, [])
        with pytest.raises(FederationError):
            partition_skewed(small_table, [0, 0])


class TestSimulatedNetwork:
    def test_costs_accumulate(self):
        network = SimulatedNetwork(NetworkConfig(latency_seconds=0.001, bandwidth_bytes_per_second=1e6))
        network.send(1000)
        network.send(1000, copies=3)
        assert network.stats.messages == 4
        assert network.stats.bytes_sent == 4000
        assert network.stats.simulated_seconds == pytest.approx(4 * (0.001 + 0.001))

    def test_snapshot_and_reset(self):
        network = SimulatedNetwork()
        network.send(10)
        snapshot = network.snapshot()
        assert snapshot.messages == 1
        stats = network.reset()
        assert stats.messages == 1
        assert network.stats.messages == 0

    def test_invalid_send(self):
        network = SimulatedNetwork()
        with pytest.raises(FederationError):
            network.send(-1)
        with pytest.raises(FederationError):
            network.send(1, copies=0)


class TestSMCSimulator:
    def test_share_reconstruct_roundtrip(self):
        smc = SMCSimulator(num_parties=4, rng=0)
        for value in (0.0, 1.5, -273.25, 123456.789):
            shares = smc.share(value)
            assert shares.num_parties == 4
            assert smc.reconstruct(shares) == pytest.approx(value, abs=1e-5)

    def test_individual_shares_do_not_reveal_value(self):
        smc = SMCSimulator(num_parties=3, rng=1)
        shares = smc.share(42.0)
        # No single share equals the encoded value (overwhelmingly likely).
        assert all(share != 42 for share in shares.shares)

    def test_secure_sum(self):
        smc = SMCSimulator(num_parties=4, rng=2)
        values = [10.5, -2.25, 7.0]
        shared = [smc.share(value) for value in values]
        assert smc.reconstruct(smc.secure_sum(shared)) == pytest.approx(sum(values), abs=1e-5)

    def test_secure_max(self):
        smc = SMCSimulator(num_parties=4, rng=3)
        values = [3.5, 9.25, 1.0]
        shared = [smc.share(value) for value in values]
        assert smc.secure_max(shared) == pytest.approx(9.25, abs=1e-5)

    def test_row_sharing_much_more_expensive_than_result_sharing(self):
        smc = SMCSimulator(num_parties=4, rng=4)
        row_cost = smc.row_sharing_cost(num_rows=10_000, num_columns=6)
        result_cost = smc.result_sharing_cost(num_values=4)
        assert row_cost > 100 * result_cost

    def test_cost_counters_accumulate(self):
        smc = SMCSimulator(num_parties=2, rng=5)
        smc.share(1.0)
        smc.result_sharing_cost(3)
        assert smc.cost.operations == 2
        assert smc.cost.simulated_seconds > 0
        assert smc.cost.bytes_exchanged > 0

    def test_overflow_rejected(self):
        smc = SMCSimulator(num_parties=2, rng=6, config=SMCConfig(fixed_point_fraction_bits=40))
        with pytest.raises(SMCError):
            smc.share(1e18)

    def test_empty_operations_rejected(self):
        smc = SMCSimulator(num_parties=2, rng=7)
        with pytest.raises(SMCError):
            smc.secure_sum([])
        with pytest.raises(SMCError):
            smc.secure_max([])

    def test_requires_two_parties(self):
        with pytest.raises(SMCError):
            SMCSimulator(num_parties=1)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, value):
        smc = SMCSimulator(num_parties=3, rng=8)
        assert smc.reconstruct(smc.share(value)) == pytest.approx(value, abs=1e-4)


class TestDataProvider:
    @pytest.fixture
    def provider(self, small_table):
        return DataProvider(
            provider_id="p0", table=small_table, cluster_size=100, n_min=3, rng=0
        )

    @pytest.fixture
    def budget(self):
        return QueryBudget(0.1, 0.1, 0.8, 1e-3)

    def test_offline_properties(self, provider, small_table):
        assert provider.num_rows == small_table.num_rows
        assert provider.num_clusters == 20
        assert provider.metadata_size_bytes() > 0

    def test_summary_then_answer_flow(self, provider, budget):
        query = RangeQuery.count({"age": (10, 80)})
        request = QueryRequest(query_id=1, query=query, sampling_rate=0.3)
        summary = provider.prepare_summary(request, epsilon_allocation=budget.epsilon_allocation)
        assert summary.provider_id == "p0"
        allocation = AllocationMessage(query_id=1, provider_id="p0", sample_size=5)
        diagnostics = []
        message = provider.answer(allocation, budget, diagnostics_out=diagnostics)
        (local,) = diagnostics
        assert message.approximated
        assert local.sampled_clusters <= 5
        assert local.rows_scanned <= provider.num_rows
        assert np.isfinite(message.value)
        # The plain path releases the noised value and nothing else.
        assert message.smooth_sensitivity is None
        assert message.value == local.local_estimate + local.local_noise

    def test_exact_path_when_few_covering_clusters(self, small_table, budget):
        provider = DataProvider(
            provider_id="p1",
            table=small_table,
            cluster_size=100,
            n_min=3,
            clustering_policy="sorted",
            sort_by="age",
            rng=0,
        )
        # A very narrow range on the sort dimension covers few clusters.
        query = RangeQuery.count({"age": (0, 1)})
        request = QueryRequest(query_id=7, query=query, sampling_rate=0.3)
        provider.prepare_summary(request, epsilon_allocation=0.1)
        diagnostics = []
        message = provider.answer(
            AllocationMessage(query_id=7, provider_id="p1", sample_size=2),
            budget,
            diagnostics_out=diagnostics,
        )
        assert not message.approximated
        assert diagnostics[0].exact_local_answer == provider.exact_answer(query).value

    def test_answer_without_summary_raises(self, provider, budget):
        with pytest.raises(ProtocolError):
            provider.answer(
                AllocationMessage(query_id=99, provider_id="p0", sample_size=1), budget
            )

    def test_smc_mode_returns_unnoised_estimate(self, provider, budget):
        query = RangeQuery.count({"age": (10, 80)})
        request = QueryRequest(query_id=2, query=query, sampling_rate=0.3)
        provider.prepare_summary(request, epsilon_allocation=0.1)
        diagnostics = []
        message = provider.answer(
            AllocationMessage(query_id=2, provider_id="p0", sample_size=4),
            budget,
            use_smc=True,
            diagnostics_out=diagnostics,
        )
        assert diagnostics[0].local_noise == 0.0
        assert message.value == pytest.approx(diagnostics[0].local_estimate)
        # secure_max needs the sensitivity: under SMC it travels (as shares).
        assert message.smooth_sensitivity == diagnostics[0].smooth_sensitivity

    def test_forget_clears_session(self, provider, budget):
        query = RangeQuery.count({"age": (10, 80)})
        request = QueryRequest(query_id=3, query=query, sampling_rate=0.3)
        provider.prepare_summary(request, epsilon_allocation=0.1)
        provider.forget(3)
        with pytest.raises(ProtocolError):
            provider.answer(
                AllocationMessage(query_id=3, provider_id="p0", sample_size=1), budget
            )

    def test_summary_noise_reproducible_with_seed(self, small_table, budget):
        def build():
            provider = DataProvider(
                provider_id="px", table=small_table, cluster_size=100, n_min=3, rng=11
            )
            request = QueryRequest(
                query_id=5, query=RangeQuery.count({"age": (10, 80)}), sampling_rate=0.3
            )
            return provider.prepare_summary(request, epsilon_allocation=0.1)

        first, second = build(), build()
        assert first.noisy_cluster_count == second.noisy_cluster_count
        assert first.noisy_avg_proportion == second.noisy_avg_proportion


class TestAggregator:
    def test_requires_providers(self, small_config):
        with pytest.raises(ProtocolError):
            Aggregator(providers=[], config=small_config)

    def test_execute_query_produces_trace(self, small_table, small_config):
        parts = partition_equal(small_table, 4, rng=0)
        providers = [
            DataProvider(
                provider_id=f"p{i}", table=part, cluster_size=100, n_min=3, rng=i
            )
            for i, part in enumerate(parts)
        ]
        aggregator = Aggregator(providers=providers, config=small_config, rng=0)
        budget = QueryBudget(0.1, 0.1, 0.8, 1e-3)
        answer = aggregator.execute_query(RangeQuery.count({"age": (10, 80)}), budget)
        assert len(answer.provider_releases) == 4
        assert len(answer.provider_diagnostics) == 4
        assert answer.trace.messages_sent > 0
        assert answer.trace.bytes_sent > 0
        assert answer.trace.clusters_available == sum(p.num_clusters for p in providers)
        assert answer.trace.rows_scanned <= answer.trace.rows_available

    def test_invalid_sampling_rate_rejected(self, small_table, small_config):
        parts = partition_equal(small_table, 2, rng=0)
        providers = [
            DataProvider(provider_id=f"p{i}", table=part, cluster_size=100, n_min=3, rng=i)
            for i, part in enumerate(parts)
        ]
        aggregator = Aggregator(providers=providers, config=small_config, rng=0)
        budget = QueryBudget(0.1, 0.1, 0.8, 1e-3)
        with pytest.raises(ProtocolError):
            aggregator.execute_query(
                RangeQuery.count({"age": (0, 10)}), budget, sampling_rate=1.5
            )
