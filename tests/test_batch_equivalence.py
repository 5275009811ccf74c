"""Batch execution must be bit-identical to the sequential per-query loop.

The batch engine's contract: for the same seed, ``execute_batch([q1..qn])``
produces exactly the results of ``[execute(qi) for qi in ...]`` run on a
fresh system built with the same seed — value for value, release for
release — on every clustering policy, with and without SMC combination, and
with the provider fan-out parallelised or not.  Provider diagnostics (the
noise each provider drew, the rows it scanned) exist in-process only, so
they are compared where both sides have them and must be absent where the
providers sit behind a pipe.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    PrivacyConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.query.model import RangeQuery
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table


def _table(num_rows: int = 6000) -> Table:
    rng = np.random.default_rng(41)
    schema = Schema(
        (
            Dimension("age", 0, 99),
            Dimension("hours", 0, 49),
            Dimension("dept", 0, 9),
        )
    )
    return Table(
        schema,
        {
            "age": rng.integers(0, 100, num_rows),
            "hours": np.minimum(49, rng.poisson(12, num_rows)),
            "dept": rng.integers(0, 10, num_rows),
        },
    )


def _system(
    policy: str, *, parallel: bool = False, use_smc: bool = False
) -> FederatedAQPSystem:
    config = SystemConfig(
        cluster_size=150,
        num_providers=4,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        transport=TransportConfig(kind="process" if parallel else "inprocess"),
        use_smc_for_result=use_smc,
        seed=97,
    )
    return FederatedAQPSystem.from_table(
        _table(),
        config=config,
        clustering_policy=policy,
        sort_by="age" if policy == "sorted" else None,
    )


WORKLOAD = [
    RangeQuery.count({"age": (10, 80)}),
    RangeQuery.count({"age": (0, 35), "dept": (2, 6)}),
    RangeQuery.sum({"hours": (5, 25)}),
    # Narrow range: triggers the exact (N^Q < N_min) path on sorted layouts.
    RangeQuery.count({"age": (0, 2)}),
    RangeQuery.count({"hours": (0, 40), "age": (20, 90), "dept": (0, 9)}),
]


def _assert_equivalent(sequential, batch, *, over_wire=False):
    assert len(sequential) == len(batch)
    for expected, actual in zip(sequential, batch):
        assert actual.value == expected.value
        assert actual.used_smc == expected.used_smc
        assert actual.provider_releases == expected.provider_releases
        assert actual.trace.messages_sent == expected.trace.messages_sent
        assert actual.trace.bytes_sent == expected.trace.bytes_sent
        if over_wire:
            assert actual.provider_diagnostics is None
            assert actual.trace.rows_scanned == actual.trace.clusters_scanned == 0
            if not actual.used_smc:
                assert actual.noise_injected is None
            continue
        assert actual.noise_injected == expected.noise_injected
        assert actual.provider_diagnostics == expected.provider_diagnostics
        assert actual.trace.rows_scanned == expected.trace.rows_scanned
        assert actual.trace.clusters_scanned == expected.trace.clusters_scanned


class TestBatchSequentialEquivalence:
    @pytest.mark.parametrize("policy", ["sequential", "sorted"])
    def test_batch_matches_sequential_loop(self, policy):
        sequential_system = _system(policy)
        sequential = [
            sequential_system.execute(query, compute_exact=False) for query in WORKLOAD
        ]
        batch_system = _system(policy)
        batch = batch_system.execute_batch(WORKLOAD, compute_exact=False)
        _assert_equivalent(sequential, batch.results)

    @pytest.mark.parametrize("policy", ["sequential", "sorted"])
    def test_batch_matches_sequential_loop_with_smc(self, policy):
        sequential_system = _system(policy, use_smc=True)
        sequential = [
            sequential_system.execute(query, compute_exact=False) for query in WORKLOAD
        ]
        batch_system = _system(policy, use_smc=True)
        batch = batch_system.execute_batch(WORKLOAD, compute_exact=False)
        _assert_equivalent(sequential, batch.results)

    def test_parallel_fanout_is_bit_identical(self):
        serial_batch = _system("sequential").execute_batch(WORKLOAD, compute_exact=False)
        with _system("sequential", parallel=True) as parallel_system:
            parallel_batch = parallel_system.execute_batch(WORKLOAD, compute_exact=False)
        _assert_equivalent(serial_batch.results, parallel_batch.results, over_wire=True)

    def test_batch_exact_values_match_baseline(self):
        system = _system("sequential")
        batch = system.execute_batch(WORKLOAD, compute_exact=True)
        for query, result in zip(WORKLOAD, batch.results):
            assert result.exact_value == system.exact_baseline(query).value

    def test_batch_aggregates(self):
        system = _system("sequential")
        batch = system.execute_batch(WORKLOAD, compute_exact=False)
        assert batch.num_queries == len(WORKLOAD)
        assert batch.epsilon_spent == pytest.approx(len(WORKLOAD) * 1.0)
        assert batch.total_rows_scanned == sum(
            result.trace.rows_scanned for result in batch.results
        )
        assert batch.wall_seconds > 0
        assert batch.queries_per_second > 0

    def test_execute_is_a_batch_of_one(self):
        one = _system("sequential").execute(WORKLOAD[0], compute_exact=False)
        batch = _system("sequential").execute_batch([WORKLOAD[0]], compute_exact=False)
        _assert_equivalent([one], batch.results)
