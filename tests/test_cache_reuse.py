"""End-to-end semantics of the cross-query reuse layer.

The contracts under test, straight from the design:

* a cache **hit** re-serves the original release byte-for-byte (summary
  scalars, estimate message, provider report);
* a **miss** charges the end user's budget exactly once per fresh release;
* with the cache **disabled** the engine is bit-identical to the plain
  batched path under the same seed — and a **cold** enabled cache is too,
  on a duplicate-free workload;
* a **layout change** (re-clustering) invalidates every cached release;
* a TTL expires entries by protocol round; SMC answers are never cached;
  budget-aware admission lets a fully cached workload run on an exhausted
  budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    CacheConfig,
    PrivacyConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.accounting import split_query_budget
from repro.core.system import FederatedAQPSystem
from repro.errors import BudgetExhaustedError, ProtocolError
from repro.federation.messages import AllocationMessage, QueryRequest
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
    cache: CacheConfig | None = None,
    *,
    total_epsilon: float | None = None,
    use_smc: bool = False,
    parallel: bool = False,
) -> FederatedAQPSystem:
    config = SystemConfig(
        cluster_size=150,
        num_providers=4,
        privacy=PrivacyConfig(epsilon=1.0, delta=1e-3),
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        transport=TransportConfig(kind="process" if parallel else "inprocess"),
        cache=cache or CacheConfig(),
        use_smc_for_result=use_smc,
        seed=97,
    )
    return FederatedAQPSystem.from_table(
        _table(), config=config, total_epsilon=total_epsilon
    )


ENABLED = CacheConfig(enabled=True)

WORKLOAD = [
    RangeQuery.count({"age": (10, 80)}),
    RangeQuery.count({"age": (0, 35), "dept": (2, 6)}),
    RangeQuery.sum({"hours": (5, 25)}),
    RangeQuery.count({"age": (0, 2)}),  # exact (N^Q < N_min) on sorted layouts
    RangeQuery.count({"hours": (0, 40), "age": (20, 90), "dept": (0, 9)}),
]

QUERY = WORKLOAD[0]


def _assert_equivalent(expected_results, actual_results, *, over_wire=False):
    """Releases and charges on every carrier; diagnostics where they exist."""
    assert len(expected_results) == len(actual_results)
    for expected, actual in zip(expected_results, actual_results):
        assert actual.value == expected.value
        assert actual.provider_releases == expected.provider_releases
        assert actual.epsilon_spent == expected.epsilon_spent
        assert actual.delta_spent == expected.delta_spent
        if over_wire:
            assert actual.provider_diagnostics is None
            continue
        assert actual.noise_injected == expected.noise_injected
        assert actual.provider_diagnostics == expected.provider_diagnostics


class TestDisabledCacheEquivalence:
    def test_explicit_off_matches_default_config(self):
        default = _system().execute_batch(WORKLOAD, compute_exact=False)
        explicit = _system(CacheConfig(enabled=False)).execute_batch(
            WORKLOAD, compute_exact=False
        )
        _assert_equivalent(default.results, explicit.results)

    def test_cold_enabled_cache_matches_disabled_on_distinct_queries(self):
        # A duplicate-free workload on a cold cache misses everywhere, and a
        # miss runs exactly the plain code path: same draws, same results.
        disabled = _system().execute_batch(WORKLOAD, compute_exact=False)
        enabled = _system(ENABLED).execute_batch(WORKLOAD, compute_exact=False)
        _assert_equivalent(disabled.results, enabled.results)
        assert enabled.answer_cache_hits == 0
        assert enabled.summary_cache_hits == 0


class TestHitServesOriginalRelease:
    def test_summary_hit_is_byte_identical(self):
        provider = _system(ENABLED).providers[0]
        request = QueryRequest(query_id=1, query=QUERY, sampling_rate=0.2)
        repeat = QueryRequest(query_id=2, query=QUERY, sampling_rate=0.2)
        flags: list[bool] = []
        first = provider.prepare_summary_batch([request], 0.1, reuse_out=flags)[0]
        second = provider.prepare_summary_batch([repeat], 0.1, reuse_out=flags)[0]
        provider.forget_batch([1, 2])
        assert flags == [False, True]
        assert second.noisy_cluster_count == first.noisy_cluster_count
        assert second.noisy_avg_proportion == first.noisy_avg_proportion

    def test_repeated_query_returns_identical_answer(self):
        system = _system(ENABLED)
        first = system.execute(QUERY, compute_exact=False)
        second = system.execute(QUERY, compute_exact=False)
        assert second.value == first.value
        assert second.provider_releases == first.provider_releases
        assert second.provider_diagnostics == first.provider_diagnostics
        assert second.noise_injected == first.noise_injected
        assert second.trace.summary_cache_hits == system.num_providers
        assert second.trace.answer_cache_hits == system.num_providers
        assert second.epsilon_spent == 0.0
        assert second.delta_spent == 0.0

    def test_intra_batch_duplicates_are_reuse(self):
        system = _system(ENABLED)
        batch = system.execute_batch([QUERY, QUERY, QUERY], compute_exact=False)
        values = set(batch.values)
        assert len(values) == 1
        assert [result.epsilon_spent for result in batch.results] == [1.0, 0.0, 0.0]
        assert batch.fully_cached_queries == 2

    def test_sessions_are_released_on_cache_hits(self):
        system = _system(ENABLED)
        system.execute(QUERY, compute_exact=False)
        system.execute(QUERY, compute_exact=False)
        assert all(provider.num_open_sessions == 0 for provider in system.providers)


class TestSessionStreams:
    """A session's noise stream is built when a fresh release first needs it.

    The stream is a pure function of its seed (the positional child seed or
    the keyed ``seed_material``), so a hit that never draws builds nothing
    and a late build draws what an early one would have.
    """

    BUDGET = split_query_budget(PrivacyConfig(epsilon=1.0, delta=1e-3))

    @staticmethod
    def _requests(first_id: int, seed_material=None) -> list[QueryRequest]:
        return [
            QueryRequest(
                query_id=first_id + offset,
                query=query,
                sampling_rate=0.2,
                seed_material=(
                    None if seed_material is None else (*seed_material, offset)
                ),
            )
            for offset, query in enumerate(WORKLOAD)
        ]

    def _round_trip(self, provider, requests, sample_size: int):
        provider.prepare_summary_batch(requests, self.BUDGET.epsilon_allocation)
        return self._answers(provider, requests, sample_size)

    def _answers(self, provider, requests, sample_size: int):
        """``([(release, diagnostics), ...], reuse flags)`` of one answer phase."""
        hits: list[bool] = []
        diagnostics: list = []
        messages = provider.answer_batch(
            [
                AllocationMessage(
                    query_id=request.query_id,
                    provider_id=provider.provider_id,
                    sample_size=sample_size,
                )
                for request in requests
            ],
            self.BUDGET,
            reuse_out=hits,
            diagnostics_out=diagnostics,
        )
        provider.forget_batch([request.query_id for request in requests])
        return list(zip(messages, diagnostics)), hits

    def test_batch_hitting_in_both_phases_builds_no_generator(self, monkeypatch):
        provider = _system(ENABLED).providers[0]
        self._round_trip(provider, self._requests(0, seed_material=(7,)), 3)
        built: list[object] = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        # Positional and keyed repeats alike: every summary and answer hits.
        for requests in (
            self._requests(100),
            self._requests(200, seed_material=(8,)),
        ):
            _, hits = self._round_trip(provider, requests, 3)
            assert hits == [True] * len(WORKLOAD)
        assert built == []
        # A miss still builds one stream per fresh session.
        _, hits = self._round_trip(provider, self._requests(300), 4)
        assert hits == [False] * len(WORKLOAD)
        assert len(built) == len(WORKLOAD)

    @pytest.mark.parametrize("seed_material", [None, (5, 9)])
    def test_late_built_stream_draws_what_an_eager_one_would(self, seed_material):
        # Summary hit, answer miss (a new sample size): the answer phase is
        # the session's first draw.  The twin builds every stream at summary
        # time instead; both must release the same bytes.
        lazy = _system(ENABLED).providers[0]
        eager = _system(ENABLED).providers[0]
        for provider in (lazy, eager):
            self._round_trip(provider, self._requests(0, seed_material), 3)
        repeats = self._requests(100, seed_material)
        for provider in (lazy, eager):
            provider.prepare_summary_batch(repeats, self.BUDGET.epsilon_allocation)
        assert all(session.rng is None for session in lazy._sessions.values())
        eager._open_streams(list(eager._sessions.values()))
        assert all(session.rng is not None for session in eager._sessions.values())
        lazy_answers, lazy_hits = self._answers(lazy, repeats, 4)
        eager_answers, eager_hits = self._answers(eager, repeats, 4)
        assert lazy_hits == eager_hits == [False] * len(WORKLOAD)
        assert lazy_answers == eager_answers
        assert any(local.local_noise != 0.0 for _, local in lazy_answers)


class TestBudgetCharging:
    def test_miss_charges_exactly_once(self):
        system = _system(ENABLED, total_epsilon=3.0)
        for _ in range(3):
            system.execute(QUERY, compute_exact=False)
        remaining_epsilon, _ = system.remaining_budget()
        assert remaining_epsilon == pytest.approx(2.0)
        # One ledger entry per answered query, zero-cost entries included.
        assert len(system.end_user_budget.accountant) == 3

    def test_different_epsilon_is_a_fresh_release(self):
        system = _system(ENABLED, total_epsilon=10.0)
        system.execute(QUERY, compute_exact=False)
        result = system.execute(QUERY, epsilon=0.5, compute_exact=False)
        assert result.trace.summary_cache_hits == 0
        assert result.trace.answer_cache_hits == 0
        assert result.epsilon_spent == pytest.approx(0.5)

    def test_fully_cached_workload_runs_on_exhausted_budget(self):
        system = _system(ENABLED, total_epsilon=1.5)
        system.execute(QUERY, compute_exact=False)  # spends 1.0 of 1.5
        # A fresh query no longer fits ...
        with pytest.raises(BudgetExhaustedError):
            system.execute(WORKLOAD[1], compute_exact=False)
        # ... but the cached one is admitted (planner bounds it at zero) and
        # charged nothing.
        result = system.execute(QUERY, compute_exact=False)
        assert result.epsilon_spent == 0.0
        assert system.remaining_budget()[0] == pytest.approx(0.5)

    def test_cache_off_budget_behaviour_unchanged(self):
        system = _system(total_epsilon=1.5)
        system.execute(QUERY, compute_exact=False)
        with pytest.raises(BudgetExhaustedError):
            system.execute(QUERY, compute_exact=False)

    def test_batch_charges_are_atomic(self):
        # If a batch's actual charges overdraw (the pathological corner where
        # LRU eviction inside an admitted batch beats the planner's preview),
        # nothing may be debited: all-or-nothing at the accountant level.
        from repro.dp.accountant import PrivacyAccountant

        accountant = PrivacyAccountant(total_epsilon=1.0, total_delta=1.0)
        with pytest.raises(BudgetExhaustedError):
            accountant.charge_many([(0.6, 0.0, "a"), (0.6, 0.0, "b")])
        assert len(accountant) == 0
        assert accountant.remaining_epsilon == 1.0
        accountant.charge_many([(0.5, 0.0, "a"), (0.5, 0.0, "b")])
        assert len(accountant) == 2

    def test_post_run_charges_record_even_on_overdraw(self):
        # Post-run bookkeeping (enforce=False) must record spends that
        # already happened — an overdraft empties the wallet instead of
        # hiding real privacy loss.
        from repro.dp.accountant import PrivacyAccountant

        accountant = PrivacyAccountant(total_epsilon=1.0, total_delta=1.0)
        accountant.charge_many(
            [(0.8, 0.0, "a"), (0.8, 0.0, "b")], enforce=False
        )
        assert len(accountant) == 2
        assert accountant.spent.epsilon == pytest.approx(1.6)
        assert accountant.remaining_epsilon == 0.0
        assert not accountant.can_afford(0.1)

    def test_plan_reuse_previews_the_split(self):
        system = _system(ENABLED)
        from repro.core.accounting import split_query_budget

        budget = split_query_budget(system.config.privacy)
        cold = system.aggregator.plan_reuse(WORKLOAD, budget)
        assert cold.num_fully_cached == 0
        assert cold.upper_bound_epsilon == pytest.approx(len(WORKLOAD) * 1.0)
        system.execute_batch(WORKLOAD, compute_exact=False)
        warm = system.aggregator.plan_reuse(WORKLOAD, budget)
        assert warm.num_fully_cached == len(WORKLOAD)
        assert warm.upper_bound_epsilon == 0.0
        assert warm.must_release() == ()

    def test_plan_reuse_builds_its_planner_once_per_aggregator(self, monkeypatch):
        from repro.core.accounting import split_query_budget
        from repro.federation import aggregator as aggregator_module

        system = _system(ENABLED)
        budget = split_query_budget(system.config.privacy)

        def no_new_planner(*args, **kwargs):
            raise AssertionError("plan_reuse constructed a ReusePlanner per call")

        monkeypatch.setattr(aggregator_module, "ReusePlanner", no_new_planner)
        first = system.aggregator.plan_reuse(WORKLOAD, budget)
        system.execute_batch(WORKLOAD, compute_exact=False)
        second = system.aggregator.plan_reuse(WORKLOAD, budget)
        # The one planner peeks the live caches, so it still sees them warm up.
        assert (first.num_fully_cached, second.num_fully_cached) == (0, len(WORKLOAD))


class TestInvalidation:
    def test_layout_change_evicts_cached_releases(self):
        system = _system(ENABLED)
        system.execute(QUERY, compute_exact=False)
        for provider in system.providers:
            provider.rebuild_layout()
        result = system.execute(QUERY, compute_exact=False)
        assert result.trace.summary_cache_hits == 0
        assert result.trace.answer_cache_hits == 0
        assert result.epsilon_spent == pytest.approx(1.0)
        stats = system.cache_stats()
        assert stats.evicted_stale > 0

    def test_rebuild_with_open_sessions_is_refused(self):
        system = _system(ENABLED)
        provider = system.providers[0]
        request = QueryRequest(query_id=7, query=QUERY, sampling_rate=0.2)
        provider.prepare_summary_batch([request], 0.1)
        with pytest.raises(ProtocolError):
            provider.rebuild_layout()
        provider.forget(7)
        provider.rebuild_layout()
        assert provider.layout_epoch == 1

    def test_ttl_expires_cached_releases(self):
        ttl = CacheConfig(enabled=True, ttl_rounds=1)
        system = _system(ttl)
        system.execute(QUERY, compute_exact=False)
        result = system.execute(QUERY, compute_exact=False)
        assert result.trace.answer_cache_hits == 0
        assert result.epsilon_spent == pytest.approx(1.0)

    def test_invalidate_caches_drops_everything(self):
        system = _system(ENABLED)
        system.execute(QUERY, compute_exact=False)
        system.invalidate_caches()
        result = system.execute(QUERY, compute_exact=False)
        assert result.trace.answer_cache_hits == 0


class TestModes:
    def test_smc_answers_are_never_cached(self):
        system = _system(ENABLED, use_smc=True)
        system.execute(QUERY, compute_exact=False)
        result = system.execute(QUERY, compute_exact=False)
        assert result.trace.summary_cache_hits == system.num_providers
        assert result.trace.answer_cache_hits == 0
        # Only the summary phase was reused: eps_S + eps_E still spent.
        assert result.epsilon_spent == pytest.approx(0.9)

    def test_parallel_fanout_matches_serial_with_cache(self):
        serial = _system(ENABLED)
        workload = WORKLOAD + [QUERY]
        first_serial = serial.execute_batch(workload, compute_exact=False)
        warm_serial = serial.execute_batch(workload, compute_exact=False)
        # The process carrier's workers hold their own release caches.
        with _system(ENABLED, parallel=True) as parallel:
            first_parallel = parallel.execute_batch(workload, compute_exact=False)
            warm_parallel = parallel.execute_batch(workload, compute_exact=False)
        _assert_equivalent(first_serial.results, first_parallel.results, over_wire=True)
        _assert_equivalent(warm_serial.results, warm_parallel.results, over_wire=True)
        assert warm_serial.fully_cached_queries == len(workload)
