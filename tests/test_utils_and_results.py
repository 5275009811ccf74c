"""Tests for the utility helpers, protocol messages, and result objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import ExecutionTrace, ProviderRelease, QueryResult
from repro.federation.messages import (
    AllocationMessage,
    EstimateMessage,
    QueryRequest,
    SummaryMessage,
)
from repro.query.model import RangeQuery
from repro.utils.rng import derive_rng, ensure_rng, spawn_child_rngs
from repro.utils.timing import Stopwatch, Timer
from repro.utils.validation import (
    require_fraction,
    require_non_negative,
    require_positive,
    require_probability_vector,
)


class TestRng:
    def test_ensure_rng_accepts_seed_generator_and_none(self):
        assert isinstance(ensure_rng(3), np.random.Generator)
        assert isinstance(ensure_rng(None), np.random.Generator)
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_derive_rng_is_deterministic_per_key(self):
        a = derive_rng(42, "sampler", 1).random()
        b = derive_rng(42, "sampler", 1).random()
        c = derive_rng(42, "sampler", 2).random()
        assert a == b
        assert a != c

    def test_spawn_child_rngs_are_independent(self):
        children = spawn_child_rngs(7, 3)
        assert len(children) == 3
        draws = {child.random() for child in children}
        assert len(draws) == 3

    def test_spawn_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_child_rngs(0, -1)


class TestTiming:
    def test_timer_measures_elapsed(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0

    def test_stopwatch_accumulates_named_laps(self):
        stopwatch = Stopwatch()
        with stopwatch.measure("phase-a"):
            pass
        stopwatch.add("phase-a", 0.5)
        stopwatch.add("phase-b", 0.25)
        assert stopwatch.laps["phase-a"] >= 0.5
        assert stopwatch.total == pytest.approx(sum(stopwatch.as_dict().values()))

    def test_stopwatch_rejects_negative_time(self):
        with pytest.raises(ValueError):
            Stopwatch().add("x", -1.0)


class TestValidation:
    def test_require_positive(self):
        assert require_positive(2.0, "x") == 2.0
        with pytest.raises(ValueError):
            require_positive(0.0, "x")

    def test_require_non_negative(self):
        assert require_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

    def test_require_fraction(self):
        assert require_fraction(0.5, "x") == 0.5
        assert require_fraction(1.0, "x", inclusive=True) == 1.0
        with pytest.raises(ValueError):
            require_fraction(1.0, "x")

    def test_require_probability_vector(self):
        vector = require_probability_vector([0.25, 0.75], "p")
        assert vector.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            require_probability_vector([0.5, 0.6], "p")
        with pytest.raises(ValueError):
            require_probability_vector([], "p")


class TestMessages:
    def test_payload_sizes_are_small_and_data_independent(self):
        query = RangeQuery.count({"a": (0, 10), "b": (5, 6)})
        request = QueryRequest(query_id=1, query=query, sampling_rate=0.1)
        summary = SummaryMessage(1, "p0", 10.0, 0.5)
        allocation = AllocationMessage(1, "p0", 3)
        estimate = EstimateMessage(1, "p0", 123.0, 4.5, True)
        # Every protocol message fits in well under a kilobyte.
        for message in (request, summary, allocation, estimate):
            assert 0 < message.payload_bytes() < 1024

    def test_request_payload_grows_with_dimensions_only(self):
        small = QueryRequest(1, RangeQuery.count({"a": (0, 1)}), 0.1)
        large = QueryRequest(1, RangeQuery.count({"a": (0, 1), "b": (0, 1), "c": (0, 1)}), 0.1)
        assert large.payload_bytes() > small.payload_bytes()


class TestResultObjects:
    def _release(self) -> ProviderRelease:
        return ProviderRelease(
            provider_id="p0", allocation=3, approximated=True, released_value=105.0
        )

    def test_released_value_includes_noise(self, small_system):
        # The release is what the aggregator received; in-process, each
        # provider's diagnostics show it is the estimate plus that
        # provider's own noise — and the noise sum is the query's.
        result = small_system.execute(RangeQuery.count({"age": (10, 80)}))
        assert len(result.provider_diagnostics) == len(result.provider_releases) == 4
        for release, local in zip(result.provider_releases, result.provider_diagnostics):
            assert local.provider_id == release.provider_id
            assert local.local_noise != 0.0
            assert release.released_value == local.local_estimate + local.local_noise
        assert result.noise_injected == sum(
            local.local_noise for local in result.provider_diagnostics
        )

    def test_trace_totals_and_work_fraction(self):
        trace = ExecutionTrace(
            phase_seconds={"a": 0.1, "b": 0.2},
            simulated_network_seconds=0.05,
            rows_scanned=250,
            rows_available=1000,
        )
        assert trace.total_seconds == pytest.approx(0.35)
        assert trace.work_fraction == pytest.approx(0.25)
        assert ExecutionTrace().work_fraction == 0.0

    def test_query_result_error_metrics(self):
        query = RangeQuery.count({"a": (0, 1)})
        result = QueryResult(
            query=query,
            value=90.0,
            epsilon_spent=1.0,
            delta_spent=1e-3,
            used_smc=False,
            provider_releases=(self._release(),),
            trace=ExecutionTrace(),
            exact_value=100,
        )
        assert result.relative_error == pytest.approx(0.1)
        assert result.absolute_error == pytest.approx(10.0)
        assert "exact=100" in result.summary()

    def test_query_result_without_exact_value(self):
        query = RangeQuery.count({"a": (0, 1)})
        result = QueryResult(
            query=query,
            value=90.0,
            epsilon_spent=1.0,
            delta_spent=1e-3,
            used_smc=False,
            provider_releases=(),
            trace=ExecutionTrace(),
            exact_value=None,
        )
        assert result.relative_error is None
        assert result.absolute_error is None

    def test_zero_exact_value_yields_infinite_error(self):
        query = RangeQuery.count({"a": (0, 1)})
        result = QueryResult(
            query=query,
            value=5.0,
            epsilon_spent=1.0,
            delta_spent=1e-3,
            used_smc=False,
            provider_releases=(),
            trace=ExecutionTrace(),
            exact_value=0,
        )
        assert result.relative_error == float("inf")
