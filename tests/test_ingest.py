"""Streaming ingestion: delta stores, snapshot isolation, compaction.

The equivalence gates of the subsystem (see ``docs/ingestion.md``):

(a) **compact-then-query ≡ fresh rebuild** — after a compaction, layout,
    metadata, and DP answers are bit-identical to a provider/system built
    from scratch on the union of rows, on the in-process and the process
    transport carrier;
(b) **snapshot isolation** — a batch whose sessions opened before an ingest
    returns bit-identical answers whether or not the ingest ran between its
    protocol phases;

plus the satellite behaviours: eager worker invalidation on layout
rebuilds, the ``ingest`` network traffic class, selective cache retention
across compactions, empty-born providers, and the scheduler's ingest queue.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_engine_equivalence import SCHEMA as ENGINE_SCHEMA
from test_engine_equivalence import boxes, chunked_tables

from repro.config import (
    CacheConfig,
    IngestConfig,
    ServiceConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.accounting import split_query_budget
from repro.core.system import FederatedAQPSystem
from repro.errors import IngestError, ProtocolError, ServiceOverloadedError
from repro.federation.messages import QueryRequest
from repro.federation.provider import DataProvider
from repro.ingest import CompactionPolicy, Compactor, DeltaStore
from repro.query.executor import execute_on_table
from repro.query.model import RangeQuery
from repro.service import SessionScheduler, TenantRegistry
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCHEMA = Schema((Dimension("a", 0, 49), Dimension("b", 0, 19)))
BUDGET = split_query_budget(SystemConfig().privacy)


def make_table(num_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "a": rng.integers(0, 50, num_rows),
            "b": rng.integers(0, 20, num_rows),
        },
    )


def make_provider(table: Table, **kwargs) -> DataProvider:
    kwargs.setdefault("cluster_size", 8)
    kwargs.setdefault("rng", 11)
    return DataProvider(provider_id="p0", table=table, **kwargs)


def keyed_requests(queries, base: int = 0):
    return [
        QueryRequest(
            query_id=base + index,
            query=query,
            sampling_rate=0.2,
            seed_material=(7, index),
        )
        for index, query in enumerate(queries)
    ]


class LocalAnswer(NamedTuple):
    """One query's release next to the provider's diagnostics of it."""

    message: object
    diagnostics: object


def run_protocol(provider: DataProvider, queries, *, ingest_between: Table | None = None):
    """Drive summary -> (optional ingest) -> answer with keyed streams."""
    requests = keyed_requests(queries)
    summaries = provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
    if ingest_between is not None:
        provider.ingest_rows(ingest_between, auto_compact=False)
    from repro.federation.messages import AllocationMessage

    allocations = [
        AllocationMessage(query_id=request.query_id, provider_id="p0", sample_size=2)
        for request in requests
    ]
    diagnostics: list = []
    messages = provider.answer_batch(allocations, BUDGET, diagnostics_out=diagnostics)
    provider.forget_batch([request.query_id for request in requests])
    return summaries, [LocalAnswer(*pair) for pair in zip(messages, diagnostics)]


QUERIES = [
    RangeQuery.count({"a": (5, 30)}),
    RangeQuery.count({"b": (3, 9)}),
    RangeQuery.count({"a": (0, 49), "b": (0, 19)}),
]


class TestDeltaStore:
    def test_watermark_advances_and_resets(self):
        store = DeltaStore(SCHEMA)
        assert store.watermark == 0
        assert store.append(make_table(5, 1)) == 5
        assert store.append(make_table(3, 2)) == 8
        drained = store.take_all()
        assert drained.num_rows == 8
        assert store.watermark == 0

    def test_append_validates_schema_and_domain(self):
        store = DeltaStore(SCHEMA)
        other = Schema((Dimension("a", 0, 49),))
        with pytest.raises(IngestError):
            store.append(Table(other, {"a": np.array([1])}))
        with pytest.raises(IngestError):
            store.append(
                Table(SCHEMA, {"a": np.array([999]), "b": np.array([1])})
            )

    def test_query_values_matches_brute_force(self):
        store = DeltaStore(SCHEMA)
        chunks = [make_table(7, 3), make_table(5, 4), make_table(9, 5)]
        for chunk in chunks:
            store.append(chunk)
        full = Table.concat(chunks)
        for watermark in (0, 4, 7, 12, 21):
            values, scanned = store.query_values(QUERIES, [watermark] * len(QUERIES))
            visible = full.slice(0, watermark)
            for index, query in enumerate(QUERIES):
                mask = np.ones(visible.num_rows, dtype=bool)
                for name, interval in query.ranges.items():
                    column = visible.column(name)
                    mask &= (column >= interval.low) & (column <= interval.high)
                assert values[index] == int(mask.sum())
            assert np.all(scanned <= watermark)

    def test_mini_zone_maps_skip_disjoint_chunks(self):
        store = DeltaStore(SCHEMA)
        low_rows = Table(SCHEMA, {"a": np.arange(5), "b": np.arange(5) % 20})
        store.append(low_rows)
        query = RangeQuery.count({"a": (40, 49)})
        values, scanned = store.query_values([query], [5])
        assert values[0] == 0
        assert scanned[0] == 0  # zone map pruned the only chunk

    def test_rows_upto_slices_mid_chunk(self):
        store = DeltaStore(SCHEMA)
        store.append(make_table(6, 1))
        store.append(make_table(6, 2))
        assert store.rows_upto(0).num_rows == 0
        assert store.rows_upto(4).num_rows == 4
        assert store.rows_upto(9).num_rows == 9
        assert store.rows_upto(12).num_rows == 12


@st.composite
def delta_scenarios(draw):
    chunks = draw(st.lists(chunked_tables(), min_size=1, max_size=2))
    flat = [table for group in chunks for table in group]
    total = sum(table.num_rows for table in flat)
    queries = draw(st.lists(boxes(), min_size=1, max_size=4))
    watermarks = [draw(st.integers(0, total)) for _ in queries]
    return flat, queries, watermarks


@given(delta_scenarios())
def test_delta_snapshot_batch_eval_matches_per_query_reference(scenario):
    """Watermark-pinned batch evaluation ≡ slicing the prefix and scanning it."""
    flat, queries, watermarks = scenario
    store = DeltaStore(ENGINE_SCHEMA)
    for table in flat:
        store.append(table)
    values, scanned = store.query_values(queries, watermarks)
    assert values.dtype == np.int64
    for index, (query, watermark) in enumerate(zip(queries, watermarks)):
        visible = store.rows_upto(watermark)
        assert values[index] == execute_on_table(visible, query)
        assert 0 <= scanned[index] <= visible.num_rows


def test_system_answers_identical_with_live_deltas():
    """End to end: uncompacted delta rows are in the read path, and the DP
    answers over them reproduce from the seed."""
    base = make_table(3000, 61)
    delta = make_table(200, 62)
    union = Table.concat([base, delta])
    config = SystemConfig(
        cluster_size=150,
        num_providers=3,
        seed=17,
        ingest=IngestConfig(max_delta_rows=10**6),
    )
    summaries = []
    for _ in range(2):
        system = FederatedAQPSystem.from_table(base, config=config)
        system.ingest(delta)
        assert system.total_delta_rows == delta.num_rows
        result = system.execute_batch(QUERIES, compute_exact=True)
        summaries.append([(r.value, r.exact_value) for r in result.results])
    assert summaries[0] == summaries[1]
    assert [exact for _, exact in summaries[0]] == [
        execute_on_table(union, query) for query in QUERIES
    ]


class TestIngestValidation:
    def test_aggregator_ingest_is_all_or_nothing(self):
        """A bad partition must not leave the federation half-applied."""
        config = SystemConfig(cluster_size=8, num_providers=2, seed=3)
        system = FederatedAQPSystem.from_table(make_table(64, 1), config=config)
        good = make_table(5, 2)
        bad = Table(SCHEMA, {"a": np.array([999]), "b": np.array([1])})
        with pytest.raises(IngestError):
            system.aggregator.ingest([good, bad])
        # Provider 0's buffer was never touched despite its valid partition.
        assert system.total_delta_rows == 0
        assert system.aggregator.network.stats.ingest_messages == 0

    def test_scheduler_rejects_malformed_ingest_at_submit(self):
        config = SystemConfig(cluster_size=8, num_providers=2, seed=3)
        system = FederatedAQPSystem.from_table(make_table(64, 1), config=config)
        registry = TenantRegistry()
        registry.register("t1", total_epsilon=10.0)
        scheduler = SessionScheduler(system, registry)
        bad = Table(SCHEMA, {"a": np.array([999]), "b": np.array([1])})
        with pytest.raises(IngestError):
            scheduler.submit_ingest(bad, tenant_id="t1")
        # Nothing queued, nothing attributed: the drain is unaffected.
        assert scheduler.num_pending_ingest == 0
        assert registry.get("t1").rows_ingested == 0
        assert scheduler.drain() == []


class TestSnapshotIsolation:
    def test_pre_ingest_batch_is_bit_identical_under_concurrent_ingest(self):
        """Gate (b): ingest between phases never changes pinned answers."""
        base = make_table(120, 1)
        extra = make_table(60, 2)
        quiet = make_provider(base)
        busy = make_provider(base)
        summaries_a, answers_a = run_protocol(quiet, QUERIES)
        summaries_b, answers_b = run_protocol(busy, QUERIES, ingest_between=extra)
        assert summaries_a == summaries_b
        assert [a.message for a in answers_a] == [a.message for a in answers_b]
        assert [a.diagnostics for a in answers_a] == [a.diagnostics for a in answers_b]
        # The ingest did land: the next batch sees the new watermark.
        assert busy.delta_watermark == 60
        _, later = run_protocol(busy, QUERIES)
        assert later[2].diagnostics.rows_available == 180

    def test_sessions_pin_watermark_at_summary_time(self):
        provider = make_provider(make_table(64, 1))
        provider.ingest_rows(make_table(10, 2), auto_compact=False)
        requests = keyed_requests(QUERIES)
        provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
        assert all(
            session.delta_watermark == 10
            for session in provider._sessions.values()
        )
        provider.forget_batch([request.query_id for request in requests])

    def test_delta_rows_change_post_snapshot_answers(self):
        provider = make_provider(make_table(64, 1))
        full_box = [RangeQuery.count({"a": (0, 49)})]
        _, before = run_protocol(provider, full_box)
        provider.ingest_rows(make_table(30, 2), auto_compact=False)
        _, after = run_protocol(provider, full_box)
        # Same keyed noise stream, 30 more represented individuals exactly.
        assert (
            after[0].diagnostics.rows_available - before[0].diagnostics.rows_available
            == 30
        )

    def test_compact_refuses_open_sessions(self):
        provider = make_provider(make_table(64, 1))
        provider.ingest_rows(make_table(5, 2), auto_compact=False)
        requests = keyed_requests(QUERIES[:1])
        provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
        with pytest.raises(ProtocolError):
            provider.compact()
        provider.forget_batch([requests[0].query_id])
        assert provider.compact().rows_folded == 5


class TestCompactionEquivalence:
    @pytest.mark.parametrize(
        "policy,intra",
        [
            ("sequential", None),
            ("sequential", "b"),
            ("sorted", None),
            ("sorted", "a"),
            ("sorted", "b"),  # ineligible: full-rebuild fallback path
        ],
    )
    def test_provider_equals_fresh_union_provider(self, policy, intra):
        """Gate (a), provider level, incremental and fallback paths."""
        base = make_table(100, 1)
        deltas = [make_table(17, 2), make_table(23, 3)]
        grown = make_provider(
            base, clustering_policy=policy, intra_sort_by=intra, rng=5
        )
        for delta in deltas:
            grown.ingest_rows(delta, auto_compact=False)
        report = grown.compact()
        assert report.rows_folded == 40
        fresh = make_provider(
            Table.concat([base] + deltas),
            clustering_policy=policy,
            intra_sort_by=intra,
            rng=5,
        )
        assert grown.num_clusters == fresh.num_clusters
        for mine, theirs in zip(grown.clustered.clusters, fresh.clustered.clusters):
            assert mine.cluster_id == theirs.cluster_id
            for name in SCHEMA.column_names:
                assert np.array_equal(
                    mine.rows.column(name), theirs.rows.column(name)
                )
        mine_layout, theirs_layout = grown.clustered.layout(), fresh.clustered.layout()
        for name in mine_layout.columns:
            assert mine_layout.columns[name].dtype == theirs_layout.columns[name].dtype
            assert np.array_equal(
                mine_layout.columns[name], theirs_layout.columns[name]
            )
        assert np.array_equal(mine_layout.segment_sums, theirs_layout.segment_sums)
        # Identical keyed-stream protocol answers (same rng seed => same
        # stream entropy for both providers).
        _, answers_grown = run_protocol(grown, QUERIES)
        _, answers_fresh = run_protocol(fresh, QUERIES)
        assert [a.message for a in answers_grown] == [a.message for a in answers_fresh]
        if policy == "sorted" and intra == "b":
            assert not report.incremental
        else:
            assert report.incremental

    def test_incremental_fold_reuses_untouched_prefix(self):
        base = make_table(96, 1)  # 12 full clusters of 8
        grown = make_provider(base)
        before = grown.clustered.clusters
        grown.ingest_rows(make_table(10, 2), auto_compact=False)
        report = grown.compact()
        assert report.incremental
        assert report.first_affected_position == 12
        # Prefix Cluster objects are shared, not copied.
        assert grown.clustered.clusters[:12] == before[:12]
        assert all(
            mine is theirs
            for mine, theirs in zip(grown.clustered.clusters[:12], before[:12])
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_system_level_equivalence_across_backends(self, backend):
        """Gate (a), system level: ingest+auto-compact vs union build."""
        config = SystemConfig(
            cluster_size=8,
            num_providers=3,
            seed=7,
            ingest=IngestConfig(max_delta_rows=10),
            transport=TransportConfig(
                kind="process" if backend == "process" else "inprocess"
            ),
        )
        base, delta = make_table(150, 1), make_table(60, 2)
        tokens = [(1, index) for index in range(len(QUERIES))]
        warm = [RangeQuery.count({"a": (0, 4)})]
        with FederatedAQPSystem.from_table(base, config=config) as grown:
            grown.execute_batch(warm, seed_tokens=[(9, 9)])
            receipts = grown.ingest(delta)
            assert all(receipt.compacted for receipt in receipts)
            result_grown = grown.execute_batch(QUERIES, seed_tokens=tokens)
            unions = [provider.table for provider in grown.providers]
        with FederatedAQPSystem.from_partitions(unions, config=config) as fresh:
            fresh.execute_batch(warm, seed_tokens=[(9, 9)])
            result_fresh = fresh.execute_batch(QUERIES, seed_tokens=tokens)
        assert [r.value for r in result_grown.results] == [
            r.value for r in result_fresh.results
        ]
        assert [r.exact_value for r in result_grown.results] == [
            r.exact_value for r in result_fresh.results
        ]

    def test_epoch_bumps_and_watermark_resets(self):
        provider = make_provider(make_table(50, 1))
        assert provider.snapshot() == (0, 0)
        provider.ingest_rows(make_table(5, 2), auto_compact=False)
        assert provider.snapshot() == (0, 5)
        provider.compact()
        assert provider.snapshot() == (1, 0)
        provider.rebuild_layout()
        assert provider.snapshot() == (2, 0)

    def test_rebuild_layout_folds_pending_deltas(self):
        provider = make_provider(make_table(50, 1))
        provider.ingest_rows(make_table(14, 2), auto_compact=False)
        provider.rebuild_layout()
        assert provider.delta_watermark == 0
        assert provider.num_rows == 64
        assert provider.table.num_rows == 64


class TestCompactionPolicy:
    def test_thresholds(self):
        policy = CompactionPolicy(max_delta_rows=100, max_delta_fraction=0.5)
        assert not policy.due(0, 1000)
        assert not policy.due(99, 1000)
        assert policy.due(100, 1000)
        assert policy.due(60, 100)  # fraction trigger
        assert not policy.due(40, 100)

    def test_auto_compact_trips_on_threshold(self):
        provider = make_provider(
            make_table(40, 1), ingest_config=IngestConfig(max_delta_rows=20)
        )
        first = provider.ingest_rows(make_table(12, 2))
        assert not first.compacted and first.delta_watermark == 12
        second = provider.ingest_rows(make_table(12, 3))
        assert second.compacted and second.delta_watermark == 0
        assert second.layout_epoch == 1
        assert provider.num_rows == 64

    def test_compactor_helper(self):
        provider = make_provider(make_table(40, 1))
        compactor = Compactor(CompactionPolicy(max_delta_rows=8))
        assert compactor.maybe_compact(provider) is None
        provider.ingest_rows(make_table(9, 2), auto_compact=False)
        report = compactor.maybe_compact(provider)
        assert report is not None and report.rows_folded == 9


class TestCacheRetention:
    def _cached_provider(self):
        provider = make_provider(
            Table(
                SCHEMA,
                {
                    # Two well-separated value regions on "a".
                    "a": np.concatenate([np.full(40, 5), np.full(40, 45)]),
                    "b": np.tile(np.arange(20), 4),
                },
            ),
            cache_config=CacheConfig(enabled=True),
        )
        return provider

    def test_compaction_retains_disjoint_entries_and_purges_overlapping(self):
        provider = self._cached_provider()
        low = RangeQuery.count({"a": (0, 9)})
        high = RangeQuery.count({"a": (40, 49)})
        requests = keyed_requests([low, high])
        first = provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
        provider.forget_batch([request.query_id for request in requests])
        # Ingest rows only in the high region; compaction re-clusters the
        # tail, whose changed bounds cannot reach the low region.
        provider.ingest_rows(
            Table(SCHEMA, {"a": np.full(10, 44), "b": np.arange(10)}),
            auto_compact=False,
        )
        report = provider.compact()
        assert report.cache_entries_retained >= 1
        assert report.cache_entries_purged >= 1
        requests = keyed_requests([low, high], base=100)
        reuse: list[bool] = []
        second = provider.prepare_summary_batch(
            requests, BUDGET.epsilon_allocation, reuse_out=reuse
        )
        provider.forget_batch([request.query_id for request in requests])
        # The low-region summary survived the epoch bump byte for byte...
        assert reuse[0] is True
        assert second[0].noisy_cluster_count == first[0].noisy_cluster_count
        assert second[0].noisy_avg_proportion == first[0].noisy_avg_proportion
        # ...and the overlapping one was genuinely stale and re-released.
        assert reuse[1] is False

    def test_retained_entries_match_fresh_union_provider_semantics(self):
        """A retained release is exactly what a fresh release would serve."""
        provider = self._cached_provider()
        low = RangeQuery.count({"a": (0, 9)})
        requests = keyed_requests([low])
        provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
        provider.forget_batch([requests[0].query_id])
        provider.ingest_rows(
            Table(SCHEMA, {"a": np.full(10, 44), "b": np.arange(10)}),
            auto_compact=False,
        )
        provider.compact()
        # The covering set and proportions of the retained query are
        # untouched by the fold: recompute them fresh and compare.
        positions = provider.metadata.covering_positions_batch([low.range_tuples()])[0]
        fresh = make_provider(provider.table.slice(0, provider.table.num_rows))
        expected = fresh.metadata.covering_positions_batch([low.range_tuples()])[0]
        assert np.array_equal(positions, expected)

    def test_rebuild_layout_still_purges_everything(self):
        provider = self._cached_provider()
        requests = keyed_requests([RangeQuery.count({"a": (0, 9)})])
        provider.prepare_summary_batch(requests, BUDGET.epsilon_allocation)
        provider.forget_batch([requests[0].query_id])
        assert len(provider.cache) == 1
        provider.rebuild_layout()
        assert len(provider.cache) == 0


class TestEagerPoolInvalidation:
    def test_rebuild_while_pool_open_tears_workers_down_eagerly(self):
        """Satellite regression: rebuild_layout invalidates shared blocks now."""
        config = SystemConfig(
            cluster_size=8,
            num_providers=2,
            seed=3,
            transport=TransportConfig(kind="process"),
        )
        with FederatedAQPSystem.from_table(make_table(100, 1), config=config) as system:
            system.execute_batch([QUERIES[0]], seed_tokens=[(0, 0)])
            assert system.aggregator.transport.live_workers() == 2
            system.providers[0].rebuild_layout()
            # Eager: the workers are gone *now*, not on the next batch.
            assert system.aggregator.transport.live_workers() == 0
            assert system.aggregator.transport.shared_block_names() == ()
            # And the next batch rebuilds them and still answers correctly.
            result = system.execute_batch([QUERIES[2]], seed_tokens=[(0, 1)])
            assert result.results[0].exact_value == 100

    def test_compaction_while_pool_open_tears_workers_down_eagerly(self):
        config = SystemConfig(
            cluster_size=8,
            num_providers=2,
            seed=3,
            ingest=IngestConfig(max_delta_rows=4),
            transport=TransportConfig(kind="process"),
        )
        with FederatedAQPSystem.from_table(make_table(64, 1), config=config) as system:
            system.execute_batch([QUERIES[0]], seed_tokens=[(0, 0)])
            assert system.aggregator.transport.live_workers() == 2
            receipts = system.ingest(make_table(20, 2))
            assert all(receipt.compacted for receipt in receipts)
            assert system.aggregator.transport.live_workers() == 0
            result = system.execute_batch([QUERIES[2]], seed_tokens=[(0, 1)])
            assert result.results[0].exact_value == 84

    def test_pool_ships_pending_deltas_to_workers(self):
        config = SystemConfig(
            cluster_size=8,
            num_providers=2,
            seed=3,
            ingest=IngestConfig(max_delta_rows=10**6),
            transport=TransportConfig(kind="process"),
        )
        serial = SystemConfig(
            cluster_size=8, num_providers=2, seed=3,
            ingest=IngestConfig(max_delta_rows=10**6),
        )
        base, delta = make_table(64, 1), make_table(20, 2)
        with FederatedAQPSystem.from_table(base, config=config) as pooled:
            # Ingest BEFORE the workers exist: starting them must ship the
            # pending delta through the shared buffers.
            pooled.ingest(delta)
            assert pooled.total_delta_rows == 20
            result_pooled = pooled.execute_batch(QUERIES, seed_tokens=[(2, i) for i in range(3)])
        with FederatedAQPSystem.from_table(base, config=serial) as plain:
            plain.ingest(delta)
            result_plain = plain.execute_batch(QUERIES, seed_tokens=[(2, i) for i in range(3)])
        assert [r.value for r in result_pooled.results] == [
            r.value for r in result_plain.results
        ]

    def test_mid_stream_ingest_mirrors_to_open_pool(self):
        config = SystemConfig(
            cluster_size=8,
            num_providers=2,
            seed=3,
            ingest=IngestConfig(max_delta_rows=10**6),
            transport=TransportConfig(kind="process"),
        )
        serial = SystemConfig(
            cluster_size=8, num_providers=2, seed=3,
            ingest=IngestConfig(max_delta_rows=10**6),
        )
        base, delta = make_table(64, 1), make_table(20, 2)
        tokens = [(2, index) for index in range(3)]
        with FederatedAQPSystem.from_table(base, config=config) as pooled:
            pooled.execute_batch([QUERIES[0]], seed_tokens=[(0, 0)])  # starts workers
            pooled.ingest(delta)  # mirrored onto live workers
            result_pooled = pooled.execute_batch(QUERIES, seed_tokens=tokens)
        with FederatedAQPSystem.from_table(base, config=serial) as plain:
            plain.execute_batch([QUERIES[0]], seed_tokens=[(0, 0)])
            plain.ingest(delta)
            result_plain = plain.execute_batch(QUERIES, seed_tokens=tokens)
        assert [r.value for r in result_pooled.results] == [
            r.value for r in result_plain.results
        ]


class TestNetworkAccounting:
    def test_ingest_traffic_is_classed_separately(self):
        config = SystemConfig(cluster_size=8, num_providers=2, seed=3)
        system = FederatedAQPSystem.from_table(make_table(64, 1), config=config)
        stats = system.aggregator.network.stats
        assert stats.ingest_messages == 0
        system.execute_batch([QUERIES[0]])
        after_query = system.aggregator.network.snapshot()
        assert after_query.ingest_messages == 0
        assert after_query.query_messages == after_query.messages > 0
        system.ingest(make_table(10, 2))
        after_ingest = system.aggregator.network.snapshot()
        # One request + one ack per provider that received rows.
        assert after_ingest.ingest_messages == 4
        assert after_ingest.ingest_bytes_sent > 0
        # The split always sums back to the totals.
        assert (
            after_ingest.query_messages + after_ingest.ingest_messages
            == after_ingest.messages
        )
        assert (
            after_ingest.query_bytes_sent + after_ingest.ingest_bytes_sent
            == after_ingest.bytes_sent
        )
        # Query-side counters did not move.
        assert after_ingest.query_messages == after_query.query_messages

    def test_ingest_request_payload_scales_with_rows(self):
        from repro.federation.messages import IngestRequest

        small = IngestRequest(provider_id="p", num_rows=10, num_columns=2)
        large = IngestRequest(provider_id="p", num_rows=1000, num_columns=2)
        assert large.payload_bytes() > small.payload_bytes() > 0

    def test_stats_merge_preserves_split(self):
        from repro.federation.network import NetworkStats

        merged = NetworkStats(
            messages=5, bytes_sent=100, simulated_seconds=1.0,
            ingest_messages=2, ingest_bytes_sent=60, ingest_simulated_seconds=0.5,
        ).merge(NetworkStats(messages=3, bytes_sent=30, simulated_seconds=0.1))
        assert merged.messages == 8
        assert merged.ingest_messages == 2
        assert merged.query_messages == 6
        assert merged.query_bytes_sent == 70


class TestEmptyBornProvider:
    def test_from_table_accepts_empty_table(self):
        from repro.storage.clustered_table import ClusteredTable

        clustered = ClusteredTable.from_table(Table.empty(SCHEMA), 8)
        assert clustered.num_rows == 0
        assert clustered.num_clusters == 1  # the empty placeholder

    @pytest.mark.parametrize("dense", [True, False])
    def test_empty_table_kernels(self, dense):
        from repro.query.batch import QueryBatch
        from repro.storage.clustered_table import ClusteredTable

        layout = ClusteredTable.from_table(Table.empty(SCHEMA), 8).layout()
        batch = QueryBatch(tuple(QUERIES))
        kernel = layout.cluster_values_dense if dense else layout.cluster_values
        values = kernel(batch)
        assert values.shape == (3, 1) and not values.any()
        masks = layout.row_masks(batch)
        assert masks.shape == (3, 0)
        per_pair = layout.query_cluster_values(
            batch, np.zeros(3, dtype=np.int64), np.arange(4)
        )
        assert per_pair.tolist() == [0, 0, 0]

    def test_provider_born_empty_bootstrapped_by_ingest(self):
        """Satellite: a provider can start with zero rows and grow."""
        empty = make_provider(Table.empty(SCHEMA), rng=4)
        assert empty.num_rows == 0
        assert empty.exact_answer(QUERIES[2]).value == 0
        _, answers = run_protocol(empty, QUERIES)
        assert all(answer.diagnostics.rows_available == 0 for answer in answers)
        rows = make_table(30, 2)
        empty.ingest_rows(rows, auto_compact=False)
        assert empty.exact_answer(QUERIES[2]).value == 30
        report = empty.compact()
        assert report.rows_folded == 30
        # The empty placeholder cluster is gone; structure matches a fresh
        # provider built from the same rows.
        fresh = make_provider(rows, rng=4)
        assert empty.num_clusters == fresh.num_clusters
        _, mine = run_protocol(empty, QUERIES)
        _, theirs = run_protocol(fresh, QUERIES)
        assert [a.message for a in mine] == [a.message for a in theirs]

    def test_empty_system_end_to_end(self):
        config = SystemConfig(cluster_size=8, num_providers=2, seed=5)
        system = FederatedAQPSystem.from_partitions(
            [Table.empty(SCHEMA), Table.empty(SCHEMA)], config=config
        )
        result = system.execute(QUERIES[0])
        assert result.exact_value == 0
        system.ingest(make_table(40, 1))
        assert system.total_delta_rows == 40
        result = system.execute(QUERIES[2])
        assert result.exact_value == 40


class TestSchedulerIngest:
    def _scheduler(self, *, max_pending_ingest=8, max_delta_rows=10**6, seed=3):
        config = SystemConfig(
            cluster_size=8,
            num_providers=2,
            seed=seed,
            ingest=IngestConfig(max_delta_rows=max_delta_rows),
        )
        system = FederatedAQPSystem.from_table(make_table(80, 1), config=config)
        registry = TenantRegistry()
        registry.register("t1", total_epsilon=1000.0)
        registry.register("t2", total_epsilon=1000.0)
        scheduler = SessionScheduler(
            system,
            registry,
            config=ServiceConfig(max_pending_ingest=max_pending_ingest),
        )
        return scheduler, registry

    def test_ingest_applies_on_drain_with_stats(self):
        scheduler, registry = self._scheduler(max_delta_rows=16)
        scheduler.submit("t1", [QUERIES[0]])
        scheduler.submit_ingest(make_table(40, 9), tenant_id="t2")
        answers = scheduler.drain()
        assert len(answers) == 1
        assert scheduler.num_pending_ingest == 0
        assert scheduler.stats.ingest_requests == 1
        assert scheduler.stats.rows_ingested == 40
        assert scheduler.stats.compactions == 2  # one per provider
        assert registry.get("t2").rows_ingested == 40

    def test_ingest_only_drain(self):
        scheduler, _ = self._scheduler()
        scheduler.submit_ingest(make_table(12, 9))
        assert scheduler.drain() == []
        assert scheduler.stats.rows_ingested == 12
        assert scheduler.system.total_delta_rows == 12

    def test_backpressure_on_full_ingest_queue(self):
        scheduler, _ = self._scheduler(max_pending_ingest=2)
        scheduler.submit_ingest(make_table(1, 1))
        scheduler.submit_ingest(make_table(1, 2))
        with pytest.raises(ServiceOverloadedError):
            scheduler.submit_ingest(make_table(1, 3))
        scheduler.drain()
        scheduler.submit_ingest(make_table(1, 4))  # queue drained: accepted

    def test_ingest_lands_between_batches_not_before_queries(self):
        """Queries drained alongside an ingest keep their pre-ingest data."""
        run_a, _ = self._scheduler()
        run_a.submit("t1", [QUERIES[2]])
        receipt_values = run_a.drain()[0].values
        run_b, _ = self._scheduler()
        run_b.submit("t1", [QUERIES[2]])
        run_b.submit_ingest(make_table(50, 9))
        interleaved_values = run_b.drain()[0].values
        # Identical seed tokens, identical data snapshot: bit-identical.
        assert interleaved_values == receipt_values
        # But the ingest did apply, after the batch.
        assert run_b.system.total_delta_rows == 50
        follow_up = run_b.submit("t1", [QUERIES[2]])
        assert follow_up.status == "queued"
