"""Engine equivalence: production ≡ dense oracle ≡ per-row brute force, bit for bit.

The execution engine has one semantic (exact integer ``Q(C)``) and one
production path — zone-map classify, covered segment sum, sorted bisection,
tiled row scan.  Integer sums are exact under any evaluation order, so that
path must return *identical* results to the dense oracle
(``ClusterLayout.cluster_values_dense``) and to a Python loop over every
row, at any tile budget, on every layout family; the carriers (loopback,
socket, worker process, shards) must not change a bit either.  This module
sweeps randomized tables and workloads asserting exactly that, plus the
regressions for empty clusters and ``gather``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import (
    CacheConfig,
    IngestConfig,
    SamplingConfig,
    SystemConfig,
    TransportConfig,
)
from repro.core.system import FederatedAQPSystem
from repro.errors import StorageError
from repro.utils.ragged import segment_offsets
from repro.query.batch import QueryBatch
from repro.query.executor import ExactExecutor, execute_on_cluster
from repro.query.model import RangeQuery
from repro.storage import layout as layout_module
from repro.storage.cluster import Cluster
from repro.storage.clustered_table import ClusteredTable
from repro.storage.layout import collect_kernel_telemetry
from repro.storage.metadata import build_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

SCHEMA = Schema(
    (
        Dimension("key", 0, 999),
        Dimension("aux", 0, 49),
        Dimension("cat", 0, 9),
    )
)

# Same shape with a key domain past int32, so the layout keeps the column
# int64 and the kernels compare unnarrowed bounds.
WIDE_SCALE = 2**33
WIDE_SCHEMA = Schema(
    (
        Dimension("key", 0, 1000 * WIDE_SCALE),
        Dimension("aux", 0, 49),
        Dimension("cat", 0, 9),
    )
)

# Tile budgets the sweep runs under: small enough that every row kernel
# splits its work into many tiles, and the production constant.
TINY_BUDGET = 4096
BUDGETS = (TINY_BUDGET, layout_module.MAX_KERNEL_BYTES)


def _random_table(rng: np.random.Generator, num_rows: int) -> Table:
    return Table(
        SCHEMA,
        {
            "key": rng.integers(0, 1000, num_rows),
            "aux": np.minimum(49, rng.poisson(12, num_rows)),
            "cat": rng.integers(0, 10, num_rows),
        },
    )


def _random_workload(rng: np.random.Generator, count: int) -> list[RangeQuery]:
    """Queries across the selectivity spectrum, 1-3 constrained dimensions."""
    queries = []
    for _ in range(count):
        ranges: dict[str, tuple[int, int]] = {}
        width = rng.choice([5, 50, 400, 1000])  # near-empty → full coverage
        low = int(rng.integers(0, 1000))
        ranges["key"] = (low, min(999, low + int(width)))
        if rng.random() < 0.5:
            low = int(rng.integers(0, 50))
            ranges["aux"] = (low, min(49, low + int(rng.integers(1, 30))))
        if rng.random() < 0.3:
            low = int(rng.integers(0, 10))
            ranges["cat"] = (low, min(9, low + int(rng.integers(0, 5))))
        queries.append(RangeQuery.count(ranges))
    return queries


def _clustered_with_empty_segments() -> ClusteredTable:
    """Clusters where positions 1 and 4 (the tail) hold zero rows."""
    rng = np.random.default_rng(11)
    chunks = [_random_table(rng, n) for n in (130, 0, 90, 47, 0)]
    clusters = tuple(
        Cluster(cluster_id=index, rows=chunk, nominal_size=200)
        for index, chunk in enumerate(chunks)
    )
    return ClusteredTable(clusters=clusters, cluster_size=200)


def _widened(table: Table, queries: list[RangeQuery]):
    """The same rows and boxes with ``key`` scaled past the int32 range."""
    columns = {name: table.column(name) for name in SCHEMA.dimension_names}
    columns["key"] = columns["key"] * WIDE_SCALE
    scaled = []
    for query in queries:
        ranges = query.range_tuples()
        low, high = ranges["key"]
        ranges["key"] = (low * WIDE_SCALE, high * WIDE_SCALE)
        scaled.append(RangeQuery.count(ranges))
    return Table(WIDE_SCHEMA, columns), scaled


def _layout_family(family: str, rng: np.random.Generator):
    """One (clustered table, workload) of the named layout family."""
    table = _random_table(rng, int(rng.integers(500, 4000)))
    cluster_size = int(rng.integers(50, 400))
    queries = _random_workload(rng, 12)
    if family == "empty-segments":
        return _clustered_with_empty_segments(), queries
    if family == "int64-wide":
        table, queries = _widened(table, queries)
        return ClusteredTable.from_table(table, cluster_size), queries
    if family == "intra-sort":
        return ClusteredTable.from_table(table, cluster_size, intra_sort_by="key"), queries
    return ClusteredTable.from_table(table, cluster_size, policy=family), queries


def _brute_force(layout, queries) -> tuple[np.ndarray, np.ndarray]:
    """``(row masks, Q(C))`` by a Python loop over every row of every query.

    No NumPy comparison, no zone map, no reduction: the reference the
    production path and the dense oracle are both held against.
    """
    columns = {name: column.tolist() for name, column in layout.columns.items()}
    measure = layout.measure.tolist()
    masks = np.zeros((len(queries), layout.num_rows), dtype=bool)
    values = np.zeros((len(queries), layout.num_clusters), dtype=np.int64)
    for index, query in enumerate(queries):
        ranges = query.range_tuples()
        for position in range(layout.num_clusters):
            start = int(layout.starts[position])
            total = 0
            for row in range(start, start + int(layout.cluster_rows[position])):
                if all(low <= columns[name][row] <= high for name, (low, high) in ranges.items()):
                    masks[index, row] = True
                    total += measure[row]
            values[index, position] = total
    return masks, values


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "policy", ["sequential", "sorted", "intra-sort", "empty-segments", "int64-wide"]
)
def test_all_kernel_modes_match_dense(seed, policy, monkeypatch):
    """All three kernels, both tile budgets, every layout family."""
    rng = np.random.default_rng(seed)
    clustered, queries = _layout_family(policy, rng)
    layout = clustered.layout()
    if policy == "int64-wide":
        assert layout.columns["key"].dtype == np.int64
    batch = QueryBatch(tuple(queries))
    positions = [
        np.sort(
            rng.choice(
                layout.num_clusters,
                size=int(rng.integers(0, layout.num_clusters + 1)),
                replace=False,
            )
        ).astype(np.int64)
        for _ in batch
    ]
    brute_masks, brute_values = _brute_force(layout, queries)
    for budget in BUDGETS:
        monkeypatch.setattr(layout_module, "MAX_KERNEL_BYTES", budget)
        with collect_kernel_telemetry() as oracle_stats:
            dense = layout.cluster_values_dense(batch)
        assert np.array_equal(dense, brute_values), budget
        with collect_kernel_telemetry() as stats:
            values = layout.cluster_values(batch)
        assert values.dtype == np.int64
        assert np.array_equal(values, dense), budget
        if budget == TINY_BUDGET:
            assert oracle_stats.tiles > 1
            assert 0 < oracle_stats.max_tile_bytes
        if policy in ("sorted", "intra-sort"):
            assert stats.pairs_bisected > 0
        offsets = segment_offsets([len(chosen) for chosen in positions])
        flat = layout.query_cluster_values(batch, np.concatenate(positions), offsets)
        for index, got in enumerate(np.split(flat, offsets[1:-1])):
            assert np.array_equal(got, brute_values[index, positions[index]]), budget
        assert np.array_equal(layout.row_masks(batch), brute_masks), budget


@st.composite
def chunked_tables(draw):
    """Cluster-sized chunks with mixed input dtypes, some of them empty."""
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**31 - 1))
    dtype = draw(st.sampled_from([np.int16, np.int32, np.int64]))
    rng = np.random.default_rng(seed)
    return [
        Table(
            SCHEMA,
            {
                "key": rng.integers(0, 1000, n).astype(dtype),
                "aux": rng.integers(0, 50, n).astype(dtype),
                "cat": rng.integers(0, 10, n).astype(dtype),
            },
        )
        for n in sizes
    ]


@st.composite
def boxes(draw):
    """A COUNT query over ``key``, ``aux`` or both."""
    key_low = draw(st.integers(0, 999))
    key_high = draw(st.integers(key_low, 999))
    aux_low = draw(st.integers(0, 49))
    aux_high = draw(st.integers(aux_low, 49))
    which = draw(st.integers(0, 2))
    if which == 0:
        return RangeQuery.count({"key": (key_low, key_high)})
    if which == 1:
        return RangeQuery.count({"aux": (aux_low, aux_high)})
    return RangeQuery.count({"key": (key_low, key_high), "aux": (aux_low, aux_high)})


@given(chunked_tables(), st.lists(boxes(), min_size=1, max_size=4))
def test_production_matches_oracle_on_random_layouts(chunks, queries):
    clustered = ClusteredTable(
        clusters=tuple(
            Cluster(cluster_id=index, rows=chunk, nominal_size=64)
            for index, chunk in enumerate(chunks)
        ),
        cluster_size=64,
    )
    layout = clustered.layout()
    batch = QueryBatch(tuple(queries))
    reference = layout.cluster_values_dense(batch)
    assert reference.dtype == np.int64
    values = layout.cluster_values(batch)
    assert values.dtype == reference.dtype
    assert np.array_equal(values, reference)


def test_dense_matches_per_cluster_loop():
    rng = np.random.default_rng(7)
    table = _random_table(rng, 1500)
    clustered = ClusteredTable.from_table(table, cluster_size=128)
    layout = clustered.layout()
    queries = _random_workload(rng, 6)
    matrix = layout.cluster_values_dense(QueryBatch(tuple(queries)))
    for index, query in enumerate(queries):
        expected = [execute_on_cluster(cluster, query) for cluster in clustered]
        assert matrix[index].tolist() == expected


def test_empty_segments_all_modes(monkeypatch):
    """Regression: zero-length segments, including a trailing one.

    The kernels mask empty segments out of the ``reduceat``.  Production and
    the oracle must agree with the per-cluster loop at both tile budgets,
    charging empty clusters exactly zero.
    """
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    rng = np.random.default_rng(13)
    queries = _random_workload(rng, 8)
    batch = QueryBatch(tuple(queries))
    expected = np.array(
        [
            [execute_on_cluster(cluster, query) for cluster in clustered]
            for query in queries
        ],
        dtype=np.int64,
    )
    positions = [np.arange(layout.num_clusters, dtype=np.int64) for _ in batch]
    for budget in BUDGETS:
        monkeypatch.setattr(layout_module, "MAX_KERNEL_BYTES", budget)
        assert np.array_equal(layout.cluster_values(batch), expected)
        assert np.array_equal(layout.cluster_values_dense(batch), expected)
        values = layout.query_cluster_values(
            batch,
            np.concatenate(positions),
            segment_offsets([layout.num_clusters] * len(batch)),
        )
        assert np.array_equal(values.reshape(expected.shape), expected)


def test_empty_segments_executor_end_to_end(monkeypatch):
    clustered = _clustered_with_empty_segments()
    metadata = build_metadata(clustered)
    queries = _random_workload(np.random.default_rng(17), 5)
    expected = [
        sum(execute_on_cluster(cluster, query) for cluster in clustered)
        for query in queries
    ]
    for budget in BUDGETS:
        monkeypatch.setattr(layout_module, "MAX_KERNEL_BYTES", budget)
        executor = ExactExecutor(clustered, metadata)
        values = [result.value for result in executor.execute_batch(queries)]
        assert values == expected


def test_query_cluster_values_rejects_bad_positions():
    """Positions outside ``[0, num_clusters)`` and misaligned offsets are typed errors.

    A position past the end used to escape as a bare ``IndexError``, a
    negative one silently answered for the *last* cluster, and offsets that
    disagree with the batch or the pair list surfaced as a NumPy broadcast
    error from deep inside the kernel.
    """
    layout = ClusteredTable.from_table(
        _random_table(np.random.default_rng(3), 1000), cluster_size=100
    ).layout()
    assert layout.num_clusters == 10
    batch = QueryBatch(tuple(_random_workload(np.random.default_rng(5), 2)))
    offsets = np.array([0, 2, 4], dtype=np.int64)
    for bad in ([0, 3, 0, 99], [0, 3, 0, -1]):
        with pytest.raises(StorageError, match="positions"):
            layout.query_cluster_values(batch, np.array(bad, dtype=np.int64), offsets)
    good = np.array([0, 3, 1, 2], dtype=np.int64)
    assert layout.query_cluster_values(batch, good, offsets).shape == (4,)
    for misaligned in (
        [0, 4],  # one segment for a batch of two
        [0, 2, 4, 4],  # three segments
        [0, 2, 3],  # stops short of the pair list
        [0, 2, 5],  # runs past it
        [1, 2, 4],  # does not start at zero
        [0, 3, 2],  # decreasing
        [[0, 2, 4]],  # not one-dimensional
    ):
        with pytest.raises(StorageError, match="offsets"):
            layout.query_cluster_values(batch, good, np.array(misaligned))


def test_gather_preserves_segment_offsets_and_empty_segments():
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    sub = layout.gather(np.array([2, 1, 4, 0]))
    assert sub.cluster_ids == (2, 1, 4, 0)
    assert sub.cluster_rows.tolist() == [90, 0, 0, 130]
    # Segments must stay contiguous: starts are the running row totals.
    assert sub.starts.tolist() == [0, 90, 90, 90]
    assert sub.num_rows == 220
    # Row content of every gathered segment matches the source segment.
    for target, source in enumerate([2, 1, 4, 0]):
        src_start = int(layout.starts[source])
        src_stop = src_start + int(layout.cluster_rows[source])
        dst_start = int(sub.starts[target])
        dst_stop = dst_start + int(sub.cluster_rows[target])
        for name in layout.columns:
            assert np.array_equal(
                sub.columns[name][dst_start:dst_stop],
                layout.columns[name][src_start:src_stop],
            )
        assert np.array_equal(
            sub.measure[dst_start:dst_stop], layout.measure[src_start:src_stop]
        )


def test_zone_maps_match_cluster_extremes():
    clustered = _clustered_with_empty_segments()
    layout = clustered.layout()
    for name in layout.columns:
        for position, cluster in enumerate(clustered):
            column = cluster.rows.column(name)
            if column.size == 0:
                # Inverted sentinels: never overlap a real query range.
                assert layout.zone_min[name][position] > layout.zone_max[name][position]
            else:
                assert layout.zone_min[name][position] == column.min()
                assert layout.zone_max[name][position] == column.max()
    assert layout.segment_sums.tolist() == [
        cluster.num_rows for cluster in clustered  # raw table: measure == 1
    ]


def test_sorted_dimension_detection():
    rng = np.random.default_rng(3)
    table = _random_table(rng, 2000)
    sequential = ClusteredTable.from_table(table, cluster_size=100).layout()
    assert "key" not in sequential.sorted_dimensions
    by_key = ClusteredTable.from_table(table, cluster_size=100, policy="sorted").layout()
    assert "key" in by_key.sorted_dimensions
    intra = ClusteredTable.from_table(
        table, cluster_size=100, intra_sort_by="aux"
    ).layout()
    assert "aux" in intra.sorted_dimensions


def test_intra_sort_preserves_cluster_membership_and_answers():
    """Intra-cluster sorting changes row order only — answers are identical."""
    rng = np.random.default_rng(5)
    table = _random_table(rng, 3000)
    plain = ClusteredTable.from_table(table, cluster_size=250)
    sorted_rows = ClusteredTable.from_table(table, cluster_size=250, intra_sort_by="key")
    assert plain.num_clusters == sorted_rows.num_clusters
    queries = _random_workload(rng, 10)
    batch = QueryBatch(tuple(queries))
    plain_values = plain.layout().cluster_values_dense(batch)
    with collect_kernel_telemetry() as telemetry:
        sorted_values = sorted_rows.layout().cluster_values(batch)
    assert np.array_equal(plain_values, sorted_values)
    assert telemetry.pairs_bisected > 0


def test_kernel_backend_telemetry_counters():
    """The counters the benchmark reads: integers only, one set, all filled.

    (The name predates the single kernel path; there is no backend left to
    count.)
    """
    rng = np.random.default_rng(21)
    table = _random_table(rng, 4000)
    layout = ClusteredTable.from_table(table, cluster_size=200).layout()
    batch = QueryBatch(tuple(_random_workload(rng, 10)))
    with collect_kernel_telemetry() as telemetry:
        values = layout.cluster_values(batch)
    assert np.array_equal(values, layout.cluster_values_dense(batch))
    counts = telemetry.as_dict()
    assert list(counts) == [
        "pairs_total",
        "pairs_pruned",
        "pairs_covered",
        "pairs_bisected",
        "pairs_scanned",
        "rows_evaluated",
        "tiles",
        "max_tile_bytes",
    ]
    assert all(type(value) is int for value in counts.values())
    assert telemetry.pairs_total == len(batch) * layout.num_clusters
    assert telemetry.pairs_scanned > 0  # this workload always straddles
    assert telemetry.pairs_total == (
        telemetry.pairs_pruned
        + telemetry.pairs_covered
        + telemetry.pairs_bisected
        + telemetry.pairs_scanned
    )
    assert telemetry.rows_evaluated > 0 and telemetry.tiles >= 1
    assert telemetry.max_tile_bytes > 0
    telemetry.merge_counts({**counts, "not_a_counter": 5})
    assert telemetry.as_dict() == {name: 2 * value for name, value in counts.items()}


def test_pruning_touches_fewer_rows_and_tiling_bounds_memory(monkeypatch):
    rng = np.random.default_rng(19)
    table = _random_table(rng, 8000)
    layout = ClusteredTable.from_table(table, cluster_size=200, policy="sorted").layout()
    # Low-selectivity workload: narrow ranges on the clustering key.
    lows = [int(low) for low in rng.integers(0, 980, 8)]
    batch = QueryBatch(tuple(RangeQuery.count({"key": (low, low + 15)}) for low in lows))
    with collect_kernel_telemetry() as dense_stats:
        dense = layout.cluster_values_dense(batch)
    with collect_kernel_telemetry() as pruned_stats:
        pruned = layout.cluster_values(batch)
    assert np.array_equal(dense, pruned)
    assert dense_stats.rows_evaluated == len(batch) * layout.num_rows
    # Sorted on the only straddling dimension: binary search, no rows.
    assert pruned_stats.rows_evaluated == 0
    assert pruned_stats.pairs_bisected > 0
    # A second straddling dimension puts the surviving pairs on the row path;
    # under a tiny budget the peak tile footprint stays within it (no
    # cluster of this table is larger than the budget's row allowance) and
    # results stay identical.
    both = QueryBatch(
        tuple(RangeQuery.count({"key": (low, low + 15), "aux": (8, 14)}) for low in lows)
    )
    budget = 16384
    monkeypatch.setattr(layout_module, "MAX_KERNEL_BYTES", budget)
    with collect_kernel_telemetry() as tiled_stats:
        tiled = layout.cluster_values(both)
    assert np.array_equal(tiled, layout.cluster_values_dense(both))
    assert tiled_stats.pairs_bisected == 0 and tiled_stats.tiles > 1
    assert 0 < tiled_stats.rows_evaluated < dense_stats.rows_evaluated / 10
    assert 0 < tiled_stats.max_tile_bytes <= budget


def _system(table: Table, config: SystemConfig, **kwargs) -> FederatedAQPSystem:
    return FederatedAQPSystem.from_table(table, config=config, **kwargs)


@pytest.mark.parametrize("seed", [0, 4])
def test_system_modes_bit_identical(seed, monkeypatch):
    """End-to-end: the full DP protocol is invariant under the tile budget
    and under intra-cluster sorting (row scan vs bisection)."""
    rng = np.random.default_rng(seed)
    table = _random_table(rng, 6000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=23,
    )
    queries = _random_workload(rng, 9)
    reference = _system(table, base).execute_batch(queries, compute_exact=False)
    intra = _system(table, base, intra_sort_by="key")
    assert intra.execute_batch(queries, compute_exact=False).values == reference.values
    monkeypatch.setattr(layout_module, "MAX_KERNEL_BYTES", 8192)
    with collect_kernel_telemetry() as stats:
        tiled = _system(table, base).execute_batch(queries, compute_exact=False)
    assert tiled.values == reference.values
    assert stats.tiles > len(queries)


def test_system_process_backend_bit_identical():
    rng = np.random.default_rng(29)
    table = _random_table(rng, 5000)
    base = SystemConfig(
        cluster_size=200,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=31,
    )
    queries = _random_workload(rng, 6)
    reference = _system(table, base).execute_batch(queries, compute_exact=False)
    process_config = base.with_transport(TransportConfig(kind="process"))
    with _system(table, process_config) as system:
        first = system.execute_batch(queries, compute_exact=False)
        second = system.execute_batch(queries, compute_exact=False)
        for provider in system.providers:
            assert provider.num_open_sessions == 0
    follow_up = _system(table, base)
    follow_up.execute_batch(queries, compute_exact=False)
    reference_second = follow_up.execute_batch(queries, compute_exact=False)
    assert first.values == reference.values
    # Worker streams advance exactly like in-process ones across batches.
    assert second.values == reference_second.values


def test_system_process_backend_survives_layout_rebuild():
    """Re-clustering a provider must rebuild the workers, not serve stale layouts."""
    rng = np.random.default_rng(43)
    table = _random_table(rng, 3000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=47,
    )
    queries = _random_workload(rng, 4)
    process_config = base.with_transport(TransportConfig(kind="process"))
    reference = _system(table, base)
    reference.execute_batch(queries, compute_exact=False)
    reference.providers[0].rebuild_layout(clustering_policy="sorted")
    expected = reference.execute_batch(queries, compute_exact=False).values
    with _system(table, process_config) as system:
        system.execute_batch(queries, compute_exact=False)
        system.providers[0].rebuild_layout(clustering_policy="sorted")
        assert system.execute_batch(queries, compute_exact=False).values == expected


# -- transport / sharding equivalence matrix ------------------------------------


def _batch_fingerprint(batch) -> list[tuple]:
    """Everything a transport could plausibly corrupt, per query.

    The releases, not the noise: a provider's noise is a diagnostic that
    exists in-process only, while what it released arrives on every carrier.
    """
    return [
        (result.value, result.epsilon_spent, result.delta_spent, result.provider_releases)
        for result in batch
    ]


def test_transport_matrix_bit_identical():
    """Same workload, same seed: every transport and shard count must produce
    bit-identical answers AND epsilon charges — sharded(K>=2)-over-sockets
    included, which is the acceptance bar for the distributed path."""
    rng = np.random.default_rng(11)
    table = _random_table(rng, 6000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=3,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=23,
    )
    queries = _random_workload(rng, 9)
    with _system(table, base) as reference_system:
        reference = _batch_fingerprint(
            reference_system.execute_batch(queries, compute_exact=False)
        )
    matrix = {
        "loopback": TransportConfig(kind="loopback"),
        "socket": TransportConfig(kind="socket"),
        "process": TransportConfig(kind="process"),
        "sharded-k1": TransportConfig(shard_workers=1),
        "sharded-k2": TransportConfig(shard_workers=2),
        "sharded-k3": TransportConfig(shard_workers=3),
        "sharded-k2-loopback": TransportConfig(kind="loopback", shard_workers=2),
        "sharded-k3-socket": TransportConfig(kind="socket", shard_workers=3),
        "sharded-k2-process": TransportConfig(kind="process", shard_workers=2),
    }
    for mode, transport in matrix.items():
        with _system(table, base.with_transport(transport)) as system:
            batch = system.execute_batch(queries, compute_exact=False)
            assert _batch_fingerprint(batch) == reference, mode
            stats = system.transport_stats()
            if transport.kind == "inprocess":
                assert stats.messages == 0, mode
            else:
                # Real framed traffic: a request and a reply frame per
                # provider phase call (summary, answer, forget).
                assert stats.messages == 6 * len(system.providers), mode
                assert stats.bytes_sent > 0, mode
                assert stats.frames_duplicated == 0, mode


@pytest.mark.parametrize("use_smc", [False, True], ids=["dp", "smc"])
@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
def test_carriers_agree_on_values_and_charges(cache, use_smc):
    """process ≡ in-process ≡ socket on values AND ε/δ charges — with
    ``seed_material``-keyed streams, live delta rows, the release caches on
    or off and either combination path, over a cold, a warm and a
    post-ingest batch."""
    rng = np.random.default_rng(53)
    table = _random_table(rng, 4000)
    delta = _random_table(rng, 300)
    base = SystemConfig(
        cluster_size=150,
        num_providers=4,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        cache=CacheConfig(enabled=cache),
        ingest=IngestConfig(auto_compact=False),
        use_smc_for_result=use_smc,
        seed=59,
    )
    queries = _random_workload(rng, 5)
    tokens = [(3, index) for index in range(len(queries))]
    fingerprints = {}
    for kind in ("inprocess", "socket", "process"):
        config = base.with_transport(TransportConfig(kind=kind))
        with _system(table, config) as system:
            batches = [
                system.execute_batch(queries, compute_exact=False, seed_tokens=tokens)
                for _ in range(2)
            ]
            system.ingest(delta)  # mirrored onto live workers, never compacted
            assert system.total_delta_rows == delta.num_rows
            batches.append(
                system.execute_batch(queries, compute_exact=False, seed_tokens=tokens)
            )
            fingerprints[kind] = [_batch_fingerprint(batch) for batch in batches]
            for provider in system.providers:
                assert provider.num_open_sessions == 0
    assert fingerprints["process"] == fingerprints["inprocess"]
    assert fingerprints["socket"] == fingerprints["inprocess"]
    if cache and not use_smc:
        # The warm batch is fully re-served from the (worker-side) caches:
        # zero charges are part of what the carriers must agree on.
        assert all(charge[1] == 0.0 for charge in fingerprints["process"][1])


def test_transport_wire_traffic_is_deterministic():
    """Loopback and socket put byte-identical framed traffic on the wire."""
    rng = np.random.default_rng(17)
    table = _random_table(rng, 3000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=29,
    )
    queries = _random_workload(rng, 5)
    snapshots = {}
    for kind in ("loopback", "socket"):
        with _system(table, base.with_transport(TransportConfig(kind=kind))) as system:
            system.execute_batch(queries, compute_exact=False)
            stats = system.transport_stats()
            snapshots[kind] = (stats.messages, stats.bytes_sent)
    assert snapshots["loopback"] == snapshots["socket"]


def test_sharded_provider_matches_unsharded_across_rebuild_and_thread_fanout():
    """Sharding survives re-clustering (shards rebuild on the epoch bump)
    without changing a single bit.  (The thread fan-out this test once also
    composed with is gone; the test keeps its name.)"""
    rng = np.random.default_rng(31)
    table = _random_table(rng, 4000)
    base = SystemConfig(
        cluster_size=150,
        num_providers=2,
        sampling=SamplingConfig(sampling_rate=0.2, min_clusters_for_approximation=3),
        seed=37,
    )
    queries = _random_workload(rng, 5)
    reference = _system(table, base)
    reference.execute_batch(queries, compute_exact=False)
    reference.providers[0].rebuild_layout(clustering_policy="sorted")
    expected = reference.execute_batch(queries, compute_exact=False).values
    sharded_config = base.with_transport(TransportConfig(shard_workers=3))
    with _system(table, sharded_config) as system:
        assert all(provider.shard_count >= 2 for provider in system.providers)
        system.execute_batch(queries, compute_exact=False)
        system.providers[0].rebuild_layout(clustering_policy="sorted")
        assert system.execute_batch(queries, compute_exact=False).values == expected
