"""Cost model and work packing: estimation fidelity, calibration, chunking.

Three layers under test:

* :meth:`~repro.storage.metadata.MetadataStore.cost_stats_batch` — the
  zone-map-derived covered-vs-straddler statistics, checked against a
  brute-force pass over the global metadata entries (dense and scalar
  paths must agree with it and with each other, the latter as a property
  over random workloads on a layout with empty clusters).
* :class:`~repro.service.costmodel.CostModel` — unit totals follow the
  structural statistics (the executor pays straddler rows only) and the
  EWMA calibration converges toward observed chunk timings while recording
  prediction error.
* :func:`~repro.federation.partitioning.work_balanced_chunks` — greedy
  order-preserving packing: budget respected, nothing dropped or
  reordered, oversized items isolated, equal costs degenerate to count
  chunking exactly.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.system import FederatedAQPSystem
from repro.errors import FederationError
from repro.federation.partitioning import work_balanced_chunks
from repro.query.model import RangeQuery
from repro.service.costmodel import (
    DEFAULT_SECONDS_PER_UNIT,
    UNITS_PER_CLUSTER,
    UNITS_PER_QUERY,
    UNITS_PER_ROW,
    CostModel,
)
from repro.storage.cluster import Cluster
from repro.storage.clustered_table import ClusteredTable
from repro.storage.metadata import build_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table

WORKLOAD = [
    {"age": (10, 60)},
    {"hours": (5, 30)},
    {"age": (0, 99)},  # whole domain on one dimension
    {"age": (20, 80), "hours": (0, 20)},
    {"dept": (3, 3)},
]


def _brute_force_stats(metadata, ranges):
    """Covered/straddler split straight from the global entries."""
    touched = covered = straddler_rows = 0
    for entry in metadata.global_entries:
        if entry.num_rows == 0 or not entry.overlaps(ranges):
            continue
        touched += 1
        inside = all(
            name not in entry.bounds
            or (entry.bounds[name][0] >= low and entry.bounds[name][1] <= high)
            for name, (low, high) in ranges.items()
        )
        if inside:
            covered += 1
        else:
            straddler_rows += entry.num_rows
    return touched, covered, straddler_rows


def test_cost_stats_batch_matches_brute_force(metadata):
    stats = metadata.cost_stats_batch(WORKLOAD)
    assert len(stats) == len(WORKLOAD)
    for ranges, stat in zip(WORKLOAD, stats):
        touched, covered, straddler_rows = _brute_force_stats(metadata, ranges)
        assert stat.clusters_touched == touched
        assert stat.clusters_covered == covered
        assert stat.clusters_straddling == touched - covered
        assert stat.straddler_rows == straddler_rows


def test_cost_stats_scalar_path_agrees_with_dense(metadata):
    dense = metadata.cost_stats_batch(WORKLOAD)
    object.__setattr__(metadata, "dense_index", None)
    scalar = metadata.cost_stats_batch(WORKLOAD)
    assert scalar == dense


def test_cost_stats_empty_workload(metadata):
    assert metadata.cost_stats_batch([]) == []


PROPERTY_SCHEMA = Schema(
    (Dimension("age", 0, 99), Dimension("hours", 0, 49), Dimension("dept", 0, 9))
)


def _store_with_empty_clusters():
    """Five clusters, two of them zero-occupancy placeholders (one the tail)."""
    rng = np.random.default_rng(19)
    clusters = []
    for cluster_id, rows in enumerate((120, 0, 75, 200, 0)):
        # Narrow per-cluster value windows, so covered, straddling and
        # disjoint clusters all occur under random query boxes.
        low = 15 * cluster_id
        table = Table(
            PROPERTY_SCHEMA,
            {
                "age": rng.integers(low, low + 30, rows),
                "hours": rng.integers(0, 50, rows),
                "dept": rng.integers(cluster_id, cluster_id + 3, rows),
            },
        )
        clusters.append(Cluster(cluster_id=cluster_id, rows=table, nominal_size=200))
    return build_metadata(ClusteredTable(clusters=tuple(clusters), cluster_size=200))


DENSE_STORE = _store_with_empty_clusters()
SCALAR_STORE = replace(DENSE_STORE, dense_index=None)


@st.composite
def _ranges(draw):
    """One query's range dict: any non-empty subset of the dimensions (the
    rest stay unconstrained), intervals anywhere in or past the domain."""
    names = draw(
        st.lists(
            st.sampled_from(PROPERTY_SCHEMA.dimension_names),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    ranges = {}
    for name in names:
        dimension = PROPERTY_SCHEMA.dimension(name)
        low = draw(st.integers(dimension.low - 5, dimension.high + 5))
        width = draw(st.integers(0, dimension.high - dimension.low + 10))
        ranges[name] = (low, low + width)
    return ranges


@given(st.lists(_ranges(), min_size=0, max_size=12))
def test_cost_stats_dense_path_equals_scalar_fallback(ranges_list):
    # Covers the empty list, nq = 1, and batches mixing queries that
    # constrain a dimension with queries that leave it open.
    dense = DENSE_STORE.cost_stats_batch(ranges_list)
    scalar = SCALAR_STORE.cost_stats_batch(ranges_list)
    assert len(dense) == len(ranges_list)
    assert [
        (stat.clusters_touched, stat.clusters_covered, stat.straddler_rows)
        for stat in dense
    ] == [
        (stat.clusters_touched, stat.clusters_covered, stat.straddler_rows)
        for stat in scalar
    ]
    # A batch answers each query as the query alone would be answered.
    for ranges, stat in zip(ranges_list, dense):
        assert DENSE_STORE.cost_stats_batch([ranges]) == [stat]


def test_cost_stats_never_touch_an_empty_cluster():
    (stat,) = DENSE_STORE.cost_stats_batch([{"hours": (0, 49)}])
    assert stat.clusters_touched == 3  # the two placeholders hold no rows
    assert stat.clusters_covered == 3 and stat.straddler_rows == 0


def _small_system() -> FederatedAQPSystem:
    rng = np.random.default_rng(42)
    schema = Schema((Dimension("age", 0, 99), Dimension("hours", 0, 49)))
    table = Table(
        schema,
        {"age": rng.integers(0, 100, 1600), "hours": rng.integers(0, 50, 1600)},
    )
    config = SystemConfig(cluster_size=100, num_providers=2, seed=3)
    return FederatedAQPSystem.from_table(table, config=config)


def test_cost_model_units_follow_structural_stats():
    system = _small_system()
    model = CostModel(system)
    query = RangeQuery.count({"age": (10, 60)})
    (estimate,) = model.estimate([query])
    expected = 0.0
    for provider in system.providers:
        (stats,) = provider.cost_stats_batch([query])
        expected += (
            UNITS_PER_QUERY
            + UNITS_PER_CLUSTER * stats.clusters_touched
            + UNITS_PER_ROW * (stats.straddler_rows + provider.delta_rows)
        )
    assert estimate.units == pytest.approx(expected)
    assert estimate.clusters_touched > 0


def test_cost_model_layout_signature_tracks_ingest_and_compaction():
    system = _small_system()
    model = CostModel(system)
    before = model.layout_signature()
    rng = np.random.default_rng(9)
    rows = Table(
        system.providers[0].table.schema,
        {"age": rng.integers(0, 100, 64), "hours": rng.integers(0, 50, 64)},
    )
    system.ingest(rows)
    after_ingest = model.layout_signature()
    assert after_ingest != before
    system.compact()
    assert model.layout_signature() != after_ingest


def test_cost_model_calibration_converges_and_tracks_error():
    model = CostModel(_small_system())
    assert model.seconds_per_unit == DEFAULT_SECONDS_PER_UNIT
    assert model.prediction_error == 0.0 and model.observations == 0
    true_scale = 5e-6  # machine is 25x slower than the prior
    for _ in range(40):
        model.observe(1000.0, 1000.0 * true_scale)
    assert model.observations == 40
    assert model.seconds_per_unit == pytest.approx(true_scale, rel=1e-3)
    # Once calibrated, predictions are near-exact and the error EWMA decays.
    assert model.prediction_error < 0.1
    assert model.predicted_seconds(2000.0) == pytest.approx(
        2000.0 * model.seconds_per_unit
    )


def test_cost_model_observe_ignores_degenerate_samples():
    model = CostModel(_small_system())
    model.observe(0.0, 1.0)
    model.observe(-5.0, 1.0)
    model.observe(100.0, -1.0)
    assert model.observations == 0
    assert model.seconds_per_unit == DEFAULT_SECONDS_PER_UNIT


# -- work packing -----------------------------------------------------------------


def test_work_balanced_chunks_respects_budget_and_order():
    items = list("abcdefg")
    costs = [3.0, 4.0, 2.0, 6.0, 1.0, 1.0, 5.0]
    chunks = work_balanced_chunks(items, costs, 7.0)
    assert [item for chunk in chunks for item in chunk] == items  # nothing lost
    position = 0
    for chunk in chunks:
        chunk_cost = sum(costs[position : position + len(chunk)])
        assert chunk_cost <= 7.0 or len(chunk) == 1
        position += len(chunk)
    assert chunks == [["a", "b"], ["c"], ["d", "e"], ["f", "g"]]


def test_work_balanced_chunks_oversized_item_gets_own_chunk():
    chunks = work_balanced_chunks(["x", "y", "z"], [1.0, 50.0, 1.0], 10.0)
    assert chunks == [["x"], ["y"], ["z"]]


def test_work_balanced_chunks_equal_costs_degenerate_to_count_chunking():
    items = list(range(23))
    for size in (1, 4, 7, 23, 30):
        budget = size * 2.5
        chunks = work_balanced_chunks(items, [2.5] * len(items), budget)
        expected = [items[i : i + size] for i in range(0, len(items), size)]
        assert chunks == expected


def test_work_balanced_chunks_max_size_caps_cheap_runs():
    chunks = work_balanced_chunks(list(range(10)), [0.0] * 10, 100.0, max_size=4)
    assert [len(chunk) for chunk in chunks] == [4, 4, 2]


def test_work_balanced_chunks_validation():
    with pytest.raises(FederationError):
        work_balanced_chunks(["a"], [1.0, 2.0], 5.0)  # misaligned
    with pytest.raises(FederationError):
        work_balanced_chunks(["a"], [1.0], 0.0)  # non-positive budget
    with pytest.raises(FederationError):
        work_balanced_chunks(["a"], [-1.0], 5.0)  # negative cost
    with pytest.raises(FederationError):
        work_balanced_chunks(["a"], [1.0], 5.0, max_size=0)
    assert work_balanced_chunks([], [], 5.0) == []
