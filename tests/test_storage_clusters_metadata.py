"""Tests for clustered tables and Algorithm-1 metadata."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.experiments.scenarios import adult_scenario, amazon_scenario
from repro.query.model import Aggregation
from repro.storage.cluster import Cluster
from repro.storage.clustered_table import ClusteredTable
from repro.storage.metadata import build_metadata
from repro.storage.schema import Dimension, Schema
from repro.storage.table import Table


class TestCluster:
    def test_rejects_oversized_cluster(self, small_table):
        with pytest.raises(StorageError):
            Cluster(cluster_id=0, rows=small_table, nominal_size=10)

    def test_properties(self, small_table):
        cluster = Cluster(cluster_id=3, rows=small_table.slice(0, 50), nominal_size=100)
        assert cluster.num_rows == 50
        assert len(cluster) == 50
        assert cluster.total_measure() == 50


class TestClusteredTable:
    def test_split_sizes(self, small_table):
        clustered = ClusteredTable.from_table(small_table, cluster_size=300)
        assert clustered.num_rows == small_table.num_rows
        assert clustered.num_clusters == int(np.ceil(small_table.num_rows / 300))
        assert all(cluster.num_rows <= 300 for cluster in clustered)

    def test_sorted_policy_orders_clusters_by_dimension(self, small_table):
        clustered = ClusteredTable.from_table(
            small_table, cluster_size=200, policy="sorted", sort_by="age"
        )
        maxima = [int(cluster.rows.column("age").max()) for cluster in clustered]
        minima = [int(cluster.rows.column("age").min()) for cluster in clustered]
        # Each cluster's minimum is at least the previous cluster's minimum.
        assert all(minima[i] <= minima[i + 1] or maxima[i] <= maxima[i + 1] for i in range(len(minima) - 1))

    def test_roundtrip_to_table(self, small_table):
        clustered = ClusteredTable.from_table(small_table, cluster_size=128)
        assert clustered.to_table().num_rows == small_table.num_rows
        assert clustered.total_measure() == small_table.total_measure()

    def test_subset_and_lookup(self, clustered):
        subset = clustered.subset([0, 2])
        assert [cluster.cluster_id for cluster in subset] == [0, 2]
        with pytest.raises(StorageError):
            clustered.cluster(9999)

    def test_unknown_policy_rejected(self, small_table):
        with pytest.raises(StorageError):
            ClusteredTable.from_table(small_table, cluster_size=10, policy="hashed")

    def test_empty_table_yields_single_empty_cluster(self, small_schema):
        clustered = ClusteredTable.from_table(Table.empty(small_schema), cluster_size=10)
        assert clustered.num_clusters == 1
        assert clustered.num_rows == 0

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_no_rows_lost_for_any_cluster_size(self, cluster_size):
        rng = np.random.default_rng(cluster_size)
        schema = Schema((Dimension("a", 0, 9),))
        table = Table(schema, {"a": rng.integers(0, 10, 137)})
        clustered = ClusteredTable.from_table(table, cluster_size=cluster_size)
        assert clustered.num_rows == 137


class TestMetadata:
    def test_proportion_at_least_matches_bruteforce(self, clustered, metadata):
        cluster = clustered.clusters[0]
        meta = metadata.cluster(cluster.cluster_id)
        column = cluster.rows.column("age")
        for threshold in (0, 17, 50, 99, 120):
            expected = int((column >= threshold).sum()) / cluster.nominal_size
            assert meta.dimensions["age"].proportion_at_least(threshold) == pytest.approx(expected)

    def test_range_proportion_matches_bruteforce(self, clustered, metadata):
        cluster = clustered.clusters[1]
        meta = metadata.cluster(cluster.cluster_id)
        column = cluster.rows.column("hours")
        low, high = 5, 20
        expected = int(((column >= low) & (column <= high)).sum()) / cluster.nominal_size
        assert meta.dimensions["hours"].proportion_in_range(low, high) == pytest.approx(expected)

    def test_empty_range_proportion_is_zero(self, metadata):
        meta = metadata.cluster(0)
        assert meta.dimensions["age"].proportion_in_range(10, 5) == 0.0

    def test_covering_set_is_sound(self, clustered, metadata):
        """Every cluster containing matching rows must be in C^Q (no false negatives)."""
        ranges = {"age": (20, 40), "dept": (2, 5)}
        covering = set(metadata.covering_cluster_ids(ranges))
        for cluster in clustered:
            age = cluster.rows.column("age")
            dept = cluster.rows.column("dept")
            has_match = bool(
                (((age >= 20) & (age <= 40)) & ((dept >= 2) & (dept <= 5))).any()
            )
            if has_match:
                assert cluster.cluster_id in covering

    def test_dense_and_sparse_proportions_agree(self, clustered):
        dense_store = build_metadata(clustered, dense=True)
        sparse_store = build_metadata(clustered, dense=False)
        ranges = {"age": (10, 60), "hours": (3, 25)}
        ids = sparse_store.covering_cluster_ids(ranges)
        assert ids == dense_store.covering_cluster_ids(ranges)
        np.testing.assert_allclose(
            dense_store.proportions(ids, ranges), sparse_store.proportions(ids, ranges)
        )

    def test_proportions_product_rule(self, metadata):
        """R is the product of the per-dimension range proportions (Equation 1)."""
        meta = metadata.cluster(0)
        ranges = {"age": (0, 50), "dept": (0, 4)}
        expected = meta.dimensions["age"].proportion_in_range(0, 50) * meta.dimensions[
            "dept"
        ].proportion_in_range(0, 4)
        assert meta.proportion_for_ranges(ranges) == pytest.approx(expected)

    def test_unknown_dimension_raises(self, metadata):
        with pytest.raises(StorageError):
            metadata.cluster(0).proportion_for_ranges({"salary": (0, 1)})

    def test_unknown_cluster_raises(self, metadata):
        with pytest.raises(StorageError):
            metadata.cluster(12345)

    def test_size_accounting_positive(self, metadata):
        assert metadata.size_bytes() > 0
        assert metadata.size_bytes_per_cluster() > 0
        assert metadata.num_clusters == len(metadata.global_entries)

    def test_global_entry_overlap(self, metadata):
        entry = metadata.global_entries[0]
        low, high = entry.bounds["age"]
        assert entry.overlaps({"age": (low, high)})
        assert not entry.overlaps({"age": (high + 1, high + 10)})

    def test_empty_cluster_never_overlaps(self, small_schema):
        clustered = ClusteredTable.from_table(Table.empty(small_schema), cluster_size=10)
        store = build_metadata(clustered)
        assert store.covering_cluster_ids({"age": (0, 99)}) == []

    @given(st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=99))
    @settings(max_examples=40, deadline=None)
    def test_proportions_bounded(self, a, b):
        # Build one small deterministic clustered table per run via fixture-free path.
        rng = np.random.default_rng(0)
        schema = Schema((Dimension("x", 0, 99),))
        table = Table(schema, {"x": rng.integers(0, 100, 300)})
        store = build_metadata(ClusteredTable.from_table(table, cluster_size=50))
        low, high = min(a, b), max(a, b)
        ids = store.covering_cluster_ids({"x": (low, high)})
        proportions = store.proportions(ids, {"x": (low, high)})
        assert np.all(proportions >= 0)
        assert np.all(proportions <= 1)


# sha256 over every provider's covering positions and Equation-1 proportions
# for a fixed 72-query workload, recorded before the three dense passes
# moved onto one shared per-dimension bounds helper.  Both outputs feed
# released values (N^Q, Avg(R), the sampling weights), so the refactor has to
# leave every byte where it was.
PINNED_DENSE_PASSES = {
    "adult": (
        adult_scenario,
        20_000,
        "59e2e05161bd9bfbac9771f58425d3fc9504a5f30f617599d74b53c278102b8e",
    ),
    "amazon": (
        amazon_scenario,
        40_000,
        "a3acb81164f22bb704fbeeca8d6ee15cbf1efe647369d7378eb03d9dfd69b5fb",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DENSE_PASSES))
def test_covering_and_proportions_match_pinned_outputs(name):
    factory, num_rows, expected = PINNED_DENSE_PASSES[name]
    scenario = factory(num_rows=num_rows, seed=0)
    generator = scenario.workload_generator(5)
    queries = [
        query
        for dimensions in (1, 2, 3)
        for query in generator.generate(24, dimensions, Aggregation.COUNT)
    ]
    ranges = [query.range_tuples() for query in queries]
    sha = hashlib.sha256()
    for provider in scenario.system.providers:
        store = provider.metadata
        positions = store.covering_positions_batch(ranges)
        proportions = store.proportions_at_positions_batch(positions, ranges)
        for covering, values in zip(positions, proportions):
            sha.update(covering.astype(np.int64).tobytes())
            sha.update(values.tobytes())
        # A batch is answered as its queries alone would be.
        assert [p.tolist() for p in store.covering_positions_batch(ranges[:1])] == [
            positions[0].tolist()
        ]
        # Both passes hand back one flat array plus offsets; the per-query
        # views hashed above are slices of it.
        assert positions.flat.dtype == np.int64
        assert np.array_equal(positions.flat, np.concatenate(list(positions)))
        assert proportions.flat.tobytes() == np.concatenate(list(proportions)).tobytes()
        assert np.array_equal(proportions.offsets, positions.offsets)
        assert positions.counts.tolist() == [covering.size for covering in positions]
    assert sha.hexdigest() == expected


def test_ragged_passes_without_dense_index_and_on_empty_input(clustered):
    """The scalar fallback (no dense index) and a batch of zero queries."""
    ranges = [{"age": (10, 60), "dept": (2, 6)}, {"hours": (90, 95)}, {"hours": (0, 12)}]
    dense = build_metadata(clustered, dense=True)
    sparse = build_metadata(clustered, dense=False)
    positions = dense.covering_positions_batch(ranges)
    proportions = dense.proportions_at_positions_batch(positions, ranges)
    assert positions.counts[1] == 0  # no cluster holds hours >= 90: an empty segment
    assert positions[1].size == 0 and proportions[1].size == 0
    scalar_positions = sparse.covering_positions_batch(ranges)
    assert np.array_equal(scalar_positions.flat, positions.flat)
    assert np.array_equal(scalar_positions.offsets, positions.offsets)
    assert scalar_positions.flat.dtype == np.int64
    # Plain per-query lists are accepted as well as the ragged form.
    scalar = sparse.proportions_at_positions_batch(list(positions), ranges)
    assert scalar.flat == pytest.approx(proportions.flat.tolist(), abs=1e-12)
    assert np.array_equal(scalar.offsets, proportions.offsets)
    for store in (dense, sparse):
        empty = store.covering_positions_batch([])
        assert len(empty) == 0 and empty.flat.size == 0
        assert len(store.proportions_at_positions_batch(empty, [])) == 0
