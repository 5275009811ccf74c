"""Unit tests for the vectorised batch kernels.

The batch engine is built on three layers of vectorised primitives — the
contiguous :class:`ClusterLayout`, the batched :class:`MetadataStore`
queries, and the vectorised sensitivity helpers.  Each must agree exactly
with its scalar counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sensitivity import (
    ClusterSensitivityInputs,
    delta_r,
    estimator_smooth_sensitivities,
    estimator_smooth_sensitivity,
    smooth_peak_factor,
)
from repro.federation.dpmath import sample_clusters
from repro.query.batch import QueryBatch
from repro.query.executor import ExactExecutor, execute_on_cluster
from repro.query.model import RangeQuery
from repro.sampling.em_sampler import EMClusterSampler
from repro.storage.metadata import build_metadata
from repro.utils.ragged import segment_offsets


@pytest.fixture
def layout(clustered):
    return clustered.layout()


class TestClusterLayout:
    def test_layout_preserves_rows_and_offsets(self, clustered, layout):
        assert layout.num_rows == clustered.num_rows
        assert layout.num_clusters == clustered.num_clusters
        ends = layout.starts + layout.cluster_rows
        assert layout.starts[0] == 0
        assert int(ends[-1]) == layout.num_rows
        assert np.all(layout.starts[1:] == ends[:-1])

    def test_dimension_columns_are_narrowed(self, layout):
        # The test schema's domains fit comfortably in int32.
        for name, column in layout.columns.items():
            assert column.dtype == np.int32, name
        assert layout.measure.dtype == np.int64

    def test_cluster_values_match_per_cluster_loop(self, clustered, layout):
        queries = [
            RangeQuery.count({"age": (10, 60)}),
            RangeQuery.count({"age": (0, 99), "dept": (3, 7)}),
            RangeQuery.sum({"hours": (0, 10)}),
        ]
        matrix = layout.cluster_values(QueryBatch(tuple(queries)))
        for query_index, query in enumerate(queries):
            expected = [execute_on_cluster(cluster, query) for cluster in clustered]
            assert matrix[query_index].tolist() == expected

    def test_query_cluster_values_respects_per_query_positions(self, clustered, layout):
        queries = [
            RangeQuery.count({"age": (10, 60)}),
            RangeQuery.count({"hours": (2, 9)}),
        ]
        positions = [np.array([0, 3, 7]), np.array([1, 2])]
        values = layout.query_cluster_values(
            QueryBatch(tuple(queries)), np.concatenate(positions), np.array([0, 3, 5])
        )
        expected = [
            execute_on_cluster(clustered.clusters[p], query)
            for query, chosen in zip(queries, positions)
            for p in chosen
        ]
        assert values.tolist() == expected

    def test_query_cluster_values_empty_positions(self, layout):
        queries = [RangeQuery.count({"age": (10, 60)})]
        values = layout.query_cluster_values(
            QueryBatch(tuple(queries)), np.empty(0, dtype=np.int64), np.array([0, 0])
        )
        assert values.size == 0 and values.dtype == np.int64

    def test_gather_subsets_clusters(self, clustered, layout):
        sub = layout.gather(np.array([2, 5]))
        assert sub.num_clusters == 2
        assert sub.cluster_ids == (2, 5)
        assert sub.num_rows == (
            clustered.clusters[2].num_rows + clustered.clusters[5].num_rows
        )


class TestMetadataBatch:
    def test_covering_batch_matches_scalar(self, clustered, metadata):
        ranges_list = [
            {"age": (10, 60)},
            {"age": (0, 99), "dept": (3, 7)},
            {"hours": (200, 300)},  # disjoint from the clipped domain data
        ]
        batched = metadata.covering_cluster_ids_batch(ranges_list)
        for ranges, expected_ids in zip(ranges_list, batched):
            assert metadata.covering_cluster_ids(ranges) == expected_ids
            scalar = [
                entry.cluster_id
                for entry in metadata.global_entries
                if entry.overlaps(ranges)
            ]
            assert expected_ids == scalar

    def test_proportions_batch_matches_scalar_path(self, clustered):
        # Build the metadata without the dense index to get the reference
        # per-cluster scalar computation, and with it for the batched path.
        sparse = build_metadata(clustered, dense=False)
        dense = build_metadata(clustered, dense=True)
        ranges_list = [{"age": (10, 60), "dept": (2, 6)}, {"hours": (0, 12)}]
        covering = dense.covering_cluster_ids_batch(ranges_list)
        batched = dense.proportions_batch(covering, ranges_list)
        for ranges, ids, proportions in zip(ranges_list, covering, batched):
            reference = sparse.proportions(ids, ranges)
            assert proportions == pytest.approx(reference.tolist(), abs=1e-12)

    def test_positions_and_ids_agree(self, metadata):
        ranges_list = [{"age": (20, 40)}]
        positions = metadata.covering_positions_batch(ranges_list)[0]
        ids = metadata.covering_cluster_ids_batch(ranges_list)[0]
        assert [metadata.cluster_ids[p] for p in positions] == ids


class TestVectorisedSensitivity:
    def test_matches_scalar_smooth_sensitivity(self):
        epsilon, delta = 0.8, 1e-3
        dr_value = delta_r(100, 3)
        sum_proportions = 4.2
        values = np.array([0.0, 3.0, 250.0, 9000.0])
        proportions = np.array([0.01, 0.2, 0.05, 0.5])
        probabilities = np.array([0.05, 0.3, 0.15, 0.5])
        vectorised = estimator_smooth_sensitivities(
            values,
            proportions,
            probabilities,
            sum_proportions=sum_proportions,
            delta_r_value=dr_value,
            epsilon=epsilon,
            delta=delta,
        )
        for index in range(values.size):
            scalar = estimator_smooth_sensitivity(
                ClusterSensitivityInputs(
                    cluster_value=float(values[index]),
                    proportion=float(proportions[index]),
                    probability=float(probabilities[index]),
                ),
                sum_proportions=sum_proportions,
                delta_r_value=dr_value,
                epsilon=epsilon,
                delta=delta,
            )
            assert vectorised[index] == pytest.approx(scalar, rel=1e-12)

    def test_peak_factor_is_positive_and_cached(self):
        first = smooth_peak_factor(0.8, 1e-3)
        second = smooth_peak_factor(0.8, 1e-3)
        assert first > 0
        assert first == second


class TestFlattenedSelectionDistribution:
    """The flat Algorithm-2 pipeline of ``dpmath`` vs the scalar sampler."""

    def test_select_clusters_matches_class_sampler(self, small_table):
        from repro.federation.messages import QueryRequest
        from repro.federation.provider import DataProvider

        provider = DataProvider(
            provider_id="p0", table=small_table, cluster_size=100, n_min=3, rng=0
        )
        queries = [
            RangeQuery.count({"age": (10, 80)}),
            RangeQuery.count({"age": (30, 50), "hours": (0, 30)}),
            RangeQuery.count({"dept": (1, 7)}),
        ]
        provider.prepare_summary_batch(
            [
                QueryRequest(query_id=index, query=query, sampling_rate=0.3)
                for index, query in enumerate(queries)
            ],
            epsilon_allocation=0.1,
        )
        sessions = [provider._sessions[index] for index in range(len(queries))]
        lengths = [session.proportions.size for session in sessions]
        offsets = segment_offsets(lengths)
        proportions = np.concatenate([session.proportions for session in sessions])
        sizes, drawn, weights = sample_clusters(
            proportions,
            offsets,
            np.array([session.proportions_sum for session in sessions]),
            np.array([4, 2, 500], dtype=np.int64),
            0.1,
            3,
            [session.rng for session in sessions],
        )
        assert sizes.tolist() == [4, 2, lengths[2]]  # clamped to N^Q
        sampler = EMClusterSampler(epsilon=0.1, n_min=3)
        draw_offsets = segment_offsets(sizes)
        for index, session in enumerate(sessions):
            mine = slice(draw_offsets[index], draw_offsets[index + 1])
            local = drawn[mine] - offsets[index]
            assert np.all((0 <= local) & (local < lengths[index]))
            # The class sampler normalises with ``.sum()``, the flat pass with
            # a left-to-right reduceat: equal to the last few ulps.
            reference = sampler.selection_distribution(
                session.proportions, int(sizes[index])
            )
            assert weights[mine] == pytest.approx(reference[local].tolist(), rel=1e-12)
        provider.forget_batch(range(len(queries)))
