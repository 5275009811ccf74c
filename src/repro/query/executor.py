"""Exact execution of range queries over tables, clusters and clustered tables.

The exact path is both the non-private baseline the paper compares against
("normal computation" in the speed-up metric) and the per-cluster primitive
``Q(C)`` used inside the Hansen-Hurwitz estimator (Equation 3).

Semantics
---------
``COUNT(*)`` counts represented individuals: on a raw table that is the
number of matching rows, on a count tensor it is the sum of the ``Measure``
column over matching tensor rows — the two agree by construction of the
tensor.  ``SUM(Measure)`` is identical on tensors and degenerates to the row
count on raw tables (implicit measure of 1), matching the paper's usage where
both aggregations reduce to summing the measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..storage.cluster import Cluster
from ..storage.clustered_table import ClusteredTable
from ..storage.metadata import MetadataStore
from ..storage.table import Table
from ..utils.ragged import Ragged
from .batch import QueryBatch
from .model import RangeQuery

__all__ = [
    "selection_mask",
    "execute_on_table",
    "execute_on_cluster",
    "execute_on_clusters",
    "ExactExecutor",
    "ExactExecution",
]


def selection_mask(table: Table, query: RangeQuery) -> np.ndarray:
    """Boolean mask of the table rows matching every range predicate."""
    query.validate_against(table.schema)
    mask = np.ones(table.num_rows, dtype=bool)
    for name, interval in query.ranges.items():
        column = table.column(name)
        mask &= (column >= interval.low) & (column <= interval.high)
    return mask


def execute_on_table(table: Table, query: RangeQuery) -> int:
    """Exact answer of ``query`` on a single table (raw or tensor)."""
    mask = selection_mask(table, query)
    if not mask.any():
        return 0
    return int(table.measure_column()[mask].sum())


def execute_on_cluster(cluster: Cluster, query: RangeQuery) -> int:
    """Exact answer of ``query`` on one cluster (the paper's ``Q(C)``)."""
    return execute_on_table(cluster.rows, query)


def execute_on_clusters(clusters: Iterable[Cluster], query: RangeQuery) -> int:
    """Exact answer of ``query`` over a set of clusters (their union)."""
    return sum(execute_on_cluster(cluster, query) for cluster in clusters)


@dataclass(frozen=True)
class ExactExecution:
    """Result of an exact execution with work accounting.

    ``clusters_scanned`` and ``rows_scanned`` feed the deterministic
    work-ratio speed-up metric used alongside wall-clock time.
    """

    value: int
    clusters_scanned: int
    rows_scanned: int


class ExactExecutor:
    """Exact query execution over a clustered table, with optional pruning.

    With a :class:`~repro.storage.metadata.MetadataStore` the executor only
    scans clusters whose min/max bounds overlap the query (Equation 2), which
    is also what the "normal computation" baseline in the paper's speed-up
    metric does — the approximation's gain comes from sampling *within* the
    covering set, not from pruning alone.
    """

    def __init__(
        self,
        clustered: ClusteredTable,
        metadata: MetadataStore | None = None,
    ) -> None:
        self._clustered = clustered
        self._metadata = metadata

    @property
    def clustered_table(self) -> ClusteredTable:
        """The underlying clustered table."""
        return self._clustered

    def covering_clusters(self, query: RangeQuery) -> Sequence[Cluster]:
        """Clusters that may contain matching rows (``C^Q``)."""
        if self._metadata is None:
            return self._clustered.clusters
        ids = self._metadata.covering_cluster_ids(query.range_tuples())
        return self._clustered.subset(ids)

    def execute(self, query: RangeQuery) -> ExactExecution:
        """Exact answer plus work accounting over the covering clusters."""
        return self.execute_batch([query])[0]

    def execute_batch(
        self, queries: QueryBatch | Sequence[RangeQuery]
    ) -> list[ExactExecution]:
        """Exact answers for a whole workload in one vectorised pass.

        Covering sets for every query are identified with one batched pass
        over the metadata, then ``Q(C)`` for all needed (query, cluster) pairs
        is evaluated with boolean masks + segmented reduction over the
        contiguous cluster layout restricted to the union of covering
        clusters.  A batch of one therefore scans exactly the clusters the
        sequential per-cluster loop did.
        """
        batch = QueryBatch.coerce(queries)
        batch.validate_against(self._clustered.schema)
        layout = self._clustered.layout()
        if self._metadata is None:
            covering = Ragged.from_arrays(
                [np.arange(layout.num_clusters) for _ in batch], np.int64
            )
        elif tuple(self._metadata.cluster_ids) == layout.cluster_ids:
            # Metadata and layout share the storage order (the always-true
            # case for provider-built executors), so the metadata's position
            # arrays index the layout directly — no per-id Python mapping.
            covering = self._metadata.covering_positions_batch(
                batch.range_tuples_list()
            )
        else:
            position_of = layout.position_of()
            covering = Ragged.from_arrays(
                [
                    [position_of[cluster_id] for cluster_id in ids]
                    for ids in self._metadata.covering_cluster_ids_batch(
                        batch.range_tuples_list()
                    )
                ],
                np.int64,
            )
        values = Ragged(
            layout.query_cluster_values(batch, covering.flat, covering.offsets),
            covering.offsets,
        )
        return [
            ExactExecution(
                value=int(query_values.sum()),
                clusters_scanned=int(positions.size),
                rows_scanned=int(layout.cluster_rows[positions].sum()),
            )
            for positions, query_values in zip(covering, values)
        ]
