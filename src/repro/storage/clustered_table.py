"""A table stored as a sequence of bounded-size clusters.

``ClusteredTable.from_table`` splits a table into clusters of at most ``S``
rows.  Two splitting policies are provided:

* ``"sequential"`` keeps the incoming row order (mirrors how pages fill up as
  rows arrive — naturally produces value locality when the source data is
  sorted or time-ordered),
* ``"sorted"`` sorts by a chosen dimension first, which yields strongly
  skewed per-cluster value ranges — the regime where distribution-aware
  cluster sampling pays off most and where the cluster-pruning metadata
  (per-cluster min/max) is effective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import StorageError
from .cluster import Cluster
from .layout import ClusterLayout
from .table import Table

__all__ = ["ClusteredTable"]


@dataclass
class ClusteredTable:
    """A table materialised as clusters of at most ``cluster_size`` rows."""

    clusters: tuple[Cluster, ...]
    cluster_size: int

    def __post_init__(self) -> None:
        if self.cluster_size < 1:
            raise StorageError(f"cluster_size must be >= 1, got {self.cluster_size}")
        self.clusters = tuple(self.clusters)
        for cluster in self.clusters:
            if cluster.nominal_size != self.cluster_size:
                raise StorageError(
                    "all clusters must share the table's nominal cluster size "
                    f"({self.cluster_size}), cluster {cluster.cluster_id} has "
                    f"{cluster.nominal_size}"
                )
        self._layout: ClusterLayout | None = None
        self._num_rows = sum(cluster.num_rows for cluster in self.clusters)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: Table,
        cluster_size: int,
        *,
        policy: str = "sequential",
        sort_by: str | None = None,
        intra_sort_by: str | None = None,
    ) -> "ClusteredTable":
        """Split ``table`` into clusters of at most ``cluster_size`` rows.

        An **empty** table (0 rows) is accepted and yields a single empty
        placeholder cluster, so a provider can be born empty and
        bootstrapped purely by ingest (:mod:`repro.ingest`); every kernel —
        production and the dense oracle — answers zero over it, and the
        first compaction replaces the placeholder with real clusters.

        Parameters
        ----------
        policy:
            ``"sequential"`` (keep row order) or ``"sorted"`` (sort by
            ``sort_by``, defaulting to the first dimension, before splitting).
        intra_sort_by:
            Optionally sort the rows *within* each cluster by this dimension
            after splitting.  Cluster membership — and therefore metadata,
            proportions, sampling, and every query answer — is unchanged
            (``Q(C)`` sums the same row multiset); the only effect is that
            the layout's bisection kernels can answer predicates straddling
            a cluster on this dimension in ``O(log rows)``.  The
            ``"sorted"`` policy already yields clusters sorted on its key.
        """
        if cluster_size < 1:
            raise StorageError(f"cluster_size must be >= 1, got {cluster_size}")
        if policy not in ("sequential", "sorted"):
            raise StorageError(f"unknown clustering policy: {policy!r}")
        if intra_sort_by is not None:
            table.schema.dimension(intra_sort_by)
        working = table
        if policy == "sorted":
            key = sort_by or table.schema.dimension_names[0]
            order = np.argsort(table.column(key), kind="stable")
            working = table.take(order)
        clusters: list[Cluster] = []
        for cluster_id, start in enumerate(range(0, max(working.num_rows, 1), cluster_size)):
            chunk = working.slice(start, start + cluster_size)
            if chunk.num_rows == 0 and clusters:
                break
            if intra_sort_by is not None and chunk.num_rows > 1:
                chunk = chunk.take(np.argsort(chunk.column(intra_sort_by), kind="stable"))
            clusters.append(Cluster(cluster_id=cluster_id, rows=chunk, nominal_size=cluster_size))
        if not clusters:
            clusters.append(
                Cluster(cluster_id=0, rows=Table.empty(table.schema), nominal_size=cluster_size)
            )
        return cls(clusters=tuple(clusters), cluster_size=cluster_size)

    # -- accessors ---------------------------------------------------------

    @property
    def schema(self):
        """Schema shared by every cluster."""
        return self.clusters[0].schema

    @property
    def num_clusters(self) -> int:
        """Number of clusters."""
        return len(self.clusters)

    @property
    def num_rows(self) -> int:
        """Total number of stored rows across clusters (cached)."""
        return self._num_rows

    def __len__(self) -> int:
        return self.num_clusters

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self.clusters)

    def cluster(self, cluster_id: int) -> Cluster:
        """Return the cluster with identifier ``cluster_id``."""
        for candidate in self.clusters:
            if candidate.cluster_id == cluster_id:
                return candidate
        raise StorageError(f"no cluster with id {cluster_id}")

    def subset(self, cluster_ids: Sequence[int]) -> tuple[Cluster, ...]:
        """Return the clusters whose ids appear in ``cluster_ids`` (in order)."""
        return tuple(self.cluster(cluster_id) for cluster_id in cluster_ids)

    def layout(self) -> ClusterLayout:
        """The contiguous columnar layout (built lazily, cached).

        Clusters are immutable by convention, so the concatenated arrays stay
        valid for the lifetime of the table.
        """
        if self._layout is None:
            self._layout = ClusterLayout.from_clusters(self.clusters)
        return self._layout

    def to_table(self) -> Table:
        """Reassemble the full table (cluster order)."""
        return Table.concat([cluster.rows for cluster in self.clusters])

    def total_measure(self) -> int:
        """Sum of the measure column across all clusters."""
        return sum(cluster.total_measure() for cluster in self.clusters)

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored clusters."""
        return sum(cluster.rows.memory_bytes() for cluster in self.clusters)
