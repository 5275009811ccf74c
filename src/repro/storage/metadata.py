"""Offline cluster metadata (the paper's Algorithm 1).

During the offline pre-processing phase each data provider builds, for every
cluster ``C`` and every dimension ``d``:

* the per-value proportions ``R_{d>=}(v) = |rows with d >= v| / S`` for each
  distinct value ``v`` present in the cluster (stored compactly as the sorted
  distinct values plus suffix counts, so a lookup for an arbitrary ``x`` is a
  binary search), and
* the global entry ``(v_min, v_max)`` per dimension, used by Equation 2 to
  identify the covering set ``C^Q`` without touching any rows.

``S`` is the *nominal* cluster size shared by all providers (Section 7); it is
used as the denominator even when a cluster holds fewer rows, which is what
makes proportions comparable across providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import StorageError
from ..utils.ragged import Ragged, segment_ids, segment_offsets
from .cluster import Cluster
from .clustered_table import ClusteredTable
from .layout import OPEN_HIGH, OPEN_LOW

__all__ = [
    "DimensionMetadata",
    "ClusterMetadata",
    "GlobalClusterEntry",
    "MetadataStore",
    "QueryCostStats",
    "build_metadata",
    "patch_metadata",
]


@dataclass(frozen=True)
class QueryCostStats:
    """Pre-execution work statistics of one query against one layout.

    Everything here is derived from the zone maps (per-cluster ``[v_min,
    v_max]`` bounds) and the occupancy vector — the same metadata the
    covering-set pass of Equation 2 reads — so estimating a query's cost
    touches no rows.  A cluster whose zone box lies fully inside the query
    box is *covered* (its contribution is known from metadata proportions
    alone); an overlapping-but-not-covered cluster is a *straddler*, whose
    rows are the ones the executor actually has to inspect.
    """

    clusters_touched: int
    clusters_covered: int
    straddler_rows: int

    @property
    def clusters_straddling(self) -> int:
        """Overlapping clusters whose zone box crosses the query boundary."""
        return self.clusters_touched - self.clusters_covered



@dataclass(frozen=True)
class DimensionMetadata:
    """Suffix-count metadata for one dimension of one cluster.

    ``values`` are the sorted distinct values present in the cluster and
    ``rows_geq[i]`` is the number of cluster rows whose value is
    ``>= values[i]``.
    """

    values: np.ndarray
    rows_geq: np.ndarray
    nominal_size: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.int64)
        rows_geq = np.asarray(self.rows_geq, dtype=np.int64)
        if values.shape != rows_geq.shape or values.ndim != 1:
            raise StorageError("values and rows_geq must be one-dimensional and aligned")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise StorageError("values must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rows_geq", rows_geq)

    def rows_at_least(self, threshold: int) -> int:
        """Number of cluster rows whose value is ``>= threshold``."""
        if self.values.size == 0:
            return 0
        position = int(np.searchsorted(self.values, threshold, side="left"))
        if position >= self.values.size:
            return 0
        return int(self.rows_geq[position])

    def proportion_at_least(self, threshold: int) -> float:
        """``R_{d>=}(threshold)``: proportion (over ``S``) of rows ``>= threshold``."""
        return self.rows_at_least(threshold) / self.nominal_size

    def proportion_in_range(self, low: int, high: int) -> float:
        """Proportion of rows with value in the inclusive range ``[low, high]``.

        Implemented as ``R_{d>=}(low) - R_{d>=}(high + 1)`` which is the
        inclusive-range variant of the paper's ``R_d`` (see DESIGN.md).
        """
        if low > high:
            return 0.0
        return (self.rows_at_least(low) - self.rows_at_least(high + 1)) / self.nominal_size

    def entry_count(self) -> int:
        """Number of stored ``(d, v, R)`` entries for this dimension."""
        return int(self.values.size)


@dataclass(frozen=True)
class GlobalClusterEntry:
    """Per-cluster, per-dimension min/max bounds (the global metadata file)."""

    cluster_id: int
    bounds: Mapping[str, tuple[int, int]]
    num_rows: int

    def overlaps(self, ranges: Mapping[str, tuple[int, int]]) -> bool:
        """True when the cluster's bounds intersect every queried range.

        This is the paper's Equation 2: a cluster belongs to ``C^Q`` iff for
        every queried dimension its ``[v_min, v_max]`` interval intersects the
        query interval.  Empty clusters never overlap.
        """
        if self.num_rows == 0:
            return False
        for name, (low, high) in ranges.items():
            if name not in self.bounds:
                return False
            v_min, v_max = self.bounds[name]
            if v_max < low or v_min > high:
                return False
        return True


@dataclass(frozen=True)
class ClusterMetadata:
    """All metadata of one cluster: per-dimension suffix counts + bounds."""

    cluster_id: int
    nominal_size: int
    num_rows: int
    dimensions: Mapping[str, DimensionMetadata]

    def proportion_for_ranges(self, ranges: Mapping[str, tuple[int, int]]) -> float:
        """Approximate ``R``: product of per-dimension range proportions (Eq. 1).

        Assumes dimension independence, exactly like the paper.  Dimensions
        absent from ``ranges`` contribute a factor of 1 (no restriction).
        """
        proportion = 1.0
        for name, (low, high) in ranges.items():
            if name not in self.dimensions:
                raise StorageError(
                    f"cluster {self.cluster_id} has no metadata for dimension {name!r}"
                )
            proportion *= self.dimensions[name].proportion_in_range(low, high)
            if proportion == 0.0:
                return 0.0
        return proportion

    def global_entry(self) -> GlobalClusterEntry:
        """Build the global-metadata entry (per-dimension min/max)."""
        bounds: dict[str, tuple[int, int]] = {}
        for name, meta in self.dimensions.items():
            if meta.values.size:
                bounds[name] = (int(meta.values[0]), int(meta.values[-1]))
        return GlobalClusterEntry(
            cluster_id=self.cluster_id, bounds=bounds, num_rows=self.num_rows
        )

    def entry_count(self) -> int:
        """Total number of stored metadata entries across dimensions."""
        return sum(meta.entry_count() for meta in self.dimensions.values())

    def size_bytes(self) -> int:
        """Approximate serialised size: each entry stores a value + a count."""
        per_entry = 16  # one 8-byte value + one 8-byte suffix count
        bounds_bytes = 16 * len(self.dimensions)
        return per_entry * self.entry_count() + bounds_bytes


@dataclass(frozen=True)
class DenseDimensionIndex:
    """Vectorised acceleration structure for one dimension across all clusters.

    ``rows_geq[c, v - domain_low]`` is the number of rows of cluster ``c``
    whose value is ``>= v``; an extra trailing column of zeros covers
    ``domain_high + 1``.  ``v_min`` / ``v_max`` are the per-cluster bounds used
    for covering-set identification.  This is a query-time acceleration of the
    same information Algorithm 1 stores; the serialised-size accounting keeps
    using the sparse per-cluster representation.

    ``rows_geq`` is stored as int32 — counts are bounded by the cluster size,
    and the batched fancy-indexing passes are memory-bound, so halving the
    element width halves the gather traffic (the count arithmetic is exact in
    either width; proportions divide in float64 regardless).
    """

    domain_low: int
    domain_high: int
    rows_geq: np.ndarray
    v_min: np.ndarray
    v_max: np.ndarray

    def range_counts_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-(query, cluster) matching-row counts — ``(nq, nc)`` in one shot.

        ``lows`` / ``highs`` hold one inclusive bound pair per query; queries
        whose clipped interval is empty get all-zero counts.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        low_clipped = np.maximum(lows, self.domain_low)
        high_clipped = np.minimum(highs, self.domain_high)
        valid = low_clipped <= high_clipped
        low_col = np.where(valid, low_clipped - self.domain_low, 0)
        high_col = np.where(valid, high_clipped + 1 - self.domain_low, 0)
        counts = (self.rows_geq[:, low_col] - self.rows_geq[:, high_col]).T
        counts[~valid, :] = 0
        return counts

    def overlap_mask_batch(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Per-(query, cluster) Equation-2 overlap masks — ``(nq, nc)``."""
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        return (self.v_max[None, :] >= lows[:, None]) & (
            self.v_min[None, :] <= highs[:, None]
        )


@dataclass
class MetadataStore:
    """Metadata for every cluster of a provider's clustered table."""

    clusters: Mapping[int, ClusterMetadata]
    global_entries: tuple[GlobalClusterEntry, ...]
    nominal_size: int
    dense_index: Mapping[str, DenseDimensionIndex] | None = None
    cluster_ids: tuple[int, ...] = ()
    occupancy: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.cluster_ids:
            self.cluster_ids = tuple(entry.cluster_id for entry in self.global_entries)
        self._position = {cluster_id: i for i, cluster_id in enumerate(self.cluster_ids)}
        if self.occupancy is None:
            self.occupancy = np.array(
                [entry.num_rows for entry in self.global_entries], dtype=np.int64
            )

    def covering_cluster_ids(self, ranges: Mapping[str, tuple[int, int]]) -> list[int]:
        """Identify ``C^Q``: ids of clusters whose bounds overlap the query."""
        return self.covering_cluster_ids_batch([ranges])[0]

    def covering_cluster_ids_batch(
        self, ranges_list: Sequence[Mapping[str, tuple[int, int]]]
    ) -> list[list[int]]:
        """Identify ``C^Q`` for every query of a workload in one dense pass.

        All queries' overlap masks are evaluated against the dense index with
        one broadcast comparison per dimension; the scalar per-entry path is
        the fallback when a queried dimension is not densely indexed.
        """
        return [
            [self.cluster_ids[i] for i in positions]
            for positions in self.covering_positions_batch(ranges_list)
        ]

    def covering_positions_batch(
        self, ranges_list: Sequence[Mapping[str, tuple[int, int]]]
    ) -> Ragged:
        """Covering sets as storage-order positions (the batch-engine form).

        Positions index into :attr:`cluster_ids` / the provider's cluster
        layout, so downstream vectorised kernels can skip the id indirection.
        The result is one flat array plus offsets: the dense path reads the
        whole ``(nq, nc)`` mask out with a single ``np.nonzero`` (row-major,
        so each query's positions come out ascending), not one
        ``flatnonzero`` per query.
        """
        num_queries = len(ranges_list)
        bounds = self._dimension_bounds(ranges_list)
        if not num_queries or not self._densely_indexed(bounds):
            position_of = self._position
            return Ragged.from_arrays(
                [
                    [
                        position_of[cluster_id]
                        for cluster_id in self._covering_cluster_ids_scalar(ranges)
                    ]
                    for ranges in ranges_list
                ],
                np.int64,
            )
        query_of, positions = np.nonzero(self._overlap_mask(bounds, num_queries))
        return Ragged(
            positions, segment_offsets(np.bincount(query_of, minlength=num_queries))
        )

    def _covering_cluster_ids_scalar(
        self, ranges: Mapping[str, tuple[int, int]]
    ) -> list[int]:
        return [entry.cluster_id for entry in self.global_entries if entry.overlaps(ranges)]

    def cost_stats_batch(
        self, ranges_list: Sequence[Mapping[str, tuple[int, int]]]
    ) -> list["QueryCostStats"]:
        """Covered-vs-straddler work statistics for every query of a workload.

        A covering cluster (Equation 2, the mask
        :meth:`covering_positions_batch` reads its positions from) counts as
        *covered* when its zone box lies fully inside the query box on every
        queried dimension (an unqueried dimension constrains nothing), as a
        *straddler* otherwise.  The dense path reduces the ``(nq, nc)``
        masks along the cluster axis — counts are row sums, straddler row
        volumes one product with the occupancy vector — so the whole pass
        stays row-free and loops over no query.  This is the cost-model
        input of the serving layer's time-budgeted scheduler.
        """
        if not ranges_list:
            return []
        bounds = self._dimension_bounds(ranges_list)
        if not self._densely_indexed(bounds):
            return [self._cost_stats_scalar(ranges) for ranges in ranges_list]
        touched = self._overlap_mask(bounds, len(ranges_list))
        straddling = np.zeros(touched.shape, dtype=bool)
        for name, (lows, highs, _) in bounds.items():
            index = self.dense_index[name]
            # A query that leaves this dimension open holds the open
            # interval, which contains every zone box.
            straddling |= (index.v_min[None, :] < lows[:, None]) | (
                index.v_max[None, :] > highs[:, None]
            )
        straddling &= touched
        touched_counts = touched.sum(axis=1)
        covered_counts = touched_counts - straddling.sum(axis=1)
        straddler_rows = straddling @ self.occupancy
        return [
            QueryCostStats(
                clusters_touched=touched_count,
                clusters_covered=covered_count,
                straddler_rows=rows,
            )
            for touched_count, covered_count, rows in zip(
                touched_counts.tolist(),
                covered_counts.tolist(),
                straddler_rows.tolist(),
            )
        ]

    def _cost_stats_scalar(
        self, ranges: Mapping[str, tuple[int, int]]
    ) -> "QueryCostStats":
        touched = covered = straddler_rows = 0
        for entry in self.global_entries:
            if not entry.overlaps(ranges):
                continue
            touched += 1
            if all(
                entry.bounds[name][0] >= low and entry.bounds[name][1] <= high
                for name, (low, high) in ranges.items()
            ):
                covered += 1
            else:
                straddler_rows += entry.num_rows
        return QueryCostStats(
            clusters_touched=touched,
            clusters_covered=covered,
            straddler_rows=straddler_rows,
        )

    def proportions(
        self, cluster_ids: Sequence[int], ranges: Mapping[str, tuple[int, int]]
    ) -> np.ndarray:
        """Approximate ``R`` for each cluster id, in order (Equation 1)."""
        return self.proportions_batch([list(cluster_ids)], [ranges])[0]

    def proportions_batch(
        self,
        cluster_ids_list: Sequence[Sequence[int]],
        ranges_list: Sequence[Mapping[str, tuple[int, int]]],
    ) -> Ragged:
        """Equation-1 proportions for every (query, covering set) pair.

        The dense path evaluates every query's per-dimension range counts over
        *all* clusters with one fancy-indexing pass per dimension, multiplies
        the factors in a canonical (sorted) dimension order so the result is
        bit-identical regardless of how queries are batched, and slices out
        each query's covering positions at the end.
        """
        if len(cluster_ids_list) != len(ranges_list):
            raise StorageError(
                "cluster_ids_list and ranges_list must have the same length"
            )
        positions_list = [
            [self._position[cluster_id] for cluster_id in ids] for ids in cluster_ids_list
        ]
        return self.proportions_at_positions_batch(positions_list, ranges_list)

    def proportions_at_positions_batch(
        self,
        positions_list: Sequence[np.ndarray],
        ranges_list: Sequence[Mapping[str, tuple[int, int]]],
    ) -> Ragged:
        """Equation-1 proportions addressed by storage-order positions.

        Takes the :class:`~repro.utils.ragged.Ragged` covering sets of
        :meth:`covering_positions_batch` (or any per-query sequence of
        position arrays) and returns the proportions in the same ragged
        shape; the dense path gathers them from the ``(nq, nc)`` proportion
        matrix with one fancy index.
        """
        if len(positions_list) != len(ranges_list):
            raise StorageError(
                "positions_list and ranges_list must have the same length"
            )
        if not isinstance(positions_list, Ragged):
            positions_list = Ragged.from_arrays(positions_list, np.int64)
        bounds = self._dimension_bounds(ranges_list)
        if not ranges_list or not self._densely_indexed(bounds):
            return Ragged.from_arrays(
                [
                    self._proportions_scalar(
                        [self.cluster_ids[int(p)] for p in positions], ranges
                    )
                    for positions, ranges in zip(positions_list, ranges_list)
                ],
                float,
            )
        matrix = self._proportion_matrix(bounds, len(ranges_list))
        return Ragged(
            matrix[segment_ids(positions_list.offsets), positions_list.flat],
            positions_list.offsets,
        )

    def _proportions_scalar(
        self, ids: list[int], ranges: Mapping[str, tuple[int, int]]
    ) -> np.ndarray:
        if not ids:
            return np.zeros(0, dtype=float)
        return np.array(
            [self.clusters[cluster_id].proportion_for_ranges(ranges) for cluster_id in ids],
            dtype=float,
        )

    def _densely_indexed(self, bounds: Mapping[str, tuple]) -> bool:
        """Whether every queried dimension has a dense index (else: scalar path)."""
        return self.dense_index is not None and all(
            name in self.dense_index for name in bounds
        )

    def _proportion_matrix(
        self,
        bounds: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
        num_queries: int,
    ) -> np.ndarray:
        """Equation 1 for a workload: ``R̂`` of every (query, cluster) pair.

        Factors multiply in sorted dimension order, so an entry depends only
        on its own query and cluster — bit-identical however the queries
        are batched.
        """
        result = np.ones((num_queries, len(self.cluster_ids)), dtype=float)
        for name in sorted(bounds):
            lows, highs, constrained = bounds[name]
            # range_counts_batch clips the open interval of an unconstrained
            # query to the dimension's domain.
            factor = (
                self.dense_index[name].range_counts_batch(lows, highs)
                / self.nominal_size
            )
            # Unconstrained queries contribute an exact factor of one on this
            # dimension, matching the scalar executor skipping it.
            factor[~constrained, :] = 1.0
            result *= factor
        return result

    @staticmethod
    def _dimension_bounds(
        ranges_list: Sequence[Mapping[str, tuple[int, int]]]
    ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per queried dimension, every query's ``(lows, highs, constrained)``.

        One pass over the range dicts serves every dense pass.  A
        query that does not constrain a dimension holds the open interval
        ``[OPEN_LOW, OPEN_HIGH]`` there: it overlaps and contains every
        zone box.  Dimensions come in first-seen order.
        """
        num_queries = len(ranges_list)
        bounds: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for position, ranges in enumerate(ranges_list):
            for name, (low, high) in ranges.items():
                entry = bounds.get(name)
                if entry is None:
                    entry = bounds[name] = (
                        np.full(num_queries, OPEN_LOW, dtype=np.int64),
                        np.full(num_queries, OPEN_HIGH, dtype=np.int64),
                        np.zeros(num_queries, dtype=bool),
                    )
                entry[0][position] = low
                entry[1][position] = high
                entry[2][position] = True
        return bounds

    def _overlap_mask(
        self,
        bounds: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
        num_queries: int,
    ) -> np.ndarray:
        """Equation 2 for a workload: the ``(nq, nc)`` covering-set mask."""
        mask = np.broadcast_to(
            self.occupancy > 0, (num_queries, len(self.cluster_ids))
        ).copy()
        for name, (lows, highs, _) in bounds.items():
            mask &= self.dense_index[name].overlap_mask_batch(lows, highs)
        return mask

    def cluster(self, cluster_id: int) -> ClusterMetadata:
        """Return the metadata of ``cluster_id``."""
        try:
            return self.clusters[cluster_id]
        except KeyError:
            raise StorageError(f"no metadata for cluster {cluster_id}") from None

    @property
    def num_clusters(self) -> int:
        """Number of clusters described by this store."""
        return len(self.clusters)

    def size_bytes(self) -> int:
        """Approximate serialised size of the whole store."""
        return sum(meta.size_bytes() for meta in self.clusters.values())

    def size_bytes_per_cluster(self) -> float:
        """Average metadata footprint per cluster."""
        if not self.clusters:
            return 0.0
        return self.size_bytes() / len(self.clusters)


def _dimension_metadata(cluster: Cluster, dimension: str) -> DimensionMetadata:
    column = cluster.rows.column(dimension)
    if column.size == 0:
        return DimensionMetadata(
            values=np.empty(0, dtype=np.int64),
            rows_geq=np.empty(0, dtype=np.int64),
            nominal_size=cluster.nominal_size,
        )
    values, counts = np.unique(column, return_counts=True)
    # rows >= values[i] is the suffix sum of counts starting at i.
    rows_geq = np.cumsum(counts[::-1])[::-1]
    return DimensionMetadata(values=values, rows_geq=rows_geq, nominal_size=cluster.nominal_size)


def _dense_cluster_row(column: np.ndarray, dimension) -> tuple[np.ndarray, int, int]:
    """One cluster's dense-index row: ``(rows_geq, v_min, v_max)``.

    Empty clusters carry the inverted sentinel bounds
    ``(high + 1, low - 1)`` so no query interval can overlap them.
    """
    domain = dimension.domain_size
    rows_geq = np.zeros(domain + 1, dtype=np.int32)
    if column.size == 0:
        return rows_geq, dimension.high + 1, dimension.low - 1
    counts = np.bincount(column - dimension.low, minlength=domain)
    # rows >= v is the reversed cumulative sum of per-value counts.
    rows_geq[:domain] = np.cumsum(counts[::-1])[::-1]
    return rows_geq, int(column.min()), int(column.max())


def _dense_index(
    clustered: ClusteredTable, names: Sequence[str]
) -> dict[str, DenseDimensionIndex]:
    """Build the vectorised per-dimension suffix-count matrices."""
    index: dict[str, DenseDimensionIndex] = {}
    num_clusters = clustered.num_clusters
    for name in names:
        dimension = clustered.schema.dimension(name)
        domain = dimension.domain_size
        rows_geq = np.zeros((num_clusters, domain + 1), dtype=np.int32)
        v_min = np.empty(num_clusters, dtype=np.int64)
        v_max = np.empty(num_clusters, dtype=np.int64)
        for position, cluster in enumerate(clustered):
            row, low, high = _dense_cluster_row(cluster.rows.column(name), dimension)
            rows_geq[position] = row
            v_min[position] = low
            v_max[position] = high
        index[name] = DenseDimensionIndex(
            domain_low=dimension.low,
            domain_high=dimension.high,
            rows_geq=rows_geq,
            v_min=v_min,
            v_max=v_max,
        )
    return index


def build_metadata(
    clustered: ClusteredTable,
    dimensions: Sequence[str] | None = None,
    *,
    dense: bool = True,
) -> MetadataStore:
    """Run Algorithm 1: build per-cluster and global metadata.

    Parameters
    ----------
    clustered:
        The provider's clustered table.
    dimensions:
        Dimensions to index; defaults to every schema dimension (the measure
        column is never indexed).
    dense:
        Also build the vectorised acceleration index (recommended; the sparse
        per-cluster entries are kept either way for size accounting).
    """
    names = list(dimensions) if dimensions is not None else list(clustered.schema.dimension_names)
    for name in names:
        clustered.schema.dimension(name)
    per_cluster: dict[int, ClusterMetadata] = {}
    global_entries: list[GlobalClusterEntry] = []
    for cluster in clustered:
        dims = {name: _dimension_metadata(cluster, name) for name in names}
        metadata = ClusterMetadata(
            cluster_id=cluster.cluster_id,
            nominal_size=cluster.nominal_size,
            num_rows=cluster.num_rows,
            dimensions=dims,
        )
        per_cluster[cluster.cluster_id] = metadata
        global_entries.append(metadata.global_entry())
    return MetadataStore(
        clusters=per_cluster,
        global_entries=tuple(global_entries),
        nominal_size=clustered.cluster_size,
        dense_index=_dense_index(clustered, names) if dense else None,
        cluster_ids=tuple(cluster.cluster_id for cluster in clustered),
    )


def patch_metadata(
    store: MetadataStore, clustered: ClusteredTable, first_affected: int
) -> MetadataStore:
    """Incrementally update a store after a compaction rebuilt a cluster suffix.

    Cluster positions ``[0, first_affected)`` of ``clustered`` are guaranteed
    by the compactor to hold exactly the rows they held when ``store`` was
    built, so their per-cluster metadata and their dense-index rows are
    reused verbatim; only positions ``>= first_affected`` run Algorithm 1
    again.  The result is indistinguishable from :func:`build_metadata` on
    the whole table — per-cluster computation is deterministic, so reused
    and recomputed entries agree bit for bit.

    Parameters
    ----------
    store:
        The provider's current metadata (built for the pre-compaction
        clustering).
    clustered:
        The post-compaction clustered table.
    first_affected:
        First cluster position whose contents changed (every position
        before it must be untouched).
    """
    if first_affected < 0:
        raise StorageError(f"first_affected must be >= 0, got {first_affected}")
    sample = next(iter(store.clusters.values()), None)
    names = (
        list(sample.dimensions)
        if sample is not None
        else list(clustered.schema.dimension_names)
    )
    clusters = clustered.clusters
    first_affected = min(first_affected, len(clusters))
    per_cluster: dict[int, ClusterMetadata] = {}
    global_entries: list[GlobalClusterEntry] = []
    for position, cluster in enumerate(clusters):
        if position < first_affected:
            metadata = store.clusters[cluster.cluster_id]
        else:
            metadata = ClusterMetadata(
                cluster_id=cluster.cluster_id,
                nominal_size=cluster.nominal_size,
                num_rows=cluster.num_rows,
                dimensions={
                    name: _dimension_metadata(cluster, name) for name in names
                },
            )
        per_cluster[cluster.cluster_id] = metadata
        global_entries.append(metadata.global_entry())
    dense_index: dict[str, DenseDimensionIndex] | None = None
    if store.dense_index is not None:
        dense_index = {}
        num_clusters = len(clusters)
        for name in names:
            old = store.dense_index[name]
            dimension = clustered.schema.dimension(name)
            rows_geq = np.zeros((num_clusters, dimension.domain_size + 1), dtype=np.int32)
            v_min = np.empty(num_clusters, dtype=np.int64)
            v_max = np.empty(num_clusters, dtype=np.int64)
            keep = min(first_affected, old.rows_geq.shape[0], num_clusters)
            rows_geq[:keep] = old.rows_geq[:keep]
            v_min[:keep] = old.v_min[:keep]
            v_max[:keep] = old.v_max[:keep]
            for position in range(keep, num_clusters):
                row, low, high = _dense_cluster_row(
                    clusters[position].rows.column(name), dimension
                )
                rows_geq[position] = row
                v_min[position] = low
                v_max[position] = high
            dense_index[name] = DenseDimensionIndex(
                domain_low=dimension.low,
                domain_high=dimension.high,
                rows_geq=rows_geq,
                v_min=v_min,
                v_max=v_max,
            )
    return MetadataStore(
        clusters=per_cluster,
        global_entries=tuple(global_entries),
        nominal_size=clustered.cluster_size,
        dense_index=dense_index,
        cluster_ids=tuple(cluster.cluster_id for cluster in clusters),
    )
