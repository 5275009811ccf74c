"""Contiguous columnar layout of a clustered table for vectorised execution.

A :class:`ClusterLayout` concatenates every cluster's columns into one
contiguous array per column and remembers the per-cluster segment offsets.
That is the substrate the batch query engine runs on: evaluating ``Q(C)``
for many ``(query, cluster)`` pairs becomes boolean-mask passes over the
contiguous columns followed by segmented reductions (``np.add.reduceat``)
instead of a Python loop over clusters.

On top of the raw segments the layout precomputes three acceleration
structures (all O(rows) to build, built once per layout):

* **zone maps** — per-cluster per-dimension ``[min, max]``, so a batch
  kernel can drop clusters a query cannot touch and short-circuit clusters a
  query fully covers to the precomputed segment sum without reading a row;
* **measure prefix sums** — ``measure_prefix[i]`` is the sum of the measure
  over rows ``[0, i)``, which turns any intra-segment row range into one
  subtraction;
* **sorted-dimension detection** — dimensions whose values are
  non-decreasing inside every segment can answer straddling predicates with
  two binary searches plus a prefix difference (``O(log rows)``).

Every kernel call uses all of it — there is one evaluation path and no
option selecting another.  :meth:`ClusterLayout.cluster_values_dense` keeps
the plain row scan as the oracle tests compare against; the two agree bit
for bit because integer sums are exact under any evaluation order.

The layout is a query-time acceleration structure only — clusters remain the
unit of storage, sampling, and metadata, exactly as in the paper.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from ..errors import StorageError
from ..utils.ragged import segment_ids

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..query.batch import QueryBatch

__all__ = [
    "ClusterLayout",
    "KernelTelemetry",
    "collect_kernel_telemetry",
    "telemetry_active",
    "merge_active_telemetry",
    "MAX_KERNEL_BYTES",
    "OPEN_LOW",
    "OPEN_HIGH",
]

# Sentinel bounds for dimensions a query leaves unconstrained: comparisons
# against any stored int64 value are always true, so unconstrained dimensions
# contribute an all-true factor to the row mask (and intersect every
# cluster's bounds in the metadata overlap masks), matching the single-query
# executor's semantics of simply skipping them.  Shared by every batch
# kernel — keep a single definition.
OPEN_LOW = np.iinfo(np.int64).min // 4
OPEN_HIGH = np.iinfo(np.int64).max // 4

# Peak-temporary budget of the row kernels.  Work whose intermediates would
# exceed it is evaluated tile by tile; a single (query, cluster) pair is never
# split, so the hard peak is max(MAX_KERNEL_BYTES, bytes per row * largest
# cluster).  A constant, not an option: one value has ever been in use and
# the 1.6M-row benchmark workload reaches it.
MAX_KERNEL_BYTES = 64 * 2**20

# Per-(query, row) temporary footprint of the dense kernels: one byte for the
# running mask, one for the comparison temporary, eight for the int64
# contributions row.
_DENSE_BYTES_PER_CELL = 10


@dataclass
class KernelTelemetry:
    """Work/memory counters of the layout kernels (opt-in, for tests/benches).

    Enabled through :func:`collect_kernel_telemetry`; the kernels skip the
    bookkeeping entirely when disabled.  Counters are process-global and not
    thread-safe — collect from a single thread.

    Attributes
    ----------
    pairs_total / pairs_pruned / pairs_covered / pairs_bisected / pairs_scanned:
        Classification of every (query, cluster) pair a kernel call
        considered: dropped by the zone maps, short-circuited to the segment
        sum, answered by sorted bisection, or row-evaluated.
    rows_evaluated:
        Rows actually read by the row-evaluation kernels (the dense oracle
        reads ``num_queries * num_rows``).
    tiles:
        Number of evaluation tiles the row kernels split their work into.
    max_tile_bytes:
        Largest estimated per-tile temporary footprint — bounded by
        :data:`MAX_KERNEL_BYTES` (up to one un-splittable cluster
        row-range).
    """

    pairs_total: int = 0
    pairs_pruned: int = 0
    pairs_covered: int = 0
    pairs_bisected: int = 0
    pairs_scanned: int = 0
    rows_evaluated: int = 0
    tiles: int = 0
    max_tile_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (for metric snapshots and benchmark records)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def merge_counts(self, counts: "Mapping[str, int]") -> None:
        """Add another collector's ``as_dict()`` into this one.

        The use case is folding worker processes' telemetry into the
        parent's collector.
        """
        for name, value in counts.items():
            if name in self.__dataclass_fields__:
                setattr(self, name, getattr(self, name) + value)


_telemetry: KernelTelemetry | None = None


@contextmanager
def collect_kernel_telemetry() -> Iterator[KernelTelemetry]:
    """Context manager enabling kernel telemetry for the enclosed calls."""
    global _telemetry
    previous = _telemetry
    _telemetry = KernelTelemetry()
    try:
        yield _telemetry
    finally:
        _telemetry = previous


def telemetry_active() -> bool:
    """Whether a :func:`collect_kernel_telemetry` collector is live.

    The process pool checks this before a phase call so workers only pay
    for telemetry collection when the parent is actually collecting.
    """
    return _telemetry is not None


def merge_active_telemetry(counts: "Mapping[str, int]") -> None:
    """Fold remote counters into the live collector (no-op when inactive).

    This is how process-pool workers' kernel work — invisible to the
    parent's context-var collector — lands in the same
    :class:`KernelTelemetry` an in-process run would have filled.
    """
    if _telemetry is not None:
        _telemetry.merge_counts(counts)


def _bounds_as(column: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """Cast query bounds to the column dtype without changing semantics.

    Narrowed columns store values strictly inside the narrow dtype's range,
    so clipping a bound into that range preserves every comparison outcome
    (out-of-range bounds keep selecting everything or nothing).  Matching
    dtypes avoids numpy upcasting the whole column to int64 per comparison.
    """
    if column.dtype == lows.dtype:
        return lows, highs
    info = np.iinfo(column.dtype)
    return (
        np.clip(lows, info.min, info.max).astype(column.dtype),
        np.clip(highs, info.min, info.max).astype(column.dtype),
    )


def _pair_tile_boundaries(lengths: np.ndarray, max_rows: int) -> np.ndarray:
    """Split a flat pair list into tiles of at most ``max_rows`` total rows.

    Returns tile boundary indices into the pair list (``[0, ..., n]``).
    Every tile holds at least one pair, so a single pair longer than the
    budget still forms its own tile — pairs are never split.
    """
    count = int(lengths.size)
    if count <= 1 or int(lengths.sum()) <= max_rows:
        # Fast path: everything fits in one tile — skip the per-pair loop
        # (the common case under the 64 MiB budget).
        return np.array([0, count], dtype=np.int64)
    boundaries = [0]
    running = 0
    for index in range(count):
        rows = int(lengths[index])
        if running and running + rows > max_rows:
            boundaries.append(index)
            running = 0
        running += rows
    boundaries.append(count)
    return np.array(boundaries, dtype=np.int64)


@dataclass(frozen=True)
class ClusterLayout:
    """Columns of every cluster concatenated contiguously, with offsets.

    Attributes
    ----------
    columns:
        One contiguous integer array per dimension (cluster-major order;
        int32 when the stored values fit, int64 otherwise).
    measure:
        Contiguous measure column (all ones for raw tables).
    starts:
        ``starts[i]`` is the first row of cluster position ``i``; segments are
        contiguous, so cluster ``i`` occupies ``starts[i]:starts[i] +
        cluster_rows[i]``.
    cluster_rows:
        Stored row count per cluster position.
    cluster_ids:
        Cluster identifier per position (position order == storage order).
    zone_min / zone_max:
        Per-dimension per-cluster value bounds (empty clusters carry
        inverted sentinel bounds, classifying them as zero-valued covered
        segments).  Derived, computed at construction.
    segment_sums:
        Measure total per cluster (``Q(C)`` of a fully covering query).
    measure_prefix:
        ``measure_prefix[i]`` = sum of ``measure[:i]`` (length ``rows + 1``).
    sorted_dimensions:
        Dimensions whose values are non-decreasing inside every segment —
        eligible for bisection kernels.
    """

    columns: Mapping[str, np.ndarray]
    measure: np.ndarray
    starts: np.ndarray
    cluster_rows: np.ndarray
    cluster_ids: tuple[int, ...]
    zone_min: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)
    zone_max: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)
    segment_sums: np.ndarray = field(init=False, repr=False, compare=False)
    measure_prefix: np.ndarray = field(init=False, repr=False, compare=False)
    sorted_dimensions: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_rows = int(self.measure.size)
        num_clusters = int(self.cluster_rows.size)
        nonempty = self.cluster_rows > 0
        starts_nonempty = self.starts[nonempty]
        # Segment sums: reduceat over the starts of the *non-empty* segments
        # only.  Empty segments contribute no rows, so consecutive non-empty
        # starts are exact segment boundaries and zero-length segments (which
        # np.add.reduceat mis-handles) never reach the ufunc.
        segment_sums = np.zeros(num_clusters, dtype=np.int64)
        if num_rows and starts_nonempty.size:
            segment_sums[nonempty] = np.add.reduceat(self.measure, starts_nonempty)
        measure_prefix = np.zeros(num_rows + 1, dtype=np.int64)
        if num_rows:
            np.cumsum(self.measure, out=measure_prefix[1:])
        zone_min: dict[str, np.ndarray] = {}
        zone_max: dict[str, np.ndarray] = {}
        sorted_dimensions: set[str] = set()
        # Row positions where a new segment begins (for sortedness checks the
        # comparison crossing a segment boundary is exempt).
        boundary = np.zeros(max(num_rows - 1, 0), dtype=bool)
        if num_rows > 1:
            interior = self.starts[1:]
            interior = interior[(interior > 0) & (interior < num_rows)]
            boundary[interior - 1] = True
        for name, column in self.columns.items():
            # Inverted sentinels make empty clusters "fully covered" by any
            # query box, so the kernels charge them their (zero) segment sum
            # without ever reaching the row path.
            low = np.full(num_clusters, OPEN_HIGH, dtype=np.int64)
            high = np.full(num_clusters, OPEN_LOW, dtype=np.int64)
            if num_rows and starts_nonempty.size:
                low[nonempty] = np.minimum.reduceat(column, starts_nonempty)
                high[nonempty] = np.maximum.reduceat(column, starts_nonempty)
            zone_min[name] = low
            zone_max[name] = high
            if num_rows <= 1 or bool(
                np.all((column[1:] >= column[:-1]) | boundary)
            ):
                sorted_dimensions.add(name)
        object.__setattr__(self, "zone_min", zone_min)
        object.__setattr__(self, "zone_max", zone_max)
        object.__setattr__(self, "segment_sums", segment_sums)
        object.__setattr__(self, "measure_prefix", measure_prefix)
        object.__setattr__(self, "sorted_dimensions", frozenset(sorted_dimensions))

    @classmethod
    def from_clusters(cls, clusters: Sequence) -> "ClusterLayout":
        """Build the contiguous layout from a sequence of clusters."""
        if not clusters:
            raise StorageError("a layout needs at least one cluster")
        schema = clusters[0].schema
        names = schema.dimension_names
        columns: dict[str, np.ndarray] = {}
        for name in names:
            column = np.ascontiguousarray(
                np.concatenate([cluster.rows.column(name) for cluster in clusters])
            )
            # Narrow to int32 when the dimension domain allows it: the mask
            # kernels are memory-bound, so halving the element width roughly
            # halves the gather/compare traffic.  Comparisons are exact in
            # either width; the measure stays int64 for overflow-safe sums.
            if column.size and np.iinfo(np.int32).min < column.min() and column.max() < np.iinfo(np.int32).max:
                column = column.astype(np.int32)
            columns[name] = column
        measure = np.ascontiguousarray(
            np.concatenate([cluster.rows.measure_column() for cluster in clusters])
        )
        cluster_rows = np.array([cluster.num_rows for cluster in clusters], dtype=np.int64)
        starts = np.zeros(len(clusters), dtype=np.int64)
        np.cumsum(cluster_rows[:-1], out=starts[1:])
        return cls(
            columns=columns,
            measure=measure,
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(cluster.cluster_id for cluster in clusters),
        )

    @classmethod
    def patched(
        cls,
        old: "ClusterLayout",
        keep_clusters: int,
        suffix_clusters: Sequence,
    ) -> "ClusterLayout":
        """Layout for ``old``'s first ``keep_clusters`` segments + a new suffix.

        The incremental-compaction constructor: the kept prefix is copied as
        one contiguous slice per column (no per-cluster re-concatenation) and
        only the suffix clusters' rows are gathered fresh.  Column dtypes are
        re-narrowed with exactly the :meth:`from_clusters` rule over the
        combined values, so the result is indistinguishable from a full
        rebuild of the same cluster sequence — the acceleration structures
        (zone maps, segment sums, prefix sums, sortedness) are recomputed in
        the usual single vectorised pass.
        """
        if not 0 <= keep_clusters <= old.num_clusters:
            raise StorageError(
                f"keep_clusters must be in [0, {old.num_clusters}], got {keep_clusters}"
            )
        if keep_clusters == 0 and not suffix_clusters:
            raise StorageError("a layout needs at least one cluster")
        prefix_rows = (
            old.num_rows
            if keep_clusters == old.num_clusters
            else int(old.starts[keep_clusters])
        )
        columns: dict[str, np.ndarray] = {}
        for name, column in old.columns.items():
            parts = [np.asarray(column[:prefix_rows], dtype=np.int64)]
            parts.extend(cluster.rows.column(name) for cluster in suffix_clusters)
            combined = np.ascontiguousarray(np.concatenate(parts))
            if (
                combined.size
                and np.iinfo(np.int32).min < combined.min()
                and combined.max() < np.iinfo(np.int32).max
            ):
                combined = combined.astype(np.int32)
            columns[name] = combined
        measure_parts = [old.measure[:prefix_rows]]
        measure_parts.extend(
            cluster.rows.measure_column() for cluster in suffix_clusters
        )
        measure = np.ascontiguousarray(np.concatenate(measure_parts))
        cluster_rows = np.concatenate(
            [
                old.cluster_rows[:keep_clusters],
                np.array([cluster.num_rows for cluster in suffix_clusters], dtype=np.int64),
            ]
        )
        starts = np.zeros(cluster_rows.size, dtype=np.int64)
        if cluster_rows.size:
            np.cumsum(cluster_rows[:-1], out=starts[1:])
        return cls(
            columns=columns,
            measure=measure,
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(old.cluster_ids[:keep_clusters])
            + tuple(cluster.cluster_id for cluster in suffix_clusters),
        )

    @property
    def num_clusters(self) -> int:
        """Number of cluster segments in the layout."""
        return int(self.cluster_rows.size)

    @property
    def num_rows(self) -> int:
        """Total number of rows across segments."""
        return int(self.measure.size)

    def position_of(self) -> dict[int, int]:
        """Mapping from cluster id to its position in the layout."""
        return {cluster_id: i for i, cluster_id in enumerate(self.cluster_ids)}

    def gather(self, positions: np.ndarray | Sequence[int]) -> "ClusterLayout":
        """Sub-layout holding only the clusters at ``positions`` (in order).

        Utility for extracting a materialised sub-layout (e.g. for ad-hoc
        analysis of a cluster subset).  The engine hot path does not copy
        sub-layouts — it uses :meth:`query_cluster_values`, which restricts
        each query to its own cluster positions without materialising.

        Rows are copied segment by segment with contiguous slice assignments
        (no per-row index array is materialised).
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size == 0:
            raise StorageError("gather needs at least one cluster position")
        cluster_rows = self.cluster_rows[positions]
        starts = np.zeros(positions.size, dtype=np.int64)
        np.cumsum(cluster_rows[:-1], out=starts[1:])
        total = int(cluster_rows.sum())

        def _gather_column(source: np.ndarray) -> np.ndarray:
            out = np.empty(total, dtype=source.dtype)
            for target_start, position, rows in zip(
                starts.tolist(), positions.tolist(), cluster_rows.tolist()
            ):
                source_start = int(self.starts[position])
                out[target_start : target_start + rows] = source[
                    source_start : source_start + rows
                ]
            return out

        return ClusterLayout(
            columns={name: _gather_column(column) for name, column in self.columns.items()},
            measure=_gather_column(self.measure),
            starts=starts,
            cluster_rows=cluster_rows,
            cluster_ids=tuple(self.cluster_ids[int(p)] for p in positions),
        )

    # -- vectorised evaluation ---------------------------------------------

    def row_masks(self, batch: "QueryBatch") -> np.ndarray:
        """Boolean ``(num_queries, num_rows)`` selection masks for a batch.

        One broadcast comparison per queried dimension per bound; dimensions a
        query does not constrain use open sentinel bounds and stay all-true.
        The result matrix is always fully materialised (it is the API), but
        the comparison temporaries are evaluated in query tiles sized to
        :data:`MAX_KERNEL_BYTES`.
        """
        num_queries = len(batch)
        masks = np.ones((num_queries, self.num_rows), dtype=bool)
        if self.num_rows == 0:
            return masks
        bounds = self._checked_bounds(batch)
        query_tile = self._query_tile(num_queries)
        for start in range(0, num_queries, query_tile):
            stop = min(start + query_tile, num_queries)
            self._fill_masks(masks[start:stop], bounds, slice(start, stop))
        return masks

    def _checked_bounds(self, batch: "QueryBatch"):
        bounds = batch.bounds(OPEN_LOW, OPEN_HIGH)
        for name in bounds:
            if name not in self.columns:
                raise StorageError(f"layout has no column {name!r}")
        return bounds

    def _fill_masks(
        self,
        out: np.ndarray,
        bounds: Mapping[str, tuple[np.ndarray, np.ndarray]],
        query_slice: slice,
        row_slice: slice | None = None,
    ) -> None:
        """AND every dimension's range test into ``out`` (pre-set to True)."""
        for name, (lows, highs) in bounds.items():
            column = self.columns[name]
            if row_slice is not None:
                column = column[row_slice]
            lows, highs = _bounds_as(column, lows[query_slice], highs[query_slice])
            np.logical_and(out, column[None, :] >= lows[:, None], out=out)
            np.logical_and(out, column[None, :] <= highs[:, None], out=out)

    def _query_tile(self, num_queries: int) -> int:
        """Queries per dense tile: as many full-row passes as the budget holds."""
        cells = max(1, MAX_KERNEL_BYTES // _DENSE_BYTES_PER_CELL)
        return int(min(num_queries, max(1, cells // self.num_rows)))

    def cluster_values(self, batch: "QueryBatch") -> np.ndarray:
        """Exact ``Q(C)`` for every (query, cluster) pair — ``(nq, nc)`` int64.

        The per-cluster primitive of the paper, vectorised: the all-pairs
        call into the same classify / bisect / row-scan routine that
        :meth:`query_cluster_values` serves requested pairs with.
        """
        num_queries = len(batch)
        num_clusters = self.num_clusters
        if self.num_rows == 0:
            return np.zeros((num_queries, num_clusters), dtype=np.int64)
        bounds = self._checked_bounds(batch)
        pair_query = np.repeat(np.arange(num_queries, dtype=np.int64), num_clusters)
        pair_positions = np.tile(np.arange(num_clusters, dtype=np.int64), num_queries)
        return self._evaluate_pairs(bounds, pair_query, pair_positions).reshape(
            num_queries, num_clusters
        )

    def cluster_values_dense(self, batch: "QueryBatch") -> np.ndarray:
        """Test oracle for :meth:`cluster_values`: read every row for every query.

        No zone maps, no segment-sum short-circuit, no bisection — one
        boolean mask per (query, row) and a segmented reduction, tiled under
        :data:`MAX_KERNEL_BYTES` in query blocks × runs of whole segments.
        Tests and the scale benchmark compare against it; the engine never
        calls it.
        """
        num_queries = len(batch)
        num_rows = self.num_rows
        num_clusters = self.num_clusters
        result = np.zeros((num_queries, num_clusters), dtype=np.int64)
        if num_rows == 0:
            return result
        bounds = self._checked_bounds(batch)
        nonempty = self.cluster_rows > 0
        telemetry = _telemetry
        query_tile = self._query_tile(num_queries)
        # A single segment larger than the budget still forms its own chunk —
        # segments are never split, so the segmented reduction stays one
        # ``reduceat`` per chunk and the hard peak is one segment's rows per
        # query row.
        cells = max(1, MAX_KERNEL_BYTES // _DENSE_BYTES_PER_CELL)
        chunks = _pair_tile_boundaries(self.cluster_rows, max(1, cells // query_tile))
        for q_start in range(0, num_queries, query_tile):
            q_stop = min(q_start + query_tile, num_queries)
            query_slice = slice(q_start, q_stop)
            for c_start, c_stop in zip(chunks[:-1].tolist(), chunks[1:].tolist()):
                row_start = int(self.starts[c_start])
                row_stop = (
                    num_rows
                    if c_stop >= num_clusters
                    else int(self.starts[c_stop])
                )
                if row_stop == row_start:
                    continue
                row_slice = slice(row_start, row_stop)
                masks = np.ones((q_stop - q_start, row_stop - row_start), dtype=bool)
                self._fill_masks(masks, bounds, query_slice, row_slice)
                contributions = masks * self.measure[None, row_slice]
                chunk_nonempty = nonempty[c_start:c_stop]
                chunk_starts = self.starts[c_start:c_stop][chunk_nonempty] - row_start
                if chunk_starts.size:
                    result[query_slice, c_start:c_stop][:, chunk_nonempty] = (
                        np.add.reduceat(contributions, chunk_starts, axis=1)
                    )
                if telemetry is not None:
                    telemetry.tiles += 1
                    telemetry.rows_evaluated += masks.size
                    telemetry.max_tile_bytes = max(
                        telemetry.max_tile_bytes, masks.size * _DENSE_BYTES_PER_CELL
                    )
        return result

    def query_cluster_values(
        self,
        batch: "QueryBatch",
        pair_positions: np.ndarray,
        offsets: np.ndarray,
    ) -> np.ndarray:
        """Exact ``Q(C)`` for each query's own cluster positions, in one pass.

        The requested pairs come as one flat array plus offsets: query ``i``
        of the batch asks for the clusters at
        ``pair_positions[offsets[i]:offsets[i + 1]]``, and the returned
        int64 array holds their values in the same order.  Unlike
        :meth:`cluster_values`, which evaluates every query against every
        cluster of the layout, this kernel touches exactly the
        (query, cluster) pairs requested.
        """
        num_queries = len(batch)
        pair_positions = np.asarray(pair_positions, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if (
            offsets.shape != (num_queries + 1,)
            or pair_positions.ndim != 1
            or offsets[0] != 0
            or offsets[-1] != pair_positions.size
            or np.any(offsets[1:] < offsets[:-1])
        ):
            raise StorageError(
                f"offsets must hold {num_queries + 1} non-decreasing entries from 0 "
                f"to the {pair_positions.size} requested pairs, one segment per "
                f"query of the batch"
            )
        if pair_positions.size == 0:
            return np.zeros(0, dtype=np.int64)
        if pair_positions.min() < 0 or pair_positions.max() >= self.num_clusters:
            raise StorageError(
                f"cluster positions must be in [0, {self.num_clusters}), got "
                f"[{int(pair_positions.min())}, {int(pair_positions.max())}]"
            )
        bounds = self._checked_bounds(batch)
        return self._evaluate_pairs(bounds, segment_ids(offsets), pair_positions)

    def _evaluate_pairs(
        self, bounds, pair_query: np.ndarray, pair_positions: np.ndarray
    ) -> np.ndarray:
        """Exact ``Q(C)`` of a flat (query, cluster) pair list — the one path.

        Each pair is first classified against the zone maps: a pair whose
        boxes cannot overlap is zero, a cluster fully inside the query box is
        its precomputed segment sum — no row is touched in either case.  Of
        the straddling rest, pairs whose only straddling dimension is sorted
        inside the segment bisect, and only what remains is row-evaluated.
        """
        total_pairs = int(pair_query.size)
        overlap = np.ones(total_pairs, dtype=bool)
        covered = np.ones(total_pairs, dtype=bool)
        # Kept per dimension so the bisection step can recognise pairs
        # straddling on exactly one (sorted) dimension.
        covered_per_dim: dict[str, np.ndarray] = {}
        for name, (lows, highs) in bounds.items():
            zone_low = self.zone_min[name][pair_positions]
            zone_high = self.zone_max[name][pair_positions]
            query_lows = lows[pair_query]
            query_highs = highs[pair_query]
            overlap &= (zone_high >= query_lows) & (zone_low <= query_highs)
            covered_dim = (zone_low >= query_lows) & (zone_high <= query_highs)
            covered &= covered_dim
            covered_per_dim[name] = covered_dim
        pair_values = np.zeros(total_pairs, dtype=np.int64)
        pair_values[covered] = self.segment_sums[pair_positions[covered]]
        straddle = overlap & ~covered
        if _telemetry is not None:
            _telemetry.pairs_total += total_pairs
            _telemetry.pairs_covered += int(covered.sum())
            _telemetry.pairs_pruned += int((~overlap & ~covered).sum())
        if straddle.any():
            self._bisect_pairs(
                bounds, covered_per_dim, straddle, pair_query, pair_positions, pair_values
            )
        remaining = np.flatnonzero(straddle)
        if remaining.size:
            pair_values[remaining] = self._pair_values(
                bounds, pair_query[remaining], pair_positions[remaining]
            )
        return pair_values

    def _bisect_pairs(
        self,
        bounds,
        covered_per_dim: Mapping[str, np.ndarray],
        straddle: np.ndarray,
        pair_query: np.ndarray,
        pair_positions: np.ndarray,
        pair_values: np.ndarray,
    ) -> None:
        """Answer straddling pairs sorted on their only straddling dimension.

        A pair is eligible for dimension ``d`` when the layout is sorted on
        ``d`` and the cluster is fully covered on every *other* constrained
        dimension — the row predicate then reduces to the ``d`` range, so two
        binary searches over the segment plus a measure-prefix difference
        give the exact sum.  Eligible pairs are cleared from ``straddle``.
        """
        prefix = self.measure_prefix
        for name in bounds:
            if name not in self.sorted_dimensions:
                continue
            eligible = straddle.copy()
            for other, covered_dim in covered_per_dim.items():
                if other != name:
                    eligible &= covered_dim
            if not eligible.any():
                continue
            lows, highs = bounds[name]
            column = self.columns[name]
            indices = np.flatnonzero(eligible)
            values = np.empty(indices.size, dtype=np.int64)
            for slot, (query, position) in enumerate(
                zip(pair_query[indices].tolist(), pair_positions[indices].tolist())
            ):
                start = int(self.starts[position])
                segment = column[start : start + int(self.cluster_rows[position])]
                low_row = start + int(np.searchsorted(segment, lows[query], side="left"))
                high_row = start + int(np.searchsorted(segment, highs[query], side="right"))
                values[slot] = prefix[high_row] - prefix[low_row]
            pair_values[indices] = values
            if _telemetry is not None:
                _telemetry.pairs_bisected += int(indices.size)
            straddle &= ~eligible
            if not straddle.any():
                return

    def _pair_values(
        self, bounds, pair_query: np.ndarray, pair_positions: np.ndarray
    ) -> np.ndarray:
        """Row-evaluate arbitrary (query, cluster) pairs, tiled to the budget.

        Per-query bounds are expanded to per-row bounds with ``np.repeat``;
        one boolean-mask pass plus one ``np.add.reduceat`` serves every pair
        of a tile.  Total work equals the sum of the requested cluster sizes
        — the same rows a per-query loop would scan.
        """
        lengths = self.cluster_rows[pair_positions]
        values = np.zeros(lengths.size, dtype=np.int64)
        bytes_per_row = self._bytes_per_pair_row(bounds)
        telemetry = _telemetry
        tile_bounds = _pair_tile_boundaries(
            lengths, max(1, MAX_KERNEL_BYTES // bytes_per_row)
        )
        for tile_index in range(tile_bounds.size - 1):
            tile = slice(int(tile_bounds[tile_index]), int(tile_bounds[tile_index + 1]))
            tile_lengths = lengths[tile]
            total = int(tile_lengths.sum())
            if total == 0:
                continue
            tile_positions = pair_positions[tile]
            tile_queries = pair_query[tile]
            offsets = np.zeros(tile_lengths.size, dtype=np.int64)
            np.cumsum(tile_lengths[:-1], out=offsets[1:])
            rows = (
                np.repeat(self.starts[tile_positions] - offsets, tile_lengths)
                + np.arange(total, dtype=np.int64)
            )
            mask = np.ones(total, dtype=bool)
            for name, (lows, highs) in bounds.items():
                column = self.columns[name][rows]
                dim_lows, dim_highs = _bounds_as(column, lows, highs)
                row_lows = np.repeat(dim_lows[tile_queries], tile_lengths)
                row_highs = np.repeat(dim_highs[tile_queries], tile_lengths)
                np.logical_and(mask, column >= row_lows, out=mask)
                np.logical_and(mask, column <= row_highs, out=mask)
            contributions = self.measure[rows] * mask
            # reduceat over non-empty pair offsets only: zero-length pairs
            # keep their zero and never reach the ufunc (which would
            # otherwise return the element at the segment start).
            tile_nonempty = tile_lengths > 0
            red_offsets = offsets[tile_nonempty]
            tile_values = np.zeros(tile_lengths.size, dtype=np.int64)
            if red_offsets.size:
                tile_values[tile_nonempty] = np.add.reduceat(contributions, red_offsets)
            values[tile] = tile_values
            if telemetry is not None:
                telemetry.tiles += 1
                telemetry.rows_evaluated += total
                telemetry.pairs_scanned += int(tile_nonempty.sum())
                telemetry.max_tile_bytes = max(
                    telemetry.max_tile_bytes, total * bytes_per_row
                )
        return values

    def _bytes_per_pair_row(self, bounds) -> int:
        """Per-row temporary footprint estimate of the flattened pair kernel.

        Row index (8) + mask (1) + int64 contributions (8) + per constrained
        dimension a gathered column copy, two repeated bound rows, and a
        comparison temporary.
        """
        per_dim = 0
        for name in bounds:
            itemsize = int(self.columns[name].itemsize)
            per_dim += 3 * itemsize + 1
        return 17 + per_dim

    def memory_bytes(self) -> int:
        """Approximate footprint of the contiguous arrays."""
        total = self.measure.nbytes + self.starts.nbytes + self.cluster_rows.nbytes
        total += self.segment_sums.nbytes + self.measure_prefix.nbytes
        total += sum(array.nbytes for array in self.zone_min.values())
        total += sum(array.nbytes for array in self.zone_max.values())
        return int(total + sum(column.nbytes for column in self.columns.values()))
