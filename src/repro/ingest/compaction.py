"""Folding buffered deltas into the clustered layout, incrementally.

Compaction is the layout-maintenance half of the ingestion subsystem: it
turns the provider's append buffer back into clustered, metadata-indexed,
zone-mapped storage without a stop-the-world rebuild.  The correctness
anchor is exact equivalence — **compact-then-query must be bit-identical to
rebuilding the provider from scratch on the union of rows** — which the
incremental fold achieves by exploiting how
:meth:`~repro.storage.clustered_table.ClusteredTable.from_table` chunks its
input:

* ``"sequential"`` policy: every cluster except the last is full, so a full
  rebuild on ``base ++ deltas`` leaves all full clusters untouched; only the
  trailing partial cluster absorbs delta rows and fresh clusters append
  after it.  The fold re-clusters exactly that tail.
* ``"sorted"`` policy: a full rebuild stable-sorts ``base ++ deltas`` by the
  sort key.  Rows strictly before the insertion point of the smallest delta
  key keep their positions (stable sort: old rows precede equal-keyed new
  rows), so every cluster before ``insertion_point // S`` is untouched; the
  suffix is re-merged (old suffix rows are already key-sorted in layout
  order, deltas merge in stably behind equal keys) and re-chunked.
* ``"sorted"`` with an *intra*-sort on a different dimension scrambles the
  recoverable tie order, so the fold falls back to a (still bit-identical)
  full rebuild on the union — see :func:`incremental_eligible`.

The fold reuses the untouched prefix wholesale: prefix
:class:`~repro.storage.cluster.Cluster` objects are shared, the new
:class:`~repro.storage.layout.ClusterLayout` copies the prefix columns as
single contiguous slices (:meth:`~repro.storage.layout.ClusterLayout.patched`),
and :func:`~repro.storage.metadata.patch_metadata` recomputes Algorithm-1
metadata only for the rebuilt suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import IngestConfig
from ..errors import IngestError
from ..obs.trace import ambient_span
from ..storage.cluster import Cluster
from ..storage.clustered_table import ClusteredTable
from ..storage.layout import ClusterLayout
from ..storage.schema import Schema
from ..storage.table import Table

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "Compactor",
    "changed_bounds",
    "fold_into_clustered",
    "incremental_eligible",
]


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold the delta buffer back into the clustered layout.

    The thresholds mirror :class:`~repro.config.IngestConfig`; the online
    trade-off is classic layout maintenance — every deferred fold keeps
    appends O(1) but grows the unclustered share every query must scan
    exactly, while every fold pays a tail re-cluster to restore pruning.
    """

    max_delta_rows: int = 4096
    max_delta_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.max_delta_rows < 1:
            raise IngestError(
                f"max_delta_rows must be >= 1, got {self.max_delta_rows}"
            )
        if self.max_delta_fraction is not None and not 0 < self.max_delta_fraction <= 1:
            raise IngestError(
                f"max_delta_fraction must be in (0, 1], got {self.max_delta_fraction}"
            )

    @classmethod
    def from_config(cls, config: IngestConfig) -> "CompactionPolicy":
        """Build the policy from the system-level ingest configuration."""
        return cls(
            max_delta_rows=config.max_delta_rows,
            max_delta_fraction=config.max_delta_fraction,
        )

    def due(self, delta_rows: int, clustered_rows: int) -> bool:
        """True when the buffered delta should be folded now."""
        if delta_rows <= 0:
            return False
        if delta_rows >= self.max_delta_rows:
            return True
        if self.max_delta_fraction is not None:
            return delta_rows > self.max_delta_fraction * max(clustered_rows, 1)
        return False


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction did to one provider.

    Attributes
    ----------
    provider_id:
        The compacted provider.
    rows_folded:
        Delta rows folded into the clustered layout.
    first_affected_position:
        First cluster position that was re-clustered; everything before it
        was reused verbatim (clusters, layout columns, metadata entries).
    clusters_before, clusters_after:
        Cluster counts around the fold.
    layout_epoch:
        The provider's layout epoch after the fold (always bumped).
    incremental:
        True for the tail-fold path, False for the full-rebuild fallback.
    cache_entries_purged, cache_entries_retained:
        Release-cache entries dropped because the fold could change their
        answers vs. entries re-tagged to the new epoch and kept servable.
    """

    provider_id: str
    rows_folded: int
    first_affected_position: int
    clusters_before: int
    clusters_after: int
    layout_epoch: int
    incremental: bool
    cache_entries_purged: int = 0
    cache_entries_retained: int = 0

    def as_dict(self) -> dict:
        """Flat numeric/flag view for the metrics registry and bench harness."""
        return {
            "rows_folded": self.rows_folded,
            "first_affected_position": self.first_affected_position,
            "clusters_before": self.clusters_before,
            "clusters_after": self.clusters_after,
            "layout_epoch": self.layout_epoch,
            "incremental": int(self.incremental),
            "cache_entries_purged": self.cache_entries_purged,
            "cache_entries_retained": self.cache_entries_retained,
        }


def incremental_eligible(
    clustering_policy: str, sort_by: str | None, intra_sort_by: str | None, schema: Schema
) -> bool:
    """Can a delta fold reuse the untouched cluster prefix?

    The ``"sequential"`` policy always can.  The ``"sorted"`` policy can
    unless clusters are intra-sorted on a *different* dimension: the fold
    then cannot recover the global key order's tie-breaking from the stored
    clusters, so equivalence requires the full-rebuild fallback.
    """
    if clustering_policy == "sequential":
        return True
    key = sort_by or schema.dimension_names[0]
    return intra_sort_by is None or intra_sort_by == key


def changed_bounds(
    old_layout: ClusterLayout, new_layout: ClusterLayout, first_affected: int
) -> dict[str, tuple[int, int]]:
    """Bounding box of every cluster a fold removed, rewrote, or added.

    Per dimension, the union of the zone bounds of the old and new
    clusters at positions ``>= first_affected`` (empty clusters carry
    inverted sentinels and contribute nothing).  A query box disjoint
    from this region on any dimension cannot have covered a changed
    cluster before the fold nor cover one after it.
    """
    bounds: dict[str, tuple[int, int]] = {}
    for name in new_layout.columns:
        lows: list[int] = []
        highs: list[int] = []
        for layout in (old_layout, new_layout):
            nonempty = layout.cluster_rows[first_affected:] > 0
            if nonempty.any():
                lows.append(int(layout.zone_min[name][first_affected:][nonempty].min()))
                highs.append(int(layout.zone_max[name][first_affected:][nonempty].max()))
        if lows:
            bounds[name] = (min(lows), max(highs))
    return bounds


def fold_into_clustered(
    clustered: ClusteredTable,
    deltas: Table,
    *,
    clustering_policy: str,
    sort_by: str | None,
    intra_sort_by: str | None,
) -> tuple[ClusteredTable, int]:
    """Fold ``deltas`` into ``clustered``, re-clustering only the tail.

    Returns ``(new_clustered, first_affected_position)``.  The result is
    bit-identical — cluster boundaries, membership, row order, and layout
    column dtypes — to
    :meth:`ClusteredTable.from_table(base ++ deltas, ...)
    <repro.storage.clustered_table.ClusteredTable.from_table>` for the same
    settings; callers must have checked :func:`incremental_eligible` first.
    """
    if deltas.num_rows == 0:
        return clustered, clustered.num_clusters
    size = clustered.cluster_size
    schema = clustered.schema
    clusters = clustered.clusters
    if clustering_policy == "sequential":
        if clustered.num_rows == 0:
            # The empty-table placeholder cluster is dropped, exactly as a
            # fresh from_table on the (now non-empty) union would.
            first = 0
        elif clusters[-1].num_rows < size:
            first = len(clusters) - 1
        else:
            first = len(clusters)
        suffix_parts = [
            cluster.rows for cluster in clusters[first:] if cluster.num_rows > 0
        ]
        suffix_parts.append(deltas)
        suffix = Table.concat(suffix_parts)
    elif clustering_policy == "sorted":
        key = sort_by or schema.dimension_names[0]
        if clustered.num_rows == 0:
            first = 0
        else:
            # Stable sort of (base ++ deltas): rows strictly before the
            # insertion point of the smallest delta key keep their global
            # positions, so clusters before insert // S are untouched.
            key_column = clustered.layout().columns[key]
            smallest = int(deltas.column(key).min())
            insert = int(np.searchsorted(key_column, smallest, side="right"))
            first = insert // size
        old_rows = [
            cluster.rows for cluster in clusters[first:] if cluster.num_rows > 0
        ]
        union = Table.concat(old_rows + [deltas])
        # Old suffix rows arrive already key-sorted with the full rebuild's
        # tie order, and they precede the deltas, so one stable argsort
        # reproduces the rebuild's suffix ordering exactly.
        suffix = union.take(np.argsort(union.column(key), kind="stable"))
    else:
        raise IngestError(f"unknown clustering policy: {clustering_policy!r}")
    new_clusters: list[Cluster] = []
    for offset, start in enumerate(range(0, suffix.num_rows, size)):
        chunk = suffix.slice(start, start + size)
        if intra_sort_by is not None and chunk.num_rows > 1:
            chunk = chunk.take(np.argsort(chunk.column(intra_sort_by), kind="stable"))
        new_clusters.append(
            Cluster(cluster_id=first + offset, rows=chunk, nominal_size=size)
        )
    combined = ClusteredTable(
        clusters=tuple(clusters[:first]) + tuple(new_clusters), cluster_size=size
    )
    # Install the incrementally patched layout (prefix columns copied as
    # contiguous slices) in place of the lazy per-cluster rebuild.
    combined._layout = ClusterLayout.patched(clustered.layout(), first, new_clusters)
    return combined, first


@dataclass
class Compactor:
    """Policy-driven compaction driver for one or many providers.

    A thin orchestration shim: the actual fold lives in
    :meth:`DataProvider.compact <repro.federation.provider.DataProvider.compact>`
    (which owns the epoch bump and cache retention); the compactor decides
    *when* to invoke it.
    """

    policy: CompactionPolicy = field(default_factory=CompactionPolicy)

    def due(self, provider) -> bool:
        """True when ``provider``'s delta buffer should be folded now."""
        return self.policy.due(provider.delta_rows, provider.num_rows)

    def maybe_compact(self, provider) -> CompactionReport | None:
        """Compact ``provider`` if the policy says so and no sessions are open."""
        if not self.due(provider) or provider.num_open_sessions:
            return None
        with ambient_span(
            "ingest.compaction",
            provider=provider.provider_id,
            delta_rows=provider.delta_rows,
        ):
            return provider.compact()
