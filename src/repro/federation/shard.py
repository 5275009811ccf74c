"""Sharded provider: one logical provider, its table split across K workers.

A :class:`ShardedProvider` is a drop-in :class:`~repro.federation.provider.DataProvider`
whose *data passes* — the metadata scan that materialises a query's covering
set and the ``Q(C)`` evaluation over the selected clusters — run per shard
over contiguous slices of the clustered layout.  Everything that carries DP
semantics stays on the merger: the noise draws, the Exponential-Mechanism
selection, the release caches, the delta store, and the per-query session
RNG streams (keyed by ``seed_material`` exactly as in the base class).
Splitting the *where the data lives* axis while keeping the *where the
randomness lives* axis intact is what makes the merged answer bit-for-bit
the unsharded answer:

- Shard boundaries are chosen by
  :func:`~repro.federation.partitioning.work_balanced_chunks` over the
  per-cluster row counts, so shards are contiguous cluster ranges in
  layout order.  Concatenating per-shard results in shard order therefore
  reproduces the global layout order exactly.
- Cluster metadata (zone maps, per-cluster proportions) is local to each
  cluster, so a shard's metadata pass computes the *same values* the
  global pass would for the clusters it owns — element-wise identical
  arrays, not merely close.  The merger joins the shards' flat arrays into
  the global flat form and the base class takes one sum per query over it,
  never partial sums, so float non-associativity cannot creep in.
- ``Q(C)`` values are exact integer sums per cluster; concatenation in
  layout order makes the per-query value vectors identical to the
  unsharded ones.

Shards are rebuilt lazily whenever the provider's layout epoch moves
(compaction, :meth:`~repro.federation.provider.DataProvider.rebuild_layout`),
so ingest and re-clustering keep working unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ProtocolError
from ..obs.trace import ambient_span
from ..storage.cluster import Cluster
from ..storage.clustered_table import ClusteredTable
from ..storage.metadata import build_metadata
from ..utils.ragged import segment_ids, segment_offsets
from .partitioning import work_balanced_chunks
from .provider import DataProvider

__all__ = ["ShardedProvider"]


@dataclass
class _Shard:
    """One contiguous cluster range of the provider's layout."""

    start: int
    clustered: ClusteredTable
    metadata: object

    @property
    def num_clusters(self) -> int:
        return self.clustered.num_clusters


@dataclass
class ShardedProvider(DataProvider):
    """A provider whose data passes fan out over ``shard_workers`` shards.

    Behaviourally identical to :class:`~repro.federation.provider.DataProvider`
    — same messages, same noise, same caches, same epsilon accounting —
    with the two table-scanning passes split across contiguous shards of
    the clustered layout (see the module docstring for the determinism
    argument).  ``shard_workers`` is the *target* shard count; the
    work-balanced packing may produce fewer shards for small tables.
    """

    shard_workers: int = 1
    _shards: list[_Shard] | None = field(default=None, init=False, repr=False)
    _shard_epoch: int = field(default=-1, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.shard_workers < 1:
            raise ProtocolError(
                f"shard_workers must be >= 1, got {self.shard_workers}"
            )
        super().__post_init__()

    @property
    def shard_count(self) -> int:
        """Number of shards the current layout is split into."""
        return len(self._ensure_shards())

    def _ensure_shards(self) -> list[_Shard]:
        if self._shards is not None and self._shard_epoch == self._layout_epoch:
            return self._shards
        clusters = self.clustered.clusters
        row_counts = [float(cluster.num_rows) for cluster in clusters]
        budget = max(1.0, math.ceil(sum(row_counts) / self.shard_workers))
        chunks = work_balanced_chunks(list(range(len(clusters))), row_counts, budget)
        shards: list[_Shard] = []
        start = 0
        for chunk in chunks:
            members = clusters[start : start + len(chunk)]
            local = ClusteredTable(
                clusters=tuple(
                    Cluster(
                        cluster_id=position,
                        rows=member.rows,
                        nominal_size=self.cluster_size,
                    )
                    for position, member in enumerate(members)
                ),
                cluster_size=self.cluster_size,
            )
            shards.append(
                _Shard(start=start, clustered=local, metadata=build_metadata(local))
            )
            start += len(chunk)
        self._shards = shards
        self._shard_epoch = self._layout_epoch
        return shards

    # -- sharded data passes ---------------------------------------------------

    def _covering_pass(self, ranges_list):
        shards = self._ensure_shards()
        num_queries = len(ranges_list)
        parts = []
        for shard_index, shard in enumerate(shards):
            with ambient_span(
                "shard.metadata_pass",
                provider=self.provider_id,
                shard=shard_index,
                queries=num_queries,
            ):
                positions = shard.metadata.covering_positions_batch(ranges_list)
                proportions = shard.metadata.proportions_at_positions_batch(
                    positions, ranges_list
                )
            parts.append((positions.flat + shard.start, proportions.flat, positions.counts))
        # Shards are contiguous ranges in layout order, so a stable sort of
        # the shard-major concatenation by owning query lines up, per query,
        # every shard's (ascending) positions in shard order: exactly the
        # global ascending covering set.
        owners = np.concatenate(
            [np.repeat(np.arange(num_queries), counts) for _, _, counts in parts]
        )
        order = np.argsort(owners, kind="stable")
        return (
            np.concatenate([positions for positions, _, _ in parts])[order],
            np.concatenate([proportions for _, proportions, _ in parts])[order],
            np.sum([counts for _, _, counts in parts], axis=0),
        )

    def _query_cluster_values(self, batch, pair_positions, offsets) -> np.ndarray:
        shards = self._ensure_shards()
        owners = segment_ids(offsets)
        values = np.zeros(pair_positions.size, dtype=np.int64)
        for shard_index, shard in enumerate(shards):
            # A mask keeps the pair order, so the shard's pairs stay grouped
            # by owning query and its values scatter straight back.
            local = (pair_positions >= shard.start) & (
                pair_positions < shard.start + shard.num_clusters
            )
            if not local.any():
                continue
            with ambient_span(
                "shard.scan",
                provider=self.provider_id,
                shard=shard_index,
                clusters=int(local.sum()),
            ):
                values[local] = shard.clustered.layout().query_cluster_values(
                    batch,
                    pair_positions[local] - shard.start,
                    segment_offsets(np.bincount(owners[local], minlength=len(batch))),
                )
        return values
