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
  arrays, not merely close.  The merger concatenates the arrays and takes
  one sum, never partial sums, so float non-associativity cannot creep in.
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
from typing import Sequence

import numpy as np

from ..errors import ProtocolError
from ..obs.trace import ambient_span
from ..query.batch import QueryBatch
from ..storage.cluster import Cluster
from ..storage.clustered_table import ClusteredTable
from ..storage.metadata import build_metadata
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

    def _materialize_sessions(self, sessions) -> None:
        lazy = [session for session in sessions if session.covering_positions is None]
        if not lazy:
            return
        shards = self._ensure_shards()
        if len(shards) == 1:
            super()._materialize_sessions(sessions)
            return
        ranges_list = [session.query.range_tuples() for session in lazy]
        per_shard_positions = []
        per_shard_proportions = []
        for shard_index, shard in enumerate(shards):
            with ambient_span(
                "shard.metadata_pass",
                provider=self.provider_id,
                shard=shard_index,
                queries=len(lazy),
            ):
                positions_list = shard.metadata.covering_positions_batch(ranges_list)
                per_shard_positions.append(positions_list)
                per_shard_proportions.append(
                    shard.metadata.proportions_at_positions_batch(
                        positions_list, ranges_list
                    )
                )
        for query_index, session in enumerate(lazy):
            # Shards are contiguous ranges in layout order, so offsetting each
            # shard's (ascending) local positions and concatenating in shard
            # order reproduces the global ascending covering set exactly.
            positions = np.concatenate(
                [
                    per_shard_positions[shard_index][query_index] + shard.start
                    for shard_index, shard in enumerate(shards)
                ]
            )
            proportions = np.concatenate(
                [
                    per_shard_proportions[shard_index][query_index]
                    for shard_index in range(len(shards))
                ]
            )
            session.covering_positions = positions
            session.proportions = proportions
            session.proportions_sum = (
                float(proportions.sum()) if positions.size else 0.0
            )

    def _needed_values(self, plans) -> list[np.ndarray]:
        shards = self._ensure_shards()
        if len(shards) == 1:
            return super()._needed_values(plans)
        batch = QueryBatch(tuple(plan.session.query for plan in plans))
        positions_per_query = [
            plan.needed_positions if plan.exact else plan.unique_positions
            for plan in plans
        ]
        boundaries = [shard.start for shard in shards] + [self.clustered.num_clusters]
        gathered: list[list[np.ndarray]] = [[] for _ in plans]
        for shard_index, shard in enumerate(shards):
            local_positions = []
            for positions in positions_per_query:
                low = np.searchsorted(positions, boundaries[shard_index], side="left")
                high = np.searchsorted(
                    positions, boundaries[shard_index + 1], side="left"
                )
                local_positions.append(positions[low:high] - shard.start)
            if not any(positions.size for positions in local_positions):
                continue
            with ambient_span(
                "shard.scan",
                provider=self.provider_id,
                shard=shard_index,
                clusters=int(sum(p.size for p in local_positions)),
            ):
                shard_values = shard.clustered.layout().query_cluster_values(
                    batch, local_positions
                )
            for query_index, values in enumerate(shard_values):
                if values.size:
                    gathered[query_index].append(values)
        values_list = [
            np.concatenate(parts)
            if parts
            else np.zeros(0, dtype=np.int64)
            for parts in gathered
        ]
        values: list[np.ndarray] = []
        for plan, unique_values in zip(plans, values_list):
            if plan.exact or plan.needed_positions.size == 0:
                values.append(unique_values)
                continue
            indices = np.searchsorted(plan.unique_positions, plan.needed_positions)
            values.append(unique_values[indices])
        return values
