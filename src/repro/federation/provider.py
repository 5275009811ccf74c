"""Data provider: one participant of the horizontal federation.

A provider owns a horizontal partition of the global table stored as clusters
(plus the Algorithm-1 metadata built offline), keeps its rows strictly local,
and exposes the three protocol interactions of Figure 3(a) — each in a
single-query and a batched form:

1. :meth:`prepare_summary` / :meth:`prepare_summary_batch` — identify the
   covering clusters ``C^Q``, compute the approximate proportions ``R̂`` from
   metadata, and release the noisy summary ``(Ñ^Q, ~Avg(R̂))`` under
   ``eps_O`` (Equation 5).  The batched form evaluates every query's covering
   mask and proportions against the dense metadata index in one pass.
2. :meth:`answer` / :meth:`answer_batch` — given the aggregator's allocation,
   either answer exactly (when ``N^Q < N_min``) or sample clusters with the
   DP Exponential Mechanism under ``eps_S``, estimate with Hansen-Hurwitz,
   compute the smooth sensitivity, and release the estimate (locally noised
   under ``eps_E``, or un-noised when the SMC path will inject a single
   noise).  The batched form evaluates ``Q(C)`` for every needed
   (query, cluster) pair in one vectorised pass over the contiguous cluster
   layout; per-query EM sampling is semantically unchanged.  What is
   returned is the release, :class:`~.messages.EstimateMessage`, and nothing
   else; the provider's own account of each answer
   (:class:`~repro.core.result.ProviderDiagnostics`: the estimate before
   noise, the noise, the exact covering count, the work done) goes only to
   a list the *caller* passes as ``diagnostics_out`` — which a wire server
   never does.
3. :meth:`exact_answer` / :meth:`exact_answer_batch` — the non-private
   plain-text baseline used by the speed-up metric.

Randomness: each query gets one independent child generator derived from the
provider's root RNG, keyed by the query id, at summary time.  All of a
query's draws (summary noise, EM sampling, estimate noise) consume that
per-query stream in a fixed order, so executing a workload as one batch or as
a sequence of single queries produces bit-identical results.

Reuse: when the provider's :class:`~repro.config.CacheConfig` is enabled, the
provider memoizes every *released* artifact — the noisy summary of step 1 and
the noisy estimate of step 2 — in a :class:`~repro.cache.store.ReleaseCache`.
A later query with the same canonical predicate at the same phase budgets is
served the stored bytes verbatim: pure DP post-processing, so no budget is
spent, no fresh noise is drawn, and (for answers) no cluster is scanned.
Cache misses run exactly the code path of the disabled cache, so on a
duplicate-free workload a cold cache is bit-identical to no cache under the
same seed.  (A workload that repeats a predicate *within* one batch is
served by reuse even when cold — the repeat aliases the first occurrence's
release instead of drawing the independent noise the disabled cache would.)

Ingestion: the provider also owns a :class:`~repro.ingest.delta.DeltaStore`
(:meth:`DataProvider.ingest_rows`) absorbing appended rows without touching
the clustered layout; every query session pins a ``(layout_epoch,
delta_watermark)`` snapshot at summary time and answers the delta prefix it
pinned exactly, and :meth:`DataProvider.compact` folds the buffer back into
the clustering incrementally.  See ``docs/ingestion.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..cache.key import answer_key, release_survives_fold, summary_key
from ..cache.store import ReleaseCache
from ..config import DEFAULT_INGEST, CacheConfig, IngestConfig
from ..core.accounting import QueryBudget
from ..core.result import ProviderDiagnostics
from ..core.sensitivity import avg_proportion_sensitivity, delta_r
from ..dp.mechanisms import laplace_noise_scale
from ..errors import ProtocolError
from ..ingest.compaction import (
    CompactionPolicy,
    CompactionReport,
    changed_bounds,
    fold_into_clustered,
    incremental_eligible,
)
from ..ingest.delta import DeltaStore, IngestReceipt
from ..obs.trace import ambient_span
from ..query.batch import QueryBatch
from ..query.executor import ExactExecution, ExactExecutor
from ..query.model import RangeQuery
from ..storage.clustered_table import ClusteredTable
from ..storage.metadata import (
    MetadataStore,
    QueryCostStats,
    build_metadata,
    patch_metadata,
)
from ..storage.table import Table
from ..utils.ragged import segment_lengths, segment_offsets
from ..utils.rng import RngLike, derive_rng
from .dpmath import (
    dedup_pairs,
    hansen_hurwitz,
    sample_clusters,
    segment_sums_exact,
    segment_sums_pairwise,
)
from .messages import AllocationMessage, EstimateMessage, QueryRequest, SummaryMessage

__all__ = ["DataProvider"]


@dataclass
class _QuerySession:
    """Per-query state a provider keeps between the summary and answer phases.

    ``covering_positions`` are storage-order positions into the cluster
    layout (cheaper than ids for the vectorised kernels).  ``rng`` is the
    query's private random stream; every stochastic step of this query
    (summary noise, EM sampling, estimate noise) draws from it in a fixed
    order, which is what makes batched and sequential execution
    bit-identical.  ``seed`` is what the stream is built from: the
    positional child seed drawn from the provider's root stream, or the
    request's keyed ``seed_material``.

    Sessions are opened lazy: the stream is built, and the covering set and
    proportions materialised (in one vectorised metadata pass), when the
    query first needs a fresh release — at once for a summary cache miss, at
    the answer phase for a summary hit whose answer misses, never for a
    fully cached query, which touches neither the metadata index nor a
    generator.  A stream is a pure function of its seed, so when it is
    built changes no draw.

    ``delta_watermark`` pins the query's ingestion snapshot: the number of
    delta-store rows visible to it, captured when the session opened.  The
    answer phase reads exactly that prefix of the append buffer, so rows
    ingested between the summary and answer phases never change an
    in-flight query's result (snapshot isolation).
    """

    query: RangeQuery
    seed: int | Sequence[int]
    rng: np.random.Generator | None = None
    covering_positions: np.ndarray | None = None
    proportions: np.ndarray | None = None
    proportions_sum: float = 0.0
    delta_watermark: int = 0


@dataclass
class DataProvider:
    """One data provider of the federation.

    Parameters
    ----------
    provider_id:
        Unique identifier within the federation.
    table:
        The provider's horizontal partition (raw table or count tensor).
    cluster_size:
        The shared nominal cluster size ``S``.
    n_min:
        Approximation threshold ``N_min``: below this many covering clusters
        the provider answers exactly.
    clustering_policy:
        ``"sequential"`` (default; clusters fill in insertion order, like DBMS
        pages) or ``"sorted"`` (clusters carry skewed value ranges — the
        regime where distribution-aware sampling matters most, used by the
        ablation benches).
    cache_config:
        Release-cache policy (:class:`~repro.config.CacheConfig`); ``None``
        or a disabled config keeps the provider on the plain protocol path.
    intra_sort_by:
        Optionally sort each cluster's rows by this dimension at build time
        (cluster membership unchanged) so the layout's bisection kernels
        apply; see :meth:`repro.storage.clustered_table.ClusteredTable.from_table`.
    ingest_config:
        Streaming-ingestion policy (:class:`~repro.config.IngestConfig`):
        when :meth:`ingest_rows` may auto-compact and at what delta size;
        ``None`` uses the library default.
    """

    provider_id: str
    table: Table
    cluster_size: int
    n_min: int = 4
    clustering_policy: str = "sequential"
    sort_by: str | None = None
    cache_config: CacheConfig | None = None
    intra_sort_by: str | None = None
    ingest_config: IngestConfig | None = None
    rng: RngLike = None
    clustered: ClusteredTable = field(init=False, repr=False)
    metadata: MetadataStore = field(init=False, repr=False)
    cache: ReleaseCache = field(init=False, repr=False)
    delta: DeltaStore = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise ProtocolError(f"n_min must be >= 1, got {self.n_min}")
        self._rng = derive_rng(self.rng, "provider", self.provider_id)
        # Stable entropy prefix of the *keyed* per-query streams (requests
        # carrying ``seed_material``).  Derived once at construction — after
        # the root-stream derivation above, so existing positional draws are
        # unchanged — and copied verbatim into the process carrier's workers, which
        # rebuild providers from a placeholder seed.
        self._stream_entropy: tuple[int, ...] = tuple(
            int(value)
            for value in derive_rng(self.rng, "stream", self.provider_id).integers(
                0, 2**32, size=4
            )
        )
        self.cache = ReleaseCache(self.cache_config or CacheConfig())
        self.delta = DeltaStore(self.table.schema)
        self._compaction_policy = CompactionPolicy.from_config(
            self.ingest_config or DEFAULT_INGEST
        )
        self._layout_epoch = 0
        self._layout_subscribers: list = []
        self._build_layout()
        self._sessions: dict[int, _QuerySession] = {}

    def _build_layout(self) -> None:
        self.clustered = ClusteredTable.from_table(
            self.table,
            self.cluster_size,
            policy=self.clustering_policy,
            sort_by=self.sort_by,
            intra_sort_by=self.intra_sort_by,
        )
        self.metadata = build_metadata(self.clustered)
        self._executor = ExactExecutor(self.clustered, self.metadata)

    # -- offline properties --------------------------------------------------

    @property
    def num_clusters(self) -> int:
        """Number of clusters held by this provider."""
        return self.clustered.num_clusters

    @property
    def num_rows(self) -> int:
        """Number of stored rows held by this provider."""
        return self.clustered.num_rows

    @property
    def num_open_sessions(self) -> int:
        """Number of per-query sessions currently held (leak monitoring)."""
        return len(self._sessions)

    @property
    def layout_epoch(self) -> int:
        """Monotonic clustering-layout version (bumped by :meth:`rebuild_layout`).

        Cache entries record the epoch they were released under; a mismatch
        makes them stale, so a re-clustered provider can never serve
        summaries of a layout that no longer exists.
        """
        return self._layout_epoch

    @property
    def delta_rows(self) -> int:
        """Number of ingested rows buffered in the delta store."""
        return self.delta.watermark

    @property
    def delta_watermark(self) -> int:
        """The current ingestion watermark (appended rows since last fold)."""
        return self.delta.watermark

    def snapshot(self) -> tuple[int, int]:
        """The ``(layout_epoch, delta_watermark)`` coordinates a new query pins."""
        return (self._layout_epoch, self.delta.watermark)

    def subscribe_layout_change(self, callback) -> None:
        """Register ``callback(provider)`` to fire after every layout change.

        Fired by :meth:`rebuild_layout` and :meth:`compact` *after* the new
        layout, metadata, and epoch are installed.  The aggregator uses this
        to eagerly tear down hosted worker processes (and their shared-memory
        snapshots of the old layout) instead of detecting the stale epoch
        lazily on the next batch.
        """
        self._layout_subscribers.append(callback)

    def _notify_layout_change(self) -> None:
        for callback in list(self._layout_subscribers):
            callback(self)

    def metadata_size_bytes(self) -> int:
        """Approximate footprint of the offline metadata (Section 6.1)."""
        return self.metadata.size_bytes()

    def cost_stats_batch(self, queries: Sequence[RangeQuery]) -> list[QueryCostStats]:
        """Zone-map work statistics for a workload against the *current* layout.

        One :class:`~repro.storage.metadata.QueryCostStats` per query —
        clusters touched, covered-vs-straddler split, straddler row volume —
        computed from the same metadata the covering-set pass reads, so the
        estimate costs no row access and no privacy budget.  The serving
        layer's :class:`~repro.service.costmodel.CostModel` combines these
        across providers; estimates are only as fresh as the layout they
        were read from (compaction rewrites the zone maps, moving
        :attr:`layout_epoch` / :attr:`delta_watermark`), so the scheduler
        takes them once per drain and keeps none.
        """
        return self.metadata.cost_stats_batch(
            [query.range_tuples() for query in queries]
        )

    def rebuild_layout(
        self,
        *,
        clustering_policy: str | None = None,
        sort_by: str | None = None,
    ) -> None:
        """Re-cluster the partition and invalidate every cached release.

        Any rows still buffered in the delta store are folded into the base
        table first, so a rebuild always absorbs pending ingest — the
        rebuilt clustering is exactly ``from_table`` on the union of rows.
        Layout-change subscribers (the aggregator's eager worker
        invalidation) fire after the new layout is installed.

        Parameters
        ----------
        clustering_policy, sort_by:
            Optional overrides; omitted values keep the current settings.

        Raises
        ------
        ProtocolError
            When called while per-query sessions are open (mid-protocol
            rebuilds would leave sessions pointing at dead cluster
            positions).
        """
        if self._sessions:
            raise ProtocolError(
                f"provider {self.provider_id} cannot rebuild its layout with "
                f"{len(self._sessions)} open sessions"
            )
        if clustering_policy is not None:
            self.clustering_policy = clustering_policy
        if sort_by is not None:
            self.sort_by = sort_by
        pending = self.delta.take_all()
        if pending.num_rows:
            self.table = Table.concat([self.table, pending])
        self._build_layout()
        self._layout_epoch += 1
        self.cache.purge_stale(self._layout_epoch)
        self._notify_layout_change()

    # -- streaming ingestion -----------------------------------------------------

    def ingest_rows(
        self, rows: Table, *, auto_compact: bool | None = None
    ) -> IngestReceipt:
        """Append a batch of rows to the delta store (O(1) w.r.t. stored data).

        The clustered layout, metadata, and cached releases are untouched:
        new rows become visible to queries whose sessions open *after* this
        call (their snapshot pins the advanced watermark), while in-flight
        sessions keep reading their pinned prefix.

        Parameters
        ----------
        rows:
            The appended rows; must match the provider's schema, with every
            dimension value inside its declared domain.
        auto_compact:
            Override of the configured
            :attr:`~repro.config.IngestConfig.auto_compact`: when active and
            the compaction policy's thresholds trip (and no per-query
            sessions are open), the append immediately triggers
            :meth:`compact`.

        Returns
        -------
        IngestReceipt
            The post-append ``(watermark, epoch)`` coordinates and whether
            the append triggered a compaction.
        """
        config = self.ingest_config or DEFAULT_INGEST
        with ambient_span(
            "provider.ingest", provider=self.provider_id, rows=rows.num_rows
        ):
            self.delta.append(rows)
            compacted = False
            should = config.auto_compact if auto_compact is None else auto_compact
            if should and not self._sessions:
                if self._compaction_policy.due(
                    self.delta.watermark, self.clustered.num_rows
                ):
                    self.compact()
                    compacted = True
        return IngestReceipt(
            provider_id=self.provider_id,
            rows=rows.num_rows,
            delta_watermark=self.delta.watermark,
            layout_epoch=self._layout_epoch,
            compacted=compacted,
        )

    def compact(self) -> CompactionReport:
        """Fold the delta buffer into the clustered layout, incrementally.

        Only the affected tail clusters are re-clustered (see
        :func:`~repro.ingest.compaction.fold_into_clustered`), the metadata
        index is patched in place for those positions, the layout epoch is
        bumped, and the release cache keeps every entry whose query box
        cannot touch the re-clustered region (re-tagged to the new epoch)
        instead of being wiped.  The post-compaction provider is
        bit-identical — layout, metadata, and query answers — to one built
        from scratch on the union of rows.

        Raises
        ------
        ProtocolError
            When per-query sessions are open: their covering positions
            reference the pre-fold clustering.  The serving layer only
            compacts between batches, where no session exists.
        """
        if self._sessions:
            raise ProtocolError(
                f"provider {self.provider_id} cannot compact with "
                f"{len(self._sessions)} open sessions"
            )
        deltas = self.delta.take_all()
        clusters_before = self.clustered.num_clusters
        if deltas.num_rows == 0:
            return CompactionReport(
                provider_id=self.provider_id,
                rows_folded=0,
                first_affected_position=clusters_before,
                clusters_before=clusters_before,
                clusters_after=clusters_before,
                layout_epoch=self._layout_epoch,
                incremental=True,
            )
        old_layout = self.clustered.layout()
        self.table = Table.concat([self.table, deltas])
        eligible = incremental_eligible(
            self.clustering_policy, self.sort_by, self.intra_sort_by, self.clustered.schema
        )
        if eligible:
            self.clustered, first_affected = fold_into_clustered(
                self.clustered,
                deltas,
                clustering_policy=self.clustering_policy,
                sort_by=self.sort_by,
                intra_sort_by=self.intra_sort_by,
            )
            self.metadata = patch_metadata(self.metadata, self.clustered, first_affected)
            self._executor = ExactExecutor(self.clustered, self.metadata)
        else:
            first_affected = 0
            self._build_layout()
        self._layout_epoch += 1
        changed = changed_bounds(old_layout, self.clustered.layout(), first_affected)
        purged, retained = self.cache.rekey_epoch(
            self._layout_epoch, lambda key: release_survives_fold(key, changed)
        )
        self._notify_layout_change()
        return CompactionReport(
            provider_id=self.provider_id,
            rows_folded=deltas.num_rows,
            first_affected_position=first_affected,
            clusters_before=clusters_before,
            clusters_after=self.clustered.num_clusters,
            layout_epoch=self._layout_epoch,
            incremental=eligible,
            cache_entries_purged=purged,
            cache_entries_retained=retained,
        )

    # -- cache peeks (reuse planner) -------------------------------------------

    def peek_summary_release(
        self, query: RangeQuery, epsilon_allocation: float
    ) -> tuple[float, float] | None:
        """Return the cached summary ``(Ñ^Q, ~Avg(R̂))`` without serving it.

        Used by the :class:`~repro.cache.planner.ReusePlanner` to bound a
        batch's budget charge before execution; never mutates the cache.
        """
        clipped = query.clipped_to(self.clustered.schema)
        return self.cache.peek(
            summary_key(clipped, epsilon_allocation),
            epoch=self._layout_epoch,
            rounds_ahead=1,
        )

    def peek_answer_release(
        self, query: RangeQuery, budget: QueryBudget, sample_size: int
    ) -> bool:
        """True when the local answer for this allocation is cached."""
        clipped = query.clipped_to(self.clustered.schema)
        return (
            self.cache.peek(
                answer_key(
                    clipped,
                    budget,
                    sample_size,
                    delta_watermark=self.delta.watermark,
                ),
                epoch=self._layout_epoch,
                rounds_ahead=1,
            )
            is not None
        )

    # -- protocol step 1: noisy summary ---------------------------------------

    def _open_streams(self, sessions: Sequence[_QuerySession]) -> None:
        """Build the noise stream of every listed session that has none yet.

        A positional session's stream is seeded by its child seed.  A keyed
        one depends only on the provider's stable entropy (fixed at
        construction from the system seed) and the caller-supplied material —
        never on how many draws the root stream has served — so the same
        ``(seed, material)`` pair yields the same noise in any batch, any
        interleaving, and any parallelism backend.
        """
        for session in sessions:
            if session.rng is not None:
                continue
            seed = session.seed
            if not isinstance(seed, int):
                seed = np.random.SeedSequence(
                    list(self._stream_entropy)
                    + [int(part) & 0xFFFFFFFF for part in seed]
                )
            session.rng = np.random.default_rng(seed)

    def prepare_summary(self, request: QueryRequest, epsilon_allocation: float) -> SummaryMessage:
        """Release the DP summary ``(Ñ^Q, ~Avg(R̂))`` for the allocation phase."""
        return self.prepare_summary_batch([request], epsilon_allocation)[0]

    def prepare_summary_batch(
        self,
        requests: Sequence[QueryRequest],
        epsilon_allocation: float,
        *,
        reuse_out: list[bool] | None = None,
    ) -> list[SummaryMessage]:
        """Release the DP summaries for a whole workload in one metadata pass.

        Covering sets and proportions for every query are computed against
        the dense index in one shot; the per-query RNG children are derived
        in request order so a batch of ``n`` and ``n`` single-query calls
        consume the provider's root stream identically.

        Parameters
        ----------
        requests:
            The workload, in execution order.
        epsilon_allocation:
            The summary-phase budget ``eps_O`` (split evenly across the two
            released scalars).
        reuse_out:
            Optional list the method appends one flag per request to: True
            when that query's summary was served from the release cache
            (post-processing, no budget spent, no noise drawn), False when
            it was freshly released.

        Returns
        -------
        list of SummaryMessage
            One summary per request, aligned with the request order.  A
            cache hit re-serves the original release's noisy scalars
            byte-for-byte; only metadata work is the fresh queries'.
        """
        with ambient_span(
            "provider.summary_batch",
            provider=self.provider_id,
            queries=len(requests),
        ):
            return self._prepare_summary_batch_impl(
                requests, epsilon_allocation, reuse_out=reuse_out
            )

    def _prepare_summary_batch_impl(
        self,
        requests: Sequence[QueryRequest],
        epsilon_allocation: float,
        *,
        reuse_out: list[bool] | None = None,
    ) -> list[SummaryMessage]:
        if not requests:
            return []
        schema = self.clustered.schema
        queries = [request.query.clipped_to(schema) for request in requests]
        # The whole batch pins one ingestion snapshot: rows appended from
        # here on are invisible to these sessions (snapshot isolation).
        # The summary itself describes the clustered main table only — the
        # unclustered delta is answered exactly at the answer phase, so it
        # plays no role in the cluster-sampling allocation.
        pinned_watermark = self.delta.watermark
        cache = self.cache
        cache.advance_round()
        cached_releases: list[tuple[float, float] | None] = [None] * len(requests)
        keys: list[tuple | None] = [None] * len(requests)
        # A repeated predicate inside one batch is reuse too: the first
        # occurrence releases, later ones alias it (one release, served n
        # times).  ``duplicate_of`` maps each aliased index to its source.
        duplicate_of: dict[int, int] = {}
        if cache.enabled:
            first_occurrence: dict[tuple, int] = {}
            for index, query in enumerate(queries):
                key = summary_key(query, epsilon_allocation)
                keys[index] = key
                cached_releases[index] = cache.get(key, epoch=self._layout_epoch)
                if cached_releases[index] is None:
                    if key in first_occurrence:
                        duplicate_of[index] = first_occurrence[key]
                    else:
                        first_occurrence[key] = index
        fresh = [
            index
            for index in range(len(requests))
            if cached_releases[index] is None and index not in duplicate_of
        ]
        # Open one (lazy) session per request, then build the streams and
        # run the vectorised metadata pass for the fresh queries only: cache
        # hits defer stream and covering/proportions until (and unless) the
        # answer phase needs a fresh release.
        #
        # One bulk draw seeds every per-query child stream; numpy's bounded
        # integer sampling consumes the bit stream per value, so a bulk draw
        # of n seeds equals n consecutive single draws — which is what keeps
        # batch and sequential execution on identical streams.  Cache hits
        # keep their child seed: it seeds the answer-phase randomness if the
        # answer later misses.
        #
        # Requests carrying ``seed_material`` opt out of the positional draw:
        # their child stream is keyed by (provider stream entropy, material),
        # so it is identical however the surrounding batch is composed — the
        # property the multi-tenant scheduler's coalescing relies on.  The
        # root stream is not consumed for them, keeping positional traffic
        # unaffected by how much keyed traffic ran before it.
        positional = [
            index
            for index, request in enumerate(requests)
            if request.seed_material is None
        ]
        child_seeds: dict[int, int] = {}
        if positional:
            draws = self._rng.integers(0, 2**63, size=len(positional))
            child_seeds = {
                index: int(draws[slot]) for slot, index in enumerate(positional)
            }
        for index, (request, query) in enumerate(zip(requests, queries)):
            self._sessions[request.query_id] = _QuerySession(
                query=query,
                seed=(
                    child_seeds[index]
                    if request.seed_material is None
                    else request.seed_material
                ),
                delta_watermark=pinned_watermark,
            )
        fresh_sessions = [self._sessions[requests[index].query_id] for index in fresh]
        self._open_streams(fresh_sessions)
        self._materialize_sessions(fresh_sessions)
        half_epsilon = epsilon_allocation / 2.0
        # Validate the phase budget once per batch; the per-query noise draws
        # below use the Lap(sensitivity / eps) calibration directly.
        count_scale = laplace_noise_scale(1.0, half_epsilon)
        avg_scales = {
            dimensions: laplace_noise_scale(
                avg_proportion_sensitivity(self.cluster_size, dimensions, self.n_min),
                half_epsilon,
            )
            for dimensions in {queries[index].num_dimensions for index in fresh}
        }
        summaries: list[SummaryMessage] = []
        for index, (request, query) in enumerate(zip(requests, queries)):
            session = self._sessions[request.query_id]
            cached = cached_releases[index]
            if cached is None and index in duplicate_of:
                # Intra-batch alias: the source query (an earlier index)
                # already released this summary within this loop.
                source = summaries[duplicate_of[index]]
                cached = (source.noisy_cluster_count, source.noisy_avg_proportion)
            if cached is not None:
                # Post-processing: re-serve the original release verbatim.
                summaries.append(
                    SummaryMessage(
                        query_id=request.query_id,
                        provider_id=self.provider_id,
                        noisy_cluster_count=cached[0],
                        noisy_avg_proportion=cached[1],
                    )
                )
                continue
            n_q = int(session.covering_positions.size)
            avg_r = session.proportions_sum / n_q if n_q else 0.0
            message = SummaryMessage(
                query_id=request.query_id,
                provider_id=self.provider_id,
                noisy_cluster_count=float(n_q)
                + float(session.rng.laplace(0.0, count_scale)),
                noisy_avg_proportion=avg_r
                + float(session.rng.laplace(0.0, avg_scales[query.num_dimensions])),
            )
            summaries.append(message)
            if cache.enabled:
                cache.put(
                    keys[index],
                    (message.noisy_cluster_count, message.noisy_avg_proportion),
                    epoch=self._layout_epoch,
                    epsilon=epsilon_allocation,
                )
        if reuse_out is not None:
            reuse_out.extend(
                cached_releases[index] is not None or index in duplicate_of
                for index in range(len(requests))
            )
        return summaries

    # -- protocol steps 4-6: sample, estimate, release -------------------------

    def answer(
        self,
        allocation: AllocationMessage,
        budget: QueryBudget,
        *,
        use_smc: bool = False,
        diagnostics_out: list[ProviderDiagnostics] | None = None,
    ) -> EstimateMessage:
        """Answer one query locally according to the granted allocation.

        When ``use_smc`` is true the returned estimate is **not** noised; the
        aggregator is expected to secret-share it, sum obliviously, and inject
        a single Laplace noise calibrated with the maximum sensitivity.
        """
        return self.answer_batch(
            [allocation], budget, use_smc=use_smc, diagnostics_out=diagnostics_out
        )[0]

    def answer_batch(
        self,
        allocations: Sequence[AllocationMessage],
        budget: QueryBudget,
        *,
        use_smc: bool = False,
        reuse_out: list[bool] | None = None,
        diagnostics_out: list[ProviderDiagnostics] | None = None,
    ) -> list[EstimateMessage]:
        """Answer a workload locally with vectorised sampling and evaluation.

        Each query draws from its own session stream exactly as a batch of
        one would; everything else runs once per batch over flat arrays plus
        offsets (:meth:`_answer_fresh`, :mod:`.dpmath`).

        Parameters
        ----------
        allocations:
            The granted sample sizes, aligned with the summary-phase
            request order.
        budget:
            The per-phase budgets; a fresh answer spends ``eps_S`` (cluster
            sampling) and ``eps_E`` (estimate release).
        use_smc:
            When true the returned estimates are un-noised (the aggregator
            injects one noise after the oblivious sum); SMC answers are
            never cached because the released value is not formed locally.
        reuse_out:
            Optional list the method appends one flag per allocation to:
            True when the answer was served from the release cache (or
            aliased to an identical release earlier in this batch) — no
            budget spent, no cluster scanned — False when it was freshly
            computed.
        diagnostics_out:
            Optional list the method appends one
            :class:`~repro.core.result.ProviderDiagnostics` per allocation
            to.  Provider-local: the in-process carrier passes it, no wire
            server does, and the codec refuses its contents.

        Returns
        -------
        list of EstimateMessage
            One release per allocation, aligned with the input order.  A
            cache hit re-serves the original estimate message (and its
            diagnostics) byte-for-byte; only the transport ``query_id`` is
            rewritten.
        """
        with ambient_span(
            "provider.answer_batch",
            provider=self.provider_id,
            queries=len(allocations),
        ):
            messages, diagnostics = self._answer_batch_impl(
                allocations, budget, use_smc=use_smc, reuse_out=reuse_out
            )
        if diagnostics_out is not None:
            diagnostics_out.extend(diagnostics)
        return messages

    def _answer_batch_impl(
        self,
        allocations: Sequence[AllocationMessage],
        budget: QueryBudget,
        *,
        use_smc: bool = False,
        reuse_out: list[bool] | None = None,
    ) -> tuple[list[EstimateMessage], list[ProviderDiagnostics]]:
        if not allocations:
            return [], []
        cache = self.cache
        use_cache = cache.enabled and not use_smc
        results: list[EstimateMessage | None] = [None] * len(allocations)
        diagnostics: list[ProviderDiagnostics | None] = [None] * len(allocations)
        hit_flags = [False] * len(allocations)
        sessions: list[_QuerySession] = []
        keys: list[tuple | None] = [None] * len(allocations)
        # key -> (first fresh index, aliased later indices): duplicates of a
        # release produced earlier in this very batch are reuse as well.
        pending: dict[tuple, tuple[int, list[int]]] = {}
        fresh: list[int] = []
        for index, allocation in enumerate(allocations):
            if allocation.provider_id != self.provider_id:
                raise ProtocolError(
                    f"provider {self.provider_id} received an allocation addressed "
                    f"to {allocation.provider_id!r}"
                )
            session = self._sessions.get(allocation.query_id)
            if session is None:
                raise ProtocolError(
                    f"provider {self.provider_id} received an allocation for unknown "
                    f"query {allocation.query_id}"
                )
            sessions.append(session)
            if use_cache:
                key = answer_key(
                    session.query,
                    budget,
                    allocation.sample_size,
                    delta_watermark=session.delta_watermark,
                )
                keys[index] = key
                cached = cache.get(key, epoch=self._layout_epoch)
                if cached is not None:
                    message, diagnostics[index] = cached
                    results[index] = replace(message, query_id=allocation.query_id)
                    hit_flags[index] = True
                    continue
                owner = pending.get(key)
                if owner is not None:
                    owner[1].append(index)
                    hit_flags[index] = True
                    continue
                pending[key] = (index, [])
            fresh.append(index)
        if fresh:
            messages, fresh_diagnostics = self._answer_fresh(
                [allocations[index] for index in fresh],
                [sessions[index] for index in fresh],
                budget,
                use_smc,
            )
            for index, message, local in zip(fresh, messages, fresh_diagnostics):
                results[index] = message
                diagnostics[index] = local
                if use_cache:
                    key = keys[index]
                    cache.put(
                        key,
                        (message, local),
                        epoch=self._layout_epoch,
                        epsilon=budget.epsilon_sampling + budget.epsilon_estimation,
                    )
                    for aliased in pending[key][1]:
                        results[aliased] = replace(
                            message, query_id=allocations[aliased].query_id
                        )
                        diagnostics[aliased] = local
        if reuse_out is not None:
            reuse_out.extend(hit_flags)
        if any(result is None for result in results):
            raise ProtocolError(
                "internal error: a query of the batch produced no local answer"
            )
        return results, diagnostics

    def _materialize_sessions(self, sessions: Sequence[_QuerySession]) -> None:
        """Fill the covering sets/proportions of lazily opened sessions.

        The one vectorised metadata pass shared by both protocol steps: the
        summary phase materialises its fresh (cache-missing) queries here,
        and the answer phase calls it again for sessions whose summary was
        a cache hit but whose answer needs a fresh release.  Each session
        keeps views into the pass's flat arrays, and its ``proportions_sum``
        is the pairwise sum of its own slice (see :mod:`.dpmath`, trap 1).
        """
        lazy = [session for session in sessions if session.covering_positions is None]
        if not lazy:
            return
        positions, proportions, counts = self._covering_pass(
            [session.query.range_tuples() for session in lazy]
        )
        offsets = segment_offsets(counts)
        bounds = offsets.tolist()
        sums = segment_sums_pairwise(proportions, offsets)
        for session, start, stop, total in zip(lazy, bounds[:-1], bounds[1:], sums):
            session.covering_positions = positions[start:stop]
            session.proportions = proportions[start:stop]
            session.proportions_sum = total

    def _covering_pass(
        self, ranges_list: Sequence[dict]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat ``(positions, proportions, counts)`` of every query's ``C^Q``."""
        positions = self.metadata.covering_positions_batch(ranges_list)
        proportions = self.metadata.proportions_at_positions_batch(positions, ranges_list)
        return positions.flat, proportions.flat, positions.counts

    def _query_cluster_values(
        self, batch: QueryBatch, pair_positions: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """Exact ``Q(C)`` of each query's requested clusters (flat + offsets)."""
        return self.clustered.layout().query_cluster_values(
            batch, pair_positions, offsets
        )

    def _delta_contributions(
        self, sessions: Sequence[_QuerySession]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact delta-store sums for every session, at its pinned watermark.

        Sessions pinned at watermark zero take no delta work at all (the fast
        path keeps a delta-free provider bit-identical to the pre-ingest
        engine); the rest read exactly their snapshot's prefix of the
        append buffer through the dense mask kernel.
        """
        if not any(session.delta_watermark for session in sessions):
            zeros = np.zeros(len(sessions), dtype=np.int64)
            return zeros, zeros.copy()
        return self.delta.query_values(
            [session.query for session in sessions],
            [session.delta_watermark for session in sessions],
        )

    def _answer_fresh(
        self,
        allocations: Sequence[AllocationMessage],
        sessions: Sequence[_QuerySession],
        budget: QueryBudget,
        use_smc: bool,
    ) -> tuple[list[EstimateMessage], list[ProviderDiagnostics]]:
        """Sample, evaluate and release the queries that need a fresh answer.

        A query with fewer than ``N_min`` covering clusters is answered
        exactly over all of them; the others draw clusters with the
        Exponential Mechanism.  Either way the batch travels as flat arrays
        plus offsets (see :mod:`.dpmath`): one dedup of the needed
        (query, cluster) pairs, one ``Q(C)`` kernel call over them, one
        Hansen-Hurwitz pass; the closing loop keeps only each query's
        Laplace draw from its own stream and the message construction.

        Each query's exact sum over its pinned delta snapshot is added to the
        estimate *before* the noise draw, and — for approximating queries
        whose snapshot is non-empty — the smooth sensitivity is floored at
        1, since one delta individual changes the exact component by exactly
        1 (the constant bound 1 is trivially beta-smooth, so ``max(smooth,
        1)`` remains a valid smooth upper bound of the combined release).  A
        watermark-zero query is untouched bit for bit.

        Returns the releases and, aligned with them, the diagnostics; the
        smooth sensitivity goes into the release under SMC only.
        """
        self._open_streams(sessions)
        self._materialize_sessions(sessions)
        num_queries = len(sessions)
        counts = np.array(
            [session.covering_positions.size for session in sessions], dtype=np.int64
        )
        approximated = counts >= self.n_min
        approximating = np.flatnonzero(approximated)
        exact = np.flatnonzero(~approximated)
        # The (owning query, cluster position) pairs the kernel must
        # evaluate: every covering cluster of an exactly answered query ...
        owners = exact.repeat(counts[exact])
        needed = np.concatenate(
            [sessions[index].covering_positions for index in exact.tolist()]
            or [np.zeros(0, dtype=np.int64)]
        )
        approx_indices = approximating.tolist()
        chosen = [sessions[index] for index in approx_indices]
        if chosen:
            # ... and, ahead of them so that the head of the dedup's inverse
            # maps draws onto pairs, the drawn clusters of the others.
            proportions = np.concatenate([session.proportions for session in chosen])
            proportion_sums = np.array([session.proportions_sum for session in chosen])
            sizes, drawn, weights = sample_clusters(
                proportions,
                segment_offsets(counts[approximating]),
                proportion_sums,
                np.array(
                    [allocations[index].sample_size for index in approx_indices],
                    dtype=np.int64,
                ),
                budget.epsilon_sampling,
                self.n_min,
                [session.rng for session in chosen],
            )
            covering = np.concatenate([session.covering_positions for session in chosen])
            owners = np.concatenate([approximating.repeat(sizes), owners])
            needed = np.concatenate([covering[drawn], needed])
        pair_positions, pair_offsets, inverse = dedup_pairs(
            owners, needed, num_queries, self.num_clusters
        )
        pair_values = self._query_cluster_values(
            QueryBatch(tuple(session.query for session in sessions)),
            pair_positions,
            pair_offsets,
        )
        delta_values, delta_scanned = self._delta_contributions(sessions)
        rows_scanned = (
            segment_sums_exact(
                self.clustered.layout().cluster_rows[pair_positions], pair_offsets
            )
            + delta_scanned
        ).tolist()
        # The exact path releases the plain sum under global sensitivity 1:
        # one individual changes COUNT(*) / SUM(Measure) by at most 1.
        estimates = (segment_sums_exact(pair_values, pair_offsets) + delta_values).tolist()
        sensitivities = [1.0] * num_queries
        if chosen:
            means, smooths = hansen_hurwitz(
                pair_values[inverse[: drawn.size]],
                weights,
                proportions[drawn],
                segment_offsets(sizes),
                proportion_sums=proportion_sums,
                delta_r_values=np.array(
                    [
                        delta_r(self.cluster_size, session.query.num_dimensions)
                        for session in chosen
                    ]
                ),
                cluster_size=self.cluster_size,
                epsilon=budget.epsilon_estimation,
                delta=budget.delta,
            )
            means = (means + delta_values[approximating]).tolist()
            for slot, (index, smooth) in enumerate(zip(approx_indices, smooths.tolist())):
                estimates[index] = means[slot]
                sensitivities[index] = (
                    max(smooth, 1.0) if sessions[index].delta_watermark else smooth
                )
        sampled = segment_lengths(pair_offsets).tolist()
        rows_stored = self.clustered.num_rows
        messages: list[EstimateMessage] = []
        diagnostics: list[ProviderDiagnostics] = []
        for index, (allocation, session) in enumerate(zip(allocations, sessions)):
            approx = bool(approximated[index])
            estimate = estimates[index]
            sensitivity = sensitivities[index]
            noise = 0.0
            if not use_smc:
                # Lap(2 * S_LS / eps_E) — Algorithm 3, line 10 — when
                # approximating, Lap(1 / eps_E) on the exact path.
                scale = (2.0 * sensitivity if approx else sensitivity) / (
                    budget.epsilon_estimation
                )
                noise = float(session.rng.laplace(0.0, scale))
            messages.append(
                EstimateMessage(
                    query_id=allocation.query_id,
                    provider_id=self.provider_id,
                    value=float(estimate) + noise,
                    smooth_sensitivity=sensitivity if use_smc else None,
                    approximated=approx,
                )
            )
            diagnostics.append(
                ProviderDiagnostics(
                    provider_id=self.provider_id,
                    local_estimate=float(estimate),
                    local_noise=noise,
                    smooth_sensitivity=sensitivity,
                    covering_clusters=session.covering_positions.size,
                    sampled_clusters=sampled[index],
                    rows_scanned=rows_scanned[index],
                    rows_available=rows_stored + session.delta_watermark,
                    exact_local_answer=None if approx else estimate,
                )
            )
        return messages, diagnostics

    # -- baseline --------------------------------------------------------------

    def exact_answer(self, query: RangeQuery) -> ExactExecution:
        """Plain-text exact execution over this provider's covering clusters."""
        return self.exact_answer_batch([query])[0]

    def exact_answer_batch(
        self, queries: Sequence[RangeQuery]
    ) -> list[ExactExecution]:
        """Plain-text exact execution of a workload in one vectorised pass.

        Includes the delta store at its *current* watermark: the exact
        baseline always reflects every row the provider holds right now,
        clustered or not.
        """
        schema = self.clustered.schema
        clipped = [query.clipped_to(schema) for query in queries]
        executions = self._executor.execute_batch(clipped)
        watermark = self.delta.watermark
        if not watermark:
            return executions
        values, scanned = self.delta.query_values(clipped, [watermark] * len(clipped))
        return [
            ExactExecution(
                value=execution.value + int(values[index]),
                clusters_scanned=execution.clusters_scanned,
                rows_scanned=execution.rows_scanned + int(scanned[index]),
            )
            for index, execution in enumerate(executions)
        ]

    def forget(self, query_id: int) -> None:
        """Drop the per-query session state (idempotent)."""
        self._sessions.pop(query_id, None)

    def forget_batch(self, query_ids: Sequence[int]) -> None:
        """Drop the session state of every listed query (idempotent)."""
        for query_id in query_ids:
            self._sessions.pop(query_id, None)
