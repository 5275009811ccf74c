"""Public facade: build a federation from tables and answer queries end to end.

:class:`FederatedAQPSystem` is the entry point a downstream user works with::

    system = FederatedAQPSystem.from_partitions(partitions, config=SystemConfig())
    result = system.execute(RangeQuery.count({"age": (20, 40)}), sampling_rate=0.1)
    result.value, result.relative_error

It owns the providers, the aggregator, the end user's total privacy budget
``(xi, psi)``, and the exact (non-private) baseline used for relative error
and speed-up measurements.  The production shape is
:meth:`FederatedAQPSystem.execute_batch` — one protocol round for a whole
workload — optionally with cross-query reuse
(:class:`~repro.config.CacheConfig`): repeated predicates are then served
from the providers' release caches as DP post-processing, charged only for
what was actually re-released, and admitted against the remaining budget by
the :class:`~repro.cache.planner.ReusePlanner`'s upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..cache.store import CacheStats
from ..config import SystemConfig
from ..errors import BudgetExhaustedError, ProtocolError
from ..ingest.delta import IngestReceipt
from ..federation.aggregator import Aggregator, PhasedBatch
from ..federation.network import SimulatedNetwork
from ..federation.partitioning import partition_equal
from ..federation.provider import DataProvider
from ..federation.shard import ShardedProvider
from ..obs import Observability
from ..query.model import RangeQuery
from ..query.parser import parse_query
from ..storage.table import Table
from ..utils.rng import RngLike, derive_rng
from ..utils.timing import Timer
from .accounting import EndUserBudget, QueryBudget, split_query_budget
from .result import BatchResult, QueryResult

__all__ = ["FederatedAQPSystem", "BaselineExecution", "PhasedExecution"]


@dataclass(frozen=True)
class BaselineExecution:
    """Exact plain-text execution across the federation (the baseline)."""

    value: int
    seconds: float
    clusters_scanned: int
    rows_scanned: int


@dataclass
class FederatedAQPSystem:
    """A ready-to-query private federated AQP deployment."""

    providers: Sequence[DataProvider]
    config: SystemConfig
    end_user_budget: EndUserBudget | None = None
    rng: RngLike = None
    aggregator: Aggregator = field(init=False, repr=False)
    obs: Observability = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.providers:
            raise ProtocolError("a system needs at least one provider")
        self.obs = Observability.from_config(self.config.observability)
        network = SimulatedNetwork(config=self.config.network)
        self.aggregator = Aggregator(
            providers=list(self.providers),
            config=self.config,
            network=network,
            rng=derive_rng(self.rng if self.rng is not None else self.config.seed, "aggregator"),
            obs=self.obs,
        )
        if self.end_user_budget is not None and self.obs.ledger is not None:
            # Mirror every wallet mutation into the audit ledger.  Owner
            # "system" marks the facade's own budget; the multi-tenant
            # scheduler attaches per-tenant owners instead.
            self.end_user_budget.audit = self.obs.ledger
            if not self.end_user_budget.audit_owner:
                self.end_user_budget.audit_owner = "system"
        self._register_metric_groups()

    def _register_metric_groups(self) -> None:
        """Wire every scattered stats object into the pull-based registry.

        Suppliers are lambdas over live objects — :meth:`observability`
        reads them at snapshot time, so registration costs nothing on the
        query path.
        """
        registry = self.obs.metrics
        registry.register_group(
            "network", lambda: self.aggregator.network.stats.as_dict()
        )
        registry.register_group(
            "transport",
            lambda: {
                **self.aggregator.transport_stats.as_dict(),
                **self.aggregator.transport.carrier_stats,
            },
        )
        registry.register_group("cache", lambda: self.cache_stats().as_dict())
        registry.register_group(
            "resilience", lambda: self.aggregator.resilience_stats.as_dict()
        )
        # Kernel work reported back by endpoints outside this process
        # (in-process kernels report to the caller's own collector).
        registry.register_group(
            "kernel", lambda: self.aggregator.transport.kernel_telemetry.as_dict()
        )

    def observability(self) -> dict:
        """One unified snapshot over every layer's metrics, traces, and ledger.

        Always available; with :class:`~repro.config.ObservabilityConfig`
        disabled the snapshot carries the metric groups only (there is no
        tracer or ledger to report).  See
        :meth:`repro.obs.MetricsRegistry.render_prometheus` for the text
        exposition format of the same data.
        """
        return self.obs.snapshot()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_partitions(
        cls,
        partitions: Sequence[Table],
        *,
        config: SystemConfig | None = None,
        n_min: int | None = None,
        total_epsilon: float | None = None,
        total_delta: float = 1.0,
        clustering_policy: str = "sequential",
        sort_by: str | None = None,
        intra_sort_by: str | None = None,
    ) -> "FederatedAQPSystem":
        """Build a system with one provider per partition table.

        Parameters
        ----------
        partitions:
            One table per data provider (the horizontal partitioning).
        config:
            System-wide knobs (privacy split, sampling, network, cache,
            transport); defaults to :class:`~repro.config.SystemConfig`.
        n_min:
            Per-provider approximation threshold ``N_min``; defaults to
            ``config.sampling.min_clusters_for_approximation``.
        total_epsilon, total_delta:
            When ``total_epsilon`` is given, an end-user budget ``(xi, psi)``
            is installed and every executed query is charged against it.
        clustering_policy, sort_by, intra_sort_by:
            Forwarded to each :class:`~repro.federation.provider.DataProvider`.

        Returns
        -------
        FederatedAQPSystem
            A ready-to-query deployment; provider RNGs are derived from
            ``config.seed`` so a fixed seed makes runs reproducible.
        """
        cfg = config or SystemConfig()
        threshold = cfg.sampling.min_clusters_for_approximation if n_min is None else n_min
        extra: dict[str, object] = {}
        provider_cls: type[DataProvider] = DataProvider
        if cfg.transport.shard_workers > 1:
            # Sharded providers split their data passes across K contiguous
            # shards of the clustered layout; answers stay bit-identical
            # (see repro.federation.shard for the determinism argument).
            provider_cls = ShardedProvider
            extra = {"shard_workers": cfg.transport.shard_workers}
        providers = [
            provider_cls(
                provider_id=f"provider-{index}",
                table=partition,
                cluster_size=cfg.cluster_size,
                n_min=threshold,
                clustering_policy=clustering_policy,
                sort_by=sort_by,
                intra_sort_by=intra_sort_by,
                cache_config=cfg.cache,
                ingest_config=cfg.ingest,
                rng=derive_rng(cfg.seed, "provider", index),
                **extra,
            )
            for index, partition in enumerate(partitions)
        ]
        budget = None
        if total_epsilon is not None:
            budget = EndUserBudget.create(total_epsilon, total_delta)
        return cls(providers=providers, config=cfg, end_user_budget=budget, rng=cfg.seed)

    @classmethod
    def from_table(
        cls,
        table: Table,
        *,
        config: SystemConfig | None = None,
        **kwargs,
    ) -> "FederatedAQPSystem":
        """Horizontally partition ``table`` equally and build a system."""
        cfg = config or SystemConfig()
        partitions = partition_equal(
            table, cfg.num_providers, rng=derive_rng(cfg.seed, "partition")
        )
        return cls.from_partitions(partitions, config=cfg, **kwargs)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release what the transport owns (idempotent).

        Needed for the ``"process"`` carrier (worker processes, shared
        memory) and the ``"socket"`` carrier (server thread, connections);
        a no-op otherwise.  The system remains usable after ``close()`` —
        the next batch simply builds a fresh transport.
        """
        self.aggregator.close()

    def __enter__(self) -> "FederatedAQPSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- query execution -------------------------------------------------------

    def execute(
        self,
        query: RangeQuery | str,
        *,
        sampling_rate: float | None = None,
        epsilon: float | None = None,
        use_smc: bool | None = None,
        compute_exact: bool = True,
    ) -> QueryResult:
        """Answer ``query`` with the private approximate protocol.

        Parameters
        ----------
        query:
            A :class:`RangeQuery` or SQL text parsable by
            :func:`repro.query.parse_query`.
        sampling_rate:
            Override of the configured sampling rate ``sr``.
        epsilon:
            Override of the configured per-query epsilon (the phase split is
            preserved).
        use_smc:
            Override of the configured result-combination path.
        compute_exact:
            Also run the exact baseline so the result carries the relative
            error and the speed-up denominator.  Disable for pure-performance
            runs on large data.
        """
        batch = self.execute_batch(
            [query],
            sampling_rate=sampling_rate,
            epsilon=epsilon,
            use_smc=use_smc,
            compute_exact=compute_exact,
        )
        return batch.results[0]

    def execute_batch(
        self,
        queries: Sequence[RangeQuery | str],
        *,
        sampling_rate: float | None = None,
        epsilon: float | None = None,
        use_smc: bool | None = None,
        compute_exact: bool = True,
        seed_tokens: Sequence[tuple[int, ...] | None] | None = None,
    ) -> BatchResult:
        """Answer a whole workload with one batched protocol pass.

        The budget is charged once per query — exactly what the sequential
        loop would have charged — but the summary, allocation, and estimation
        phases are amortised across the workload: each provider is contacted
        once per phase with every query, and all metadata / ``Q(C)`` work runs
        vectorised.  With the same seed, the per-query results are
        bit-identical to executing the queries one at a time.

        When :class:`~repro.config.CacheConfig` is enabled, providers
        re-serve previously released summaries and estimates for repeated
        predicates (DP post-processing): such queries are charged only the
        phases that were actually re-released — down to zero for a fully
        cached query — and the admission check prices them accordingly.
        Reuse statistics land in each result's
        :class:`~repro.core.result.ExecutionTrace` and on the
        :class:`~repro.core.result.BatchResult` aggregates.

        Parameters
        ----------
        queries:
            The workload: :class:`RangeQuery` objects or SQL texts.
        sampling_rate, epsilon, use_smc:
            Per-batch overrides of the configured values (see
            :meth:`execute`).
        compute_exact:
            Also run the exact baselines so results carry relative errors.
        seed_tokens:
            Optional per-query noise-stream keys, aligned with ``queries``
            (see :meth:`Aggregator.execute_batch
            <repro.federation.aggregator.Aggregator.execute_batch>`).  Used
            by :mod:`repro.service` to make answers independent of how
            tenants' submissions were coalesced.

        Returns
        -------
        BatchResult
            Per-query results in workload order plus batch-level wall-clock
            and reuse accounting.
        """
        if not queries:
            raise ProtocolError("a batch must contain at least one query")
        range_queries = [self._coerce_query(query) for query in queries]
        privacy = self.config.privacy if epsilon is None else self.config.privacy.with_epsilon(epsilon)
        budget = split_query_budget(privacy)
        self._admit_batch(range_queries, budget, sampling_rate, use_smc)

        try:
            with Timer() as timer:
                answers = self.aggregator.execute_batch(
                    range_queries,
                    budget,
                    sampling_rate=sampling_rate,
                    use_smc=use_smc,
                    seed_tokens=seed_tokens,
                )
        except BaseException:
            # A batch that dies mid-protocol (e.g. worker crash beyond what
            # the resilience policy absorbs) must not leak the process
            # carrier's workers or shared-memory blocks: the aggregator's
            # transport is torn down here and rebuilt on the next batch.
            self.aggregator.close()
            raise
        if self.end_user_budget is not None:
            # Charge only after the protocol ran to completion: a batch that
            # fails mid-protocol returns no results and consumes no budget.
            # Each query is charged what it actually cost after reuse (zero
            # for fully cached queries).  The recording is unconditional
            # (enforce=False): the noisy releases already happened, so even
            # in the pathological corner where the actual cost exceeds the
            # admission bound (LRU eviction within the admitted batch), the
            # ledger must show the true spend — the wallet then reads empty
            # and the next fresh batch is refused at admission.
            self.end_user_budget.charge_spends(
                [
                    (answer.epsilon_charged, answer.delta_charged, range_query.to_sql())
                    for range_query, answer in zip(range_queries, answers)
                ],
                enforce=False,
                degraded=[answer.degraded for answer in answers],
            )
        exact_values: list[int | None] = [None] * len(range_queries)
        if compute_exact:
            exact_values = [
                baseline.value for baseline in self.exact_baseline_batch(range_queries)
            ]

        results = tuple(
            QueryResult(
                query=range_query,
                value=answer.value,
                epsilon_spent=answer.epsilon_charged,
                delta_spent=answer.delta_charged,
                used_smc=answer.used_smc,
                provider_releases=answer.provider_releases,
                trace=answer.trace,
                exact_value=exact_value,
                noise_injected=answer.noise_injected,
                degraded=answer.degraded,
                providers_missing=answer.providers_missing,
                provider_diagnostics=answer.provider_diagnostics,
            )
            for range_query, answer, exact_value in zip(range_queries, answers, exact_values)
        )
        return BatchResult(results=results, wall_seconds=timer.elapsed)

    def _admit_batch(
        self,
        range_queries: Sequence[RangeQuery],
        budget: QueryBudget,
        sampling_rate: float | None,
        use_smc: bool | None,
    ) -> None:
        """All-or-nothing batch admission against the end-user budget.

        Verifies the whole workload is affordable before running anything.
        The check shares the accountant's float tolerance, so a batch is
        admitted exactly when charging its queries one by one would be.
        With the release caches enabled, the reuse planner lowers the bound
        to zero for queries guaranteed to be served by post-processing — a
        reuse-heavy workload is admitted even against a nearly exhausted
        budget (budget-aware reuse).
        """
        if self.end_user_budget is None:
            return
        affordable = self.end_user_budget.can_afford_queries(
            budget, len(self.providers), len(range_queries)
        )
        if not affordable and self.config.cache.enabled:
            # Full price does not fit — ask the planner for the tighter
            # bound before refusing (it can only lower the estimate, so
            # skipping it when full price fits is behaviour-preserving).
            plan = self.aggregator.plan_reuse(
                range_queries,
                budget,
                sampling_rate=sampling_rate,
                use_smc=use_smc,
            )
            affordable = self.end_user_budget.can_afford_spend(
                plan.upper_bound_epsilon, plan.upper_bound_delta
            )
        if not affordable:
            raise BudgetExhaustedError(
                f"batch of {len(range_queries)} queries needs more budget than "
                "remains"
            )

    def begin_batch(
        self,
        queries: Sequence[RangeQuery | str],
        *,
        sampling_rate: float | None = None,
        epsilon: float | None = None,
        use_smc: bool | None = None,
        compute_exact: bool = True,
        seed_tokens: Sequence[tuple[int, ...] | None] | None = None,
    ) -> "PhasedExecution":
        """Start a batch whose phases the caller drives explicitly.

        The phased counterpart of :meth:`execute_batch` — same admission,
        same protocol, bit-identical per-query answers under the same seeds
        — split so the serving layer can overlap chunks: the returned
        :class:`PhasedExecution` holds open provider sessions after the
        summary/allocation phases; :meth:`PhasedExecution.collect` runs the
        answer phase (and releases the sessions), and
        :meth:`PhasedExecution.settle` runs the combination math and
        produces the :class:`~repro.core.result.BatchResult`.  ``begin`` and
        ``collect`` must run on whatever thread owns provider state;
        ``settle`` touches no provider state and may run elsewhere while the
        next batch begins.  A begun batch that will not be collected must be
        released with :meth:`PhasedExecution.abandon` or compaction blocks
        on its sessions.
        """
        if not queries:
            raise ProtocolError("a batch must contain at least one query")
        range_queries = [self._coerce_query(query) for query in queries]
        privacy = self.config.privacy if epsilon is None else self.config.privacy.with_epsilon(epsilon)
        budget = split_query_budget(privacy)
        self._admit_batch(range_queries, budget, sampling_rate, use_smc)
        try:
            with Timer() as timer:
                phased = self.aggregator.begin_batch(
                    range_queries,
                    budget,
                    sampling_rate=sampling_rate,
                    use_smc=use_smc,
                    seed_tokens=seed_tokens,
                )
        except BaseException:
            self.aggregator.close()
            raise
        return PhasedExecution(
            system=self,
            queries=range_queries,
            phased=phased,
            compute_exact=compute_exact,
            wall_seconds=timer.elapsed,
        )

    # -- streaming ingestion -----------------------------------------------------

    def ingest(
        self, rows: Table, *, provider_index: int | None = None
    ) -> list[IngestReceipt | None]:
        """Append rows to the federation while query service keeps running.

        Parameters
        ----------
        rows:
            The appended rows (provider schema).
        provider_index:
            Send every row to one provider; by default rows are dealt
            round-robin by position across the federation (deterministic, so
            repeated runs build identical partitions).

        Returns
        -------
        list of IngestReceipt or None
            One receipt per provider that received rows (federation order).
            A receipt's ``compacted`` flag marks appends that tripped the
            :class:`~repro.config.IngestConfig` compaction thresholds.
        """
        if provider_index is not None:
            if not 0 <= provider_index < len(self.providers):
                raise ProtocolError(
                    f"provider_index must be in [0, {len(self.providers)}), "
                    f"got {provider_index}"
                )
            partitions: list[Table | None] = [None] * len(self.providers)
            partitions[provider_index] = rows
        else:
            assignment = np.arange(rows.num_rows) % len(self.providers)
            partitions = [
                rows.take(np.flatnonzero(assignment == index))
                for index in range(len(self.providers))
            ]
        return self.aggregator.ingest(partitions)

    def compact(self) -> list:
        """Explicitly fold every provider's delta buffer (empty folds no-op).

        Returns the per-provider
        :class:`~repro.ingest.compaction.CompactionReport` list.  Normally
        compaction triggers automatically through
        :class:`~repro.config.IngestConfig`; this is the manual override
        (e.g. before a planned burst of latency-sensitive traffic).
        """
        return [provider.compact() for provider in self.providers]

    @property
    def total_delta_rows(self) -> int:
        """Ingested rows still buffered (unclustered) across providers."""
        return sum(provider.delta_rows for provider in self.providers)

    def exact_baseline(self, query: RangeQuery | str) -> BaselineExecution:
        """Plain-text exact execution (the paper's "normal computation")."""
        return self.exact_baseline_batch([query])[0]

    def exact_baseline_batch(
        self, queries: Sequence[RangeQuery | str]
    ) -> list[BaselineExecution]:
        """Exact plain-text execution of a workload, vectorised per provider.

        Per-query seconds are the batch wall-clock amortised over the
        workload (exact for a batch of one).
        """
        range_queries = [self._coerce_query(query) for query in queries]
        if not range_queries:
            return []
        with Timer() as timer:
            per_provider = [
                provider.exact_answer_batch(range_queries) for provider in self.providers
            ]
        seconds = timer.elapsed / len(range_queries)
        baselines: list[BaselineExecution] = []
        for index in range(len(range_queries)):
            executions = [executions_[index] for executions_ in per_provider]
            baselines.append(
                BaselineExecution(
                    value=sum(execution.value for execution in executions),
                    seconds=seconds,
                    clusters_scanned=sum(
                        execution.clusters_scanned for execution in executions
                    ),
                    rows_scanned=sum(execution.rows_scanned for execution in executions),
                )
            )
        return baselines

    # -- bookkeeping -------------------------------------------------------------

    @property
    def num_providers(self) -> int:
        """Number of providers in the federation."""
        return len(self.providers)

    @property
    def total_rows(self) -> int:
        """Total number of stored rows across providers."""
        return sum(provider.num_rows for provider in self.providers)

    @property
    def total_clusters(self) -> int:
        """Total number of clusters across providers."""
        return sum(provider.num_clusters for provider in self.providers)

    def metadata_size_bytes(self) -> int:
        """Total metadata footprint across providers (Section 6.1)."""
        return sum(provider.metadata_size_bytes() for provider in self.providers)

    def remaining_budget(self) -> tuple[float, float] | None:
        """The end user's remaining ``(epsilon, delta)``, if a budget is set."""
        if self.end_user_budget is None:
            return None
        return (
            self.end_user_budget.remaining_epsilon,
            self.end_user_budget.remaining_delta,
        )

    def cache_stats(self) -> CacheStats:
        """Merged release-cache statistics across every provider."""
        return CacheStats.merged(provider.cache.stats for provider in self.providers)

    def transport_stats(self):
        """Real framed wire traffic of the configured transport.

        All zeros for the default in-process transport (there is no wire);
        for the loopback, socket and process carriers the counters reflect
        actual serialized frames, unlike the simulated network's cost model.
        """
        return self.aggregator.transport_stats

    def invalidate_caches(self) -> None:
        """Drop every cached release federation-wide (stats are preserved)."""
        for provider in self.providers:
            provider.cache.clear()

    def _coerce_query(self, query: RangeQuery | str) -> RangeQuery:
        if isinstance(query, RangeQuery):
            return query
        parsed, _table = parse_query(query)
        schema = self.providers[0].clustered.schema
        return parsed.clipped_to(schema)


@dataclass
class PhasedExecution:
    """An in-flight batch started by :meth:`FederatedAQPSystem.begin_batch`.

    Lifecycle: ``begin_batch`` → :meth:`collect` → :meth:`settle`, with
    :meth:`abandon` as the bail-out for a begun batch that will never be
    collected.  ``wall_seconds`` accumulates the protocol phases only (as
    :meth:`FederatedAQPSystem.execute_batch` measures them — exact
    baselines are excluded).
    """

    system: FederatedAQPSystem
    queries: list[RangeQuery]
    phased: PhasedBatch
    compute_exact: bool
    wall_seconds: float = 0.0
    exact_values: list[int | None] = field(default_factory=list)

    def collect(self) -> None:
        """Run the answer phase and release the provider sessions.

        Must run on the thread that owns provider state (the serving
        layer's dispatcher).  The exact baselines are computed here too —
        they read provider tables, which may be compacted by later work
        items once this batch is handed off to settlement.
        """
        try:
            with Timer() as timer:
                self.system.aggregator.collect_batch(self.phased)
        except BaseException:
            # Same teardown contract as execute_batch: a batch that dies
            # mid-protocol must not leak the process carrier's workers.
            self.system.aggregator.close()
            raise
        self.wall_seconds += timer.elapsed
        if self.compute_exact:
            self.exact_values = [
                baseline.value
                for baseline in self.system.exact_baseline_batch(self.queries)
            ]
        else:
            self.exact_values = [None] * len(self.queries)

    def settle(self) -> BatchResult:
        """Combine the collected answers into a :class:`BatchResult`.

        Pure aggregator math plus ledger recording — no provider state is
        read, so this may run on a different thread than :meth:`collect`
        while the dispatcher begins the next batch.
        """
        with Timer() as timer:
            answers = self.system.aggregator.settle_batch(self.phased)
        self.wall_seconds += timer.elapsed
        if self.system.end_user_budget is not None:
            # Charge only after the protocol ran to completion, and
            # unconditionally (enforce=False): the noisy releases already
            # happened — see execute_batch.
            self.system.end_user_budget.charge_spends(
                [
                    (answer.epsilon_charged, answer.delta_charged, query.to_sql())
                    for query, answer in zip(self.queries, answers)
                ],
                enforce=False,
                degraded=[answer.degraded for answer in answers],
            )
        results = tuple(
            QueryResult(
                query=query,
                value=answer.value,
                epsilon_spent=answer.epsilon_charged,
                delta_spent=answer.delta_charged,
                used_smc=answer.used_smc,
                provider_releases=answer.provider_releases,
                trace=answer.trace,
                exact_value=exact_value,
                noise_injected=answer.noise_injected,
                degraded=answer.degraded,
                providers_missing=answer.providers_missing,
                provider_diagnostics=answer.provider_diagnostics,
            )
            for query, answer, exact_value in zip(
                self.queries, answers, self.exact_values
            )
        )
        return BatchResult(results=results, wall_seconds=self.wall_seconds)

    def abandon(self) -> None:
        """Release a batch that will never be collected (idempotent)."""
        self.system.aggregator.abandon_batch(self.phased)
